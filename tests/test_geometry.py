import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmb import bounds, general
from qmb.bounds import HOLEVO_GAP_TOL, ReportOptions, batch_reports, full_report
from qmb.errors import (
    DerivativeNotTraceless,
    InvalidInput,
    NonHermitianInput,
    QmbError,
    SingularQFIM,
    SingularState,
)
from qmb.general import (
    _bloch_state,
    _gell_mann,
    _gell_mann_coordinates,
    _normal_spaces,
    compute_geometry,
    model_point,
    rld_qfim,
    rld_solve,
    sld_solve,
    t_saturation_analysis,
    tangent_normal_decomposition,
    weight_transform,
)
from qmb.geometry import (
    RANK_TOL,
    TANGENT_TOL,
    _bloch_geometry,
    _frame,
    _geometry,
    _qfim_inverse,
    _spectral_radius,
    _weight_and_root,
    _weight_frame,
    geometry_from_matrices,
    model_geometry,
    quantumness_R,
    t_measure,
    take,
    uhlmann_axial,
)
from qmb.linalg import dot, hermitian_part
from qmb.models import model_arrays, model_config

from conftest import (
    analytic_geometry,
    eigen_route,
    eigvalsh_spectral_radius,
    pure_model_vectors,
    random_antisymmetric,
    random_model,
    random_pure_model,
    random_rank_deficient_model,
    random_spd,
)


def _assert_same_message(got, want):
    """Equal messages, their numbers to 1e-12: the vector route rounds them
    in its own order."""
    number = r"np\.\w+\(([^)]*)\)"
    assert re.sub(number, "#", str(got)) == re.sub(number, "#", str(want))
    for a, b in zip(re.findall(number, str(got)), re.findall(number, str(want)), strict=True):
        assert complex(a) == pytest.approx(complex(b), abs=1e-12)


def tq_config(r0=(0.3, 0.2, 0.5), phi=0.35):
    return model_config(
        "tunable_qubit",
        r_x=r0[0], r_y=r0[1], r_z=r0[2],
        gamma=np.pi / 4, theta=np.pi / 2, phi=phi,
    )


def tq_point(r0=(0.3, 0.2, 0.5), phi=0.35, l1=0.525, l2=0.0):
    return model_point(tq_config(r0, phi), (l1, l2))


def random_valid_geometry(rng, d, max_r=0.95):
    """Synthetic (Q, U) from a Gram matrix, so that Q + iU is PSD."""
    a = rng.normal(size=(d, 2 * d)) + 1j * rng.normal(size=(d, 2 * d))
    gram = a @ a.conj().T
    q = gram.real + 0.2 * np.eye(d)
    u = gram.imag * max_r
    return geometry_from_matrices(q, u)


class TestComputeGeometry:
    def test_matches_analytic_special_angles(self):
        pt = tq_point()
        g = compute_geometry(pt.rho, pt.derivs)
        qa, ua = analytic_geometry(tq_config(), pt.params)
        assert np.max(np.abs(g.qfim - qa)) <= 1e-8
        assert np.max(np.abs(g.uhlmann - ua)) <= 1e-8
        assert g.tangent_dim == 2

    def test_single_parameter(self):
        pt = tq_point()
        g = compute_geometry(pt.rho, pt.derivs[:1])
        assert g.uhlmann.shape == (1, 1)
        assert g.uhlmann[0, 0] == 0.0

    def test_tangent_collapse(self):
        # r_y sin(xi) = r_x cos(xi) makes the two SLDs linearly dependent
        r0 = (0.3, 0.2, 0.5)
        xi = np.arctan2(r0[0], r0[1])
        phi = 0.2
        pt = tq_point(r0, phi=phi, l1=(xi + phi) / 2)
        g = compute_geometry(pt.rho, pt.derivs)
        assert g.tangent_dim == 1

    def test_basic_invariants(self, rng):
        for n, d in ((2, 2), (3, 3)):
            rho, derivs = random_model(rng, n, d)
            g = compute_geometry(rho, derivs)
            assert np.max(np.abs(g.qfim - g.qfim.T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(g.qfim)) >= -1e-10
            assert np.max(np.abs(g.uhlmann + g.uhlmann.T)) <= 1e-10
            assert np.max(np.abs(np.diag(g.uhlmann))) == 0.0

    @pytest.mark.parametrize("make", [random_model, random_pure_model])
    def test_slds_equal_single_solves(self, rng, make):
        # one eigensystem of rho serves every derivative, with the same result
        for n, d in ((2, 2), (3, 3), (4, 3)):
            for _ in range(10):
                rho, derivs = make(rng, n, d)
                g = compute_geometry(rho, derivs)
                for sld, dr in zip(g.slds, derivs):
                    assert np.array_equal(sld, sld_solve(rho, dr))

    def test_rejects_invalid_state_and_derivatives(self, rng):
        rho, derivs = random_model(rng, 3, 2)
        with pytest.raises(NonHermitianInput, match="trace"):
            compute_geometry(2.0 * rho, derivs)
        with pytest.raises(NonHermitianInput, match="negative eigenvalue"):
            compute_geometry(np.diag([1.2, -0.1, -0.1]), derivs)
        with pytest.raises(NonHermitianInput, match="drho is not Hermitian"):
            compute_geometry(rho, [derivs[0], derivs[1] + 0.1j * np.eye(3)])
        with pytest.raises(DerivativeNotTraceless):
            compute_geometry(rho, [derivs[0], derivs[1] + 0.1 * np.eye(3)])

    @pytest.mark.parametrize("route", ["pure_qubit", "pure_qutrit"])
    def test_model_geometry_validates_as_compute_geometry(self, rng, route):
        # each route raises what compute_geometry raises, first failing row
        # first.  A pure state given as vectors is checked in that form,
        # where a non-Hermitian drho or a negative eigenvalue cannot arise
        n = 3 if route == "pure_qutrit" else 2
        rho, derivs = random_pure_model(rng, n, 2)
        rho, derivs = np.stack([rho, rho]), np.stack([np.stack(derivs)] * 2)

        def second(batch, row):  # the batch with its second row replaced
            return np.stack([batch[0], row])

        bad = {  # a derivative with a trace is d(psi + 0.05 t psi)/dt's
            "trace": (second(rho, 4.0 * rho[1]), derivs),
            "Tr drho": (rho, second(derivs, derivs[1] + 0.1 * rho[1])),
        }
        for match, (states, ds) in bad.items():
            with pytest.raises(Exception, match=match) as want:
                compute_geometry(states, ds)
            psi, ells = pure_model_vectors(rho, derivs)
            if match == "trace":
                psi = second(psi, 2.0 * psi[1])
            else:
                ells = second(ells, ells[1] + 0.2 * psi[1])
            with pytest.raises(type(want.value), match=match) as got:
                model_geometry(None, None, (psi, ells), None)
            _assert_same_message(got.value, want.value)

    def test_bloch_route_validates_as_compute_geometry(self, rng):
        # a qubit given as (r, d r) is checked in that form: a non-finite r
        # or d r and |r| > 1 raise what compute_geometry raises on the
        # matching rho = (I + r.sigma) / 2 and d_k rho = d_k r.sigma / 2, the
        # state's checks before the derivatives', first failing row first.
        # A wrong trace, a non-Hermitian drho or a traced one cannot arise.
        # d r is tangent, r.d_k r = 0, as the route requires
        r = rng.normal(size=(2, 3))
        r *= 0.6 / np.linalg.norm(r, axis=-1, keepdims=True)
        dr = np.cross(r[:, None, :], rng.normal(size=(2, 2, 3)))
        long = r / 0.6  # |r| = 1 before scaling

        def second(batch, row):  # the batch with its second row replaced
            return np.stack([batch[0], row])

        cases = {
            "nan r": (second(r, [np.nan, 0.1, 0.2]), dr),
            "inf r": (second(r, [0.1, np.inf, 0.2]), dr),
            "|r| > 1": (second(r, 1.5 * long[1]), dr),
            "nan d r": (r, second(dr, [[0.1, 0.2, 0.3], [0.4, np.nan, 0.6]])),
            "inf d r": (r, second(dr, [[0.1, 0.2, -np.inf], [0.4, 0.5, 0.6]])),
            "state before derivative": (second(r, 1.2 * long[1]),
                                        second(dr, np.full((2, 3), np.nan))),
            "first row first": (np.stack([1.2 * long[0], 1.5 * long[1]]), dr),
            "no derivative": (r, np.zeros((2, 0, 3))),
        }
        for case, (states, ds) in cases.items():
            with np.errstate(invalid="ignore"):  # inf * 0 in the Pauli sums
                rho, derivs = _bloch_state(states, ds)
            with pytest.raises(QmbError) as want:
                compute_geometry(rho, derivs)
            with pytest.raises(type(want.value)) as got:
                model_geometry(None, None, None, (states, ds))
            assert str(got.value) == str(want.value), case

    @pytest.mark.parametrize("model_id, constants", [
        ("su2_qutrit", dict(alpha=0.7, beta=0.2, t=1.0)),
        ("su2_qubit", dict(alpha=0.7, beta=0.2, t=1.0)),
        ("tunable_qubit", dict(alpha=0.7, beta=0.2, gamma=0.7, theta=1.2, phi=0.1)),
        ("tunable_qubit", dict(r_x=0.3, r_y=0.2, r_z=0.4, gamma=0.7, theta=1.2, phi=0.1)),
    ])
    def test_vector_and_bloch_routes_carry_no_slds(self, rng, model_id, constants):
        # only compute_geometry and geometry_from_matrices hold SLD
        # operators; psi or r marks the route, psi in the shape the model
        # gave it, with the spectrum in the rows' shape
        cfg = model_config(model_id, **constants)
        arrays = model_arrays(cfg, rng.uniform(0.1, 1.0, size=(4, cfg.n_params)))
        g = model_geometry(*arrays)
        assert g.slds == ()
        assert (g.psi is None) == (arrays.pure is None) and (g.r is None) == (arrays.bloch is None)
        if arrays.pure is not None:
            assert g.psi.shape == arrays.pure[0].shape
        assert g.rho_spectrum.shape == (4, 3 if model_id == "su2_qutrit" else 2)

    def test_decomposes_rho_and_q_once_each(self, rng, monkeypatch):
        # validation, the SLDs, the tangent rank and the inverses of Q all
        # read one eigh of rho and one eigh of Q, whose det Q no structure
        # gives; R is closed form for d <= 3 and takes its own spectrum above
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def counted(*a, _fn=fn, _name=name, **k):
                calls.append(_name)
                return _fn(*a, **k)

            monkeypatch.setattr(np.linalg, name, counted)
        for d, expected in ((2, ["eigh", "eigh"]), (4, ["eigh", "eigh", "eigvalsh"])):
            calls.clear()
            rho, derivs = random_model(rng, 3, d)
            g = compute_geometry(rho, derivs)
            quantumness_R(g)
            assert calls == expected, d
            assert _qfim_inverse(g)[0] is _qfim_inverse(g, pseudo_inverse=True)[0]


class TestRldQfim:
    def test_classical_family_reduces_to_qfim(self, rng):
        p = np.array([0.5, 0.3, 0.2])
        rho = np.diag(p).astype(complex)
        derivs = []
        for _ in range(2):
            v = rng.normal(size=3)
            v -= v.mean()
            derivs.append(np.diag(v).astype(complex))
        j = rld_qfim(rho, derivs)
        g = compute_geometry(rho, derivs)
        assert np.max(np.abs(j.imag)) <= 1e-10
        assert np.max(np.abs(j.real - g.qfim)) <= 1e-8

    def test_mixed_point_structure(self):
        r0 = np.array([0.3, 0.2, 0.5])
        r0 *= 0.7 / np.linalg.norm(r0)
        pt = tq_point(tuple(r0))
        j = rld_qfim(pt.rho, pt.derivs)
        assert np.max(np.abs(j - j.conj().T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(j)) >= -1e-8
        assert np.max(np.abs(j.imag + j.imag.T)) <= 1e-10

    def test_pure_state_rejected(self):
        cfg = model_config(
            "tunable_qubit", alpha=0.7, beta=0.1, gamma=np.pi / 4, theta=np.pi / 2, phi=0.0
        )
        pt = model_point(cfg, (0.2, 0.0))
        with pytest.raises(SingularState):
            rld_qfim(pt.rho, pt.derivs)

    def test_matches_per_derivative_solves(self, rng):
        # one spectrum and one factorization of rho serve every derivative
        for n, d in ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3)):
            for _ in range(5):
                rho, derivs = random_model(rng, n, d)
                ls = [rld_solve(rho, dr) for dr in derivs]
                want = np.array([[np.trace(rho @ la @ lb.conj().T) for lb in ls] for la in ls])
                got = rld_qfim(rho, derivs)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rank_deficient_states_rejected(self, rng):
        for rho, derivs in (
            random_pure_model(rng, 2, 2),
            random_pure_model(rng, 3, 3),
            random_rank_deficient_model(rng, 3, 2, 2),
            random_rank_deficient_model(rng, 4, 3, 3),
        ):
            with pytest.raises(SingularState):
                rld_qfim(rho, derivs)

    def test_one_decomposition_per_call(self, rng, monkeypatch):
        rho, derivs = random_model(rng, 3, 3)
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
            )
        rld_qfim(rho, derivs)
        assert calls == ["eigvalsh"]


class TestQuantumness:
    def test_hand_example(self):
        g = geometry_from_matrices(np.diag([4.0, 2.0]), [[0.0, 1.0], [-1.0, 0.0]])
        assert quantumness_R(g) == pytest.approx(1 / np.sqrt(8), abs=1e-12)

    def test_zero_curvature(self):
        g = geometry_from_matrices(np.diag([4.0, 2.0]), np.zeros((2, 2)))
        assert quantumness_R(g) == 0.0

    def test_mixed_qubit_equals_purity(self, rng):
        for _ in range(10):
            r0 = rng.normal(size=3)
            r0 *= rng.uniform(0.3, 0.95) / np.linalg.norm(r0)
            pt = tq_point(tuple(r0), phi=rng.uniform(0, 2 * np.pi), l1=rng.uniform(-1, 1))
            g = compute_geometry(pt.rho, pt.derivs)
            if np.linalg.cond(g.qfim) > 1e5:
                continue
            assert quantumness_R(g) == pytest.approx(np.linalg.norm(r0), abs=1e-9)

    def test_left_right_spellings_agree(self, rng):
        for d in (2, 3, 4):
            g = random_valid_geometry(rng, d)
            qinv = np.linalg.inv(g.qfim)
            left = np.max(np.abs(np.linalg.eigvals(1j * qinv @ g.uhlmann)))
            right = np.max(np.abs(np.linalg.eigvals(1j * g.uhlmann @ qinv)))
            assert left == pytest.approx(right, abs=1e-10)
            assert quantumness_R(g) == pytest.approx(left, abs=1e-9)

    def test_singular_qfim_raises(self):
        g = geometry_from_matrices(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(SingularQFIM):
            quantumness_R(g)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]),
    )
    def test_determinant_closed_forms(self, seed, shape):
        # R = sqrt(det U / det Q) for d = 2 and sqrt(u^T Q u / det Q) for
        # d = 3, with u the axial vector of U, wherever Q is conditioned
        # well enough for determinants to carry 1e-9 accuracy
        n, d = shape
        rho, derivs = random_model(np.random.default_rng(seed), n, d)
        g = compute_geometry(rho, derivs)
        assume(np.linalg.cond(g.qfim) < 1e6)
        q, u = g.qfim, g.uhlmann
        if d == 2:
            closed = np.sqrt(max(np.linalg.det(u), 0.0) / np.linalg.det(q))
        else:
            ax = uhlmann_axial(u)
            closed = np.sqrt(max(ax @ q @ ax, 0.0) / np.linalg.det(q))
        r = quantumness_R(g)
        assert abs(r - closed) <= 1e-9 * max(1.0, r)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_closed_form_matches_eigvalsh(self, rng, d):
        # one stack: full-rank Q, an ill-conditioned Q whose pseudo-inverse
        # drops an eigenvalue (d >= 2), a singular PSD Q and the zero Q
        spectra = [rng.uniform(0.1, 3.0, d) for _ in range(4)]
        if d >= 2:
            spectra += [np.r_[1e-14, rng.uniform(0.5, 2.0, d - 1)],
                        np.r_[0.0, rng.uniform(0.5, 2.0, d - 1)]]
        spectra.append(np.zeros(d))
        qs = []
        for w in spectra:
            v = np.linalg.qr(rng.normal(size=(d, d)))[0]
            qs.append((v * w) @ v.T)
        q = np.array(qs)
        u = np.array([random_antisymmetric(rng, d) for _ in qs])
        g = _geometry(0.5 * (q + q.swapaxes(-1, -2)), u, ())
        got, want = _spectral_radius(g), eigvalsh_spectral_radius(g)
        ill = g._qfim_inverses[2]
        # for d = 2, |U_12| sqrt(det Q^-1) is exactly 0 where the
        # pseudo-inverse drops an eigenvalue; the oracle rounds to ~1e-17
        regular = ~ill if d == 2 else slice(None)
        assert np.all(np.abs(got - want)[regular] <= 1e-14 * want[regular])
        if d == 2:
            assert np.all(got[ill] == 0.0)
        assert got[-1] == 0.0
        if d >= 2:
            assert ill[-3:].all()  # the pseudo-inverse rows


class TestWeightRoot:
    def test_one_eigh_per_weight(self, rng, monkeypatch):
        # definiteness is read from the decomposition the root needs: one
        # eigh for a 3x3 weight, and one for a stack of 2x2 weights
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
        for w, expected in ((random_spd(rng, 3), ["eigh"]),
                            (np.array([random_spd(rng, 2) for _ in range(5)]), ["eigh"])):
            calls.clear()
            w_mat, root = _weight_and_root(w, w.shape[-1])
            assert calls == expected
            assert np.allclose(root @ root, w_mat, rtol=0, atol=1e-12 * np.max(np.abs(w)))
        with pytest.raises(ValueError, match="^weight matrix must be positive definite$"):
            _weight_and_root(np.array([np.eye(2), np.diag([1.0, 1e-13])]), 2)
        with pytest.raises(ValueError, match="^weight matrix must be symmetric$"):
            _weight_and_root(np.array([np.diag([1.0, -1.0]), [[1.0, 0.5], [0.0, 1.0]]]), 2)


class TestTMeasure:
    def test_hand_example(self):
        g = geometry_from_matrices(np.diag([4.0, 2.0]), [[0.0, 1.0], [-1.0, 0.0]])
        assert t_measure(g, np.eye(2)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_curvature(self, rng):
        g = geometry_from_matrices(random_spd(rng, 3), np.zeros((3, 3)))
        assert t_measure(g, random_spd(rng, 3)) == 0.0

    def test_qfim_weight_saturates(self, rng):
        for _ in range(10):
            g = random_valid_geometry(rng, 2)
            if abs(np.linalg.det(g.uhlmann)) < 1e-6:
                continue
            w = g.qfim / g.qfim[0, 0]
            assert t_measure(g, w) == pytest.approx(quantumness_R(g), abs=1e-9)

    def test_diagonal_closed_form_two_params(self, rng):
        for _ in range(20):
            g = random_valid_geometry(rng, 2)
            omega = rng.uniform(0.1, 5.0)
            w = np.diag([1.0, omega])
            det_u = np.linalg.det(g.uhlmann)
            expected = 2 * np.sqrt(omega * det_u) / (g.qfim[1, 1] + omega * g.qfim[0, 0])
            assert t_measure(g, w) == pytest.approx(expected, abs=1e-9)

    def test_offdiagonal_closed_form_two_params(self, rng):
        for _ in range(20):
            g = random_valid_geometry(rng, 2)
            w1 = rng.uniform(-0.4, 0.4)
            w2 = rng.uniform(w1 * w1 + 0.1, w1 * w1 + 3.0)
            w = np.array([[1.0, w1], [w1, w2]])
            det_u = np.linalg.det(g.uhlmann)
            q = g.qfim
            expected = (
                2 * np.sqrt((w2 - w1 * w1) * det_u)
                / (q[1, 1] + w2 * q[0, 0] - 2 * w1 * q[0, 1])
            )
            assert t_measure(g, w) == pytest.approx(expected, abs=1e-9)

    def test_diagonal_closed_form_three_params(self, rng):
        # trace-norm part equals 2 sqrt(u^T Q W3 Q u) / det(Q) with
        # W3 = diag(w1 w2, w2, w1); T divides by Tr[W Q^-1]
        for _ in range(20):
            g = random_valid_geometry(rng, 3)
            w1, w2 = rng.uniform(0.2, 4.0, size=2)
            w = np.diag([1.0, w1, w2])
            u_vec = np.array([g.uhlmann[1, 2], -g.uhlmann[0, 2], g.uhlmann[0, 1]])
            w3 = np.diag([w1 * w2, w2, w1])
            numer = 2 * np.sqrt(u_vec @ g.qfim @ w3 @ g.qfim @ u_vec) / np.linalg.det(g.qfim)
            expected = numer / np.trace(w @ np.linalg.inv(g.qfim))
            assert t_measure(g, w) == pytest.approx(expected, rel=1e-9)

    def test_bounded_by_quantumness(self, rng):
        for d in (2, 3, 4):
            for _ in range(15):
                g = random_valid_geometry(rng, d)
                w = random_spd(rng, d)
                t = t_measure(g, w)
                r = quantumness_R(g)
                assert 0.0 <= t <= r + 1e-9


class TestSaturationAnalysis:
    def test_identity_weight_block_case(self):
        g = geometry_from_matrices(np.eye(2), [[0.0, 0.4], [-0.4, 0.0]])
        report = t_saturation_analysis(g, np.eye(2))
        assert report.t_equals_r
        assert report.t_value == pytest.approx(0.4, abs=1e-12)
        assert report.r_value == pytest.approx(0.4, abs=1e-12)

    def test_odd_dimension_diagonal_strictly_below(self, rng):
        q = np.diag([1.0, 2.0, 3.0])
        u = random_antisymmetric(rng, 3)
        g = geometry_from_matrices(q, 0.3 * u)
        report = t_saturation_analysis(g, np.diag([1.0, 1.0, 2.0]))
        assert report.odd_diagonal_requires_zero_u
        assert not report.t_equals_r
        assert report.t_value < report.r_value

    def test_two_param_maximizer(self):
        g = geometry_from_matrices(np.diag([4.0, 2.0]), [[0.0, 0.9], [-0.9, 0.0]])
        report = t_saturation_analysis(g, np.diag([1.0, 2.0]))
        assert report.maximizing_diagonal_omega == pytest.approx(0.5, abs=1e-12)
        t_at_best = t_measure(g, np.diag([1.0, 0.5]))
        assert t_at_best == pytest.approx(report.r_value, abs=1e-9)
        assert report.saturating_omegas == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_rank_bound(self, rng):
        for _ in range(10):
            g = random_valid_geometry(rng, 4)
            report = t_saturation_analysis(g, random_spd(rng, 4))
            assert report.rank_bound_ok


class TestWeightTransform:
    def test_identity(self, rng):
        g = random_valid_geometry(rng, 3)
        wt = weight_transform(g, np.eye(3))
        assert np.allclose(wt.rotation, np.eye(3))
        assert np.allclose(wt.diagonal_weight, np.eye(3))
        assert wt.rotated is g

    def test_diagonal_passthrough(self, rng):
        g = random_valid_geometry(rng, 2)
        w = np.diag([2.0, 0.5])
        wt = weight_transform(g, w)
        assert np.allclose(wt.rotation, np.eye(2))
        assert np.allclose(wt.diagonal_weight, w)

    def test_invariance_random_spd(self, rng):
        for _ in range(15):
            g = random_valid_geometry(rng, 3)
            w = random_spd(rng, 3)
            wt = weight_transform(g, w)
            p = wt.rotation
            assert np.max(np.abs(p.T @ p - np.eye(3))) <= 1e-10
            assert np.max(np.abs(p.T @ wt.diagonal_weight @ p - w)) <= 1e-9
            t_orig = t_measure(g, w)
            t_rot = t_measure(wt.rotated, wt.diagonal_weight)
            assert t_rot == pytest.approx(t_orig, abs=1e-10)

    def test_rotated_vector_rows_keep_structural_r(self, rng):
        # R = 1 of a pure qutrit given as vectors is read from the route, which
        # the rotation keeps with the state's spectrum
        cfg = model_config("su2_qutrit", alpha=0.7, beta=0.2, t=1.0)
        g = model_geometry(*model_arrays(cfg, np.array([1.0, 0.3, 0.2])))
        wt = weight_transform(g, random_spd(rng, 3))
        assert wt.rotated.psi is g.psi and wt.rotated.rho_spectrum is g.rho_spectrum
        assert quantumness_R(wt.rotated) == quantumness_R(g) == 1.0

    def test_rotated_bloch_rows_keep_structural_c_h(self, rng):
        # a unitarily encoded qubit stays one under a rotation of its parameters,
        # so its C_H = C_T is still read from the structure, with no solve
        cfg = model_config("tunable_qubit", r_x=0.3, r_y=0.2, r_z=0.5, gamma=np.pi / 4,
                           theta=np.pi / 2, phi=0.35)
        g = model_geometry(*model_arrays(cfg, np.array([0.525, 0.1])))
        wt = weight_transform(g, random_spd(rng, 2))
        assert wt.rotated.r is g.r
        report = full_report(model_point(cfg, (0.525, 0.1)), wt.diagonal_weight,
                             ReportOptions(compute_rld=False), wt.rotated)
        assert report.holevo.iterations == 0 and report.c_h == report.c_t

    def test_rotation_equivariance_property(self, rng):
        # T[P^T D P, Q, U] = T[D, P Q P^T, P U P^T] for any orthogonal P
        for _ in range(10):
            g = random_valid_geometry(rng, 3)
            p, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            d = np.diag(rng.uniform(0.2, 3.0, size=3))
            w = p.T @ d @ p
            g_rot = geometry_from_matrices(p @ g.qfim @ p.T, p @ g.uhlmann @ p.T)
            assert t_measure(g, w) == pytest.approx(t_measure(g_rot, d), abs=1e-10)


class TestNormalSpace:
    def test_mixed_qubit_single_direction(self):
        pt = tq_point()
        g = compute_geometry(pt.rho, pt.derivs)
        basis = tangent_normal_decomposition(pt.rho, g)
        assert basis.size == 1

    def test_pure_qubit_empty(self):
        cfg = model_config(
            "tunable_qubit", alpha=0.9, beta=0.2, gamma=np.pi / 4, theta=np.pi / 2, phi=0.3
        )
        pt = model_point(cfg, (0.4, 0.0))
        g = compute_geometry(pt.rho, pt.derivs)
        basis = tangent_normal_decomposition(pt.rho, g)
        assert basis.size == 0

    def test_qutrit_anchor_structure(self):
        cfg = model_config("su2_qutrit", alpha=np.pi / 4, beta=0.0, t=1.0)
        pt = model_point(cfg, (np.pi, 0.0, 0.0))
        g = compute_geometry(pt.rho, pt.derivs)
        basis = tangent_normal_decomposition(pt.rho, g)
        assert g.tangent_dim == 3
        assert basis.size == 1
        assert np.linalg.matrix_rank(basis.gram.real, tol=1e-9) == basis.size
        # the only surviving coupling is to the third parameter direction
        assert np.abs(basis.coupling[2, 0]) == pytest.approx(2 * np.sqrt(2), abs=1e-8)
        assert np.max(np.abs(basis.coupling[:2, 0])) <= 1e-8

    def test_invariants_random_models(self, rng):
        for n, d in ((2, 2), (3, 2), (3, 3)):
            rho, derivs = random_model(rng, n, d)
            g = compute_geometry(rho, derivs)
            basis = tangent_normal_decomposition(rho, g)
            assert basis.size == n * n - 1 - g.tangent_dim
            for op in basis.ops:
                assert abs(np.trace(rho @ op)) <= 1e-10
                for dr in derivs:
                    assert abs(np.trace(dr @ op)) <= 1e-8
            if basis.size:
                assert np.max(np.abs(basis.gram.real - np.eye(basis.size))) <= 1e-8
            l_gram = np.array([[np.trace(rho @ la @ lb) for lb in g.slds] for la in g.slds])
            assert np.max(np.abs(l_gram.real - g.qfim)) <= 1e-8
            assert np.max(np.abs(l_gram.imag - g.uhlmann)) <= 1e-8

    def test_local_unbiasedness_reconstruction(self, rng):
        rho, derivs = random_model(rng, 3, 2)
        g = compute_geometry(rho, derivs)
        basis = tangent_normal_decomposition(rho, g)
        qinv = np.linalg.inv(g.qfim)
        k = rng.normal(size=(basis.size, 2))
        for mu in range(2):
            x = sum(g.slds[i] * qinv[i, mu] for i in range(2))
            x = x + sum(basis.ops[j] * k[j, mu] for j in range(basis.size))
            for nu in range(2):
                overlap = np.real(np.trace(derivs[nu] @ x))
                assert overlap == pytest.approx(1.0 if mu == nu else 0.0, abs=1e-8)

    def test_rejects_geometry_without_slds(self):
        pt = tq_point()
        g = compute_geometry(pt.rho, pt.derivs)
        bare = geometry_from_matrices(g.qfim, g.uhlmann)
        with pytest.raises(ValueError, match="must carry SLD operators"):
            tangent_normal_decomposition(pt.rho, bare)

    def test_singular_qfim_policy(self):
        pt = tq_point(l1=(np.arctan2(0.3, 0.2) + 0.35) / 2)
        g = compute_geometry(pt.rho, pt.derivs)
        with pytest.raises(SingularQFIM):
            tangent_normal_decomposition(pt.rho, g)
        basis = tangent_normal_decomposition(pt.rho, g, pseudo_inverse=True)
        assert basis.size >= 1


def _loop_gell_mann_basis(n):
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            basis.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        for k in range(l):
            m[k, k] = 1.0
        m[l, l] = -float(l)
        basis.append(m * np.sqrt(2.0 / (l * (l + 1))))
    return basis


def _loop_normal_space(rho, g, tol=RANK_TOL):
    """Operator-level oracle for the normal space: Gell-Mann candidates
    shifted to Tr[rho X] = 0, Gram-Schmidt against the SLD frame, and every
    inner product an explicit trace.  Returns (ops, gram, coupling)."""
    rho = np.asarray(rho, dtype=complex)
    n, d = rho.shape[0], g.n_params

    def pairing(a, b):
        return float(np.real(np.trace(rho @ (a @ b + b @ a)))) / 2.0

    tg = np.array([[pairing(a, b) for b in g.slds] for a in g.slds])
    tw, tv = np.linalg.eigh(tg)
    tangent_frame = []
    for k in range(d):
        if tw[k] > tol * max(tw[-1], 0.0) and tw[k] > 0:
            vec = sum(tv[nu, k] * g.slds[nu] for nu in range(d))
            tangent_frame.append(vec / np.sqrt(tw[k]))
    candidates = []
    raw_scale = 0.0
    for gm in _loop_gell_mann_basis(n):
        x = gm - np.real(np.trace(rho @ gm)) * np.eye(n)
        raw_scale = max(raw_scale, pairing(x, x))
        for frame_op in tangent_frame:
            x = x - pairing(frame_op, x) * frame_op
        candidates.append(x)
    gram = np.array([[pairing(a, b) for b in candidates] for a in candidates])
    w, v = np.linalg.eigh(gram)
    ops = []
    for k in range(len(candidates) - 1, -1, -1):
        if raw_scale <= 0 or w[k] <= tol * raw_scale:
            break
        col = v[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0:
            col = -col
        op = sum(col[a] * candidates[a] for a in range(len(candidates)))
        ops.append(hermitian_part(op / np.sqrt(w[k])))
    m = len(ops)
    p_gram = np.array([[np.trace(rho @ ops[i] @ ops[j]) for j in range(m)] for i in range(m)])
    coupling = np.array(
        [[np.imag(np.trace(rho @ g.slds[i] @ ops[j])) for j in range(m)] for i in range(d)]
    ).reshape(d, m)
    return ops, 0.5 * (p_gram + p_gram.conj().T).reshape(m, m), coupling


def _assert_matches_oracle(rho, g, exact, pseudo_inverse=False):
    """The coefficient-form basis against the loop oracle at 1e-12.

    The basis is unique up to signs (fixed by the same rule) only where the
    projected Gram eigenvalues are distinct.  For pure states they are all
    equal, and then any orthonormal basis of the same span is right: the
    bases are compared through the orthogonal matrix O relating them,
    which ``exact`` requires to be the identity.
    """
    basis = tangent_normal_decomposition(rho, g, pseudo_inverse=pseudo_inverse)
    ops, gram, coupling = _loop_normal_space(rho, g)
    m = len(ops)
    assert basis.size == m
    assert basis.gram.shape == (m, m) and basis.coupling.shape == (g.n_params, m)
    if m == 0:
        return
    o = np.array([[np.real(np.trace(rho @ a @ b)) for b in basis.ops] for a in ops])
    assert np.max(np.abs(o.T @ o - np.eye(m))) <= 1e-12
    if exact:
        assert np.max(np.abs(o - np.eye(m))) <= 1e-12
    rotated = np.einsum("ij,ikl->jkl", o, np.array(ops))
    assert np.max(np.abs(np.array(basis.ops) - rotated)) <= 1e-12
    assert np.max(np.abs(basis.gram - o.T @ gram @ o)) <= 1e-12
    assert np.max(np.abs(basis.coupling - coupling @ o)) <= 1e-12


class TestNormalSpaceOracle:
    def test_gell_mann_basis(self):
        for n in (2, 3, 4, 5):
            basis, traces, products = _gell_mann(n)
            assert _gell_mann(n)[0] is basis
            assert not (basis.flags.writeable or traces.flags.writeable or products.flags.writeable)
            assert np.array_equal(basis, np.array(_loop_gell_mann_basis(n)))
            hs = np.einsum("aij,bji->ab", basis, basis)
            assert np.max(np.abs(hs - 2.0 * np.eye(n * n - 1))) <= 1e-14

    @pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_full_rank(self, rng, n, d):
        for _ in range(5):
            rho, derivs = random_model(rng, n, d)
            _assert_matches_oracle(rho, compute_geometry(rho, derivs), exact=True)

    @pytest.mark.parametrize("n, d, rank", [(3, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 2), (4, 3, 3)])
    def test_rank_deficient_mixed(self, rng, n, d, rank):
        for _ in range(5):
            rho, derivs = random_rank_deficient_model(rng, n, d, rank)
            _assert_matches_oracle(rho, compute_geometry(rho, derivs), exact=False)

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_pure(self, rng, n, d):
        for _ in range(5):
            rho, derivs = random_pure_model(rng, n, d)
            _assert_matches_oracle(rho, compute_geometry(rho, derivs), exact=False)

    def test_presets_exact(self):
        cfg = model_config("su2_qutrit", alpha=np.pi / 4, beta=0.0, t=1.0)
        for pt in (model_point(cfg, (np.pi + 0.3, 0.2, 0.0)), tq_point()):
            _assert_matches_oracle(pt.rho, compute_geometry(pt.rho, pt.derivs), exact=True)

    def test_collapsed_tangent_space(self):
        # the two SLDs are (nearly) linearly dependent, with a QFIM
        # eigenvalue of 0 or about 1e-14: the tangent frame keeps one
        for step in (0.0, 1e-7):
            pt = tq_point(l1=(np.arctan2(0.3, 0.2) + 0.35) / 2 + step)
            g = compute_geometry(pt.rho, pt.derivs)
            assert g.tangent_dim == 1
            _assert_matches_oracle(pt.rho, g, exact=True, pseudo_inverse=True)


_MAKERS = {
    "full_rank": lambda rng, n, d: random_model(rng, n, d, min_eig=0.01),
    "pure": random_pure_model,
    "rank_deficient": lambda rng, n, d: random_rank_deficient_model(rng, n, d, n - 1),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    d=st.integers(1, 3),
    kind=st.sampled_from(sorted(_MAKERS)),
)
def test_normal_space_properties(seed, n, d, kind):
    rho, derivs = _MAKERS[kind](np.random.default_rng(seed), n, d)
    g = compute_geometry(rho, derivs)
    assume(g.tangent_dim == d and np.linalg.cond(g.qfim) < 1e8)
    basis = tangent_normal_decomposition(rho, g)
    m = basis.size
    assert basis.coupling.shape == (d, m)
    assert np.max(np.abs(basis.gram - basis.gram.conj().T), initial=0.0) == 0.0
    assert np.max(np.abs(basis.gram.real - np.eye(m)), initial=0.0) <= 1e-9
    assert np.min(np.linalg.eigvalsh(basis.gram), initial=0.0) >= -1e-9
    scale = max(1.0, float(np.max(np.abs(g.qfim))))
    for op in basis.ops:
        assert np.array_equal(op, op.conj().T)
        for sld in g.slds:
            assert abs(np.real(np.trace(rho @ sld @ op))) <= 1e-9 * scale


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), d=st.integers(1, 6))
# cond(Q) = 1.57e7: the routes' C_T differ by 1.8e-9 relative, the vector
# route's 1.35e-10 and the matrix route's 1.95e-9 from a 40-digit value
@example(seed=241095, n=4, d=6)
@example(seed=45, n=4, d=5)  # one normal direction, outside the structural shapes
def test_vector_normal_space_matches_gell_mann_route(seed, n, d):
    # random pure states with d <= 2(n - 1), as vectors and as
    # rho = psi psi^dag with L = 2 d rho: Q and U agree, and the Gell-Mann
    # route on rho has 2(n - 1) - d normal directions.  Where the vectors
    # read C_H from Q and U (d = 2(n - 1), or n = d = 3) the Holevo values
    # agree within HOLEVO_GAP_TOL and the rounding eps cond(Q) of either
    # route; vectors of any other shape refuse C_H, and still give R and T.
    # The matrices' Gell-Mann route converges on every shape
    assume(d <= 2 * (n - 1))
    rng = np.random.default_rng(seed)
    rho, derivs = random_pure_model(rng, n, d)
    psi, ells = pure_model_vectors(rho, np.stack(derivs))
    want_g = compute_geometry(rho[None], np.stack(derivs)[None])
    got_g = model_geometry(None, None, (psi[None], ells[None]), None)
    assume(not want_g._qfim_inverses[2][0] and np.linalg.cond(want_g.qfim[0]) < 1e8)
    scale = np.max(np.abs(want_g.qfim))
    for name in ("qfim", "uhlmann"):
        np.testing.assert_allclose(getattr(got_g, name), getattr(want_g, name), rtol=0,
                                   atol=1e-13 * scale)
    ((_, want),) = _normal_spaces(*_gell_mann_coordinates(rho[None], want_g.slds),
                                  want_g._qfim_inverses[4])
    assert take(want, 0).size == 2 * (n - 1) - d
    w_mat, sqrt_w = _weight_and_root(random_spd(rng, d)[None], d)
    opts = ReportOptions(compute_rld=False)
    want_c = batch_reports(rho[None], np.stack(derivs)[None], want_g, w_mat, sqrt_w, opts)
    assert not want_c["not_converged"][0]
    if d != 2 * (n - 1) and not n == d == 3:
        with pytest.raises(InvalidInput, match=f"n = {n} levels and d = {d} parameters"):
            batch_reports(None, None, got_g, w_mat, sqrt_w, opts)
        cols = batch_reports(None, None, got_g, w_mat, sqrt_w,
                             ReportOptions(compute_rld=False, compute_holevo=False))
        assert np.isfinite(cols["R"]).all() and np.isfinite(cols["T"]).all()
        return
    got_c = batch_reports(None, None, got_g, w_mat, sqrt_w, opts)
    assert not got_c["not_converged"][0]
    rel = HOLEVO_GAP_TOL + np.finfo(float).eps * np.linalg.cond(want_g.qfim[0])
    assert got_c["c_h"][0] == pytest.approx(want_c["c_h"][0], rel=rel)


def _pure_vectors_with_spectrum(rng, spectra):
    """Pure states with as many levels as parameters d, 2 or 3, whose Q has
    the given eigenvalues, one row per spectrum: psi (B, d) and l_k (B, d, d)
    built from d orthonormal real-form directions orthogonal to psi and
    i psi (u_1, i u_1 and for d = 3 u_2), scaled by sqrt(lambda) and turned
    by a random rotation.  A qubit's tangent space then fills the pure
    states' directions (m = 0); a qutrit keeps one normal direction (m = 1)."""
    psis, ells = [], []
    for spectrum in spectra:
        d = len(spectrum)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        a = rng.normal(size=(d, d - 1)) + 1j * rng.normal(size=(d, d - 1))
        u = np.linalg.qr(a - np.outer(psi, psi.conj() @ a))[0]
        directions = np.stack([u[:, 0], 1j * u[:, 0], *u[:, 1:].T])
        rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
        psis.append(psi)
        ells.append(rotation @ (np.sqrt(spectrum)[:, None] * directions))
    return np.stack(psis), np.stack(ells)


def _as_matrices(psi, ells):
    """rho = psi psi^dag (B, n, n) and the SLDs L_k = l_k psi^dag + psi l_k^dag
    (B, d, n, n) of pure states given as vectors, so that L_k psi = l_k."""
    slds = ells[..., None] * psi[:, None, None, :].conj()
    return psi[:, :, None] * psi[:, None, :].conj(), slds + slds.swapaxes(-1, -2).conj()


def _structural_coupling(q, uhlmann):
    """Q u / sqrt(u^T Q u) (B, 3), u the axial vector of U (B, 3, 3): the
    coupling of a pure qutrit's one normal direction, up to its sign."""
    u = uhlmann_axial(uhlmann)
    qu = (q @ u[..., None])[..., 0]
    return qu / np.sqrt(dot(u, qu))[..., None]


def _recorded(monkeypatch, *names) -> dict:
    """Lists that fill with the first argument of each call to the named
    functions, which still run, where `bounds` reads them: its own, or
    those of `general`, which it imports on first use."""
    sent = {name: [] for name in names}
    for name, calls in sent.items():
        module = bounds if hasattr(bounds, name) else general
        monkeypatch.setattr(module, name, lambda *a, _fn=getattr(module, name),
                            _calls=calls: _calls.append(a[0]) or _fn(*a))
    return sent


class TestPureNormalDirection:
    """The one normal direction of pure qutrits given as vectors
    (n = d = 3, m = 2(n - 1) - d = 1) couples by Q u / sqrt(u^T Q u), read
    from Q and U with no normal space built; against the Gell-Mann (eigen)
    route of the matrices."""

    @pytest.mark.parametrize("n, d", [(3, 3)])
    def test_matches_eigen_route(self, monkeypatch, n, d):
        rng = np.random.default_rng(n * 10 + d)
        models = [random_pure_model(rng, n, d) for _ in range(16)]
        rho, derivs = np.stack([m[0] for m in models]), np.stack([np.stack(m[1]) for m in models])
        psi, ells = pure_model_vectors(rho, derivs)
        g, want_g = model_geometry(None, None, (psi, ells), None), compute_geometry(rho, derivs)
        w = g._qfim_eigh[0]
        cond = w[:, -1] / w[:, 0]
        assert not g._qfim_inverses[2].any()
        tol = (1e-12 + 1e-16 * cond)[:, None]
        ((rows, want),) = _normal_spaces(*_gell_mann_coordinates(rho, want_g.slds),
                                         want_g._qfim_inverses[4])
        assert rows.tolist() == list(range(len(psi))) and want.coeffs.shape[-1] == 1
        got = _structural_coupling(g.qfim, g.uhlmann)
        got *= np.sign(dot(got, want.coupling[..., 0]))[:, None]
        scale = np.max(np.abs(want.coupling), axis=(-2, -1))[:, None]
        assert np.all(np.abs(got - want.coupling[..., 0]) <= tol * scale)

        w_mat, sqrt_w = _weight_and_root(np.stack([random_spd(rng, d) for _ in psi]), d)
        opts = ReportOptions(compute_rld=False)
        sent = _recorded(monkeypatch, "_holevo_solutions", "_normal_spaces")
        got_h = batch_reports(None, None, g, w_mat, sqrt_w, opts)["c_h"]
        want_h = batch_reports(rho, derivs, want_g, w_mat, sqrt_w, opts)["c_h"]
        monkeypatch.undo()
        # one group of every row on each side; the qutrit's vectors build no normal space
        got_setup, want_setup = sent["_holevo_solutions"]
        assert len(sent["_normal_spaces"]) == 1
        assert got_setup.left.shape == want_setup.left.shape == (len(psi), d, 1)
        assert np.array_equal(got_setup.gram, np.ones((len(psi), 1, 1)))
        np.testing.assert_allclose(got_setup.gram, want_setup.gram, rtol=0, atol=1e-14)
        assert np.all(np.abs(got_h - want_h) <= (1e-12 + 1e-16 * cond) * want_h)

    def test_rows_up_to_the_line_take_the_closed_form(self, monkeypatch):
        # Q's det Q / (Tr Q)^3 just above and just below RANK_TOL, where
        # `_invert` stops taking Q^-1 = adj(Q) / det Q from the structural
        # det Q = u^T Q u, and lambda_min / lambda_max below RANK_TOL itself,
        # where the row is ill.  Every regular row has full tangent rank, so
        # one normal direction, and takes the structural coupling, whichever
        # inverse took Q; the ill row is a flagged null row.  No row builds
        # a normal space.  The small eigenvalue x sits on u_2, which U does
        # not couple to the pair (u_1, i u_1), so u lies along it; with the
        # spectrum (1, 0.6, x), det Q / (Tr Q)^3 = 0.6 x / 1.6^3 to 1e-8
        cut = RANK_TOL * 1.6**3 / 0.6
        ratios = [0.5, 1.05 * cut, 0.95 * cut, 0.5 * RANK_TOL]
        psi, ells = _pure_vectors_with_spectrum(
            np.random.default_rng(3), [(1.0, 0.6, ratio) for ratio in ratios])
        decomposed, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: decomposed.append(a.shape) or eigh(a))
        g = model_geometry(None, None, (psi, ells), None)
        monkeypatch.undo()
        assert decomposed == [(2, 3, 3)]  # the last two rows alone
        w = np.linalg.eigvalsh(g.qfim)
        np.testing.assert_allclose(w[:, 0] / w[:, -1], ratios, rtol=1e-6)
        assert g.tangent_dim.tolist() == [3, 3, 3, 2]
        assert g._qfim_inverses[2].tolist() == [False, False, False, True]

        sent = _recorded(monkeypatch, "_holevo_solutions", "_normal_spaces",
                         "_gell_mann_coordinates")
        eye = np.broadcast_to(np.eye(3), (len(psi), 3, 3))
        cols = batch_reports(None, None, g, eye, eye, ReportOptions(compute_rld=False))
        monkeypatch.undo()
        (setup,) = sent["_holevo_solutions"]
        np.testing.assert_array_equal(setup.gram, np.ones((3, 1, 1)))
        assert sent["_normal_spaces"] == [] and sent["_gell_mann_coordinates"] == []
        assert cols["flags"]["SingularQFIM"].tolist() == [False, False, False, True]
        assert np.isfinite(cols["c_h"][:3]).all() and np.isnan(cols["c_h"][3])
        assert cols["R"][:3].tolist() == [1.0, 1.0, 1.0]
        # up to the line (cond(Q) about 1.5e8 on the decomposed regular
        # row) the structural coupling agrees with the eigen route of the
        # matrices with the same Q and U
        rho, slds = _as_matrices(psi[:3], ells[:3])
        frame = _geometry(g.qfim[:3], g.uhlmann[:3], slds)._qfim_inverses[4]
        ((_, want),) = _normal_spaces(*_gell_mann_coordinates(rho, slds), frame)
        got = _structural_coupling(g.qfim[:3], g.uhlmann[:3])
        got *= np.sign(dot(got, want.coupling[..., 0]))[:, None]
        tol = (1e-12 + 1e-16 * w[:3, -1] / w[:3, 0])[:, None]
        scale = np.max(np.abs(want.coupling), axis=(-2, -1))[:, None]
        assert np.all(np.abs(got - want.coupling[..., 0]) <= tol * scale)


@given(seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 8.0),
       side=st.sampled_from([None, 0.5, 0.9, 0.99, 1.01, 1.1, 1.5]), aligned=st.booleans())
def test_structural_coupling_matches_gell_mann_route(seed, log_cond, side, aligned):
    # random pure qutrits (n = d = 3, one normal direction) whose Q has the
    # spectrum (1, a, 10^-log_cond), or (with ``side``) det Q / (Tr Q)^3 at
    # side times RANK_TOL, `_invert`'s structural line, scaled at random; u lies
    # along Q's smallest eigenvector (``aligned``) or anywhere.  The
    # Gell-Mann route on rho = psi psi^dag and L_k = l_k psi^dag + psi l_k^dag,
    # with the same Q and U (so the F of their eigh), couples by
    # +-Q u / sqrt(u^T Q u) within
    # (1e-12 + 1e-16 cond(Q)) sqrt(lambda_max), the scale of the coupling
    # l_k.Jz (|Jz| = 1, |l_k| <= sqrt(lambda_max)); and `batch_reports`
    # gives the same C_H from the vectors as from those matrices with the
    # same Q and U, within HOLEVO_GAP_TOL and eps cond(Q), or 3 eps cond(Q)
    # where that is larger: just above the RANK_TOL line the eigh route
    # strays up to 2.2 eps cond(Q) from a 40-digit C_SLD, the structural
    # det Q = u^T Q u 0.45 eps cond(Q).  (The matrices' own
    # `compute_geometry` rounds C_SLD apart from the vectors' by up to
    # a few eps cond(Q), whichever normal-space route follows.)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 1.0)
    small = 10.0**-log_cond if side is None else side * RANK_TOL * (1.0 + a) ** 3 / a
    spectrum = np.array([1.0, a, small]) * 10.0 ** rng.uniform(-2.0, 2.0)
    if aligned:  # U couples the pair (u_1, i u_1) and leaves u_2, Q's smallest eigenvector
        psi, ells = _pure_vectors_with_spectrum(rng, [spectrum])
    else:
        psi, unit = _pure_vectors_with_spectrum(rng, [(1.0, 1.0, 1.0)])
        ells = np.linalg.qr(rng.normal(size=(3, 3)))[0] @ (np.sqrt(spectrum)[:, None] * unit)
    g = model_geometry(None, None, (psi, ells), None)
    w = np.linalg.eigvalsh(g.qfim[0])
    cond = w[-1] / w[0]
    if side is not None:  # the rows sit on the intended side of the line
        assert ("_qfim_eigh" not in g.__dict__) == (side > 1.0)
    rho, slds = _as_matrices(psi, ells)
    matrices = _geometry(g.qfim, g.uhlmann, slds, g.rho_spectrum)
    ((_, basis),) = _normal_spaces(*_gell_mann_coordinates(rho, slds), matrices._qfim_inverses[4])
    want, got = basis.coupling[..., 0], _structural_coupling(g.qfim, g.uhlmann)
    got *= np.sign(dot(got, want))[:, None]
    np.testing.assert_allclose(got, want, rtol=0, atol=(1e-12 + 1e-16 * cond) * np.sqrt(w[-1]))
    w_mat, sqrt_w = _weight_and_root(random_spd(rng, 3)[None], 3)
    opts = ReportOptions(compute_rld=False)
    got_h = batch_reports(None, None, g, w_mat, sqrt_w, opts)["c_h"][0]
    want_h = batch_reports(rho, None, matrices, w_mat, sqrt_w, opts)["c_h"][0]
    eps = np.finfo(float).eps
    assert got_h == pytest.approx(want_h, rel=max(HOLEVO_GAP_TOL + eps * cond, 3.0 * eps * cond))


_SPECTRA = ("one_small", "two_small", "near_the_line", "singular")


def _bloch_vectors_with_spectrum(rng, spectrum):
    """One unitarily encoded qubit, r (1, 3) and d r (1, 2, 3), whose Q has
    the given eigenvalues: |r| uniform in [0, 1), and d r the rows of
    V diag(sqrt(lambda)), V a random rotation, in the plane orthogonal to r."""
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    turn = np.linalg.qr(rng.normal(size=(2, 2)))[0] * np.sqrt(spectrum)
    return rng.uniform(0.0, 1.0) * frame[None, 2], (turn @ frame[:2])[None]


@given(seed=st.integers(0, 2**32 - 1), route=st.sampled_from(["bloch", "qubit", "qutrit"]),
       kind=st.sampled_from(_SPECTRA), log_cond=st.floats(0.0, 11.0),
       side=st.sampled_from([0.5, 0.9, 0.99, 1.01, 1.1, 1.5]))
def test_certified_inverse_matches_eigen_route(seed, route, kind, log_cond, side):
    # rows whose det Q comes from the model's structure (`_invert`): a
    # Bloch qubit's |d_1 r x d_2 r|^2, a pure qubit's U_12^2, a pure
    # qutrit's u^T Q u, against the same rows with every Q through eigh
    # (`eigen_route`).  Q's spectrum has one small eigenvalue
    # 10^-log_cond, or two (d = 3; for d = 2 both are small), det Q / (Tr Q)^d
    # at ``side`` times RANK_TOL, or rank d - 1, turned and scaled at
    # random.  Rows that det Q / (Tr Q)^d > RANK_TOL certifies regular take
    # the structural inverse adj(Q) / det Q, the others eigh.  The rank,
    # ill, void and the flags match exactly, the rows left to eigh bit for
    # bit, and the structural rows within (1e-12 + 1e-15 cond(Q)) |v|, or
    # 16 eps cond(Q) |v| where that is larger: the two routes' cores differ
    # by up to 14 eps cond(Q) on pure qutrits whose u lies along Q's weakest
    # direction (4000 scratch rows), while against 40-digit values of the
    # same vectors the structural T and C_SLD stay within 1.2 eps cond(Q),
    # and eigh's within 2.3 eps cond(Q)
    rng = np.random.default_rng(seed)
    d = 2 if route in ("bloch", "qubit") else 3
    a, small = rng.uniform(0.2, 1.0), 10.0**-log_cond
    spectrum = np.array({
        3: {"one_small": (1.0, a, small), "two_small": (1.0, (1.0 + a) * small, small),
            "near_the_line": (1.0, a, side * RANK_TOL * (1.0 + a) ** 3 / a),
            "singular": (1.0, a, 0.0)},
        2: {"one_small": (1.0, small), "two_small": ((1.0 + a) * small, small),
            "near_the_line": (1.0, side * RANK_TOL), "singular": (1.0, 0.0)},
    }[d][kind]) * 10.0 ** rng.uniform(-2.0, 2.0)
    if route == "bloch":
        rows = None, None, None, _bloch_vectors_with_spectrum(rng, spectrum)
    else:
        rows = None, None, _pure_vectors_with_spectrum(rng, [spectrum]), None
    w_mat, sqrt_w = _weight_and_root(random_spd(rng, d)[None], d)

    def outputs():
        g = model_geometry(*rows)
        frame = _frame(g, w_mat, sqrt_w)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = {"qinv": frame.qinv, "core": frame.core, "c_sld": frame.c_sld,
                   "T": frame.t_value, "R": _spectral_radius(g), "c_t": frame.c_t}
        return g, out, batch_reports(None, None, g, w_mat, sqrt_w, ReportOptions())

    g, got, got_reports = outputs()
    with pytest.MonkeyPatch.context() as patch:
        eigen_route(patch)
        g0, want, want_reports = outputs()
    structural = "_qfim_eigh" not in g.__dict__
    if kind == "singular" or (kind == "near_the_line" and side < 1.0):
        assert not structural
    if kind == "near_the_line" and side > 1.0:
        assert structural
    assert g.tangent_dim.tolist() == g0.tangent_dim.tolist()
    for k in (2, 3):  # ill and void
        np.testing.assert_array_equal(g._qfim_inverses[k], g0._qfim_inverses[k])
    assert {k: m.tolist() for k, m in got_reports["flags"].items()} == {
        k: m.tolist() for k, m in want_reports["flags"].items()}
    got.update({k: got_reports[k] for k in ("c_h", "c_rld")})
    want.update({k: want_reports[k] for k in ("c_h", "c_rld")})
    w = np.linalg.eigvalsh(g.qfim[0])
    for name, value in got.items():
        if not structural:
            np.testing.assert_array_equal(value, want[name], err_msg=name)
            continue
        scale, cond = np.max(np.abs(want[name])), w[-1] / w[0]
        tol = max(1e-12 + 1e-15 * cond, 16.0 * np.finfo(float).eps * cond)
        np.testing.assert_allclose(value, want[name], rtol=0, atol=tol * scale, err_msg=name)


def _bloch_oracle(r, dr):
    """The Bloch route's forms before they were written out: each row's
    largest |r.d_i r| / (|r| |d_i r|) as a quotient cleaned by np.nan_to_num,
    and U_ij = r.(d_i r x d_j r) from np.cross."""
    u, du = (v / np.maximum(np.max(np.abs(v), axis=-1, keepdims=True), 1e-300) for v in (r, dr))
    with np.errstate(invalid="ignore"):  # 0 / 0 where r or d_i r is zero: tangent
        cosine = np.nan_to_num(np.abs(dot(du, u[..., None, :]))
                               / np.sqrt(dot(u, u)[..., None] * dot(du, du)))
    return np.max(cosine, axis=-1), dot(r[..., None, None, :],
                                        np.cross(dr[..., :, None, :], dr[..., None, :, :]))


_BLOCH_ROW = st.tuples(st.one_of(st.just(-np.inf), st.floats(-150.0, 0.0)),  # log10 |r|
                       st.floats(-150.0, 150.0),  # log10 |d r|
                       st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.99, 1.01]),
                                 st.floats(2.0, 1e6)))  # the radial part, in TANGENT_TOL


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]),
       rows=st.lists(_BLOCH_ROW, min_size=1, max_size=4))
def test_bloch_route_matches_cross_and_cosine_oracle(seed, d, rows):
    # rows with |r| from 0 and 1e-150 to 1 and |d r| from 1e-150 to 1e150,
    # the derivative k = row mod d with a radial part of ``side``
    # TANGENT_TOL |d r| and the others tangent.  The tangent test with no
    # quotient rejects exactly the rows the old cosine rejects, with the
    # same error, and the written-out cross product gives the old U_ij,
    # i < j, bit for bit, with U_ji = -U_ij and a zero diagonal.  The two
    # tests round apart only within an ulp of the line, and the rounding of
    # r.d r (about 1e-16 |r| |d r|) keeps the draws from it
    rng = np.random.default_rng(seed)
    r, dr = np.zeros((len(rows), 3)), np.zeros((len(rows), d, 3))
    for i, (log_r, log_dr, side) in enumerate(rows):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        t = np.cross(v, rng.normal(size=(d, 3)))
        t /= np.linalg.norm(t, axis=-1, keepdims=True)
        t[i % d] += side * TANGENT_TOL * v
        r[i], dr[i] = 10.0**log_r * v, 10.0**log_dr * t
    worst, u = _bloch_oracle(r, dr)
    tangent = worst <= TANGENT_TOL
    if tangent.any():
        got = _bloch_geometry(r[tangent], dr[tangent]).uhlmann
        above = np.triu_indices(d, 1)
        assert got[:, above[0], above[1]].tobytes() == u[tangent][:, above[0], above[1]].tobytes()
        np.testing.assert_array_equal(got, u[tangent])
        np.testing.assert_array_equal(got, -got.swapaxes(-1, -2))
    if not tangent.all():
        first = int(np.argmin(tangent))
        with pytest.raises(InvalidInput) as info:
            _bloch_geometry(r, dr)
        assert str(info.value) == (
            f"d r is not tangent to r: |r.d r| / (|r| |d r|) = {worst[first]:.3e}; "
            "a qubit given by its Bloch vector must be encoded unitarily")


def singular_values_pairing(g, w_mat):
    """Singular values of sqrt(W) Q^-1 U Q^-1 sqrt(W): direct SVD vs pairing.

    The pairing expression multiplies each canonical-block singular value
    mu_k of the conjugated U by the two eigenvalues d_i d_j of sqrt(W) Q^-1
    acting on that block; it is exact only when the conjugated U is
    block-canonical in the eigenbasis of sqrt(W) Q^-1 (returned second), as
    the aligned inputs of the test below are.
    """
    q, u = g.qfim, g.uhlmann
    frame = _weight_frame(g, w_mat)
    direct = np.sort(np.linalg.svd(frame.core, compute_uv=False))[::-1]
    a = frame.sqrt_w @ frame.qinv
    av, avec = np.linalg.eigh(0.5 * (a + a.T))
    u_tilde = avec.T @ u @ avec
    paired = []
    used = set()
    d = q.shape[0]
    for i in range(d):
        if i in used:
            continue
        row = np.abs(u_tilde[i])
        row[list(used) + [i]] = 0.0
        j = int(np.argmax(row))
        mu = abs(u_tilde[i, j])
        if mu > 0:
            paired.extend([av[i] * av[j] * mu] * 2)
            used.update((i, j))
        else:
            paired.append(0.0)
            used.add(i)
    paired = np.abs(np.array(paired, dtype=float))
    paired = np.sort(np.concatenate([paired, np.zeros(max(0, d - paired.size))]))[::-1][:d]
    return direct, paired


class TestSingularValuePairing:
    def test_block_aligned_construction(self, rng):
        # build W, Q sharing an eigenframe with a block-canonical U there
        for d in (2, 3, 4):
            p, _ = np.linalg.qr(rng.normal(size=(d, d)))
            a_vals = rng.uniform(0.3, 2.0, size=d)
            q_vals = rng.uniform(0.5, 3.0, size=d)
            u_tilde = np.zeros((d, d))
            mus = []
            for k in range(d // 2):
                mu = rng.uniform(0.1, 1.0)
                mus.append(mu)
                u_tilde[2 * k, 2 * k + 1] = mu
                u_tilde[2 * k + 1, 2 * k] = -mu
            q = p @ np.diag(q_vals) @ p.T
            sqrt_w = p @ np.diag(a_vals * q_vals) @ p.T
            w = sqrt_w @ sqrt_w
            u = p @ u_tilde @ p.T
            g = geometry_from_matrices(q, u)
            direct, paired = singular_values_pairing(g, w)
            assert np.max(np.abs(direct - paired)) <= 1e-9
            expected = sorted(
                [a_vals[2 * k] * a_vals[2 * k + 1] * mu for k, mu in enumerate(mus)] * 2,
                reverse=True,
            )
            expected += [0.0] * (d - len(expected))
            assert np.max(np.abs(direct - np.array(expected[:d]))) <= 1e-9


class TestWeakCommutativity:
    def test_zero_curvature_zero_measures(self, rng):
        p = np.array([0.5, 0.3, 0.2])
        rho = np.diag(p).astype(complex)
        derivs = []
        for _ in range(2):
            v = rng.normal(size=3)
            v -= v.mean()
            derivs.append(np.diag(v).astype(complex))
        g = compute_geometry(rho, derivs)
        assert np.max(np.abs(g.uhlmann)) <= 1e-12
        assert quantumness_R(g) == 0.0
        for _ in range(5):
            assert t_measure(g, random_spd(rng, 2)) == 0.0
