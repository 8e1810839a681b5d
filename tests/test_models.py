import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmb.errors import InvalidInput, NonHermitianInput, StepTooLarge
from qmb import models
from qmb.general import _su2_exp, _su2_state, generator_geometry, model_point, unitary_generator
from qmb.models import PAULI, _tunable_qubit_bloch_derivs, model_config, su2_generators

from qmb.sweep import figure_preset, run_sweep

from conftest import (
    analytic_geometry,
    expm_generator,
    matmul_su2_state,
    su2_initial_generators,
    tunable_qubit_bloch,
    tunable_qubit_pure_geometry_grid,
)


def _bloch_closed_form(
    r0: np.ndarray, gamma: float, theta: float, phi: float, l1: float, l2: float
) -> np.ndarray:
    """`tunable_qubit_bloch` from closed-form components."""
    # Closed-form components in terms of xi, eps and the in-plane projections
    # A(e) = r_y cos(xi+e) + r_x sin(xi+e), B(e) = r_x cos(xi+e) - r_y sin(xi+e).
    rx, ry, rz = r0
    xi = 2.0 * l1 - phi
    eps = 2.0 * l2 + phi
    k1 = math.sin(gamma) * math.sin(theta)
    k2 = math.sin(gamma) * math.cos(theta)
    cg = math.cos(gamma)
    sg2 = math.sin(gamma) ** 2

    def a_of(e: float) -> float:
        return ry * math.cos(xi + e) + rx * math.sin(xi + e)

    def b_of(e: float) -> float:
        return rx * math.cos(xi + e) - ry * math.sin(xi + e)

    ce, se = math.cos(eps), math.sin(eps)
    rxp = (
        -2.0 * k2 * cg * a_of(eps)
        + (1.0 - 2.0 * k2 * k2) * b_of(eps)
        + 2.0 * k1 * k1 * se * a_of(0.0)
        + 2.0 * k1 * rz * (k2 * ce + cg * se)
    )
    ryp = (
        cg * cg * a_of(eps)
        + 2.0 * k2 * cg * b_of(eps)
        + 2.0 * k1 * rz * (k2 * se - cg * ce)
        - sg2 * (ce * a_of(0.0) + math.cos(2.0 * theta) * se * b_of(0.0))
    )
    rzp = (1.0 - 2.0 * k1 * k1) * rz + 2.0 * k1 * (cg * a_of(0.0) + k2 * b_of(0.0))
    return np.array([rxp, ryp, rzp])


def pure_point_geometry(alpha, beta, gamma, theta, phi, l1, l2):
    """Analytic (Q, U) of the pure tunable qubit from its Bloch path at one point."""
    cfg = model_config(
        "tunable_qubit", alpha=alpha, beta=beta, gamma=gamma, theta=theta, phi=phi
    )
    return analytic_geometry(cfg, (l1, l2))


def tq_config(r0=(0.3, 0.2, 0.5), gamma=np.pi / 4, theta=np.pi / 2, phi=0.35):
    return model_config(
        "tunable_qubit", r_x=r0[0], r_y=r0[1], r_z=r0[2], gamma=gamma, theta=theta, phi=phi
    )


def fd_rho_derivs(point_fn, params, h=1e-5):
    derivs = []
    for k in range(len(params)):
        up = list(params)
        dn = list(params)
        step = h * max(1.0, abs(params[k]))
        up[k] += step
        dn[k] -= step
        derivs.append((point_fn(up).rho - point_fn(dn).rho) / (2 * step))
    return derivs


class TestTunableQubitBloch:
    def test_identity_rotations(self):
        cfg = tq_config(gamma=0.0, phi=0.0)
        r = tunable_qubit_bloch(cfg, 0.0, 0.0)
        assert np.allclose(r, [0.3, 0.2, 0.5], atol=1e-14)

    def test_norm_preserved(self, rng):
        for _ in range(30):
            r0 = rng.normal(size=3)
            r0 *= rng.uniform(0.05, 1.0) / np.linalg.norm(r0)
            cfg = tq_config(tuple(r0), *rng.uniform(-np.pi, np.pi, size=3))
            r = tunable_qubit_bloch(cfg, rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(np.linalg.norm(r) - np.linalg.norm(r0)) <= 1e-12

    def test_dual_path_specific_point(self):
        # the composed, closed-form and derivative routes agree at the
        # reference configuration
        cfg = tq_config((0.3, 0.2, 0.5), np.pi / 4, np.pi / 2, 0.7)
        r = tunable_qubit_bloch(cfg, 0.4, 0.0)
        assert abs(np.linalg.norm(r) - np.linalg.norm([0.3, 0.2, 0.5])) <= 1e-12
        closed = _bloch_closed_form(np.array([0.3, 0.2, 0.5]), np.pi / 4, np.pi / 2, 0.7, 0.4, 0.0)
        assert np.max(np.abs(r - closed)) <= 1e-10
        assert np.max(np.abs(r - _tunable_qubit_bloch_derivs(cfg, 0.4, 0.0)[0])) <= 1e-10

    @given(
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        radius=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        angles=st.tuples(*[st.floats(-7.0, 7.0)] * 5),
    )
    def test_three_routes_agree(self, direction, radius, angles):
        # random mixed (|r0| < 1) and pure (|r0| = 1) configurations
        r0 = radius * np.asarray(direction) / np.linalg.norm(direction)
        gamma, theta, phi, l1, l2 = angles
        cfg = tq_config(tuple(r0), gamma, theta, phi)
        composed = tunable_qubit_bloch(cfg, l1, l2)
        closed = _bloch_closed_form(r0, gamma, theta, phi, l1, l2)
        derived = _tunable_qubit_bloch_derivs(cfg, l1, l2)[0]
        assert np.max(np.abs(composed - closed)) <= 1e-10
        assert np.max(np.abs(composed - derived)) <= 1e-10

    def test_periodic_in_lambda1(self):
        cfg = tq_config()
        a = tunable_qubit_bloch(cfg, 0.3, 0.1)
        b = tunable_qubit_bloch(cfg, 0.3 + np.pi, 0.1)
        assert np.allclose(a, b, atol=1e-12)

    def test_angle_gauge_reduction(self, rng):
        # parameters enter only through xi = 2 l1 - phi and eps = 2 l2 + phi
        for _ in range(10):
            l1, l2, phi, delta = rng.uniform(-1, 1, size=4)
            cfg_a = tq_config(phi=phi)
            cfg_b = tq_config(phi=phi + delta)
            ra = tunable_qubit_bloch(cfg_a, l1, l2)
            rb = tunable_qubit_bloch(cfg_b, l1 + delta / 2, l2 - delta / 2)
            assert np.allclose(ra, rb, atol=1e-12)


class TestTunableQubitPoint:
    def test_density_and_derivatives(self, rng):
        cfg = tq_config()
        for _ in range(10):
            lam = rng.uniform(-1.5, 1.5, size=2)
            pt = model_point(cfg, lam)
            assert abs(np.trace(pt.rho) - 1) <= 1e-12
            assert np.min(np.linalg.eigvalsh(pt.rho)) >= -1e-12
            fd = fd_rho_derivs(lambda p: model_point(cfg, p), lam)
            for got, ref in zip(pt.derivs, fd):
                assert np.max(np.abs(got - ref)) <= 1e-6
                assert abs(np.trace(got)) <= 1e-10

    def test_special_angle_qfim_entries(self):
        r0 = (0.3, 0.2, 0.5)
        phi, l1 = 0.35, 0.525
        xi = 2 * l1 - phi
        q, u = analytic_geometry(tq_config(r0), (l1, 0.0))
        rx, ry, rz = r0
        assert q[0, 0] == pytest.approx(4 * (rx**2 + ry**2), abs=1e-12)
        assert q[0, 1] == pytest.approx(
            -4 * rz * (ry * np.cos(xi) + rx * np.sin(xi)), abs=1e-12
        )
        assert q[1, 1] == pytest.approx(
            2 * (rx**2 + ry**2 + 2 * rz**2 + (rx**2 - ry**2) * np.cos(2 * xi)
                 - 2 * rx * ry * np.sin(2 * xi)),
            abs=1e-12,
        )
        assert u[0, 1] == pytest.approx(
            4 * (rx**2 + ry**2 + rz**2) * (-rx * np.cos(xi) + ry * np.sin(xi)), abs=1e-12
        )

    def test_determinant_purity_identity(self, rng):
        # det U = |r|^2 det Q at gamma=pi/4, theta=pi/2
        for _ in range(25):
            r0 = rng.normal(size=3)
            r0 *= rng.uniform(0.2, 0.95) / np.linalg.norm(r0)
            q, u = analytic_geometry(tq_config(tuple(r0), phi=rng.uniform(0, 2 * np.pi)),
                                     rng.uniform(-1, 1, size=2))
            det_q = np.linalg.det(q)
            det_u = np.linalg.det(u)
            assert det_u == pytest.approx(float(r0 @ r0) * det_q, rel=1e-10, abs=1e-14)

    def test_commuting_encodings(self):
        q, u = analytic_geometry(tq_config(gamma=0.0), (0.4, 0.2))
        assert abs(u[0, 1]) <= 1e-12
        assert abs(np.linalg.det(q)) <= 1e-12

    def test_analytic_slds_solve_defining_equation(self, rng):
        # L_i = (d_i r).sigma = 2 d_i rho, since the Bloch path is an isometry (r.dr = 0)
        for l2 in (0.0, 0.4):
            pt = model_point(tq_config(), (0.525, l2))
            for dr in pt.derivs:
                l_op = 2.0 * dr
                resid = 0.5 * (l_op @ pt.rho + pt.rho @ l_op) - dr
                assert np.max(np.abs(resid)) <= 1e-12

    def test_pure_state_limit(self):
        cfg = model_config(
            "tunable_qubit", alpha=1.1, beta=0.4, gamma=np.pi / 4, theta=np.pi / 2, phi=0.2
        )
        q, u = analytic_geometry(cfg, (0.3, 0.1))
        assert np.linalg.det(q) == pytest.approx(np.linalg.det(u), rel=1e-9)


class TestSu2Qubit:
    def test_aligned_state_has_no_b_information(self):
        cfg = model_config("su2_qubit", alpha=np.pi / 2, beta=0.0, t=5.0)
        q, _ = analytic_geometry(cfg, (1.0, 0.0))
        assert abs(q[0, 0]) <= 1e-12

    def test_full_period_kills_theta_information(self):
        cfg = model_config("su2_qubit", alpha=0.8, beta=0.3, t=5.0)
        b = 2 * np.pi / 5.0
        q, _ = analytic_geometry(cfg, (b, 0.7))
        assert abs(q[1, 1]) <= 1e-12

    def test_uhlmann_entry_closed_form(self):
        alpha, beta, t = 0.9, 0.4, 5.0
        b, theta = 1.3, 0.7
        _, u = analytic_geometry(model_config("su2_qubit", alpha=alpha, beta=beta, t=t), (b, theta))
        s, c = np.sin(b * t / 2), np.cos(b * t / 2)
        n2 = np.array([s * np.sin(theta), c, -s * np.cos(theta)])
        r0 = np.array([np.sin(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta), np.cos(alpha)])
        assert u[1, 0] == pytest.approx(2 * t * s * float(n2 @ r0), abs=1e-8)

    def test_analytic_matches_fd_pipeline(self):
        from qmb.general import compute_geometry

        cfg = model_config("su2_qubit", alpha=np.pi / 2, beta=0.0, t=5.0)
        pt = model_point(cfg, (1.3, 0.7))
        fd = fd_rho_derivs(lambda p: model_point(cfg, p), [1.3, 0.7])
        g = compute_geometry(pt.rho, fd)
        qa, ua = analytic_geometry(cfg, (1.3, 0.7))
        assert np.max(np.abs(g.qfim - qa)) <= 1e-6
        assert np.max(np.abs(g.uhlmann - ua)) <= 1e-6

    def test_generator_route_matches_analytic(self, rng):
        for _ in range(10):
            alpha, beta = rng.uniform(0.2, 2.9), rng.uniform(0, 2 * np.pi)
            t = rng.uniform(0.5, 5.0)
            b, theta = rng.uniform(0.2, 2.0), rng.uniform(-1.3, 1.3)
            cfg = model_config("su2_qubit", alpha=alpha, beta=beta, t=t)
            psi0 = np.array([np.cos(alpha / 2), np.sin(alpha / 2) * np.exp(1j * beta)])
            q, u = generator_geometry(psi0, su2_initial_generators(cfg, (b, theta)))
            qa, ua = analytic_geometry(cfg, (b, theta))
            assert np.max(np.abs(q - qa)) <= 1e-8
            assert np.max(np.abs(u - ua)) <= 1e-8

    def test_analytic_slds_solve_defining_equation(self):
        cfg = model_config("su2_qubit", alpha=0.9, beta=0.4, t=5.0)
        pt = model_point(cfg, (1.3, 0.7))
        for dr in pt.derivs:  # a pure state's SLDs are L_i = 2 d_i rho
            l_op = 2.0 * dr
            resid = 0.5 * (l_op @ pt.rho + pt.rho @ l_op) - dr
            assert np.max(np.abs(resid)) <= 1e-12


class TestSu2Qutrit:
    def test_determinants(self, rng):
        cfg = model_config("su2_qutrit", alpha=np.pi / 4, beta=0.0, t=1.0)
        for _ in range(15):
            b = rng.uniform(0.5, 5.5)
            theta = rng.uniform(-1.2, 1.2)
            phi = rng.uniform(-1.0, 1.0)
            q, u = analytic_geometry(cfg, (b, theta, phi))
            expected = 64 * 1.0 * np.cos(theta) ** 2 * np.sin(b / 2) ** 4 * np.sin(np.pi / 2) ** 2
            assert np.linalg.det(q) == pytest.approx(expected, rel=1e-8)
            assert abs(np.linalg.det(u)) <= 1e-10

    def test_generator_route_matches_analytic(self, rng):
        for _ in range(10):
            alpha, beta = rng.uniform(0.3, 2.8), rng.uniform(0, 2 * np.pi)
            t = rng.uniform(0.5, 2.0)
            b, theta, phi = rng.uniform(0.3, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(-1, 1)
            cfg = model_config("su2_qutrit", alpha=alpha, beta=beta, t=t)
            psi0 = np.array([np.cos(alpha / 2), 0.0, np.sin(alpha / 2) * np.exp(1j * beta)])
            q, u = generator_geometry(psi0, su2_initial_generators(cfg, (b, theta, phi)))
            qa, ua = analytic_geometry(cfg, (b, theta, phi))
            scale = max(1.0, np.max(np.abs(qa)))
            assert np.max(np.abs(q - qa)) <= 1e-8 * scale
            assert np.max(np.abs(u - ua)) <= 1e-8 * scale

    def test_anchor_slds_solve_defining_equation(self):
        cfg = model_config("su2_qutrit", alpha=np.pi / 4, beta=0.0, t=1.0)
        pt = model_point(cfg, (np.pi, 0.0, 0.0))
        for dr in pt.derivs:  # a pure state's SLDs are L_i = 2 d_i rho
            l_op = 2.0 * dr
            resid = 0.5 * (l_op @ pt.rho + pt.rho @ l_op) - dr
            assert np.max(np.abs(resid)) <= 1e-8

    def test_derivatives_match_finite_differences(self, rng):
        cfg = model_config("su2_qutrit", alpha=0.9, beta=0.4, t=1.7)
        params = [1.1, 0.5, 0.3]
        pt = model_point(cfg, params)
        fd = fd_rho_derivs(lambda p: model_point(cfg, p), params)
        for got, ref in zip(pt.derivs, fd):
            assert np.max(np.abs(got - ref)) <= 1e-6

    def test_beta_periodicity(self):
        a = model_config("su2_qutrit", alpha=0.9, beta=0.4, t=1.7)
        b = model_config("su2_qutrit", alpha=0.9, beta=0.4 + 2 * np.pi, t=1.7)
        pa = model_point(a, (1.1, 0.5, 0.3))
        pb = model_point(b, (1.1, 0.5, 0.3))
        assert np.max(np.abs(pa.rho - pb.rho)) <= 1e-12
        qa, ua = analytic_geometry(a, (1.1, 0.5, 0.3))
        qb, ub = analytic_geometry(b, (1.1, 0.5, 0.3))
        assert np.max(np.abs(qa - qb)) <= 1e-12
        assert np.max(np.abs(ua - ub)) <= 1e-12


class TestSu2State:
    def test_matches_generator_oracle(self, rng):
        # psi = U psi0 with d_k rho = (U l_k psi^dag + psi (U l_k)^dag) / 2,
        # against d_k rho = U (i [H_k, rho0]) U^dag with the eigh exponential
        for model_id, d in (("su2_qubit", 2), ("su2_qutrit", 3)):
            for _ in range(20):
                cfg = model_config(model_id, alpha=rng.uniform(0.0, np.pi),
                                   beta=rng.uniform(0.0, 2 * np.pi), t=rng.uniform(0.2, 5.0))
                params = rng.uniform(-3.0, 3.0, size=(16, d))
                for got, want in zip(_su2_state(cfg, params), matmul_su2_state(cfg, params)):
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


class TestGeneratorStacks:
    def test_cached_stacks_are_read_only(self):
        for stack in (models._spin_matrices(2), models._spin_matrices(3), models._PAULI_STACK):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
        assert models._spin_matrices(3) is models._spin_matrices(3)
        np.testing.assert_array_equal(models._PAULI_STACK, np.array(PAULI))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_generators_are_fresh_arrays(self, dim):
        # su2_generators hands out copies of the cached stack: writing into
        # them changes neither a later call nor a fig5 row
        spec = figure_preset("fig5", {"count": 3})
        before = run_sweep(spec)
        js = su2_generators(dim)
        want = [j.copy() for j in js]
        for j in js:
            j[...] = 7.0
        assert all(np.array_equal(a, b) for a, b in zip(su2_generators(dim), want))
        j = (dim - 1) / 2.0
        assert np.array_equal(want[2], np.diag(j - np.arange(dim)).astype(complex))
        after = run_sweep(spec)
        assert all(a.values.tobytes() == b.values.tobytes()
                   for a, b in zip(before.chunks, after.chunks))


class TestSu2Exponential:
    """The closed-form SU(2) exponential against the spectral one."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("x", [0.0, np.pi, 2.0 * np.pi])
    def test_special_angles(self, dim, x):
        js = su2_generators(dim)
        for axis in np.eye(3):
            nj = sum(a * j for a, j in zip(axis, js))
            assert np.max(np.abs(_su2_exp(nj, x) - expm_generator(nj, x))) <= 1e-13

    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
           scale=st.floats(1e-9, 20.0))
    def test_random_axes(self, dim, seed, scale):
        # a stack of random unit axes and angles up to 20
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(8, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        x = scale * rng.uniform(-1.0, 1.0, size=8)
        nj = sum(axes[:, k, None, None] * j for k, j in enumerate(su2_generators(dim)))
        got = _su2_exp(nj, x)
        assert np.max(np.abs(got - expm_generator(nj, x))) <= 1e-13
        assert np.max(np.abs(got @ got.conj().swapaxes(-1, -2) - np.eye(dim))) <= 1e-13


class TestUnitaryGenerator:
    def test_phase_generator(self):
        sz = PAULI[2]
        gen = unitary_generator(lambda lam: expm_generator(sz / 2, lam), 0.7)
        assert np.max(np.abs(gen - sz / 2)) <= 1e-8

    def test_su2_qubit_theta_generator_conjugation(self):
        # forward-convention FD generator relates to the model generator by
        # H_model = -U^dag [i (dU) U^dag] U
        alpha, beta, t, b, theta = 0.9, 0.4, 5.0, 1.3, 0.7
        cfg = model_config("su2_qubit", alpha=alpha, beta=beta, t=t)
        gens = su2_initial_generators(cfg, (b, theta))
        js = [p / 2 for p in PAULI]

        def u_of(th):
            h = b * (np.cos(th) * js[0] + np.sin(th) * js[2])
            return expm_generator(h, t)

        gen_fd = unitary_generator(u_of, theta)
        u0 = u_of(theta)
        assert np.max(np.abs(-u0.conj().T @ gen_fd @ u0 - gens[1])) <= 1e-6

    def test_su2_qutrit_phi_generator_conjugation(self):
        alpha, beta, t, b, theta, phi = 0.9, 0.0, 1.7, 1.1, 0.5, 0.3
        cfg = model_config("su2_qutrit", alpha=alpha, beta=beta, t=t)
        gens = su2_initial_generators(cfg, (b, theta, phi))
        js = su2_generators(3)

        def u_of(p):
            n = np.array([np.cos(theta) * np.cos(p), np.cos(theta) * np.sin(p), np.sin(theta)])
            return expm_generator(b * sum(n[i] * js[i] for i in range(3)), t)

        gen_fd = unitary_generator(u_of, phi)
        u0 = u_of(phi)
        assert np.max(np.abs(-u0.conj().T @ gen_fd @ u0 - gens[2])) <= 1e-6

    def test_hermiticity_defect_diagnostic(self):
        sz = PAULI[2]
        _, defect = unitary_generator(
            lambda lam: expm_generator(sz / 2, lam), 0.7, full_output=True
        )
        assert defect <= 1e-6

    def test_step_too_large(self):
        sz = PAULI[2]
        with pytest.raises(StepTooLarge):
            unitary_generator(lambda lam: expm_generator(sz * lam**3 * 40.0, 1.0), 1.0, h=0.3)


class TestGeneratorGeometry:
    def test_single_generator_on_plus(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        q, u = generator_geometry(plus, [PAULI[2]])
        assert q[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert u[0, 0] == 0.0

    def test_unnormalized_psi0_rejected_as_pure_state(self):
        # psi0 is checked as the pure-state route checks its vectors, with
        # |psi0|^2 = Tr rho; the generators may be any Hermitian matrices
        with pytest.raises(NonHermitianInput, match="rho has trace"):
            generator_geometry(np.array([1.0, 1.0]), [np.eye(2)])
        with pytest.raises(ValueError, match="at least one parameter derivative"):
            generator_geometry(np.array([1.0, 0.0]), [])

    def test_commuting_generators(self):
        psi = np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.3j)])
        sz = PAULI[2]
        q, u = generator_geometry(psi, [sz, 2.0 * sz])
        assert np.max(np.abs(u)) <= 1e-12
        assert q[0, 1] == pytest.approx(2 * q[0, 0], abs=1e-10)


class TestPureGeometryGrid:
    def test_matches_scalar_pipeline(self, rng):
        for _ in range(15):
            alpha, beta, gamma, theta, phi = rng.uniform(0.2, 2.8, size=5)
            q11, q12, q22, u12 = tunable_qubit_pure_geometry_grid(
                alpha, beta, gamma, theta, phi
            )
            cfg = model_config(
                "tunable_qubit", alpha=alpha, beta=beta, gamma=gamma, theta=theta, phi=phi
            )
            q, u = analytic_geometry(cfg, (0.0, 0.0))
            assert float(q11) == pytest.approx(q[0, 0], abs=1e-10)
            assert float(q12) == pytest.approx(q[0, 1], abs=1e-10)
            assert float(q22) == pytest.approx(q[1, 1], abs=1e-10)
            assert float(u12) == pytest.approx(u[0, 1], abs=1e-10)

    def test_nonzero_lambdas(self, rng):
        for _ in range(30):
            alpha, beta, gamma, theta, phi = rng.uniform(0.2, 2.8, size=5)
            l1, l2 = rng.uniform(-2.0, 2.0, size=2)
            grid = tunable_qubit_pure_geometry_grid(alpha, beta, gamma, theta, phi, l1, l2)
            q, u = pure_point_geometry(alpha, beta, gamma, theta, phi, l1, l2)
            expected = (q[0, 0], q[0, 1], q[1, 1], u[0, 1])
            for got, want in zip(grid, expected):
                assert float(got) == pytest.approx(want, abs=1e-10)

    def test_sparse_grid_elementwise(self, rng):
        spans = [(0.05, 3.1), (0.0, 6.2), (0.05, 3.1), (0.05, 3.1), (0.0, 6.2)]
        axes = [np.sort(rng.uniform(lo, hi, size=k)) for (lo, hi), k in zip(spans, (3, 4, 3, 4, 3))]
        l1, l2 = 0.4, -1.3
        grid = tunable_qubit_pure_geometry_grid(
            *np.meshgrid(*axes, indexing="ij", sparse=True), l1, l2
        )
        shape = tuple(len(a) for a in axes)
        for out in grid:
            assert out.shape == shape
        for idx in np.ndindex(*shape):
            angles = [float(a[i]) for a, i in zip(axes, idx)]
            q, u = pure_point_geometry(*angles, l1, l2)
            expected = (q[0, 0], q[0, 1], q[1, 1], u[0, 1])
            for out, want in zip(grid, expected):
                assert abs(out[idx] - want) <= 1e-10

    def test_scalar_inputs_give_scalars(self):
        grid = tunable_qubit_pure_geometry_grid(0.3, 1.2, 0.7, 1.1, 2.0, 0.25, 0.5)
        assert all(np.ndim(out) == 0 for out in grid)
        q, u = pure_point_geometry(0.3, 1.2, 0.7, 1.1, 2.0, 0.25, 0.5)
        assert [float(out) for out in grid] == pytest.approx(
            [q[0, 0], q[0, 1], q[1, 1], u[0, 1]], abs=1e-12
        )

    @given(
        angles=st.tuples(*[st.floats(-7.0, 7.0)] * 5),
        lambdas=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    )
    def test_property_matches_point_model(self, angles, lambdas):
        grid = tunable_qubit_pure_geometry_grid(*angles, *lambdas)
        q, u = pure_point_geometry(*angles, *lambdas)
        expected = (q[0, 0], q[0, 1], q[1, 1], u[0, 1])
        for got, want in zip(grid, expected):
            assert abs(float(got) - want) <= 1e-10


class TestModelConfigValidation:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            model_config("qudit", alpha=1.0)

    def test_rejects_long_bloch_vector(self):
        with pytest.raises(ValueError):
            model_config("tunable_qubit", r_x=0.9, r_y=0.9, r_z=0.9,
                         gamma=0.1, theta=0.1, phi=0.1)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            model_config("su2_qubit", alpha=1.0, beta=0.0, t=0.0)

    @pytest.mark.parametrize("model_id, constants, message", [
        ("tunable_qubit", dict(gamma=math.nan, theta=0.1, phi=0.2, alpha=1.0, beta=0.3),
         "constant gamma=nan is not finite"),
        ("tunable_qubit", dict(gamma=0.1, theta=0.1, phi=0.2, alpha=1.0, beta=math.inf),
         "constant beta=inf is not finite"),
        ("su2_qubit", dict(alpha=1.0, beta=0.0, t=0.0), "evolution time t must be positive"),
        ("su2_qutrit", dict(alpha=1.0, beta=0.0, t=np.array([1.0, -1.0])),
         "evolution time t must be positive"),
        ("su2_qutrit", dict(alpha=1.0, beta=0.0, t=[1.0, -1.0]), "evolution time t must be positive"),
        # a scalar holds for every row, so its failure is row 0's, and it
        # comes before the array's failure at row 1
        ("tunable_qubit", dict(r_x=np.array([0.1, math.nan]), r_y=0.1, r_z=0.1, gamma=0.1,
                               theta=0.2, phi=math.nan), "constant phi=nan is not finite"),
        # within one row the constants are checked in order: r_x before phi
        ("tunable_qubit", dict(r_x=np.array([math.inf, 0.1]), r_y=0.1, r_z=0.1, gamma=0.1,
                               theta=0.2, phi=math.nan), "constant r_x=inf is not finite"),
        # a value that is not a number, scalar or in a list, names its constant
        ("su2_qubit", dict(alpha="abc", beta=0, t=1), "constant alpha='abc' is not a number"),
        ("su2_qutrit", dict(alpha=1.0, beta=None, t=1.0), "constant beta=None is not a number"),
        ("su2_qutrit", dict(alpha=1.0, beta=0.0, t=[1.0, "x"]),
         "constant t=[1.0, 'x'] is not a number"),
    ])
    def test_first_failing_rule_raises(self, model_id, constants, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            model_config(model_id, **constants)

    def test_requires_rotation_angles(self):
        with pytest.raises(ValueError):
            model_config("tunable_qubit", r_x=0.1, r_y=0.1, r_z=0.1)

    def test_dispatch(self):
        cfg = model_config("su2_qubit", alpha=1.0, beta=0.0, t=2.0)
        pt = model_point(cfg, (1.0, 0.5))
        assert pt.rho.shape == (2, 2)
