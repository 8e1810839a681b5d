from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmb.bounds as bounds
import qmb.general as general
import qmb.sweep as sweep
from qmb.bounds import (
    BoundsReport,
    HIERARCHY_SLACK,
    HOLEVO_GAP_TOL,
    ReportOptions,
    _check_hierarchy,
    _objective,
    _shrink,
    batch_reports,
    c_r_bound,
    c_sld,
    c_t_bound,
    full_report,
)
from qmb.errors import HierarchyViolation, InvalidInput, SingularState
from qmb.general import (
    ModelPoint,
    _bloch_state,
    _gell_mann_coordinates,
    _holevo_dual,
    _normal_spaces,
    _su2_state,
    c_rld,
    compute_geometry,
    holevo_tangent_min,
    model_point,
    rld_qfim,
    tangent_normal_decomposition,
    weight_transform,
)
from qmb.geometry import (
    RANK_TOL,
    geometry_from_matrices,
    model_geometry,
    quantumness_R,
    t_measure,
)
from qmb.linalg import spd_sqrt, tracenorm_antisym
from qmb.models import _tunable_qubit_bloch_derivs, model_arrays, model_config
from qmb.sweep import (CANONICAL_OUTPUTS, Axis, SweepSpec, figure_preset, run_sweep,
                       validate_spec)

from conftest import (
    holevo_pure_qubit_closed_form,
    nelder_mead,
    random_model,
    random_pure_model,
    random_spd,
    tangent_objective,
    tangent_setup,
)


def tq_point(r0=(0.3, 0.2, 0.5), phi=0.35, l1=0.525, l2=0.0):
    cfg = model_config(
        "tunable_qubit",
        r_x=r0[0], r_y=r0[1], r_z=r0[2],
        gamma=np.pi / 4, theta=np.pi / 2, phi=phi,
    )
    return model_point(cfg, (l1, l2))


def classical_model(rng, n=3, d=2):
    p = np.sort(rng.uniform(0.1, 1.0, size=n))
    p /= p.sum()
    rho = np.diag(p).astype(complex)
    derivs = []
    for _ in range(d):
        v = rng.normal(size=n)
        v -= v.mean()
        derivs.append(np.diag(v).astype(complex))
    return rho, derivs


def holevo_direct_oracle(rho, derivs, w_mat, seed=0, starts=8, max_iter=40000):
    """Constraint-eliminated minimization of the Holevo functional.

    Parameterizes each estimator component over a basis of rho-traceless
    Hermitian operators, solves the local-unbiasedness constraints exactly,
    and simplex-minimizes over the remaining free coordinates.  Shares no
    code with the tangent-space route beyond the trace norm.
    """
    n = rho.shape[0]
    d = len(derivs)
    ops = []
    for i in range(n):
        for j in range(i, n):
            if i == j:
                m = np.zeros((n, n), complex)
                m[i, i] = 1.0
                ops.append(m)
            else:
                m = np.zeros((n, n), complex)
                m[i, j] = m[j, i] = 1.0
                ops.append(m)
                m = np.zeros((n, n), complex)
                m[i, j] = -1j
                m[j, i] = 1j
                ops.append(m)
    eye = np.eye(n)
    ops = [m - np.real(np.trace(rho @ m)) * eye for m in ops]
    # drop one dependent direction (the identity projected away): use SVD basis
    flat = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in ops]).T
    _, sv, vt = np.linalg.svd(flat, full_matrices=False)
    keep = sv > 1e-10 * sv[0]
    basis = []
    for row in vt[keep]:
        m = sum(row[a] * ops[a] for a in range(len(ops)))
        basis.append(m)
    nb = len(basis)
    constraint = np.zeros((d, nb))
    for nu in range(d):
        for a in range(nb):
            constraint[nu, a] = np.real(np.trace(derivs[nu] @ basis[a]))
    pinv = np.linalg.pinv(constraint)
    c0 = pinv  # columns: particular solution for each unit target
    _, sv_c, vt_c = np.linalg.svd(constraint)
    null = vt_c[(sv_c > 1e-10 * sv_c[0]).sum():].T  # nb x k
    k_free = null.shape[1]
    sqrt_w = spd_sqrt(w_mat)

    def objective(y_flat):
        y = y_flat.reshape(k_free, d)
        coeffs = c0 + null @ y
        xs = [sum(coeffs[a, mu] * basis[a] for a in range(nb)) for mu in range(d)]
        z = np.empty((d, d), complex)
        for a in range(d):
            for b in range(d):
                z[a, b] = np.trace(rho @ xs[a] @ xs[b])
        return float(np.trace(w_mat @ z.real)) + tracenorm_antisym(sqrt_w @ z.imag @ sqrt_w)

    rng = np.random.default_rng(seed)
    best = objective(np.zeros(k_free * d))
    for s in range(starts):
        x0 = np.zeros(k_free * d) if s == 0 else rng.normal(size=k_free * d) * 0.3
        x, f, _ = nelder_mead(objective, x0, step=0.2, max_iter=max_iter, f_tol_rel=1e-14)
        # polish
        x, f, _ = nelder_mead(objective, x, step=0.02, max_iter=max_iter, f_tol_rel=1e-14)
        best = min(best, f)
    return best


def holevo_ladder(setup, max_iter=5000, tol=1e-9, restarts=8, seed=0, max_rounds=4):
    """The Nelder-Mead ladder the dual solve replaced: simplex descent from
    K = 0 and from seeded random perturbations of scale 0.1 ||Q^-1||, rounds
    at a shrinking scale until one improves the value by less than ``tol``
    (relative), then a polish on the trace norm smoothed to
    sum sqrt(sigma^2 + mu^2), each result scored with the exact objective.
    Any K gives an upper bound, so this is a one-sided oracle."""
    d, m = setup.left.shape
    objective = _objective(setup)

    def smoothed(mu):
        def value(k):
            b = k.reshape(m, d) @ setup.frame.sqrt_w
            cross = setup.left @ b
            im_z = setup.frame.core + b.T @ (setup.gram.imag @ b) + cross - cross.T
            sv = np.linalg.svd(im_z, compute_uv=False)[::2]  # singular values come in pairs
            return float(setup.frame.c_sld + np.sum(b * (setup.gram.real @ b))
                         + 2.0 * np.sum(np.sqrt(sv * sv + mu * mu)))
        return value

    scale = 0.1 * float(np.max(np.abs(np.linalg.eigvalsh(setup.frame.qinv))))
    rng = np.random.default_rng(seed)
    best_x, best_f = np.zeros(m * d), float(objective(np.zeros(m * d)))
    at_zero = best_f

    def attempt(x0, step):
        nonlocal best_x, best_f
        x, f, _ = nelder_mead(objective, x0, step=step, max_iter=max_iter)
        if f < best_f:
            best_f, best_x = f, x

    for round_idx in range(max_rounds):
        round_before = best_f
        round_scale = max(scale * 0.25**round_idx, 1e-10 * max(scale, 1.0))
        if round_idx == 0:
            attempt(np.zeros(m * d), round_scale)
        for _ in range(restarts if round_idx == 0 else min(2, restarts)):
            attempt(best_x + rng.normal(size=m * d) * round_scale, round_scale)
        for _ in range(3):
            before = best_f
            attempt(best_x, round_scale)
            if before - best_f <= tol * abs(best_f):
                break
        if round_before - best_f <= tol * abs(best_f):
            break
    if at_zero - best_f > tol * abs(best_f):
        for mu_rel in (1e-3, 1e-5, 1e-7, 1e-9):
            x, _, _ = nelder_mead(smoothed(mu_rel * max(abs(best_f), 1e-6)), best_x,
                                  step=max(np.sqrt(mu_rel) * scale, 1e-9), max_iter=max_iter)
            f = float(objective(x))
            if f < best_f:
                best_f, best_x = f, x
    return best_f


class TestScalarBounds:
    def test_c_sld_diag(self):
        g = geometry_from_matrices(np.diag([4.0, 2.0]), np.zeros((2, 2)))
        assert c_sld(g, np.eye(2)) == pytest.approx(0.75, abs=1e-14)

    def test_c_sld_mixed_qubit_closed_form(self):
        r0 = (0.3, 0.2, 0.5)
        phi, l1 = 0.35, 0.525
        xi = 2 * l1 - phi
        pt = tq_point(r0, phi, l1)
        g = compute_geometry(pt.rho, pt.derivs)
        b0 = r0[1] * np.sin(xi) - r0[0] * np.cos(xi)
        rr = sum(v * v for v in r0)
        assert c_sld(g, np.eye(2)) == pytest.approx(0.25 * (1 / rr + 1 / b0**2), rel=1e-10)

    def test_c_sld_qfim_weight_counts_parameters(self, rng):
        rho, derivs = random_model(rng, 3, 3)
        g = compute_geometry(rho, derivs)
        assert c_sld(g, g.qfim) == pytest.approx(3.0, rel=1e-10)

    def test_c_rld_classical_equals_sld(self, rng):
        rho, derivs = classical_model(rng)
        g = compute_geometry(rho, derivs)
        j = rld_qfim(rho, derivs)
        assert c_rld(j, np.eye(2)) == pytest.approx(c_sld(g, np.eye(2)), abs=1e-8)

    def test_c_rld_mixed_qubit_finite(self):
        r0 = np.array([0.3, 0.2, 0.5])
        r0 *= 0.7 / np.linalg.norm(r0)
        pt = tq_point(tuple(r0))
        j = rld_qfim(pt.rho, pt.derivs)
        val = c_rld(j, np.eye(2))
        assert np.isfinite(val) and val >= 0

    def test_c_rld_singular(self):
        with pytest.raises(SingularState):
            c_rld(np.diag([1.0, 0.0]).astype(complex), np.eye(2))

    def test_c_t_c_r_hand_example(self):
        g = geometry_from_matrices(np.diag([4.0, 2.0]), [[0.0, 1.0], [-1.0, 0.0]])
        assert c_t_bound(g, np.eye(2)) == pytest.approx(1.0, abs=1e-12)
        assert c_r_bound(g, np.eye(2)) == pytest.approx(0.75 * (1 + 1 / np.sqrt(8)), abs=1e-9)

    def test_zero_curvature_collapses_bounds(self, rng):
        rho, derivs = classical_model(rng)
        g = compute_geometry(rho, derivs)
        w = random_spd(rng, 2)
        base = c_sld(g, w)
        assert c_t_bound(g, w) == pytest.approx(base, abs=1e-10)
        assert c_r_bound(g, w) == pytest.approx(base, abs=1e-10)

    def test_pure_qubit_c_t_closed_form(self, rng):
        for _ in range(10):
            cfg = model_config(
                "tunable_qubit",
                alpha=rng.uniform(0.3, 2.8), beta=rng.uniform(0, 2 * np.pi),
                gamma=rng.uniform(0.2, 1.4), theta=rng.uniform(0.2, 2.9),
                phi=rng.uniform(0, 2 * np.pi),
            )
            pt = model_point(cfg, (0.0, 0.0))
            g = compute_geometry(pt.rho, pt.derivs)
            if np.linalg.cond(g.qfim) > 1e8:
                continue
            w = random_spd(rng, 2)
            prod = w @ np.linalg.inv(g.qfim)
            closed = np.trace(prod) + 2 * np.sqrt(max(np.linalg.det(prod), 0.0))
            assert c_t_bound(g, w) == pytest.approx(float(closed), rel=1e-9)

    def test_direct_form_equals_one_plus_t(self, rng):
        rho, derivs = random_model(rng, 3, 2)
        g = compute_geometry(rho, derivs)
        w = random_spd(rng, 2)
        assert c_t_bound(g, w) == pytest.approx(
            (1 + t_measure(g, w)) * c_sld(g, w), rel=1e-12
        )


class TestPureQubitClosedForm:
    def test_hand_values(self):
        g = geometry_from_matrices(np.diag([4.0, 2.0]), np.zeros((2, 2)))
        assert holevo_pure_qubit_closed_form(g, np.eye(2)) == pytest.approx(
            0.75 + 2 * np.sqrt(1 / 8), abs=1e-12
        )
        assert holevo_pure_qubit_closed_form(g, g.qfim) == pytest.approx(4.0, abs=1e-12)

    def test_matches_tangent_min(self):
        cfg = model_config(
            "tunable_qubit", alpha=1.1, beta=0.3, gamma=0.6, theta=1.1, phi=0.4
        )
        pt = model_point(cfg, (0.2, 0.1))
        g = compute_geometry(pt.rho, pt.derivs)
        basis = tangent_normal_decomposition(pt.rho, g)
        sol = holevo_tangent_min(g, basis, np.eye(2))
        closed = holevo_pure_qubit_closed_form(g, np.eye(2))
        assert sol.value == pytest.approx(closed, rel=1e-6)


class TestTangentObjective:
    def test_value_at_zero_is_c_t(self, rng):
        for n, d in ((2, 2), (3, 2), (3, 3)):
            rho, derivs = random_model(rng, n, d)
            g = compute_geometry(rho, derivs)
            basis = tangent_normal_decomposition(rho, g)
            w = random_spd(rng, d)
            objective = tangent_objective(g, basis, w)
            assert objective(np.zeros(basis.size * d)) == pytest.approx(
                c_t_bound(g, w), rel=1e-12
            )

    def test_matches_holevo_functional_of_actual_operators(self, rng):
        # the K-parameterized objective must equal h[Z] evaluated on the
        # reconstructed estimator tuple
        for n, d in ((2, 2), (3, 3)):
            rho, derivs = random_model(rng, n, d)
            g = compute_geometry(rho, derivs)
            basis = tangent_normal_decomposition(rho, g)
            w = random_spd(rng, d)
            objective = tangent_objective(g, basis, w)
            qinv = np.linalg.inv(g.qfim)
            sqrt_w = spd_sqrt(w)
            for _ in range(5):
                k = rng.normal(size=(basis.size, d))
                xs = []
                for mu in range(d):
                    x = sum(g.slds[i] * qinv[i, mu] for i in range(d))
                    x = x + sum(basis.ops[j] * k[j, mu] for j in range(basis.size))
                    xs.append(x)
                z = np.empty((d, d), complex)
                for a in range(d):
                    for b in range(d):
                        z[a, b] = np.trace(rho @ xs[a] @ xs[b])
                direct = float(np.trace(w @ z.real)) + tracenorm_antisym(
                    sqrt_w @ z.imag @ sqrt_w
                )
                assert objective(k.ravel()) == pytest.approx(direct, rel=1e-10)

    def test_convexity_probe(self, rng):
        rho, derivs = random_model(rng, 3, 2)
        g = compute_geometry(rho, derivs)
        basis = tangent_normal_decomposition(rho, g)
        w = random_spd(rng, 2)
        objective = tangent_objective(g, basis, w)
        nvar = basis.size * 2
        for _ in range(40):
            k1 = rng.normal(size=nvar)
            k2 = rng.normal(size=nvar)
            t = rng.uniform(0.05, 0.95)
            lhs = objective(t * k1 + (1 - t) * k2)
            rhs = t * objective(k1) + (1 - t) * objective(k2)
            assert lhs <= rhs + 1e-9


class TestHolevoTangentMin:
    def test_qutrit_anchor(self):
        cfg = model_config("su2_qutrit", alpha=np.pi / 4, beta=0.0, t=1.0)
        pt = model_point(cfg, (np.pi, 0.0, 0.0))
        g = compute_geometry(pt.rho, pt.derivs)
        basis = tangent_normal_decomposition(pt.rho, g)
        sol = holevo_tangent_min(g, basis, np.eye(3))
        assert sol.value == pytest.approx((11 + np.sqrt(2)) / 8, abs=1e-4)
        assert np.max(np.abs(sol.k_matrix)) <= 1e-4
        assert sol.converged

    def test_zero_curvature_returns_c_sld(self, rng):
        rho, derivs = classical_model(rng)
        g = compute_geometry(rho, derivs)
        basis = tangent_normal_decomposition(rho, g)
        sol = holevo_tangent_min(g, basis, np.eye(2))
        assert sol.value == pytest.approx(c_sld(g, np.eye(2)), rel=1e-9)

    def test_weight_frame_equals_weight_matrix(self, rng):
        # full_report solves on the weight frame it built from W, and gives
        # the very floats holevo_tangent_min gives from W
        qutrit = model_config("su2_qutrit", alpha=np.pi / 4, beta=0.0, t=1.0)
        qubit = model_config("su2_qubit", alpha=np.pi / 2, beta=0.0, t=5.0)
        # m = 1 with d = 2 and d = 3, and m = 0
        for pt in (tq_point(), model_point(qutrit, (2.9, 0.2, 0.0)), model_point(qubit, (0.8, 0.6))):
            g = compute_geometry(pt.rho, pt.derivs)
            basis = tangent_normal_decomposition(pt.rho, g)
            w = random_spd(rng, g.n_params)
            by_matrix = holevo_tangent_min(g, basis, w)
            by_frame = full_report(pt, w, ReportOptions(compute_rld=False), geometry=g).holevo
            assert by_frame.value == by_matrix.value
            assert np.array_equal(by_frame.k_matrix, by_matrix.k_matrix)

    def test_empty_normal_space_returns_c_t(self):
        cfg = model_config(
            "tunable_qubit", alpha=0.9, beta=0.2, gamma=np.pi / 4, theta=np.pi / 2, phi=0.3
        )
        pt = model_point(cfg, (0.4, 0.0))
        g = compute_geometry(pt.rho, pt.derivs)
        basis = tangent_normal_decomposition(pt.rho, g)
        assert basis.size == 0
        sol = holevo_tangent_min(g, basis, np.eye(2))
        assert sol.converged
        assert sol.value == pytest.approx(c_t_bound(g, np.eye(2)), rel=1e-12)
        prod = np.eye(2) @ np.linalg.inv(g.qfim)
        closed = np.trace(prod) + 2 * np.sqrt(max(np.linalg.det(prod), 0.0))
        assert sol.value == pytest.approx(float(closed), rel=1e-9)

    def test_never_worse_than_start(self, rng):
        for _ in range(5):
            rho, derivs = random_model(rng, 3, 2)
            g = compute_geometry(rho, derivs)
            basis = tangent_normal_decomposition(rho, g)
            w = random_spd(rng, 2)
            sol = holevo_tangent_min(g, basis, w)
            objective = tangent_objective(g, basis, w)
            assert sol.value <= objective(np.zeros(basis.size * 2)) + 1e-12
            assert sol.value == pytest.approx(objective(sol.k_matrix.ravel()), rel=1e-10)

    def test_agrees_with_direct_oracle_qubit(self, rng):
        for _ in range(4):
            rho, derivs = random_model(rng, 2, 2)
            g = compute_geometry(rho, derivs)
            basis = tangent_normal_decomposition(rho, g)
            w = random_spd(rng, 2)
            sol = holevo_tangent_min(g, basis, w)
            direct = holevo_direct_oracle(rho, derivs, w, seed=1)
            assert sol.value == pytest.approx(direct, rel=2e-5)

    def test_agrees_with_direct_oracle_qutrit(self, rng):
        rho, derivs = random_model(rng, 3, 2)
        g = compute_geometry(rho, derivs)
        basis = tangent_normal_decomposition(rho, g)
        sol = holevo_tangent_min(g, basis, np.eye(2))
        direct = holevo_direct_oracle(rho, derivs, np.eye(2), seed=3, starts=10)
        assert sol.value == pytest.approx(direct, rel=2e-4)

    def test_never_above_direct_oracle_three_params(self, rng):
        # 15-variable case: the direct search converges slower, so the
        # comparison is one-sided; the tangent route must do at least as
        # well as any independently found feasible value
        rho, derivs = random_model(rng, 3, 3)
        g = compute_geometry(rho, derivs)
        basis = tangent_normal_decomposition(rho, g)
        w = random_spd(rng, 3)
        sol = holevo_tangent_min(g, basis, w)
        direct = holevo_direct_oracle(rho, derivs, w, seed=7, starts=4, max_iter=20000)
        assert sol.value <= direct * (1 + 1e-6)
        assert sol.value >= c_sld(g, w) * (1.0 - 1e-9)


def one_dim_normal_space(rng, kind):
    """A random model whose SLD normal space has one direction: a full-rank
    qubit with two parameters or a pure qutrit with three."""
    rho, derivs = random_model(rng, 2, 2) if kind == "mixed_qubit" else random_pure_model(rng, 3, 3)
    g = compute_geometry(rho, derivs)
    basis = tangent_normal_decomposition(rho, g)
    assert basis.size == 1
    return rho, g, basis, random_spd(rng, len(derivs))


def axial_split(setup):
    """(q, p): the norms of the core's axial part in and out of the range of M."""
    core, s = setup.frame.core, setup.left[:, 0]
    if core.shape[0] == 2:
        return abs(core[0, 1]), 0.0
    c = np.array([core[1, 2], -core[0, 2], core[0, 1]])
    p = abs(c @ s) / np.linalg.norm(s)
    return np.sqrt(c @ c - p * p), p


KINDS = ("mixed_qubit", "pure_qutrit")


class TestHolevoExact:
    """The exact path for a one-dimensional normal space with d = 2, 3,
    against the simplex ladder that it replaces there."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_ladder(self, rng, kind):
        for _ in range(100):
            rho, g, basis, w = one_dim_normal_space(rng, kind)
            sol = holevo_tangent_min(g, basis, w)
            ladder = holevo_ladder(tangent_setup(g, basis, w), restarts=1, max_rounds=2)
            assert sol.converged
            assert sol.value <= ladder
            assert sol.value == pytest.approx(ladder, rel=1e-10)
            objective = tangent_objective(g, basis, w)
            assert objective(sol.k_matrix.ravel()) == pytest.approx(sol.value, rel=1e-12)

    def test_two_parameter_formula(self, rng):
        branches = set()
        for _ in range(20):
            rho, g, basis, w = one_dim_normal_space(rng, "mixed_qubit")
            setup = tangent_setup(g, basis, w)
            s2 = float(setup.left[:, 0] @ setup.left[:, 0])
            weight = basis.gram.real[0, 0]
            q, _ = axial_split(setup)
            kink = q * weight >= s2
            branches.add(kink)
            want = c_t_bound(g, w) - s2 / weight if kink else c_sld(g, w) + weight * q * q / s2
            assert holevo_tangent_min(g, basis, w).value == pytest.approx(want, rel=1e-12)
        assert branches == {True, False}

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_coupling_gives_c_t(self, rng, kind):
        rho, g, basis, w = one_dim_normal_space(rng, kind)
        basis = basis._replace(coupling=np.zeros_like(basis.coupling))
        sol = holevo_tangent_min(g, basis, w)
        assert sol.value == pytest.approx(c_t_bound(g, w), rel=1e-14)
        assert not np.any(sol.k_matrix)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_curvature_gives_c_sld(self, rng, kind):
        rho, g, basis, w = one_dim_normal_space(rng, kind)
        g = replace(g, uhlmann=np.zeros_like(g.uhlmann))
        sol = holevo_tangent_min(g, basis, w)
        assert sol.value == pytest.approx(c_sld(g, w), rel=1e-14)
        assert not np.any(sol.k_matrix)

    def test_interior_root(self, rng):
        rho, g, basis, w = one_dim_normal_space(rng, "pure_qutrit")
        setup = tangent_setup(g, basis, w)
        s2 = float(setup.left[:, 0] @ setup.left[:, 0])
        weight = basis.gram.real[0, 0]
        q, p = axial_split(setup)
        assert p > 1e-3 * q
        tau = _shrink(q, p, weight, s2)
        assert 0.0 < tau < q
        # stationarity of weight tau^2 / s2 + 2 sqrt(p^2 + (q - tau)^2)
        assert weight * tau == pytest.approx(s2 * (q - tau) / np.hypot(p, q - tau), rel=1e-13)
        sol = holevo_tangent_min(g, basis, w)
        want = c_sld(g, w) + weight * tau**2 / s2 + 2.0 * np.hypot(p, q - tau)
        assert sol.value == pytest.approx(want, rel=1e-12)
        assert c_sld(g, w) < sol.value < c_t_bound(g, w)


    def test_shrink_starts_above_the_root(self):
        # u / sqrt(p^2 + u^2) <= u / p puts the root of the stationarity
        # condition at or below q s2 / (s2 + weight p), so the start
        # min(q, s2 / weight, q s2 / (s2 + weight p)) is an upper bound, and
        # Newton lands within 1e-15 q of where it lands from the start
        # min(q, s2 / weight) used before
        rng = np.random.default_rng(11)
        q, p, weight, s2 = (10.0 ** rng.uniform(-4.0, 4.0, 4000) for _ in range(4))

        def h(tau):
            return weight * tau - s2 * (q - tau) / np.hypot(p, q - tau)

        lo, hi = np.zeros_like(q), q.copy()
        for _ in range(200):  # h is increasing on [0, q] with h(0) < 0
            mid = 0.5 * (lo + hi)
            lo, hi = np.where(h(mid) < 0.0, mid, lo), np.where(h(mid) < 0.0, hi, mid)
        start = np.minimum(np.minimum(q, s2 / weight), q * s2 / (s2 + weight * p))
        assert np.all(start >= lo * (1.0 - 1e-15))  # above, up to the rounding of both
        tau = np.minimum(q, s2 / weight)  # the Newton steps from the old start
        moving = np.ones(len(q), bool)
        while moving.any():
            r = np.hypot(p, q - tau)
            nxt = np.maximum(tau - h(tau) / (weight + s2 * (p / r) ** 2 / r), 0.0)
            moving = nxt < tau
            tau = np.where(moving, nxt, tau)
        # relative to q, the length of the interval: a root far below q is
        # fixed by h only to within rounding of order eps q
        assert np.all(np.abs(_shrink(q, p, weight, s2) - tau) <= 1e-15 * q)


class TestHolevoDual:
    """The dual solve with its certificate, against the exact m = 1 path
    and, one-sidedly, against the ladder it replaced."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_exact_on_one_dim_normal_space(self, rng, kind):
        # an independent check of Suzuki's formula and of the d = 3 root;
        # boundary optima (pure qutrits) need the ball-constrained step
        for _ in range(100):
            rho, g, basis, w = one_dim_normal_space(rng, kind)
            exact = holevo_tangent_min(g, basis, w)
            sol = _holevo_dual(tangent_setup(g, basis, w))
            assert sol.value == pytest.approx(exact.value, rel=1e-12)
            assert sol.value - sol.lower <= 1e-12 * sol.value

    def test_full_rank_models_certified_below_ladder(self, rng):
        # four random weighted full-rank models at each (n, d), m = 6, 5, 12
        for n, d in ((3, 2), (3, 3), (4, 3)):
            for _ in range(4):
                rho, derivs = random_model(rng, n, d)
                g = compute_geometry(rho, derivs)
                basis = tangent_normal_decomposition(rho, g)
                setup = tangent_setup(g, basis, random_spd(rng, d))
                sol = _holevo_dual(setup)
                assert sol.value - sol.lower <= HOLEVO_GAP_TOL * sol.value
                assert sol.value <= holevo_ladder(setup, restarts=1, max_rounds=2) + 1e-12

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), d=st.sampled_from([2, 3]))
    def test_bracket_properties(self, seed, n, d):
        rng = np.random.default_rng(seed)
        rho, derivs = random_model(rng, n, d)
        g = compute_geometry(rho, derivs)
        basis = tangent_normal_decomposition(rho, g)
        assert basis.size >= 2
        w = random_spd(rng, d)
        sol = holevo_tangent_min(g, basis, w)
        assert c_sld(g, w) * (1.0 - 1e-9) <= sol.lower <= sol.value <= c_t_bound(g, w)
        assert 0.0 <= sol.value - sol.lower <= HOLEVO_GAP_TOL * sol.value


class TestFullReport:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 3), (4, 4)])
    def test_matches_standalone_functions(self, rng, shape):
        # one weight frame per point: the report's scalars are the very
        # floats the public functions return
        from qmb.general import ModelPoint

        n, d = shape
        opts = ReportOptions(compute_rld=False, compute_holevo=False)
        for _ in range(20):
            rho, derivs = random_model(rng, n, d)
            w = random_spd(rng, d)
            g = compute_geometry(rho, derivs)
            point = ModelPoint(params=(0.0,) * d, rho=rho, derivs=tuple(derivs))
            report = full_report(point, w, opts, geometry=g)
            assert report.c_sld == c_sld(g, w)
            assert report.r_value == quantumness_R(g)
            assert report.t_value == t_measure(g, w)
            assert report.c_t == c_t_bound(g, w)
            assert report.c_r == c_r_bound(g, w)

    def test_zero_curvature_all_equal(self, rng):
        from qmb.general import ModelPoint

        rho, derivs = classical_model(rng)
        point = ModelPoint(params=(0.0, 0.0), rho=rho, derivs=tuple(derivs))
        report = full_report(point, np.eye(2))
        assert report.c_h == pytest.approx(report.c_sld, rel=1e-9)
        assert report.c_t == pytest.approx(report.c_sld, rel=1e-12)
        assert report.c_r == pytest.approx(report.c_sld, rel=1e-12)

    def test_mixed_qubit_gaps_ordered(self):
        pt = tq_point()
        report = full_report(pt, np.eye(2))
        gaps = [
            (report.c_h - report.c_sld) / report.c_sld,
            (report.c_t - report.c_sld) / report.c_sld,
            (report.c_r - report.c_sld) / report.c_sld,
        ]
        assert all(np.isfinite(gaps))
        assert gaps[0] <= gaps[1] + 1e-12 <= gaps[2] + 1e-9

    def test_su2_qubit_strict_r_t_separation(self):
        cfg = model_config("su2_qubit", alpha=np.pi / 2, beta=0.0, t=5.0)
        pt = model_point(cfg, (0.8, 0.6))
        report = full_report(pt, np.eye(2))
        assert report.c_r > report.c_t

    def test_weight_frame_built_once(self, monkeypatch):
        # the Holevo solve reuses the report's weight frame: W is validated
        # and square-rooted once per report
        import qmb.geometry as geometry

        calls = []
        for name in ("require_weight", "spd_sqrt"):
            fn = getattr(geometry, name)
            monkeypatch.setattr(
                geometry, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
            )
        cfg = model_config("su2_qutrit", alpha=np.pi / 4, beta=0.0, t=1.0)
        for pt, w in ((tq_point(), np.diag([1.0, 2.0])), (model_point(cfg, (2.9, 0.2, 0.0)), np.eye(3))):
            calls.clear()
            report = full_report(pt, w, ReportOptions(compute_rld=False))
            assert report.c_h is not None
            assert sorted(calls) == ["require_weight", "spd_sqrt"]

    def test_normal_space_reads_q_decomposition(self, rng, monkeypatch):
        # the normal space reads its tangent frame from the factor F of
        # Q^-1 = F^T F that inverted Q: a full-rank qutrit with two
        # parameters decomposes rho, Q, W (for its root) and the (1, 8, 8)
        # normal-space form by eigh, once each, before the dual solve,
        # whose matrices are not stacked
        from qmb.general import ModelPoint

        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *r, **k: shapes.append(np.shape(a)) or eigh(a, *r, **k))
        rho, derivs = random_model(rng, 3, 2)
        report = full_report(ModelPoint((0.0, 0.0), rho, tuple(derivs)), np.diag([1.0, 2.0]),
                             ReportOptions(compute_rld=False))
        assert report.holevo.iterations > 0
        stacked = [shape for shape in shapes if len(shape) == 3]
        assert shapes[:4] == [(3, 3), (2, 2), (2, 2), (1, 8, 8)]
        assert stacked == [(1, 8, 8)]

    def test_pure_state_flags_rld(self):
        cfg = model_config("su2_qubit", alpha=np.pi / 2, beta=0.0, t=5.0)
        pt = model_point(cfg, (0.8, 0.6))
        report = full_report(pt, np.eye(2))
        assert "RldUnavailable" in report.flags
        assert report.c_rld is None

    def test_rld_unavailable_rows_read_nan(self, rng):
        # a rank-deficient row of matrix input takes the identity in place
        # of rho in the stacked RLD solve; its c_rld is NaN, not the bound of
        # that identity, and the full-rank row beside it reads as it does alone
        (pure, pure_d), (full, full_d) = random_pure_model(rng, 3, 2), random_model(rng, 3, 2)
        opts = ReportOptions(compute_holevo=False)

        def c_rld_column(rho, derivs):
            rho, derivs = np.array(rho), np.array(derivs)
            g = compute_geometry(rho, derivs)
            w = np.broadcast_to(np.eye(2), (len(rho), 2, 2))
            cols = batch_reports(rho, derivs, g, w, w, opts)
            return cols["c_rld"], cols["flags"]["RldUnavailable"]

        both, flags = c_rld_column([pure, full], [pure_d, full_d])
        assert flags.tolist() == [True, False]
        assert np.isnan(both[0])
        alone, _ = c_rld_column([full], [full_d])
        assert both[1] == alone[0] and np.isfinite(alone[0])

    def test_singular_qfim_yields_null_fields(self):
        pt = tq_point(l1=(np.arctan2(0.3, 0.2) + 0.35) / 2)
        report = full_report(pt, np.eye(2))
        assert "SingularQFIM" in report.flags
        assert report.c_sld is None and report.c_h is None

    def test_pseudo_inverse_mode_flags(self):
        pt = tq_point(l1=(np.arctan2(0.3, 0.2) + 0.35) / 2)
        report = full_report(pt, np.eye(2), ReportOptions(pseudo_inverse=True))
        assert "PseudoInverseUsed" in report.flags
        assert report.c_sld is not None and report.t_value is not None

    def test_weight_rotation_equivariance(self, rng):
        rho, derivs = random_model(rng, 3, 2)
        g = compute_geometry(rho, derivs)
        w = random_spd(rng, 2)
        wt = weight_transform(g, w)
        assert c_sld(g, w) == pytest.approx(
            c_sld(wt.rotated, wt.diagonal_weight), rel=1e-10
        )
        assert c_t_bound(g, w) == pytest.approx(
            c_t_bound(wt.rotated, wt.diagonal_weight), rel=1e-10
        )
        assert quantumness_R(g) == pytest.approx(quantumness_R(wt.rotated), abs=1e-10)
        basis = tangent_normal_decomposition(rho, g)
        basis_rot = tangent_normal_decomposition(rho, wt.rotated)
        sol = holevo_tangent_min(g, basis, w)
        sol_rot = holevo_tangent_min(wt.rotated, basis_rot, wt.diagonal_weight)
        assert sol.value == pytest.approx(sol_rot.value, rel=1e-8)

    def test_hierarchy_random_models(self, rng):
        opts = ReportOptions(compute_rld=False)
        from qmb.general import ModelPoint

        for _ in range(40):
            n = int(rng.integers(2, 4))
            d = int(rng.integers(2, 4))
            rho, derivs = random_model(rng, n, d)
            point = ModelPoint(params=tuple([0.0] * d), rho=rho, derivs=tuple(derivs))
            w = random_spd(rng, d)
            report = full_report(point, w, opts)
            eps = 1e-7 * report.c_sld
            assert report.c_sld * (1.0 - 1e-9) <= report.c_h <= report.c_t + eps
            assert report.c_t <= report.c_r + eps <= 2 * report.c_sld + 2 * eps

    @pytest.mark.parametrize("make", [random_model, random_pure_model])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_parameter_models(self, rng, make, n):
        # with d = 1 the antisymmetric part vanishes: C_H = C_SLD = C_T at K = 0
        from qmb.general import ModelPoint

        for _ in range(5):
            rho, derivs = make(rng, n, 1)
            w = random_spd(rng, 1)
            report = full_report(ModelPoint((0.0,), rho, tuple(derivs)), w)
            assert report.c_h == report.c_sld == report.c_t
            assert report.t_value == 0.0 and report.holevo.converged
            m = report.holevo.k_matrix.shape[0]
            assert report.holevo.k_matrix.shape == (m, 1) and not report.holevo.k_matrix.any()
            assert m == (n * n - 2 if make is random_model else 2 * n - 3)
            g = compute_geometry(rho, derivs)
            sol = holevo_tangent_min(g, tangent_normal_decomposition(rho, g), w)
            assert sol.value == report.c_h

    def test_non_convergence_is_flagged_not_fatal(self, rng, monkeypatch):
        # one Newton step leaves the dual short of the tolerance: the row
        # keeps its primal value, inside its certified bracket, and a flag
        from qmb.general import ModelPoint

        monkeypatch.setattr(general, "_DUAL_MAX_ITER", 1)
        rho, derivs = random_model(rng, 3, 3)
        point = ModelPoint(params=(0.0, 0.0, 0.0), rho=rho, derivs=tuple(derivs))
        report = full_report(point, np.eye(3), ReportOptions(compute_rld=False))
        sol = report.holevo
        assert report.c_h == sol.value
        assert report.c_sld * (1.0 - 1e-9) <= sol.lower <= sol.value <= report.c_t
        unconverged = sol.value - sol.lower > HOLEVO_GAP_TOL * sol.value
        assert unconverged
        assert ("HolevoNotConverged" in report.flags) == unconverged

    def test_four_parameters_certified_or_flagged(self, rng):
        # d = 4 projects its steps and carries no gap guarantee: the report
        # holds a value in its bracket and flags a gap above tolerance
        from qmb.general import ModelPoint

        rho, derivs = random_model(rng, 3, 4)
        point = ModelPoint(params=(0.0,) * 4, rho=rho, derivs=tuple(derivs))
        report = full_report(point, random_spd(rng, 4), ReportOptions(compute_rld=False))
        sol = report.holevo
        assert report.c_sld * (1.0 - 1e-9) <= sol.lower <= sol.value == report.c_h <= report.c_t
        unconverged = sol.value - sol.lower > HOLEVO_GAP_TOL * sol.value
        assert ("HolevoNotConverged" in report.flags) == unconverged

    def test_hierarchy_violation_detection(self):
        bad = BoundsReport(
            c_sld=1.0, c_rld=None, c_t=0.5, c_r=2.5, c_h=0.2,
            r_value=1.5, t_value=-0.5, holevo=None, flags=frozenset(),
        )
        with pytest.raises(HierarchyViolation):
            _check_hierarchy(bad)

    def test_hierarchy_lower_link_is_relative(self):
        # C_H >= C_SLD holds to HIERARCHY_SLACK C_SLD, as every other link
        # does: at C_SLD = 1e-10 a C_H of 0 is a violation
        tiny = BoundsReport(
            c_sld=1e-10, c_rld=None, c_t=1e-10, c_r=1e-10, c_h=0.0,
            r_value=0.0, t_value=0.0, holevo=None, flags=frozenset(),
        )
        with pytest.raises(HierarchyViolation, match="C_H < C_SLD"):
            _check_hierarchy(tiny)
        _check_hierarchy(tiny._replace(c_h=1e-10 * (1.0 - 0.5 * HIERARCHY_SLACK)))

    def test_hierarchy_violation_raised_by_full_report(self, monkeypatch):
        # one point is a batch of one: its chain is checked like a chunk's
        point = model_point(model_config("su2_qubit", alpha=1.0, beta=0.3, t=1.0), (0.8, 0.4))
        report = full_report(point, np.eye(2))
        monkeypatch.setattr(bounds, "_spectral_radius", lambda g: np.full(len(g.qfim), 1.5))
        with pytest.raises(HierarchyViolation) as info:
            full_report(point, np.eye(2))
        c_s = report.c_sld
        assert str(info.value) == (f"C_R > 2 C_SLD: c_sld={c_s!r} c_h={report.c_h!r} "
                                   f"c_t={report.c_t!r} c_r={2.5 * c_s!r}")


def _normal_space_sizes(rho, g):
    sizes = np.empty(len(rho), int)
    for rows, basis in _normal_spaces(*_gell_mann_coordinates(rho, g.slds), g._qfim_inverses[4]):
        sizes[rows] = basis.coeffs.shape[-1]
    return sizes


class TestPureStateShortcut:
    """A pure state whose tangent space fills the 2(n - 1) directions of the
    pure states has no normal space (Matsumoto 2002); batch_reports skips
    building it for those rows, and only for those."""

    @staticmethod
    def _assert_shortcut_rows_are_the_empty_ones(monkeypatch, rho, derivs):
        """The rows batch_reports sends to the normal space are exactly the
        regular rows whose normal space is not empty; returns the geometry,
        the sizes and the ill mask for further checks."""
        g = compute_geometry(rho, derivs)
        ill = g._qfim_inverses[2]
        sizes = _normal_space_sizes(rho, g)
        sent = []

        def recorded(rho_rows, slds_rows):
            sent.append(rho_rows)
            return _gell_mann_coordinates(rho_rows, slds_rows)

        monkeypatch.setattr(general, "_gell_mann_coordinates", recorded)
        d = derivs.shape[-3]
        eye = np.broadcast_to(np.eye(d), (len(rho), d, d))
        cols = batch_reports(rho, derivs, g, eye, eye, ReportOptions(compute_rld=False))
        monkeypatch.undo()
        assert len(sent) <= 1
        got = sent[0] if sent else rho[:0]
        np.testing.assert_array_equal(got, rho[~ill & (sizes > 0)])
        empty = ~ill & (sizes == 0)
        np.testing.assert_array_equal(cols["c_h"][empty], cols["c_t"][empty])
        np.testing.assert_array_equal(cols["lower"][empty], cols["c_t"][empty])
        return g, sizes, ill

    def test_su2_qubit_grid_crossing_the_singular_line(self, monkeypatch):
        # B t = 2 pi carries no theta information: approaching it, cond(Q)
        # grows as the inverse square of the offset, past 1 / RANK_TOL into
        # ill rows, the 24 rows with cond(Q) in (1e9, 1e12] included.  No
        # regular row loses a tangent direction to a one-direction normal
        # space: each fills the pure qubit's directions and takes the
        # shortcut.  The density matrices come from the matrix path that
        # model_point keeps; the model's vectors draw the same line and send
        # no row to the normal space either
        offsets = np.concatenate([-np.logspace(-2.0, -7.5, 23), [0.0], np.logspace(-7.5, -2.0, 23)])
        params = np.stack(np.broadcast_arrays(2.0 * np.pi + offsets[:, None], [[0.3, 0.9]]), -1)
        cfg = model_config("su2_qubit", alpha=1.0, beta=0.3, t=1.0)
        rho, derivs = (x.reshape((-1,) + x.shape[2:]) for x in _su2_state(cfg, params))
        g, sizes, ill = self._assert_shortcut_rows_are_the_empty_ones(monkeypatch, rho, derivs)
        q = np.linalg.eigvalsh(g.qfim)
        cond = q[:, -1] / np.maximum(q[:, 0], 1e-300)
        near = (cond > 1e9) & (cond <= 1e12)
        np.testing.assert_array_equal(ill, cond > 1.0 / RANK_TOL)  # 0.5% from it at the closest
        assert near.sum() >= 4 and ill[near].all() and (sizes[~ill] == 0).all()
        assert ill.sum() >= 4 and (~ill & (sizes == 0)).sum() >= 40

        psi0, ells = model_arrays(cfg, params).pure  # psi0 (2,) is set by the constants alone
        ells = ells.reshape((-1,) + ells.shape[2:])
        psi = np.broadcast_to(psi0, ells.shape[:-2] + psi0.shape)
        g = model_geometry(None, None, (psi, ells), None)
        np.testing.assert_array_equal(g._qfim_inverses[2], ill)
        sent = []

        monkeypatch.setattr(general, "_normal_spaces", lambda *a: sent.append(a[0]))
        eye = np.broadcast_to(np.eye(2), (len(psi), 2, 2))
        cols = batch_reports(None, None, g, eye, eye, ReportOptions())
        monkeypatch.undo()
        assert sent == []
        assert cols["flags"]["RldUnavailable"].all()
        np.testing.assert_array_equal(cols["c_h"][~ill], cols["c_t"][~ill])
        assert np.isnan(cols["c_h"][ill]).all()

    @pytest.mark.parametrize("radius", [1.0, 1.0 - 1e-12, 1.0 - 1e-8])
    def test_tunable_qubit_probes_near_pure(self, monkeypatch, radius):
        # rank 1 up to 1e-10: |r| = 1 - 1e-12 takes the shortcut, while
        # 1 - 1e-8 is mixed enough to keep a one-direction normal space
        r = radius * np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        cfg = model_config("tunable_qubit", gamma=0.7, theta=1.1, phi=0.4,
                           r_x=r[0], r_y=r[1], r_z=r[2])
        params = np.stack(np.broadcast_arrays(np.linspace(0.1, 1.3, 7), 0.2), -1)
        rho, derivs = _bloch_state(*model_arrays(cfg, params).bloch)
        _, sizes, ill = self._assert_shortcut_rows_are_the_empty_ones(monkeypatch, rho, derivs)
        assert not ill.any()
        assert (sizes == (1 if radius == 1.0 - 1e-8 else 0)).all()

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 4), (3, 3)])
    def test_random_pure_models(self, monkeypatch, rng, n, d):
        # (3, 3) leaves one direction of the pure states out of the tangent
        # space, so it keeps its normal space
        models = [random_pure_model(rng, n, d) for _ in range(12)]
        rho = np.stack([m[0] for m in models])
        derivs = np.stack([np.stack(m[1]) for m in models])
        _, sizes, ill = self._assert_shortcut_rows_are_the_empty_ones(monkeypatch, rho, derivs)
        assert not ill.any()
        assert (sizes == 2 * (n - 1) - d).all()


def _rotation(seed):
    """A random rotation O in SO(3)."""
    o, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return o * np.sign(np.linalg.det(o))


class TestUnitaryQubit:
    """A qubit encoded unitarily, r a rotation of r0, has r.d_k r = 0: its
    one normal direction is along r with coupling s = 0, so C_H = C_T, which
    `batch_reports` reads from the structure on the Bloch route."""

    @settings(deadline=None)
    @given(
        radius=st.one_of(st.floats(0.0, 1.0), st.floats(-14.0, -0.3).map(lambda e: 1.0 - 10.0**e)),
        polar=st.floats(0.0, np.pi), angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6,
                                                     max_size=6),
    )
    @example(radius=1.1207161765396304e-94, polar=1.0, angles=[0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    @example(radius=9.545967526615684e-154, polar=1.0, angles=[0.0, 3.0, 0.125, 0.0, 0.0, 0.0])
    def test_matrix_route_solves_to_c_t(self, radius, polar, angles):
        # the tunable qubit as rho and its derivatives, r0 anywhere in the
        # ball: `full_report` builds the normal space and solves, and finds
        # C_H = C_T within the pinned tolerance.  Where Q is regular (rank 2,
        # one normal direction x, coupling S = Im Tr[rho L_i P]), |S_i| stays
        # within 1e-14 |d_i r| |x| up to cond(Q) = 1e4 (6.6e-15 at most on
        # 2473 random rows) and within 1e-15 cond(Q) |d_i r| |x| above, where
        # the eigen route's direction carries rounding of order eps cond(Q)
        # (3.7e-16 cond(Q) at most on those rows).  C_SLD grows as
        # 1 / |r0|^2: at |r0| = 1e-94 det Q^-1 alone would overflow, and at
        # 1e-153 Q^-1 does, which makes a flagged null row
        azimuth, gamma, theta, phi, l1, l2 = angles
        r0 = radius * np.array([np.sin(polar) * np.cos(azimuth),
                                np.sin(polar) * np.sin(azimuth), np.cos(polar)])
        cfg = model_config("tunable_qubit", r_x=r0[0], r_y=r0[1], r_z=r0[2], gamma=gamma,
                           theta=theta % np.pi, phi=phi)
        point = model_point(cfg, (l1, l2))
        g = compute_geometry(point.rho, point.derivs)
        report = full_report(point, np.diag([1.0, 2.0]), ReportOptions(compute_rld=False), g)
        if report.c_h is None:  # a singular Q, or one whose inverse overflows
            assert "SingularQFIM" in report.flags
            return
        cond = np.linalg.cond(g.qfim)
        assert abs(report.c_h - report.c_t) <= (1e-12 + 1e-16 * cond) * report.c_t
        basis = tangent_normal_decomposition(point.rho, g)
        if g.tangent_dim == 2 and basis.size == 1:
            dr = np.stack(_tunable_qubit_bloch_derivs(cfg, l1, l2)[1:])
            scale = 1e-14 if cond <= 1e4 else 1e-15 * cond
            bound = scale * np.linalg.norm(dr, axis=-1) * np.linalg.norm(basis.coeffs)
            assert np.all(np.abs(basis.coupling[:, 0]) <= bound)

    def test_bloch_rows_build_no_normal_space(self, monkeypatch):
        # rows with cond(Q) from 10^0.5 to 10^11.5 and |r| anywhere in the
        # ball: every regular row takes C_H = C_T from the structure, right
        # up to the 1 / RANK_TOL line, and the ill rows past it are null;
        # none builds coordinates or a normal space, or solves
        rows = 12
        conds = np.logspace(0.5, 11.5, rows)
        o = np.stack([_rotation(seed) for seed in range(rows)])
        r = o[..., 2] * np.linspace(0.0, 1.0, rows)[:, None]
        dr = np.stack([o[..., 0], o[..., 1] / np.sqrt(conds)[:, None]], axis=-2)
        g = model_geometry(None, None, None, (r, dr))
        calls = []
        for module, name in ((general, "_gell_mann_coordinates"), (general, "_normal_spaces"),
                             (bounds, "_holevo_solutions")):
            monkeypatch.setattr(module, name, lambda *a, _name=name: calls.append(_name))
        eye = np.broadcast_to(np.eye(2), (rows, 2, 2))
        cols = batch_reports(None, None, g, eye, eye, ReportOptions(compute_rld=False))
        assert calls == []
        ill = cols["flags"]["SingularQFIM"]
        np.testing.assert_array_equal(ill, conds > 1.0 / RANK_TOL)
        np.testing.assert_array_equal(cols["c_h"][~ill], cols["c_t"][~ill])

    def test_full_report_on_one_bloch_row(self, rng):
        # full_report takes the geometry of one Bloch row, whose inverses
        # come from its structural det Q and carry no F, and gives the
        # report of the same qubit as matrices within (1e-12 + 1e-16 cond(Q))
        r = 0.7 * _rotation(3)[:, 2]
        dr = np.cross(r, rng.normal(size=(2, 3)))  # tangent: r.d r = 0
        point = ModelPoint((0.0, 0.0), *map(tuple, _bloch_state(r, dr)))
        w = random_spd(rng, 2)
        got = full_report(point, w, geometry=model_geometry(None, None, None, (r, dr)))
        want = full_report(point, w)
        cond = np.linalg.cond(compute_geometry(point.rho, point.derivs).qfim)
        assert got.flags == want.flags
        for name in ("c_sld", "c_rld", "c_t", "c_r", "c_h", "r_value", "t_value"):
            value = getattr(want, name)
            assert getattr(got, name) == pytest.approx(value, rel=1e-12 + 1e-16 * cond), name

    def test_non_unitary_qubit_reaches_the_solve(self, monkeypatch):
        # r = (a cos phi, a sin phi, z) over (a, phi) changes |r|: the Bloch
        # route refuses it, and the matrix route solves to C_H < C_T
        a, phi, z = 0.5, 0.3, 0.3
        r = np.array([a * np.cos(phi), a * np.sin(phi), z])
        dr = np.array([[np.cos(phi), np.sin(phi), 0.0], [-a * np.sin(phi), a * np.cos(phi), 0.0]])
        with pytest.raises(InvalidInput, match="d r is not tangent to r"):
            model_geometry(None, None, None, (r[None], dr[None]))
        solved = []
        monkeypatch.setattr(bounds, "_holevo_solutions", lambda setup, _fn=bounds._holevo_solutions: (
            solved.append(len(setup.left)) or _fn(setup)))
        rho, derivs = _bloch_state(r, dr)
        report = full_report(ModelPoint((a, phi), rho, tuple(derivs)), np.eye(2))
        assert solved == [1]
        assert report.c_t - report.c_h == pytest.approx(0.698004, abs=1e-6)

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_rotation_and_weight_scaling_covariance(self, seed, scale):
        # no oracle: on the Bloch route, (r, d r) -> (O r, O d r) with O in
        # SO(3) leaves Q, U, R, T, C_SLD, C_T and C_H unchanged, and
        # W -> c W scales every bound by c and leaves R and T unchanged, each
        # within the pinned tolerance (1e-12 + 1e-16 cond(Q)) |v|
        rng = np.random.default_rng(seed)
        rows = 8
        r = rng.normal(size=(rows, 3))
        r *= rng.uniform(0.0, 1.0, size=(rows, 1)) ** 0.25 / np.linalg.norm(r, axis=-1, keepdims=True)
        dr = np.cross(r[:, None, :], rng.normal(size=(rows, 2, 3)))  # tangent: r.d r = 0
        w_mat = np.stack([random_spd(rng, 2) for _ in range(rows)])
        o = _rotation(seed)
        opts = ReportOptions(compute_rld=False)

        def columns(r, dr, w_mat):
            g = model_geometry(None, None, None, (r, dr))
            cols = batch_reports(None, None, g, w_mat, spd_sqrt(w_mat), opts)
            return g, {k: cols[k] for k in ("c_sld", "c_t", "c_r", "c_h", "R", "T")}

        g, want = columns(r, dr, w_mat)
        cond = np.linalg.cond(g.qfim)
        tol = 1e-12 + 1e-16 * cond
        turned, got = columns(r @ o.T, dr @ o.T, w_mat)
        for name in ("qfim", "uhlmann"):
            x, y = getattr(turned, name), getattr(g, name)
            assert np.all(np.abs(x - y) <= tol[:, None, None] * np.max(np.abs(y), axis=(-2, -1),
                                                                        keepdims=True)), name
        for name, value in want.items():
            assert np.all(np.abs(got[name] - value) <= tol * np.abs(value)), name
        _, scaled = columns(r, dr, scale * w_mat)
        for name, value in want.items():
            factor = 1.0 if name in ("R", "T") else scale
            assert np.all(np.abs(scaled[name] - factor * value) <= tol * factor * np.abs(value)), name


class TestRoutes:
    """Each row's Holevo route (`bounds._ROUTES`), set once in
    `batch_reports`: not asked, void where Q is ill, at_zero where
    C_H = C_T at K = 0 is a theorem, exact for one normal direction with
    d <= 3, and dual otherwise."""

    @staticmethod
    def _sweep_columns(spec) -> dict:
        """The columns of every chunk of a sweep, joined."""
        columns, reports = [], sweep.batch_reports
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "batch_reports", lambda *a: columns.append(reports(*a))
                          or columns[-1])
            run_sweep(spec)
        flags = {k: np.concatenate([c["flags"][k] for c in columns]) for k in columns[0]["flags"]}
        cols = {k: None if columns[0][k] is None else np.concatenate([c[k] for c in columns])
                for k in ("route", "c_t", "c_h", "lower", "gap_h", "T")}
        return {**cols, "flags": flags}

    @staticmethod
    def _counts(route) -> dict:
        return {bounds._ROUTES[code]: int((route == code).sum()) for code in set(route.tolist())}

    @pytest.mark.parametrize("name, counts", [
        ("fig1", {"not asked": 33}), ("fig2", {"at_zero": 4096}), ("fig3a", {"at_zero": 2304}),
        ("fig3b", {"at_zero": 2304}), ("fig4", {"at_zero": 2304}), ("fig5", {"exact": 289})])
    def test_preset_route_counts(self, name, counts):
        # every preset at its default density with every output it takes:
        # fig1 asks only R and T, the unitary Bloch qubits of fig2 and fig3
        # and the pure qubit of fig4 read C_H = C_T from their structure, and
        # fig5's pure qutrit takes the closed form.  On at_zero rows gap_h is
        # T and C_H is C_T, to the bit, with lower = C_H; on exact rows the
        # dual point brackets C_H to 1e-14 relative
        spec = figure_preset(name, {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {})
        if name != "fig1":
            spec = validate_spec(replace(spec, outputs=CANONICAL_OUTPUTS))
        cols = self._sweep_columns(spec)
        assert self._counts(cols["route"]) == counts
        if cols["c_h"] is None:
            return
        at_zero = cols["route"] == bounds._AT_ZERO
        assert cols["gap_h"][at_zero].tobytes() == cols["T"][at_zero].tobytes()
        assert cols["c_h"][at_zero].tobytes() == cols["c_t"][at_zero].tobytes()
        assert cols["lower"][at_zero].tobytes() == cols["c_h"][at_zero].tobytes()
        assert np.all(cols["c_h"] - cols["lower"] <= 1e-14 * cols["c_h"])

    @pytest.mark.parametrize("n, d, route", [(3, 2, "dual"), (3, 1, "at_zero"), (2, 3, "at_zero")])
    def test_matrix_input_routes(self, rng, n, d, route):
        # matrix input: a mixed qutrit with d = 2 keeps six normal directions
        # and solves the dual; one parameter (d = 1), and a mixed qubit whose
        # three parameters fill its tangent space (m = 0), stay at K = 0
        models = [random_model(rng, n, d) for _ in range(3)]
        rho, derivs = np.stack([m[0] for m in models]), np.stack([np.stack(m[1]) for m in models])
        g = compute_geometry(rho, derivs)
        eye = np.broadcast_to(np.eye(d), (len(rho), d, d))
        cols = batch_reports(rho, derivs, g, eye, eye, ReportOptions(compute_rld=False))
        assert self._counts(cols["route"]) == {route: 3}
        ((_, code, sol),) = cols["holevo"]
        assert bounds._ROUTES[code] == route and sol.k_matrix.shape[1:] == (n * n - 1 - d, d)
        if route == "at_zero":
            assert cols["gap_h"].tobytes() == cols["T"].tobytes()
        else:
            assert np.all(sol.iterations > 0) and np.all(cols["c_h"] < cols["c_t"])
            gap = (cols["c_h"] - cols["c_sld"]) / cols["c_sld"]
            assert cols["gap_h"].tobytes() == gap.tobytes()

    def test_void_rows_are_the_singular_ones(self):
        # the near-singular reproducer of test_near_singular_sweep_completes,
        # asking for C_H: its route is void exactly on the SingularQFIM rows,
        # whose C_H cells are void, and at_zero on every other row
        spec = SweepSpec("tunable_qubit", fixed={"alpha": 1.0, "beta": 0.3, "theta": 1.1,
                                                 "phi": 0.4, "lambda2": 0.2},
                         axes=(Axis("gamma", -1e-3, 1e-3, 41), Axis("lambda1", 0.3, 0.9, 7)),
                         outputs=("c_sld", "c_h", "R"))
        cols = self._sweep_columns(spec)
        singular = cols["flags"]["SingularQFIM"]
        assert 0 < singular.sum() < len(singular)
        np.testing.assert_array_equal(cols["route"] == bounds._VOID, singular)
        assert set(cols["route"][~singular].tolist()) == {bounds._AT_ZERO}
        rows = run_sweep(spec)
        assert [row.outputs["c_h"] is None for row in rows] == singular.tolist()
