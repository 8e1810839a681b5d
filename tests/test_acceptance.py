"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math
import time
from dataclasses import replace

import numpy as np

from qmb.bounds import ReportOptions, c_sld, full_report
from qmb.general import (
    ModelPoint,
    _su2_exp,
    compute_geometry,
    generator_geometry,
    holevo_tangent_min,
    model_point,
    tangent_normal_decomposition,
    unitary_generator,
)
from qmb.geometry import geometry_from_matrices, quantumness_R, t_measure
from qmb.models import _dot_j, _su2_frame, model_config
from qmb.sweep import Axis, figure_preset, run_sweep

from conftest import analytic_geometry, random_antisymmetric, random_model, random_spd


def _passline(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


def _fd_derivs(point_fn, params, h_rel=1e-5):
    out = []
    for k in range(len(params)):
        step = h_rel * max(1.0, abs(params[k]))
        up = list(params)
        dn = list(params)
        up[k] += step
        dn[k] -= step
        out.append((point_fn(up).rho - point_fn(dn).rho) / (2 * step))
    return out


def test_criterion_01_qutrit_holevo_anchor():
    cfg = model_config("su2_qutrit", alpha=math.pi / 4, beta=0.0, t=1.0)
    pt = model_point(cfg, (math.pi, 0.0, 0.0))
    g = compute_geometry(pt.rho, pt.derivs)
    basis = tangent_normal_decomposition(pt.rho, g)
    start = time.perf_counter()
    sol = holevo_tangent_min(g, basis, np.eye(3))
    elapsed = time.perf_counter() - start
    target = (11.0 + math.sqrt(2.0)) / 8.0
    assert abs(sol.value - target) <= 1e-4
    assert sol.k_matrix.size == 0 or np.max(np.abs(sol.k_matrix)) <= 1e-4
    assert elapsed < 5.0
    _passline(1, f"qutrit anchor C_H = {sol.value:.6f} (target {target:.6f}), "
                 f"|K|max = {0.0 if sol.k_matrix.size == 0 else np.max(np.abs(sol.k_matrix)):.1e}, "
                 f"{elapsed:.2f} s")


def test_criterion_02_pure_qubit_closed_form():
    rng = np.random.default_rng(202)
    checked = 0
    worst = 0.0
    while checked < 100:
        cfg = model_config(
            "tunable_qubit",
            alpha=rng.uniform(0.15, math.pi - 0.15),
            beta=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.1, math.pi - 0.1),
            theta=rng.uniform(0.1, math.pi - 0.1),
            phi=rng.uniform(0.0, 2 * math.pi),
        )
        pt = model_point(cfg, rng.uniform(-1.5, 1.5, size=2))
        g = compute_geometry(pt.rho, pt.derivs)
        w_eigs = np.linalg.eigvalsh(g.qfim)
        if w_eigs[0] <= 0 or w_eigs[-1] / w_eigs[0] > 1e10:
            continue
        w = random_spd(rng, 2)
        basis = tangent_normal_decomposition(pt.rho, g)
        sol = holevo_tangent_min(g, basis, w)
        prod = w @ np.linalg.inv(g.qfim)
        closed = float(np.trace(prod)) + 2.0 * math.sqrt(max(np.linalg.det(prod), 0.0))
        rel = abs(sol.value - closed) / closed
        worst = max(worst, rel)
        assert rel <= 1e-6
        checked += 1
    _passline(2, f"pure-qubit Holevo equals closed form on {checked} draws "
                 f"(worst rel err {worst:.1e} <= 1e-6)")


def test_criterion_03_purity_identity():
    rng = np.random.default_rng(303)
    checked = 0
    worst_det = 0.0
    worst_r = 0.0
    while checked < 1000:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r0 = direction * rng.uniform(0.15, 0.98)
        cfg = model_config(
            "tunable_qubit",
            r_x=r0[0], r_y=r0[1], r_z=r0[2],
            gamma=math.pi / 4, theta=math.pi / 2,
            phi=rng.uniform(0.0, 2 * math.pi),
        )
        pt = model_point(cfg, rng.uniform(-1.5, 1.5, size=2))
        g = compute_geometry(pt.rho, pt.derivs)
        w_eigs = np.linalg.eigvalsh(g.qfim)
        if w_eigs[0] <= 0 or w_eigs[-1] / w_eigs[0] > 1e5:
            continue
        det_q = float(np.linalg.det(g.qfim))
        det_u = float(np.linalg.det(g.uhlmann))
        purity = float(r0 @ r0)
        rel = abs(det_u - purity * det_q) / max(det_u, 1e-300)
        worst_det = max(worst_det, rel)
        assert rel <= 1e-10
        r_val = quantumness_R(g)
        closed = math.sqrt(det_u / det_q)
        worst_r = max(worst_r, abs(r_val - closed))
        assert abs(r_val - closed) <= 1e-9
        assert r_val <= 1.0 + 1e-9
        checked += 1
    _passline(3, f"det U = |r|^2 det Q on {checked} mixed points "
                 f"(worst rel {worst_det:.1e} <= 1e-10; R matches sqrt(det U / det Q), "
                 f"worst {worst_r:.1e} <= 1e-9, all R <= 1)")


def test_criterion_04_hierarchy_suite():
    rng = np.random.default_rng(404)
    opts = ReportOptions(compute_rld=False)
    violations = 0
    cases = [(n, d) for n in (2, 3) for d in (2, 3) if d <= n * n - 1]
    for k in range(500):
        n, d = cases[k % len(cases)]
        rho, derivs = random_model(rng, n, d)
        point = ModelPoint(params=tuple([0.0] * d), rho=rho, derivs=tuple(derivs))
        w = random_spd(rng, d)
        report = full_report(point, w, opts)
        eps = 1e-7 * report.c_sld
        ok = (
            report.c_sld - eps <= report.c_h
            and report.c_h <= report.c_t + eps
            and report.c_t <= report.c_r + eps
            and report.c_r <= 2.0 * report.c_sld + eps
        )
        violations += 0 if ok else 1
    assert violations == 0
    _passline(4, "hierarchy C_SLD <= C_H <= C_T <= C_R <= 2 C_SLD on 500 random "
                 "full-rank models (0 violations at 1e-7 relative slack)")


def test_criterion_05_t_equals_r_saturation():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 60:
        a = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        gram = a @ a.conj().T
        g = geometry_from_matrices(gram.real + 0.2 * np.eye(2), 0.9 * gram.imag)
        if abs(np.linalg.det(g.uhlmann)) < 1e-3:
            continue
        w_star = g.qfim / g.qfim[0, 0]
        t_star = t_measure(g, w_star)
        r_val = quantumness_R(g)
        assert abs(t_star - r_val) <= 1e-9
        perturbations = []
        for scale_idx in range(3):
            w = w_star.copy()
            if scale_idx == 0:
                w[0, 0] *= 1.01
            elif scale_idx == 1:
                w[1, 1] *= 1.01
            else:
                bump = 0.01 * math.sqrt(w[0, 0] * w[1, 1])
                w[0, 1] += bump
                w[1, 0] += bump
            perturbations.append(t_measure(g, w))
        for t_pert in perturbations:
            assert t_pert < t_star - 1e-12
        checked += 1
    _passline(5, f"W = Q/Q11 saturates T = R on {checked} draws (|T-R| <= 1e-9); "
                 "1% perturbations strictly decrease T")


def test_criterion_06_rank_bound():
    rng = np.random.default_rng(606)
    for k in range(500):
        q = random_spd(rng, 4)
        u = random_antisymmetric(rng, 4, rank=2 if k % 3 == 0 else None)
        g = geometry_from_matrices(q, u)
        w = random_spd(rng, 4)
        t_val = t_measure(g, w)
        r_val = quantumness_R(g)
        sv = np.linalg.svd(g.uhlmann, compute_uv=False)
        rank_u = int(np.sum(sv > 1e-9 * max(sv[0], 1e-300)))
        assert t_val <= rank_u * r_val + 1e-9
    _passline(6, "T <= Rank(U) R + 1e-9 on 500 random (Q, U, W) with d = 4")


def test_criterion_07_qutrit_determinants():
    cfg = model_config("su2_qutrit", alpha=math.pi / 4, beta=0.0, t=1.0)
    thetas = np.linspace(-1.2, 1.2, 32)
    bs = np.linspace(0.4, 5.8, 32)
    worst = 0.0
    worst_u = 0.0
    for theta in thetas:
        for b in bs:
            pt = model_point(cfg, (b, theta, 0.0))
            g = compute_geometry(pt.rho, pt.derivs)
            det_q = float(np.linalg.det(g.qfim))
            closed = 64.0 * math.cos(theta) ** 2 * math.sin(b / 2.0) ** 4
            worst = max(worst, abs(det_q - closed) / closed)
            worst_u = max(worst_u, abs(float(np.linalg.det(g.uhlmann))))
    assert worst <= 1e-8
    assert worst_u <= 1e-10
    _passline(7, f"qutrit det Q matches 64 t^2 cos^2(theta) sin^4(Bt/2) sin^2(2 alpha) "
                 f"on 32x32 grid (worst rel {worst:.1e}); |det U| <= {worst_u:.1e}")


def _generator_route(cfg, params):
    """(Q, U) of an SU(2) point from its translation generators: each
    forward generator i (d_k U) U^dag by finite differences of the model's
    evolution U = exp(-i B t n.J), taken to the initial frame
    H_k = -U^dag [i (d_k U) U^dag] U, then the Gram matrix of psi0."""
    params = np.asarray(params, dtype=float)

    def evolution(p):
        psi0, js, axes, _ = _su2_frame(cfg, p)
        return psi0, _su2_exp(_dot_j(axes[0], js), p[0] * cfg.constants["t"])

    psi0, u0 = evolution(params)
    gens = []
    for k in range(len(params)):
        path = lambda x, k=k: evolution(np.concatenate([params[:k], [x], params[k + 1:]]))[1]
        gens.append(-u0.conj().T @ unitary_generator(path, params[k]) @ u0)
    return generator_geometry(psi0, gens)


def test_criterion_08_dual_path_geometry():
    rng = np.random.default_rng(808)
    worst = 0.0

    def check(cfg, params):
        nonlocal worst
        pt = model_point(cfg, params)
        fd = _fd_derivs(lambda p: model_point(cfg, p), params)
        g = compute_geometry(pt.rho, fd)
        qa, ua = analytic_geometry(cfg, params)
        routes = [(g.qfim, g.uhlmann)]
        if cfg.model_id != "tunable_qubit":  # the SU(2) models also by their generators
            routes.append(_generator_route(cfg, params))
        for q, u in routes:
            err = max(np.max(np.abs(q - qa)), np.max(np.abs(u - ua)))
            worst = max(worst, err)
            assert err <= 1e-6

    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r0 = direction * rng.uniform(0.1, 0.999)
        cfg = model_config(
            "tunable_qubit",
            r_x=r0[0], r_y=r0[1], r_z=r0[2],
            gamma=rng.uniform(0.1, 1.4), theta=rng.uniform(0.2, 2.9),
            phi=rng.uniform(0.0, 2 * math.pi),
        )
        check(cfg, rng.uniform(-1.5, 1.5, size=2))

    for _ in range(100):
        cfg = model_config(
            "su2_qubit",
            alpha=rng.uniform(0.2, 2.9), beta=rng.uniform(0.0, 2 * math.pi),
            t=rng.uniform(0.5, 5.0),
        )
        check(cfg, [rng.uniform(0.2, 2.0), rng.uniform(-1.3, 1.3)])

    for _ in range(100):
        cfg = model_config(
            "su2_qutrit",
            alpha=rng.uniform(0.3, 2.8), beta=rng.uniform(0.0, 2 * math.pi),
            t=rng.uniform(0.5, 2.0),
        )
        check(cfg, [rng.uniform(0.3, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.0)])

    _passline(8, f"analytic (Q, U) vs finite-difference SLD pipeline on 100 points "
                 f"per model, and vs the generator route on the SU(2) points "
                 f"(worst abs err {worst:.1e} <= 1e-6)")


def test_criterion_09_fig2_grid_claim():
    spec = figure_preset("fig2", {"r_y": 0.2, "r_z": 0.4})
    start = time.perf_counter()
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - start
    assert len(rows) == 64 * 64
    unflagged = [r for r in rows if not r.flags]
    assert len(unflagged) > 0.9 * len(rows)
    worst = max(abs(r.outputs["gap_h"] - r.outputs["gap_t"]) for r in unflagged)
    assert worst <= 1e-3
    assert elapsed < 120.0
    _passline(9, f"fig2 64x64 grid (r_y=0.2, r_z=0.4): |gap_h - gap_t| <= {worst:.1e} "
                 f"on {len(unflagged)} unflagged rows, {elapsed:.1f} s serial")


def test_criterion_10_fig5_neighborhood():
    spec = figure_preset("fig5")
    spec = replace(
        spec,
        axes=(
            Axis("theta", -0.05, 0.05, 5),
            Axis("B", math.pi - 0.3, math.pi + 0.3, 5),
        ),
    )
    rows = run_sweep(spec)
    worst_gap = 0.0
    min_t = np.inf
    for row in rows:
        assert not row.flags
        gap = row.outputs["gap_t"] - row.outputs["gap_h"]
        worst_gap = max(worst_gap, gap)
        min_t = min(min_t, row.outputs["T"])
    assert worst_gap <= 1e-3
    assert min_t > 0.0
    _passline(10, f"fig5 neighborhood of (B=pi, theta=0): (C_T - C_H)/C_SLD <= "
                  f"{worst_gap:.1e} while T >= {min_t:.3f} > 0")
