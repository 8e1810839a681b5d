"""Scalar estimation bounds: C_SLD, C_RLD, C_T, C_R, and the Holevo bound.

All bounds are per-shot (the repetition prefactor is dropped).  The Holevo
bound is evaluated by minimizing the tangent-space objective

    Tr[W Q^-1] + Tr[W Re(K^T P K)]
      + || sqrt(W) (Q^-1 U Q^-1 + Im(K^T P K) + Q^-1 S K - (Q^-1 S K)^T) sqrt(W) ||_1

over the real m x d matrix K, where P and S are the normal-space Gram and
coupling matrices.  The cross term is the antisymmetrized form: expanding
Tr[rho X_mu X_nu] for X = L Q^-1 + P K gives Q^-1 S K - (Q^-1 S K)^T in the
imaginary part, which keeps the objective equal to the Holevo functional of
the actual operator tuple (and hence convex in K).  For a one-dimensional
normal space and d <= 3 the minimum has a closed form; every other case runs
an iterative simplex ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import HierarchyViolation, SingularQFIM, SingularState
from .geometry import (
    InformationGeometry,
    NormalSpaceBasis,
    _WeightFrame,
    _weight_frame,
    compute_geometry,
    quantumness_R,
    rld_qfim,
    tangent_normal_decomposition,
)
from .linalg import SUPPORT_TOL, require_weight, trace_norm, tracenorm_antisym
from .models import ModelPoint
from .neldermead import nelder_mead

FLAG_SINGULAR_QFIM = "SingularQFIM"
FLAG_PSEUDO_INVERSE = "PseudoInverseUsed"
FLAG_RLD_UNAVAILABLE = "RldUnavailable"
FLAG_HOLEVO_NOT_CONVERGED = "HolevoNotConverged"

HIERARCHY_SLACK = 1e-7


@dataclass(frozen=True)
class HolevoOptions:
    """Minimizer controls: evaluation budget per start, relative convergence
    tolerance across a restart round, and number of seeded restarts."""

    max_iter: int = 5000
    tol: float = 1e-9
    restarts: int = 8
    seed: int | tuple[int, ...] = 0
    max_rounds: int = 4


@dataclass(frozen=True)
class HolevoSolution:
    k_matrix: np.ndarray
    value: float
    iterations: int
    converged: bool
    restarts_used: int


@dataclass(frozen=True)
class ReportOptions:
    holevo: HolevoOptions = field(default_factory=HolevoOptions)
    support_tol: float = SUPPORT_TOL
    pseudo_inverse: bool = False
    compute_rld: bool = True
    compute_holevo: bool = True


@dataclass(frozen=True)
class BoundsReport:
    """All scalar bounds and measures for one model point and weight matrix.

    Fields are None when unavailable (rank-deficient state for the RLD,
    singular QFIM without pseudo-inverse mode for everything else).
    """

    c_sld: float | None
    c_rld: float | None
    c_t: float | None
    c_r: float | None
    c_h: float | None
    r_value: float | None
    t_value: float | None
    holevo: HolevoSolution | None
    flags: frozenset[str]


def c_sld(g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False) -> float:
    """SLD quantum Cramer-Rao scalar bound Tr[W Q^-1]."""
    return _weight_frame(g, w_mat, pseudo_inverse).c_sld


def c_rld(j: np.ndarray, w_mat: np.ndarray) -> float:
    """RLD scalar bound Tr[W Re J^-1] + ||W Im J^-1||_1."""
    j = np.asarray(j, dtype=complex)
    w_mat = require_weight(w_mat, j.shape[0])
    vals = np.linalg.eigvalsh(j)
    if vals[0] <= 1e-12 * max(vals[-1], 1.0):
        raise SingularState("RLD QFIM is singular")
    jinv = np.linalg.inv(j)
    jinv = 0.5 * (jinv + jinv.conj().T)
    return float(np.trace(w_mat @ jinv.real)) + trace_norm(w_mat @ jinv.imag)


def c_t_bound(g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False) -> float:
    """(1 + T[W]) C_SLD[W], evaluated in the direct form Tr[W Q^-1] + ||.||_1."""
    return _weight_frame(g, w_mat, pseudo_inverse).c_t


def c_r_bound(g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False) -> float:
    """(1 + R) C_SLD[W]."""
    return (1.0 + quantumness_R(g, pseudo_inverse)) * c_sld(g, w_mat, pseudo_inverse)


def holevo_pure_qubit_closed_form(g: InformationGeometry, w_mat: np.ndarray) -> float:
    """Pure-qubit two-parameter Holevo bound, Tr[W Q^-1] + 2 sqrt(det[W Q^-1])."""
    if g.n_params != 2:
        raise ValueError("closed form is specific to two-parameter models")
    frame = _weight_frame(g, w_mat)
    prod = frame.w_mat @ frame.qinv
    det = max(float(np.linalg.det(prod)), 0.0)
    return float(np.trace(prod)) + 2.0 * float(np.sqrt(det))


def _tracenorm_antisym_smoothed(m: np.ndarray, mu: float) -> float:
    """sum_k sqrt(sigma_k^2 + mu^2) over singular-value pairs of a real
    antisymmetric matrix; smooth in the entries, -> trace norm as mu -> 0."""
    d = m.shape[0]
    if d == 2:
        return 2.0 * float(np.sqrt(m[0, 1] ** 2 + mu * mu))
    if d == 3:
        s2 = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
        return 2.0 * float(np.sqrt(s2 + mu * mu))
    sv = np.linalg.svd(m, compute_uv=False)[::2]
    return 2.0 * float(np.sum(np.sqrt(sv * sv + mu * mu)))


@dataclass(frozen=True)
class _TangentSetup:
    """The per-point pieces of the tangent objective, in the variable
    B = K sqrt(W): the weight frame (its core is the K = 0 value of the
    antisymmetric part, its C_SLD the constant term), the d x m coupling
    sqrt(W) Q^-1 S and the normal-space Gram matrix P."""

    frame: _WeightFrame
    left: np.ndarray
    gram: np.ndarray


def _tangent_setup(
    g: InformationGeometry, basis: NormalSpaceBasis, w_mat: np.ndarray | _WeightFrame
) -> _TangentSetup:
    frame = w_mat if isinstance(w_mat, _WeightFrame) else _weight_frame(g, w_mat)
    return _TangentSetup(
        frame=frame, left=frame.sqrt_w @ frame.qinv @ basis.coupling, gram=basis.gram
    )


def _objective(setup: _TangentSetup, smoothing: float = 0.0) -> Callable[[np.ndarray], float]:
    d, m = setup.left.shape
    sqrt_w, core, base = setup.frame.sqrt_w, setup.frame.core, setup.frame.c_sld
    left = setup.left
    gram_re, gram_im = setup.gram.real, setup.gram.imag
    mu = float(smoothing)

    def objective(k_flat: np.ndarray) -> float:
        # Conjugating K -> K sqrt(W) folds both sqrt(W) factors into the
        # quadratic terms, halving the matmul count per evaluation.
        b = np.asarray(k_flat, dtype=float).reshape(m, d) @ sqrt_w
        cross = left @ b
        im_z = core + b.T @ (gram_im @ b) + cross - cross.T
        pen = float(np.sum(b * (gram_re @ b)))
        if mu > 0.0:
            val = base + pen + _tracenorm_antisym_smoothed(im_z, mu)
        else:
            val = base + pen + tracenorm_antisym(im_z)
        return val if np.isfinite(val) else 1e300

    return objective


def tangent_objective(
    g: InformationGeometry,
    basis: NormalSpaceBasis,
    w_mat: np.ndarray,
    smoothing: float = 0.0,
) -> Callable[[np.ndarray], float]:
    """The Holevo objective as a function of the flattened K matrix.

    A positive ``smoothing`` replaces the trace norm by its smooth
    sqrt(sigma^2 + mu^2) envelope; the minimizer anneals this to polish past
    the kink, but reported values always use the exact (mu = 0) objective.
    """
    return _objective(_tangent_setup(g, basis, w_mat), smoothing)


def holevo_tangent_min(
    g: InformationGeometry,
    basis: NormalSpaceBasis,
    w_mat: np.ndarray | _WeightFrame,
    opts: HolevoOptions | None = None,
) -> HolevoSolution:
    """Minimize the tangent-space Holevo objective over K.

    ``w_mat`` is the weight matrix, or the weight frame that ``full_report``
    already built from it.  An empty normal space leaves only K = 0.  A
    one-dimensional normal space with d <= 3 parameters has an exact minimum
    (``_holevo_exact``).  Every other case runs the simplex ladder
    (``_holevo_simplex``), the only path that ``opts`` affects.  The
    returned value never exceeds the K = 0 objective, so it always sits
    between C_SLD and C_T.
    """
    setup = _tangent_setup(g, basis, w_mat)
    d, m = setup.left.shape
    if m == 0:
        return HolevoSolution(
            k_matrix=np.zeros((0, d)),
            value=_objective(setup)(np.zeros(0)),
            iterations=0,
            converged=True,
            restarts_used=0,
        )
    if m == 1 and d in (2, 3):
        return _holevo_exact(setup)
    return _holevo_simplex(setup, opts or HolevoOptions())


def _shrink(q: float, p: float, weight: float, s2: float) -> float:
    """The minimizer tau in [0, q] of weight tau^2 / s2 + 2 sqrt(p^2 + (q - tau)^2)."""
    if q == 0.0:
        return 0.0
    tau = min(q, s2 / weight)
    if p == 0.0:
        return tau
    # The stationarity condition h(tau) = weight tau - s2 u / sqrt(p^2 + u^2)
    # = 0, u = q - tau, is increasing and convex on [0, q] with h(0) < 0, and
    # h >= 0 at the start.  Newton steps therefore fall monotonically onto
    # the root; they stop once a step no longer moves tau down.
    while True:
        u = q - tau
        r = float(np.hypot(p, u))
        h = weight * tau - s2 * u / r
        step = h / (weight + s2 * (p / r) ** 2 / r)
        nxt = max(tau - step, 0.0)
        if not nxt < tau:
            return tau
        tau = nxt


def _holevo_exact(setup: _TangentSetup) -> HolevoSolution:
    """Exact minimum for a one-dimensional normal space and d in {2, 3}.

    With b = K sqrt(W), s = sqrt(W) Q^-1 S and c the axial part of the core
    (core_12 for d = 2, (core_23, -core_13, core_12) for d = 3), the
    objective is C_SLD + P |b|^2 + 2 |c + M b|, where M b is the axial part
    of s b^T - b s^T: l.b with l = (-s_2, s_1) for d = 2, s x b for d = 3.
    Every nonzero singular value of M is |s|, so the optimum cancels the
    part of c in the range of M (norm q) down to q - tau and keeps the rest
    (norm p):

        C_H = C_SLD + min_{0 <= tau <= q} P tau^2 / |s|^2 + 2 sqrt(p^2 + (q - tau)^2).

    For p = 0 (always when d = 2) this is Suzuki's two-parameter formula:
    C_H = C_T - |s|^2 / P when q P >= |s|^2, else C_SLD + P q^2 / |s|^2.
    """
    core, s = setup.frame.core, setup.left[:, 0]
    d = core.shape[0]
    weight = float(setup.gram.real[0, 0])
    s2 = float(s @ s)
    if d == 2:
        c = float(core[0, 1])
        q, p = abs(c), 0.0
    else:
        c = np.array([core[1, 2], -core[0, 2], core[0, 1]])
        c_range = c - s * (float(c @ s) / s2) if s2 > 0.0 else np.zeros(3)
        q = float(np.linalg.norm(c_range))
        p = float(np.linalg.norm(c - c_range))
    tau = _shrink(q, p, weight, s2)
    if tau == 0.0:
        b = np.zeros(d)
    elif d == 2:
        b = -np.copysign(tau, c) * np.array([-s[1], s[0]]) / s2
    else:
        b = np.cross(-tau * c_range / q, s) / s2
    k = np.linalg.solve(setup.frame.sqrt_w, b)
    objective = _objective(setup)
    value_at_zero = objective(np.zeros(d))
    value = objective(k)
    if value > value_at_zero:
        value, k = value_at_zero, np.zeros(d)
    return HolevoSolution(
        k_matrix=k.reshape(1, d),
        value=value,
        iterations=2,  # objective evaluations: K = 0 and the optimum
        converged=True,
        restarts_used=0,
    )


def _holevo_simplex(setup: _TangentSetup, opts: HolevoOptions) -> HolevoSolution:
    """Simplex-ladder minimum for any normal space of size m >= 1.

    Simplex descent from K = 0 and from seeded random perturbations of
    scale 0.1 ||Q^-1||, keeping the best vertex; converged when a full
    restart round improves the value by less than the relative tolerance.
    """
    d, m = setup.left.shape
    objective = _objective(setup)
    value_at_zero = objective(np.zeros(m * d))
    scale = 0.1 * float(np.max(np.abs(np.linalg.eigvalsh(setup.frame.qinv))))
    rng = np.random.default_rng(opts.seed)
    nvar = m * d
    best_x = np.zeros(nvar)
    best_f = value_at_zero
    total_evals = 0
    restarts_used = 0
    converged = False

    def attempt(x0: np.ndarray, step: float, count_restart: bool) -> None:
        nonlocal best_x, best_f, total_evals, restarts_used
        x, f, ev = nelder_mead(objective, x0, step=step, max_iter=opts.max_iter)
        total_evals += ev
        if count_restart:
            restarts_used += 1
        if f < best_f:
            best_f, best_x = f, x

    for round_idx in range(opts.max_rounds):
        round_before = best_f
        # the simplex scale anneals between rounds: the first round explores
        # at the characteristic 0.1 ||Q^-1|| scale, later rounds rebuild a
        # fresh (smaller) simplex around the incumbent, which un-sticks the
        # descent at the trace-norm kink
        round_scale = max(scale * 0.25**round_idx, 1e-10 * max(scale, 1.0))
        if round_idx == 0:
            attempt(np.zeros(nvar), round_scale, count_restart=False)
            n_perturb = opts.restarts
        else:
            n_perturb = min(2, opts.restarts)
        for _ in range(n_perturb):
            attempt(best_x + rng.normal(size=nvar) * round_scale, round_scale, True)
        for _ in range(3):
            before = best_f
            attempt(best_x, round_scale, count_restart=False)
            if before - best_f <= opts.tol * max(abs(best_f), 1e-30):
                break
        if round_before - best_f <= opts.tol * max(abs(best_f), 1e-30):
            converged = True
            break
    if value_at_zero - best_f > opts.tol * max(abs(best_f), 1e-30):
        # smoothing-ladder polish: anneal the kink away, then re-score the
        # result with the exact objective (the reported value stays a true
        # upper bound)
        kink_scale = max(abs(best_f), 1e-6)
        for mu_rel in (1e-3, 1e-5, 1e-7, 1e-9):
            smooth_obj = _objective(setup, smoothing=mu_rel * kink_scale)
            x, _, ev = nelder_mead(
                smooth_obj, best_x, step=max(np.sqrt(mu_rel) * scale, 1e-9), max_iter=opts.max_iter
            )
            total_evals += ev
            f_exact = objective(x)
            if f_exact < best_f:
                best_f, best_x = f_exact, x
    if best_f > value_at_zero:
        best_f, best_x = value_at_zero, np.zeros(nvar)
    return HolevoSolution(
        k_matrix=best_x.reshape(m, d),
        value=best_f,
        iterations=total_evals,
        converged=converged,
        restarts_used=restarts_used,
    )


def _check_hierarchy(report: BoundsReport) -> None:
    c_s, c_h, c_t_val, c_r_val = report.c_sld, report.c_h, report.c_t, report.c_r
    if c_s is None or c_t_val is None or c_r_val is None:
        return
    eps = HIERARCHY_SLACK * c_s
    chain = [
        (c_h is None or c_h >= c_s - 1e-9, "C_H < C_SLD"),
        (c_h is None or c_h <= c_t_val + eps, "C_H > C_T"),
        (c_t_val <= c_r_val + eps, "C_T > C_R"),
        (c_r_val <= 2.0 * c_s + eps, "C_R > 2 C_SLD"),
    ]
    for ok, label in chain:
        if not ok:
            raise HierarchyViolation(
                f"{label}: c_sld={c_s!r} c_h={c_h!r} c_t={c_t_val!r} c_r={c_r_val!r}"
            )


def full_report(
    point: ModelPoint,
    w_mat: np.ndarray,
    opts: ReportOptions | None = None,
    geometry: InformationGeometry | None = None,
) -> BoundsReport:
    """Assemble every bound for one model point under one weight matrix.

    Near-singular QFIMs produce a flagged report with null bound fields
    (or pseudo-inverse values when that mode is enabled) instead of raising,
    so parameter sweeps stay total.  A hierarchy violation among computed
    values raises HierarchyViolation: that is a bug signal, not physics.
    """
    opts = opts or ReportOptions()
    g = geometry
    if g is None:
        g = compute_geometry(point.rho, point.derivs, support_tol=opts.support_tol)
    flags: set[str] = set()
    try:
        frame = _weight_frame(g, w_mat, opts.pseudo_inverse)
    except SingularQFIM:
        frame = None

    c_rld_val = None
    if opts.compute_rld:
        try:
            j = rld_qfim(point.rho, point.derivs, check=False)
            c_rld_val = c_rld(j, w_mat)
        except SingularState:
            flags.add(FLAG_RLD_UNAVAILABLE)

    if frame is None:
        flags.add(FLAG_SINGULAR_QFIM)
        return BoundsReport(
            c_sld=None,
            c_rld=c_rld_val,
            c_t=None,
            c_r=None,
            c_h=None,
            r_value=None,
            t_value=None,
            holevo=None,
            flags=frozenset(flags),
        )

    if frame.used_pseudo:
        flags |= {FLAG_SINGULAR_QFIM, FLAG_PSEUDO_INVERSE}
    r_val = quantumness_R(g, opts.pseudo_inverse)

    holevo = None
    c_h_val = None
    if opts.compute_holevo and not frame.used_pseudo:
        basis = tangent_normal_decomposition(point.rho, g)
        holevo = holevo_tangent_min(g, basis, frame, opts.holevo)
        c_h_val = holevo.value
        if not holevo.converged:
            flags.add(FLAG_HOLEVO_NOT_CONVERGED)

    report = BoundsReport(
        c_sld=frame.c_sld,
        c_rld=c_rld_val,
        c_t=frame.c_t,
        c_r=(1.0 + r_val) * frame.c_sld,
        c_h=c_h_val,
        r_value=r_val,
        t_value=frame.t_value,
        holevo=holevo,
        flags=frozenset(flags),
    )
    if not frame.used_pseudo:
        _check_hierarchy(report)
    return report
