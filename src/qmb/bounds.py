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

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import HierarchyViolation, SingularState
from .geometry import (
    InformationGeometry,
    NormalSpaceBasis,
    _frame,
    _normal_spaces,
    _rld_matrix,
    _spectral_radius,
    _weight_and_root,
    _WeightFrame,
    _weight_frame,
    compute_geometry,
    quantumness_R,
    subset,
    take,
    uhlmann_axial,
)
from .linalg import SUPPORT_TOL, density_spectrum, dot, require_weight, trace_norm
from .linalg import tracenorm_antisym
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
    value, singular = _c_rld(j, require_weight(w_mat, j.shape[0]))
    if singular:
        raise SingularState("RLD QFIM is singular")
    return float(value)


def _c_rld(j: np.ndarray, w_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C_RLD per point and where J is singular (the value there is void)."""
    vals = np.linalg.eigvalsh(j)
    singular = vals[..., 0] <= 1e-12 * np.maximum(vals[..., -1], 1.0)
    jinv = np.linalg.inv(np.where(singular[..., None, None], np.eye(j.shape[-1]), j))
    jinv = 0.5 * (jinv + jinv.swapaxes(-1, -2).conj())
    value = np.trace(w_mat @ jinv.real, axis1=-2, axis2=-1) + trace_norm(w_mat @ jinv.imag)
    return value, singular


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
    sqrt(W) Q^-1 S and the normal-space Gram matrix P; for one point or a
    batch stacked along a leading axis."""

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
    """The objective of one point's K (flattened), or of a batch's K (B, m, d)."""
    shape = setup.left.shape[:-2] + setup.left.shape[:-3:-1]  # (..., m, d)
    sqrt_w, core, base = setup.frame.sqrt_w, setup.frame.core, setup.frame.c_sld
    left = setup.left
    gram_re, gram_im = setup.gram.real, setup.gram.imag
    mu = float(smoothing)

    def objective(k: np.ndarray) -> float:
        # Conjugating K -> K sqrt(W) folds both sqrt(W) factors into the
        # quadratic terms, halving the matmul count per evaluation.
        b = np.asarray(k, dtype=float).reshape(shape) @ sqrt_w
        cross = left @ b
        im_z = core + b.swapaxes(-1, -2) @ (gram_im @ b) + cross - cross.swapaxes(-1, -2)
        pen = (b * (gram_re @ b)).sum(axis=(-2, -1))
        if mu > 0.0:
            val = base + pen + _tracenorm_antisym_smoothed(im_z, mu)
        else:
            val = base + pen + tracenorm_antisym(im_z)
        return np.where(np.isfinite(val), val, 1e300)[()]

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
    opts = opts or HolevoOptions()
    return _holevo_solutions(take(_tangent_setup(g, basis, w_mat), None), opts, [opts.seed])[0]


def _holevo_solutions(setup: _TangentSetup, opts: HolevoOptions, seeds: Sequence) -> list:
    """The minima of a batch of tangent setups that share the normal-space
    size m, one seed per point for the simplex ladder."""
    d, m = setup.left.shape[-2:]
    if m == 0:  # K = 0, where the objective is C_T
        empty = np.zeros((0, d))
        return [HolevoSolution(empty, v, 0, True, 0) for v in setup.frame.c_t.tolist()]
    if m == 1 and d in (2, 3):  # two evaluations: K = 0 (C_T) and the optimum
        values, ks = _holevo_exact(setup)
        return [HolevoSolution(k[None], v, 2, True, 0) for v, k in zip(values.tolist(), ks)]
    return [_holevo_simplex(take(setup, i), replace(opts, seed=s)) for i, s in enumerate(seeds)]


def _shrink(q, p, weight, s2):
    """The minimizer tau in [0, q] of weight tau^2 / s2 + 2 sqrt(p^2 + (q - tau)^2),
    elementwise over arrays."""
    q, p, weight, s2 = np.broadcast_arrays(*(np.asarray(x, float) for x in (q, p, weight, s2)))
    tau = np.where(q == 0.0, 0.0, np.minimum(q, s2 / weight))
    # The stationarity condition h(tau) = weight tau - s2 u / sqrt(p^2 + u^2)
    # = 0, u = q - tau, is increasing and convex on [0, q] with h(0) < 0, and
    # h >= 0 at the start.  Newton steps therefore fall monotonically onto
    # the root; each point stops once a step no longer moves its tau down.
    active = np.flatnonzero((q != 0.0) & (p != 0.0))
    tau, flat = tau.ravel(), [x.ravel() for x in (q, p, weight, s2)]
    while active.size:
        q_a, p_a, weight_a, s2_a = (x[active] for x in flat)
        tau_a = tau[active]
        u = q_a - tau_a
        r = np.hypot(p_a, u)
        h = weight_a * tau_a - s2_a * u / r
        step = h / (weight_a + s2_a * (p_a / r) ** 2 / r)
        nxt = np.maximum(tau_a - step, 0.0)
        moving = nxt < tau_a
        active = active[moving]
        tau[active] = nxt[moving]
    return tau.reshape(q.shape)[()]


def _holevo_exact(setup: _TangentSetup) -> tuple[np.ndarray, np.ndarray]:
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

    Runs over a batch (leading axis) and returns the values and the K rows
    (B, d); where the optimum does not beat K = 0 it is K = 0 at C_T.
    """
    core, s = setup.frame.core, setup.left[..., 0]
    d = core.shape[-1]
    weight = setup.gram.real[..., 0, 0]
    s2 = dot(s, s)
    if d == 2:
        c = core[..., 0, 1]
        q, p = np.abs(c), 0.0
    else:
        c = uhlmann_axial(core)
        along = (dot(c, s) / np.where(s2 > 0.0, s2, 1.0))[..., None]
        c_range = np.where((s2 > 0.0)[..., None], c - s * along, 0.0)
        q = np.sqrt(dot(c_range, c_range))
        p = np.sqrt(dot(c - c_range, c - c_range))
    tau = _shrink(q, p, weight, s2)
    moved = (tau != 0.0)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 2:
            b = -np.copysign(tau, c)[..., None] * np.stack([-s[..., 1], s[..., 0]], axis=-1)
        else:
            b = np.cross(-tau[..., None] * c_range / q[..., None], s)
        b = np.where(moved, b / s2[..., None], 0.0)
    k = np.linalg.solve(setup.frame.sqrt_w, b[..., None])[..., 0]
    value = _objective(setup)(k)
    worse = value > setup.frame.c_t
    return np.where(worse, setup.frame.c_t, value), np.where(worse[..., None], 0.0, k)


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
    This is `batch_reports` on a batch of one.
    """
    opts = opts or ReportOptions()
    g = geometry or compute_geometry(point.rho, point.derivs, support_tol=opts.support_tol)
    w_mat, sqrt_w = _weight_and_root(w_mat, g.n_params)
    one = InformationGeometry(g.qfim[None], g.uhlmann[None], np.asarray(g.slds)[None], None)
    one.__dict__["_qfim_eigh"] = tuple(x[None] for x in g._qfim_eigh)
    rho, derivs = np.asarray(point.rho)[None], np.asarray(point.derivs)[None]
    return next(batch_reports(rho, derivs, one, w_mat[None], sqrt_w[None], opts, [opts.holevo.seed]))


def batch_reports(
    rho: np.ndarray, derivs: np.ndarray, g: InformationGeometry, w_mat: np.ndarray,
    sqrt_w: np.ndarray, opts: ReportOptions, seeds: Sequence,
) -> Iterator[BoundsReport]:
    """`full_report` for a batch: states (B, n, n), derivatives (B, d, n, n),
    their batch geometry, validated weights and roots (B, d, d) and one
    Holevo seed per point.  Every stage runs stacked; singular and
    pseudo-inverse QFIMs and missing RLD bounds are masks that become the
    flags.  Only the simplex ladder (m >= 2 or d >= 4) runs point by point.
    The reports are built as they are read."""
    frame = _frame(g, w_mat, sqrt_w)
    ill = frame.used_pseudo
    null = ill & ((g._qfim_eigh[0][:, -1] <= 0.0) | (not opts.pseudo_inverse))
    c_rld, no_rld = [None] * len(rho), np.zeros(len(rho), bool)
    if opts.compute_rld:
        no_rld = density_spectrum(rho, check=False)[1][:, 0] <= 1e-10  # rank deficient
        full_rank = np.where(no_rld[:, None, None], np.eye(rho.shape[-1]), rho)
        values, singular = _c_rld(_rld_matrix(full_rank, derivs), w_mat)
        no_rld |= singular
        c_rld = [None if missing else v for missing, v in zip(no_rld.tolist(), values.tolist())]
    holevo = [None] * len(rho)
    regular = np.flatnonzero(~ill)
    if opts.compute_holevo and regular.size:
        if np.size(g.slds) == 0:
            raise ValueError("geometry must carry SLD operators")
        sel = subset(regular, len(rho))
        for rows, basis in _normal_spaces(rho[sel], g.slds[sel]):
            rows = regular[rows]
            setup = _tangent_setup(g, basis, take(frame, subset(rows, len(rho))))
            sols = _holevo_solutions(setup, opts.holevo, [seeds[i] for i in rows])
            for i, sol in zip(rows, sols):
                holevo[i] = sol
    r_val = _spectral_radius(g)
    with np.errstate(divide="ignore", invalid="ignore"):  # T of a zero Q: a null row
        columns = [frame.c_sld, frame.c_t, (1.0 + r_val) * frame.c_sld, r_val, frame.t_value]
    columns += [null, ill, no_rld]
    for sol, c_rld_i, (c_s, c_t, c_r, r, t, is_null, is_ill, rld_missing) in zip(
        holevo, c_rld, zip(*(column.tolist() for column in columns))
    ):
        flags = {FLAG_RLD_UNAVAILABLE} if rld_missing else set()
        if is_ill:
            flags |= {FLAG_SINGULAR_QFIM} if is_null else {FLAG_SINGULAR_QFIM, FLAG_PSEUDO_INVERSE}
        if sol is not None and not sol.converged:
            flags.add(FLAG_HOLEVO_NOT_CONVERGED)
        if is_null:
            c_s = c_t = c_r = r = t = None
        report = BoundsReport(c_s, c_rld_i, c_t, c_r, sol and sol.value, r, t, sol, frozenset(flags))
        if not is_ill:
            _check_hierarchy(report)
        yield report
