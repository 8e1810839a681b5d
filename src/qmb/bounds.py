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
normal space and d <= 3 the minimum has a closed form.  Every other case
maximizes the concave Lagrangian dual by Newton steps (`general`, with the
RLD bound), which brackets C_H between a primal value and a dual lower
bound; a row whose bracket is wider than HOLEVO_GAP_TOL (relative) carries
HolevoNotConverged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import HierarchyViolation, InvalidInput
from .geometry import (
    InformationGeometry,
    _frame,
    _spectral_radius,
    _weight_and_root,
    _WeightFrame,
    _weight_frame,
    quantumness_R,
    subset,
    take,
    uhlmann_axial,
)
from .linalg import (
    SUPPORT_TOL,
    adjugate,
    broadcast,
    dot,
    entry_sum,
    raise_first_failure,
    tracenorm_antisym,
)

if TYPE_CHECKING:  # an annotation alone: qmb.general loads on first use
    from .general import ModelPoint

FLAG_SINGULAR_QFIM = "SingularQFIM"
FLAG_PSEUDO_INVERSE = "PseudoInverseUsed"
FLAG_RLD_UNAVAILABLE = "RldUnavailable"
FLAG_HOLEVO_NOT_CONVERGED = "HolevoNotConverged"

HIERARCHY_SLACK = 1e-7
# A Holevo value counts as converged when its dual lower bound lies within
# this relative distance below it.
HOLEVO_GAP_TOL = 1e-9
# How `batch_reports` reaches a row's C_H, its code in the column "route":
# C_H not asked; void, where Q is ill; at_zero, C_H = C_T at K = 0 by a
# theorem; exact, the closed form of one normal direction with d <= 3
# (`_holevo_exact`); dual, the Lagrangian dual solve (`general._holevo_dual`).
_ROUTES = ("not asked", "void", "at_zero", "exact", "dual")
_NOT_ASKED, _VOID, _AT_ZERO, _EXACT, _DUAL = range(len(_ROUTES))


class HolevoSolution(NamedTuple):
    """The Holevo value, the K attaining it, a lower bound and the objective
    or dual evaluations; arrays along a leading axis for a batch.

    ``lower`` is certified (lower <= C_H <= value) by a dual point: the
    dual solve's, or on the exact m = 1 path the closed-form one
    (`_holevo_exact`).  Where C_H = C_T at K = 0 by a theorem, lower = value:
    an empty normal space (m = 0), one parameter (d = 1), a pure state whose
    tangent space fills the pure states' directions, and a unitarily encoded
    qubit given by its Bloch vector (`batch_reports`).
    """

    k_matrix: np.ndarray
    value: float
    lower: float
    iterations: int

    @property
    def converged(self) -> bool:
        return self.value - self.lower <= HOLEVO_GAP_TOL * self.value

    def at(self, i: int) -> HolevoSolution:
        scalars = (x.item(i) for x in (self.value, self.lower, self.iterations))
        return HolevoSolution(self.k_matrix[i], *scalars)


class ReportOptions(NamedTuple):
    pseudo_inverse: bool = False
    compute_rld: bool = True
    compute_holevo: bool = True


class BoundsReport(NamedTuple):
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


def c_t_bound(g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False) -> float:
    """(1 + T[W]) C_SLD[W], evaluated in the direct form Tr[W Q^-1] + ||.||_1."""
    return _weight_frame(g, w_mat, pseudo_inverse).c_t


def c_r_bound(g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False) -> float:
    """(1 + R) C_SLD[W]."""
    return (1.0 + quantumness_R(g, pseudo_inverse)) * c_sld(g, w_mat, pseudo_inverse)


class _TangentSetup(NamedTuple):
    """The per-point pieces of the tangent objective, in the variable
    B = K sqrt(W): the weight frame (its core is the K = 0 value of the
    antisymmetric part, its C_SLD the constant term), the d x m coupling
    sqrt(W) Q^-1 S and the normal-space Gram matrix P; for one point or a
    batch stacked along a leading axis."""

    frame: _WeightFrame
    left: np.ndarray
    gram: np.ndarray


def _objective(setup: _TangentSetup) -> Callable[[np.ndarray], float]:
    """The objective of one point's K (flattened), or of a batch's K (B, m, d)."""
    shape = setup.left.shape[:-2] + setup.left.shape[:-3:-1]  # (..., m, d)
    sqrt_w, core, base = setup.frame.sqrt_w, setup.frame.core, setup.frame.c_sld
    left = setup.left
    gram_re, gram_im = setup.gram.real, setup.gram.imag

    def objective(k: np.ndarray) -> float:
        # Conjugating K -> K sqrt(W) folds both sqrt(W) factors into the
        # quadratic terms, halving the matmul count per evaluation.
        b = np.asarray(k, dtype=float).reshape(shape) @ sqrt_w
        cross = left @ b
        im_z = core + b.swapaxes(-1, -2) @ (gram_im @ b) + cross - cross.swapaxes(-1, -2)
        val = base + entry_sum(b * (gram_re @ b), 2) + tracenorm_antisym(im_z)
        return np.where(np.isfinite(val), val, 1e300)[()]

    return objective


def _holevo_solutions(setup: _TangentSetup) -> tuple[int, HolevoSolution]:
    """The route and the minima of a batch of tangent setups that share the
    normal-space size m, as one batch of solutions; only the dual solve runs
    point by point."""
    d, m = setup.left.shape[-2:]
    # K = 0, where the objective is C_T; with one parameter the antisymmetric
    # part vanishes, so C_H = C_T = C_SLD
    if m == 0 or d == 1:
        c_t = setup.frame.c_t
        zero = HolevoSolution(np.zeros((len(c_t), m, d)), c_t, c_t, np.zeros(len(c_t), int))
        return _AT_ZERO, zero
    if m == 1 and d in (2, 3):  # two evaluations: K = 0 (C_T) and the optimum
        return _EXACT, _holevo_exact(setup)
    from .general import _holevo_dual  # on first use: no preset row takes the dual
    sols = [_holevo_dual(take(setup, i)) for i in range(len(setup.left))]
    return _DUAL, HolevoSolution(*map(np.array, zip(*sols)))  # stacked field by field


def _shrink(q, p, weight, s2):
    """The minimizer tau in [0, q] of weight tau^2 / s2 + 2 sqrt(p^2 + (q - tau)^2),
    elementwise over arrays."""
    q, p, weight, s2 = (np.asarray(x, float) for x in (q, p, weight, s2))
    # The stationarity condition h(tau) = weight tau - s2 u / sqrt(p^2 + u^2)
    # = 0, u = q - tau, is increasing and convex on [0, q] with h(0) < 0, and
    # h >= 0 at the start, since u / sqrt(p^2 + u^2) <= min(1, u / p).  Newton
    # steps therefore fall monotonically onto the root; each point stops once
    # a step no longer moves its tau down.
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.minimum(q, s2 / weight)
        tau = np.where(p > 0.0, np.minimum(tau, q * s2 / (s2 + weight * p)), tau)
        tau = np.where(q == 0.0, 0.0, tau)
        moving = (q != 0.0) & (p != 0.0)
        while moving.any():
            u = q - tau
            r = np.hypot(p, u)
            h = weight * tau - s2 * u / r
            nxt = np.maximum(tau - h / (weight + s2 * (p / r) ** 2 / r), 0.0)
            moving = moving & (nxt < tau)
            tau = np.where(moving, nxt, tau)
    return tau[()]


def _holevo_exact(setup: _TangentSetup) -> HolevoSolution:
    """Exact minimum for a one-dimensional normal space and d in {2, 3},
    certified by a closed-form dual point.

    With b = K sqrt(W), s = sqrt(W) Q^-1 S and c the axial part
    (core_23, -core_13, core_12) of the core, the objective is
    C_SLD + P |b|^2 + 2 |c + s x b|; a d = 2 row is a d = 3 row whose third
    parameter neither the core nor S touches, c = (0, 0, core_12) and
    s = (s_1, s_2, 0).  b -> s x b has the singular value |s| twice, so the
    optimum cancels the part of c in its range (norm q) down to q - tau and
    keeps the rest (norm p):

        C_H = C_SLD + min_{0 <= tau <= q} P tau^2 / |s|^2 + 2 sqrt(p^2 + (q - tau)^2).

    For p = 0 (always when d = 2) this is Suzuki's two-parameter formula:
    C_H = C_T - |s|^2 / P when q P >= |s|^2, else C_SLD + P q^2 / |s|^2.
    As 2 |v| = max_{|y| <= 1} 2 y.v, every |y| <= 1 bounds C_H from below by
    g(y) = C_SLD + 2 y.c - |y x s|^2 / P, the minimum over b; at the
    optimum's unit residual y = (c + s x b) / rho, rho = sqrt(p^2 + (q - tau)^2),
    or where rho = 0 at y = min(1, q P / |s|^2) along c, g(y) = C_H.

    Runs over a batch (leading axis) and returns the solutions, with K
    (B, 1, d); where the optimum does not beat K = 0 it is K = 0 at C_T.
    """
    core, s = setup.frame.core, setup.left[..., 0]
    d = core.shape[-1]
    if d == 2:
        core, s = np.pad(core, ((0, 0), (0, 1), (0, 1))), np.pad(s, ((0, 0), (0, 1)))
    weight = setup.gram.real[..., 0, 0]
    s2 = dot(s, s)
    c = uhlmann_axial(core)
    along = (dot(c, s) / np.where(s2 > 0.0, s2, 1.0))[..., None]
    c_range = np.where((s2 > 0.0)[..., None], c - s * along, 0.0)
    q = np.sqrt(dot(c_range, c_range))
    p = np.sqrt(dot(c - c_range, c - c_range))
    tau = _shrink(q, p, weight, s2)
    moved = (tau != 0.0)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(moved, -tau[..., None] * c_range / q[..., None], 0.0)  # c + x = c + s x b
        # x cross s as the axial vector of x s^T - s x^T; np.cross is 3x slower here
        b = uhlmann_axial(x[..., :, None] * s[..., None, :] - s[..., :, None] * x[..., None, :])
        b = np.where(moved, b / s2[..., None], 0.0)
        # the dual point: where rho = 0, c = c_range and q P / |s|^2 <= 1, as tau = q <= |s|^2 / P
        rho = np.hypot(p, q - tau)[..., None]
        ratio = (weight / np.where(s2 > 0.0, s2, np.inf))[..., None]
        y = np.where(rho > 0.0, (c + x) / rho, c * ratio)
    y /= np.maximum(1.0, np.sqrt(dot(y, y)))[..., None]
    # |y x s|^2 = |y|^2 |s|^2 - (y.s)^2
    lower = setup.frame.c_sld + 2.0 * dot(y, c) - (dot(y, y) * s2 - dot(y, s) ** 2) / weight
    root = setup.frame.sqrt_w
    adj = adjugate(root)  # k = adj(sqrt W) b / det sqrt(W)
    k = (adj @ b[..., :d, None])[..., 0] / dot(adj[..., 0, :], root[..., :, 0])[..., None]
    value = _objective(setup)(k)
    worse = value > setup.frame.c_t
    value = np.where(worse, setup.frame.c_t, value)
    k = np.where(worse[..., None], 0.0, k)[:, None]
    return HolevoSolution(k, value, np.minimum(lower, value), broadcast(2, len(value)))


def _check_hierarchy(report, rows=...) -> None:
    """Raise HierarchyViolation for the first point off C_SLD <= C_H <= C_T <= C_R <= 2 C_SLD.
    ``report`` is a `BoundsReport` or a batch's columns, with ``rows`` selecting the points
    to check; a C_H of None leaves out its two links."""
    fields = report if isinstance(report, dict) else report._asdict()
    values = {k: fields[k] if fields[k] is None else np.asarray(fields[k], dtype=float)[rows]
              for k in ("c_sld", "c_h", "c_t", "c_r")}
    c_s, c_h, c_t, c_r = values.values()
    if c_s is None or c_t is None or c_r is None:
        return
    eps = HIERARCHY_SLACK * c_s
    chain = [
        (c_h is None or c_h >= c_s - eps, "C_H < C_SLD"),
        (c_h is None or c_h <= c_t + eps, "C_H > C_T"),
        (c_t <= c_r + eps, "C_T > C_R"),
        (c_r <= 2.0 * c_s + eps, "C_R > 2 C_SLD"),
    ]
    if not all(ok is True or ok.all() for ok, _ in chain):
        raise_first_failure(*((~np.asarray(ok), lambda i, label=label: HierarchyViolation(
            f"{label}: " + " ".join(f"{k}={v if v is None else v.item(i)!r}"
                                    for k, v in values.items()))) for ok, label in chain))


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
    from .general import compute_geometry  # on first use: a model point is matrix input
    opts = opts or ReportOptions()
    g = geometry or compute_geometry(point.rho, point.derivs)
    w_mat, sqrt_w = _weight_and_root(w_mat, g.n_params)
    one = InformationGeometry(*(v if v is None else np.asarray(v)[None] for v in (
        g.qfim, g.uhlmann, g.slds, g.tangent_dim, g.rho_spectrum, g.psi, g.r)))
    one.__dict__.update({k: tuple(x if x is None else x[None] for x in g.__dict__[k])  # cached
                         for k in ("_qfim_eigh", "_qfim_inverses") if k in g.__dict__})
    rho, derivs = np.asarray(point.rho)[None], np.asarray(point.derivs)[None]
    cols = batch_reports(rho, derivs, one, w_mat[None], sqrt_w[None], opts)
    names = ("c_sld", "c_t", "c_r", "R", "T")
    c_s, c_t, c_r, r, t = (None if cols["null"][0] else cols[k].item(0) for k in names)
    sol = cols["holevo"][0][2].at(0) if cols["holevo"] else None
    if sol is None and cols["route"][0] == _AT_ZERO:  # at_zero by the structure: K = 0 at C_T
        sol = HolevoSolution(np.zeros((0, g.n_params)), c_t, c_t, 0)
    flags = frozenset(name for name, mask in cols["flags"].items() if mask[0])
    c_rld = None if cols["c_rld"] is None or FLAG_RLD_UNAVAILABLE in flags else cols["c_rld"].item(0)
    return BoundsReport(c_s, c_rld, c_t, c_r, sol and sol.value, r, t, sol, flags)


def batch_reports(
    rho: np.ndarray | None, derivs: np.ndarray | None, g: InformationGeometry, w_mat: np.ndarray,
    sqrt_w: np.ndarray, opts: ReportOptions,
) -> dict:
    """`full_report` for a batch of states (B, n, n), derivatives (B, d, n, n),
    their geometry and validated weights and roots (B, d, d), as columns:
    c_sld, c_rld, c_t, c_r, c_h with its certified lower bound, R, T, gap_h =
    (C_H - C_SLD) / C_SLD, which reads T on the at_zero route (c_rld, c_h,
    lower, gap_h None when not computed), the mask null, each flag's mask
    ("flags"), each row's route code ("route", an index into `_ROUTES`) and,
    for each group of rows that one solve served, the rows, their route and
    their solutions ("holevo").  Only the dual solve runs point by point.  A
    row is ill where Q is (`geometry._eigen_inverses`), and its route void
    when C_H is asked; every other row has full tangent rank, and its route is
    set once, from the structure or the normal-space size.  A geometry of pure
    states given as vectors (``g.psi``) needs neither rho nor derivs: such a
    state has no RLD bound, and its C_H follows from Q and U alone
    (Matsumoto, J. Phys. A 35, 3111, 2002) where d = 2(n - 1) (below) or
    n = d = 3.  A pure qutrit with d = 3 has one normal direction
    (m = 2(n - 1) - d = 1), whose coupling Q u / sqrt(u^T Q u), u the axial
    vector of U, and Gram matrix [[1]] follow from Q and U, so its rows build
    no normal space.  A regular row of vectors of any other shape raises
    InvalidInput when C_H is asked: other pure models go in as rho and
    derivs.  Rows with C_H = C_T at K = 0, read from the model's structure,
    build no normal space: a pure state whose tangent space fills the
    2(n - 1) directions of pure states, d = 2(n - 1), and a unitarily encoded
    qubit given by its Bloch vector (``g.r``), whose SLDs d_k r.sigma are
    orthogonal to r: its one normal direction lies along r, uncoupled, the
    s = 0 case of Suzuki's two-parameter formula (J. Math. Phys. 57, 042201,
    2016) that `_holevo_exact` implements.  With d = 2 such a qubit also has
    C_RLD = C_T, so its rows need neither rho nor derivs."""
    frame = _frame(g, w_mat, sqrt_w)
    # a Q whose inverse leaves the float range is singular in floating point
    out_of_range, points = ~np.isfinite(frame.c_sld), len(w_mat)
    ill = frame.used_pseudo | out_of_range
    null = ill & (g._qfim_inverses[3] | out_of_range | (not opts.pseudo_inverse))
    with np.errstate(divide="ignore", invalid="ignore"):  # T of a zero Q: a null row
        c_t, t_value = frame.c_t, frame.t_value
    c_rld, no_rld = None, np.zeros(points, bool)
    if opts.compute_rld:
        spectrum = np.linalg.eigvalsh(rho) if g.rho_spectrum is None else g.rho_spectrum
        no_rld = np.min(spectrum, axis=-1) <= SUPPORT_TOL  # rank deficient
        c_rld = broadcast(np.nan, points)
        if g.r is not None and g.n_params == 2:
            # the RLD matrix is (Q - iU) / (1 - |r|^2), as ill as Q or more,
            # with det(Q - iU) = det Q (1 - |r|^2) (R = |r|), so its inverse
            # is Q^-1 + iU / det Q = Q^-1 + i Q^-1 U Q^-1, and C_RLD = C_T
            no_rld |= ill
            c_rld = np.where(no_rld, np.nan, c_t)
        elif not no_rld.all():
            from .general import _c_rld, _rld_matrix  # on first use: no preset asks for C_RLD
            full_rank = np.where(no_rld[:, None, None], np.eye(rho.shape[-1]), rho)
            c_rld, singular = _c_rld(_rld_matrix(full_rank, derivs), w_mat, sqrt_w)
            no_rld |= singular
            c_rld = np.where(no_rld, np.nan, c_rld)  # not the bound of the identity in rho's place
    c_h, lower, gap_h, not_converged = None, None, None, np.zeros(points, bool)
    route, groups = broadcast(_NOT_ASKED, points), []
    if opts.compute_holevo:
        spectrum, d = g.rho_spectrum, g.n_params
        fills = spectrum is not None and d == 2 * (spectrum.shape[-1] - 1)
        # r.d_k r = 0 on the Bloch route (`_bloch_geometry`), so s = 0
        saturated = ~ill & ((g.r is not None) | (fills and spectrum[:, 1] <= SUPPORT_TOL))
        route = np.where(ill, _VOID, np.where(saturated, _AT_ZERO, _NOT_ASKED))
        regular = (~ill & ~saturated).nonzero()[0]
        sel = subset(regular, points)
        if regular.size and g.psi is not None:
            if not g.psi.shape[-1] == d == 3:
                raise InvalidInput(
                    f"pure states given as vectors with n = {g.psi.shape[-1]} levels and d = {d} "
                    "parameters have no structural C_H, which needs d = 2(n - 1) or n = d = 3; "
                    "pass rho and derivs for other pure models")
            # Pure qutrits, d = 3: one normal direction, unit z in the real form
            # v -> (Re v, Im v), J the complex unit.  {psi, i psi}^perp is
            # J-invariant and spanned by the l_a and z, and Jz is orthogonal to
            # z, so Jz = sum_a c_a l_a and the coupling l.Jz is s = Q c.  The z
            # part of J^2 l_b = -l_b gives U c = 0: c lies along u (U != 0, as
            # R = 1).  |Jz| = 1 gives c^T Q c = 1, so c = u / sqrt(u^T Q u) =
            # u sqrt(det Q^-1) (`geometry._vector_geometry`), and P = |z|^2 = 1,
            # so left = sqrt(W) Q^-1 s = sqrt(W) c; the sign of c flips K, not C_H.
            c = uhlmann_axial(g.uhlmann[sel]) * g._qfim_inverses[1][sel][..., None]
            part = take(frame, sel)
            setup = _TangentSetup(part, part.sqrt_w @ c[..., None], broadcast(1.0, (len(c), 1, 1)))
            groups.append((regular, *_holevo_solutions(setup)))
        elif regular.size:
            if np.size(g.slds) == 0:
                raise InvalidInput("geometry must carry SLD operators")
            # on first use: matrix input alone builds a normal space
            from .general import _gell_mann_coordinates, _normal_spaces, _tangent_setup
            coordinates = _gell_mann_coordinates(rho[sel], g.slds[sel])
            for rows, basis in _normal_spaces(*coordinates, g._qfim_inverses[4][sel]):
                rows = regular[rows]
                setup = _tangent_setup(basis, take(frame, subset(rows, points)))
                groups.append((rows, *_holevo_solutions(setup)))
        c_h, lower = broadcast(np.where(route == _AT_ZERO, c_t, np.nan), (2, points))
        for rows, code, sol in groups:
            route[rows], c_h[rows], lower[rows], not_converged[rows] = (
                code, sol.value, sol.lower, ~sol.converged)
        gap_h = np.where(route == _AT_ZERO, t_value, (c_h - frame.c_sld) / frame.c_sld)
    r_val = _spectral_radius(g)
    flags = {FLAG_RLD_UNAVAILABLE: no_rld, FLAG_SINGULAR_QFIM: ill,
             FLAG_PSEUDO_INVERSE: ill & ~null, FLAG_HOLEVO_NOT_CONVERGED: not_converged}
    cols = dict(c_sld=frame.c_sld, c_rld=c_rld, c_t=c_t, c_r=(1.0 + r_val) * frame.c_sld, c_h=c_h,
                lower=lower, gap_h=gap_h, R=r_val, T=t_value, null=null, flags=flags, route=route,
                holevo=groups)
    _check_hierarchy(cols, ~ill if ill.any() else ...)
    return cols
