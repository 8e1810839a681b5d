"""Information geometry of a parameterized state: Q, U, R, T, and the normal space."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, SingularQFIM
from .linalg import (
    adjugate,
    broadcast,
    density_spectrum,
    dot,
    hermitian_part,
    raise_first_failure,
    require_bloch_state,
    require_derivative,
    require_full_rank,
    require_hermitian,
    require_pure_state,
    require_weight,
    sld_in_eigenbasis,
    small_matmul,
    spd_sqrt,
    stacked,
    state_eigensystem,
    sym_cholesky,
    tracenorm_antisym,
)

# The one line between regular and singular Q: a row is regular, with full
# tangent rank, where every eigenvalue of Q exceeds RANK_TOL times the
# largest (`_eigen_inverses`).  Past cond(Q) = 1 / RANK_TOL the rounding of
# C_SLD, R and T, about eps cond(Q), exceeds the bound chain's slack.
RANK_TOL = 1e-9
# How far above the RANK_TOL line a row with d in {2, 3} must sit to take
# Q^-1 from its Cholesky factor (`_invert`).
_CLOSED_FORM_MARGIN = 10.0
# A qubit given by its Bloch vector must be encoded unitarily: |r.d_k r| at
# most this times |r| |d_k r| (`_bloch_geometry`).  The SLD terms the route
# then drops grow as (r.d_k r) / (1 - |r|^2), so C_H = C_T holds to
# O(TANGENT_TOL / (1 - |r|^2)) relative, not to TANGENT_TOL, near the pure states.
TANGENT_TOL = 1e-12
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]  # entries k + 1 and k + 2 (mod 3) of a 3-vector


@dataclass(frozen=True)
class InformationGeometry:
    """SLD QFIM, mean Uhlmann curvature, the SLD operators (if known), the
    tangent-space rank and the descending spectrum of rho (if known), of one point
    or of a batch stacked along a leading axis (then ``slds`` is (B, d, n, n),
    ``tangent_dim`` an integer array).  Pure states given as vectors carry
    ``psi``, (B, n) or one (n,) for every row, and qubits given by Bloch vectors
    carry ``r`` (B, 3); either marks the route the geometry came from, and
    leaves ``slds`` empty."""

    qfim: np.ndarray
    uhlmann: np.ndarray
    slds: tuple[np.ndarray, ...]
    tangent_dim: int
    rho_spectrum: np.ndarray | None = None
    psi: np.ndarray | None = None
    r: np.ndarray | None = None

    @property
    def n_params(self) -> int:
        return self.qfim.shape[-1]

    @cached_property
    def _qfim_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of Q, computed once."""
        return np.linalg.eigh(self.qfim)

    @cached_property
    def _qfim_inverses(self) -> tuple:
        """`_invert`'s inverses of Q, computed once."""
        return _invert(self.qfim)[0]

    @cached_property
    def _adj_root_u(self) -> np.ndarray:
        """G u (`_invert`) for d = 3, u the axial vector of U."""
        return (self._qfim_inverses[5] @ uhlmann_axial(self.uhlmann)[..., None])[..., 0]


class WeightTransform(NamedTuple):
    """Rotation + rescaling splitting of a weight matrix, W = P^T D P."""

    rotated: InformationGeometry
    diagonal_weight: np.ndarray
    rotation: np.ndarray


class TSaturationReport(NamedTuple):
    """Diagnostics for when the weight-dependent measure reaches the quantumness."""

    t_value: float
    r_value: float
    t_equals_r: bool
    saturating_weight: np.ndarray | None
    saturating_omegas: tuple[float, float] | None
    maximizing_diagonal_omega: float | None
    odd_diagonal_requires_zero_u: bool
    rank_u: int
    rank_bound_ok: bool


def geometry_from_matrices(
    q: np.ndarray, u: np.ndarray, slds: Sequence[np.ndarray] = ()
) -> InformationGeometry:
    """Wrap explicit (Q, U) matrices, for cross-checks and synthetic inputs."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    return _geometry(0.5 * (q + q.T), 0.5 * (u - u.T), tuple(np.asarray(s) for s in slds))


def _geometry(q: np.ndarray, u: np.ndarray, slds: tuple, rho_spectrum=None,
              psi=None, r=None) -> InformationGeometry:
    """The geometry of (Q, U, SLDs), its tangent rank (the eigenvalues of Q
    that `_eigen_inverses` keeps) and cached inverses and eigenpairs from
    `_invert`."""
    inverses, rank, eigh = _invert(q)
    g = InformationGeometry(q, u, slds, rank if rank.ndim else int(rank), rho_spectrum, psi, r)
    g.__dict__["_qfim_inverses"] = inverses  # the cached_property slots
    if eigh is not None:
        g.__dict__["_qfim_eigh"] = eigh
    return g


def _invert(q: np.ndarray) -> tuple:
    """Q's inverses (Q^-1, sqrt(det Q^-1), ill, void, F with F^T F = Q^-1,
    and for d = 3 G with G^T G = adj(Q^-1)), tangent rank and, if every row
    was decomposed, eigenpairs.  A row with d in {2, 3} is certified, full
    rank and not ill where det Q / (Tr Q)^d <= lambda_min / lambda_max
    clears the RANK_TOL line by _CLOSED_FORM_MARGIN, with Q = L L^T
    (`sym_cholesky`, positive diagonal only where Q > 0): det Q = det(L)^2,
    F = L^-1 = adj(L) / det L, and for d = 3 Q^-1 = F^T F and
    G = L^T / det L.  (A 3x3 Q's own cofactors would lose det Q where Q has
    two small eigenvalues; a 2x2 Q's are exact, so there
    Q^-1 = adj(Q) / det Q.)  Other rows, and every row of other d, take
    `_eigen_inverses` of their own eigendecomposition."""
    d = q.shape[-1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # ill or uncertified rows
        if d not in (2, 3):
            w, v = np.linalg.eigh(q)
            return *_eigen_inverses(w, v), (w, v)
        flat = q.reshape(-1, d, d)
        low = sym_cholesky(flat)
        det_low = np.multiply.reduce(low.diagonal(0, -2, -1), axis=-1)
        ratio = det_low * det_low / flat.trace(0, -2, -1) ** d
        rest = ~(ratio > _CLOSED_FORM_MARGIN * RANK_TOL)  # L's diagonal is > 0, 0 or NaN
        root = (1.0 / det_low)[:, None, None]
        f = adjugate(low) * root
        qinv = adjugate(flat) * root * root if d == 2 else f.swapaxes(-1, -2) @ f
        inverses = (qinv, root[:, 0, 0], *np.zeros((2, len(flat)), bool), f,
                    *((low.swapaxes(-1, -2) * root,) if d == 3 else ()))
        rank, eigh = broadcast(d, len(flat)), None
        if rest.any():
            w, v = np.linalg.eigh(flat[rest])
            part, rank[rest] = _eigen_inverses(w, v)
            for full, x in zip(inverses, part):
                full[rest] = x
            if rest.all():
                eigh = w.reshape(q.shape[:-1]), v.reshape(q.shape)
    if q.ndim != 3:  # one point
        inverses, rank = tuple(x.reshape(x.shape[1:]) for x in inverses), rank.reshape(())
    return inverses, rank, eigh


def _eigen_inverses(w: np.ndarray, v: np.ndarray) -> tuple:
    """`_invert`'s inverses from Q's eigenpairs (w ascending), and the
    tangent rank: the number of eigenvalues kept, those above RANK_TOL times
    the largest.  A row is ``ill`` exactly where its smallest eigenvalue is
    not kept; Q^-1 is then the pseudo-inverse on the kept ones, 0 where Q
    has no positive eigenvalue (``void``), and sqrt(det Q^-1) is 0.
    F = diag(sqrt(1 / w)) V^T on the kept w, G likewise on their products in
    pairs, the eigenvalues of adj(Q^-1)."""
    top = w[..., -1:]
    keep = w > RANK_TOL * top
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    roots = (inv_w, inv_w[..., [1, 0, 0]] * inv_w[..., [2, 2, 1]]) if w.shape[-1] == 3 else (inv_w,)
    inverses = ((v * inv_w[..., None, :]) @ v.swapaxes(-1, -2), np.prod(np.sqrt(inv_w), axis=-1),
                ~keep[..., 0], top[..., 0] <= 0.0,
                *((v * np.sqrt(x)[..., None, :]).swapaxes(-1, -2) for x in roots))
    return inverses, np.sum(keep, axis=-1)


def compute_geometry(rho: np.ndarray, derivs: Sequence[np.ndarray]) -> InformationGeometry:
    """SLD-route geometry from a state and its parameter derivatives.

    Q_munu = Re Tr[rho L_mu L_nu], U_munu = Im Tr[rho L_mu L_nu]; the
    tangent dimension is the rank of Q at relative tolerance RANK_TOL.  rho is
    decomposed once, and validated against that spectrum.
    A batch of states (B, n, n) with derivatives (B, d, n, n) gives the
    batch geometry from one stacked decomposition each of rho and Q; each
    state is checked as it would be alone.
    """
    derivs = _need_derivatives(derivs)
    w, v = state_eigensystem(rho)
    derivs = require_derivative(derivs)
    # one parameter at a time keeps a batch's temporaries at (B, n, n)
    slds = [sld_in_eigenbasis(w, v, derivs[..., k, :, :]) for k in range(derivs.shape[-3])]
    q, u = _sld_gram(np.asarray(rho, dtype=complex), slds)
    slds = np.stack(slds, axis=-3)
    return _geometry(q, u, tuple(slds) if slds.ndim == 3 else slds, w)


def _need_derivatives(derivs) -> np.ndarray:
    derivs = np.asarray(derivs)
    if derivs.ndim < 3 or derivs.shape[-3] < 1:
        raise InvalidInput("need at least one parameter derivative")
    return derivs


def _sld_gram(rho: np.ndarray, slds: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(Q, U) as the real and imaginary parts of Tr[rho L_a L_b], from the
    SLDs one parameter at a time."""
    d = len(slds)
    rho_l = [small_matmul(rho, l) for l in slds]
    gram = np.empty(np.shape(rho)[:-2] + (d, d), dtype=complex)
    for a in range(d):
        for b in range(a, d):  # Tr[X Y] = sum_ij X_ij Y_ji, with no product
            gram[..., a, b] = (rho_l[a] * slds[b].swapaxes(-1, -2)).sum(axis=(-2, -1))
            gram[..., b, a] = np.conj(gram[..., a, b])
    return _split_gram(gram)


def _split_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, U), the symmetric real and antisymmetric imaginary parts of the
    Gram matrix Q + iU of the SLDs."""
    q = 0.5 * (gram.real + gram.real.swapaxes(-1, -2))
    u = 0.5 * (gram.imag - gram.imag.swapaxes(-1, -2))
    d = gram.shape[-1]
    u[..., range(d), range(d)] = 0.0
    return q, u


def model_geometry(
    rho: np.ndarray | None, derivs: np.ndarray | None, pure: tuple | None, bloch: tuple | None
) -> InformationGeometry:
    """The geometry of a batch of states, taking what the model knows about
    them (the fields of `models.ModelArrays`); without that, `compute_geometry`
    of the states (B, n, n) and derivatives (B, d, n, n).  Each route
    validates its input as `compute_geometry` does, in the form it has, and
    builds no density matrix.

    * ``pure`` = (psi, l): Q + iU = <l_a|l_b> (Matsumoto, J. Phys. A 35,
      3111, 2002), and the spectrum is (1, 0, ...); see `_vector_geometry`.
    * ``bloch`` = (r, d r) of a unitarily encoded qubit, checked by
      `require_bloch_state` and `_bloch_geometry`: r.d_i r = 0, so
      L_i = d_i r.sigma, Q_ij = d_i r.d_j r and U_ij = r.(d_i r x d_j r), with
      the spectrum (1 +- |r|) / 2.
    """
    if pure is not None:
        return _vector_geometry(*pure)
    if bloch is not None:
        return _bloch_geometry(*bloch)
    return compute_geometry(rho, derivs)


def _vector_geometry(psi: np.ndarray, ells: np.ndarray) -> InformationGeometry:
    """The geometry of pure states psi (B, n), or one psi (n,) for every row,
    from the vectors l_k = L_k psi (B, d, n) of their SLDs:
    Tr[rho L_a L_b] = <l_a|l_b>, so Q and U are the real and imaginary parts
    of one Gram matrix, formed by `small_matmul`, and rho = psi psi^dag is
    never formed.  `require_pure_state` checks the vectors; psi is kept as
    given, and gives n."""
    psi, ells = require_pure_state(psi, ells)
    q, u = _split_gram(small_matmul(ells.conj(), ells.swapaxes(-1, -2)))
    spectrum = np.zeros(ells.shape[:-2] + psi.shape[-1:])
    spectrum[..., 0] = 1.0
    return _geometry(q, u, (), spectrum, psi)


def _bloch_geometry(r: np.ndarray, dr: np.ndarray) -> InformationGeometry:
    """The qubit route of `model_geometry`, from r (B, 3) and d r (B, d, 3):
    the geometry carries r.  The encoding must be unitary, r a rotation of a
    fixed vector, so r.d_i r = 0: the first row where |r.d_i r| exceeds
    TANGENT_TOL |r| |d_i r| raises InvalidInput.  Then the SLDs
    L_i = a_i I + b_i.sigma have a_i = 0 and b_i = d_i r."""
    r, dr, radius = require_bloch_state(r, dr)
    # each vector over its largest entry, so that no square under- or overflows
    u, du = (v / np.maximum(np.maximum.reduce(abs(v), -1, keepdims=True), 1e-300) for v in (r, dr))
    # |u.d_i u| against |u| |d_i u| with no quotient; the norms are 0 only where u or d_i u is
    along, norms = np.abs(dot(du, u[..., None, :])), np.sqrt(dot(u, u)[..., None] * dot(du, du))
    raise_first_failure(((along > TANGENT_TOL * norms).any(axis=-1), lambda i: InvalidInput(
        "d r is not tangent to r: |r.d r| / (|r| |d r|) = "
        f"{(along / np.where(norms > 0.0, norms, 1.0)).reshape(-1, dr.shape[-2])[i].max():.3e}; "
        "a qubit given by its Bloch vector must be encoded unitarily")))
    q = dr @ dr.swapaxes(-1, -2)  # symmetric: both triangles sum the same products
    u = np.zeros(q.shape)
    for i, j in itertools.combinations(range(q.shape[-1]), 2):
        # a x b for a = d_i r, b = d_j r: a_(k+1) b_(k+2) - a_(k+2) b_(k+1), as np.cross rounds it
        a, b = dr[..., i, :], dr[..., j, :]
        u[..., i, j] = dot(r, a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT])
        u[..., j, i] = -u[..., i, j]
    spectrum = stacked(0.5 + 0.5 * radius, np.maximum(0.5 - 0.5 * radius, 0.0))
    return _geometry(q, u, (), spectrum, r=r)


def rld_qfim(rho: np.ndarray, derivs: Sequence[np.ndarray]) -> np.ndarray:
    """RLD quantum Fisher information J_munu = Tr[rho L^R_mu L^R_nu^dag].

    Defined for full-rank states only; raises SingularState otherwise.  The
    state is validated and its spectrum taken once, and one factorization
    of rho solves rho L^R_mu = d_mu rho for every derivative.
    """
    rho, w = density_spectrum(rho)
    derivs = require_hermitian(derivs, "drho")
    require_full_rank(w)
    return _rld_matrix(rho, derivs)


def _rld_matrix(rho: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """J for full-rank states rho (..., n, n) with derivatives (..., d, n, n)."""
    n, d = rho.shape[-1], derivs.shape[-3]
    stacked = derivs.swapaxes(-3, -2).reshape(derivs.shape[:-3] + (n, d * n))
    ls = np.linalg.solve(rho, stacked).reshape(derivs.shape[:-3] + (n, d, n)).swapaxes(-3, -2)
    j = np.einsum("...aij,...bij->...ab", rho[..., None, :, :] @ ls, ls.conj())
    return 0.5 * (j + j.swapaxes(-1, -2).conj())


def _qfim_inverse(g: InformationGeometry, pseudo_inverse: bool = False) -> tuple:
    """The geometry's cached `_qfim_inverses` with the singularity policy
    applied: a Q without positive eigenvalues raises SingularQFIM, and so
    does an ill one (`_eigen_inverses`) unless ``pseudo_inverse`` allows
    the pseudo-inverse."""
    if g._qfim_inverses[3]:
        raise SingularQFIM("QFIM has no positive eigenvalues")
    if g._qfim_inverses[2] and not pseudo_inverse:
        w = g._qfim_eigh[0]
        raise SingularQFIM(
            f"QFIM condition number exceeds {1.0 / RANK_TOL:.1e} "
            f"(eigenvalues {w[0]:.3e} .. {w[-1]:.3e})"
        )
    return g._qfim_inverses


class _WeightFrame(NamedTuple):
    """What every weighted bound reads at one (geometry, W): the validated
    W, sqrt(W), Q^-1, the core sqrt(W) Q^-1 U Q^-1 sqrt(W),
    C_SLD = Tr[W Q^-1], the core's trace norm ||core||_1 and
    C_T = C_SLD + ||core||_1.  ``used_pseudo`` says whether Q^-1 is the
    rank-truncated pseudo-inverse."""

    w_mat: np.ndarray
    sqrt_w: np.ndarray
    qinv: np.ndarray
    core: np.ndarray
    c_sld: float
    used_pseudo: bool
    core_norm: float
    c_t: float

    @property
    def t_value(self) -> float:
        return self.core_norm / self.c_sld


def _weight_and_root(w_mat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The validated weight (or stack of weights) and its square root, from
    one decomposition: the root's ``eigh`` also tests definiteness."""
    w_mat = require_weight(w_mat, d)
    return w_mat, spd_sqrt(w_mat)


def _frame(g: InformationGeometry, w_mat: np.ndarray, sqrt_w: np.ndarray) -> _WeightFrame:
    """The weight frame at validated (W, sqrt W), one per point of a batch,
    on the geometry's inverses as they are (pseudo-inverses where Q is ill);
    the caller applies the singularity policy.

    C_SLD = sum W o Q^-1.  For d = 2, A J A^T = det(A) J for every 2x2 A,
    J = [[0, 1], [-1, 0]], so the core is U_12 det(Q^-1) det(sqrt W) J, with
    det(Q^-1) as its root times its root, since it can overflow alone.  For
    d = 3, Q^-1 U Q^-1 = [adj(Q^-1) u]x (`adjugate`) = [G^T G u]x
    (`_invert`), u the axial vector of U.  Neither forms a product with Q^-1.
    A row whose Q^-1 leaves the float range gets inf or NaN, and
    `batch_reports` makes it a null row."""
    qinv, root_det, ill = g._qfim_inverses[:3]
    with np.errstate(over="ignore", invalid="ignore"):
        if g.n_params == 2:
            det_sqrt_w = sqrt_w[..., 0, 0] * sqrt_w[..., 1, 1] - sqrt_w[..., 0, 1] * sqrt_w[..., 1, 0]
            core = (g.uhlmann[..., 0, 1] * root_det * root_det * det_sqrt_w)[..., None, None] * _J
        elif g.n_params == 3:
            adj_u = g._qfim_inverses[5].swapaxes(-1, -2) @ g._adj_root_u[..., None]
            core = sqrt_w @ _from_axial(adj_u[..., 0]) @ sqrt_w
        else:
            core = sqrt_w @ qinv @ g.uhlmann @ qinv @ sqrt_w
        c_sld = (w_mat * qinv).sum(axis=(-2, -1))
        core_norm = tracenorm_antisym(core)
        return _WeightFrame(w_mat, sqrt_w, qinv, core, c_sld, ill, core_norm, c_sld + core_norm)


def _weight_frame(
    g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False
) -> _WeightFrame:
    w_mat, sqrt_w = _weight_and_root(w_mat, g.n_params)
    _qfim_inverse(g, pseudo_inverse)
    return _frame(g, w_mat, sqrt_w)


def uhlmann_axial(u: np.ndarray) -> np.ndarray:
    """The vector (U_23, -U_13, U_12) of a 3x3 antisymmetric matrix (or a stack)."""
    return u[..., (1, 0, 0), (2, 2, 1)] * _AXIAL_SIGNS


_AXIAL_SIGNS = np.array([1.0, -1.0, 1.0])


_LEVI_CIVITA = np.zeros((3, 9))  # row k, column 3 i + j: eps_ijk
_LEVI_CIVITA[(0, 0, 1, 1, 2, 2), (5, 7, 6, 2, 1, 3)] = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)


def _from_axial(c: np.ndarray) -> np.ndarray:
    """The 3x3 antisymmetric matrices whose `uhlmann_axial` is c, exactly."""
    return (c @ _LEVI_CIVITA).reshape(c.shape + (3,))


def quantumness_R(g: InformationGeometry, pseudo_inverse: bool = False) -> float:
    """Weight-independent incompatibility R, the spectral radius of i Q^-1 U.

    For d = 2 it is sqrt(det U / det Q) = |U_12| sqrt(det Q^-1), and for
    d = 3 sqrt(u^T adj(Q^-1) u), u the axial vector of U.  Otherwise it is
    evaluated through a Hermitian matrix similar to i Q^-1 U.
    """
    _qfim_inverse(g, pseudo_inverse)
    return float(_spectral_radius(g))


def _spectral_radius(g: InformationGeometry) -> np.ndarray:
    """max |eig(i Q^-1 U)| per point on the inverses as they are: for d = 2,
    |U_12| sqrt(det Q^-1), exactly 0 where the pseudo-inverse drops an
    eigenvalue.  Otherwise that of i F U F^T (F^T F = Q^-1): for d = 3
    {0, +-|adj(F)^T u|}, so R = |G u| (`_invert`), u the axial vector of U;
    other d take a stacked eigvalsh.  As in `_frame`, a row whose Q^-1
    leaves the float range gets inf or NaN.  A row of pure states ``g.psi``
    with d > n - 1 that is not ill has R = 1 exactly: Q + iU = <l_a|l_b> >= 0
    has rank at most n - 1 < d, so i Q^-1 U has the eigenvalue -1, none larger."""
    with np.errstate(over="ignore", invalid="ignore"):
        if g.n_params == 2:
            r = np.abs(g.uhlmann[..., 0, 1]) * g._qfim_inverses[1]
        elif g.n_params == 3:
            r = np.sqrt(dot(g._adj_root_u, g._adj_root_u))
        else:
            f = g._qfim_inverses[4]  # i F U F^T, F^T F = Q^-1, has the spectrum of i Q^-1 U
            vals = np.linalg.eigvalsh(hermitian_part(1j * (f @ g.uhlmann @ f.swapaxes(-1, -2))))
            r = np.max(np.abs(vals), axis=-1, initial=0.0)
    if g.psi is not None and g.n_params > g.psi.shape[-1] - 1:
        r = np.where(g._qfim_inverses[2], r, 1.0)
    return r


def t_measure(g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False) -> float:
    """Weight-dependent measure ||sqrt(W) Q^-1 U Q^-1 sqrt(W)||_1 / Tr[W Q^-1]."""
    return _weight_frame(g, w_mat, pseudo_inverse).t_value


def _rank_antisym(u: np.ndarray) -> int:
    sv = np.linalg.svd(u, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def t_saturation_analysis(g: InformationGeometry, w_mat: np.ndarray) -> TSaturationReport:
    """When does T[W] reach R, and which weight matrix gets it there.

    For two parameters the unique saturating family is W proportional to Q
    (omega2* = Q22/Q11, omega1* = Q12/Q11), and among diagonal weights
    diag(1, omega) the measure is maximized at omega = Q22/Q11.  For an odd
    number of parameters with diagonal Q and W, T = R forces U = 0.  The
    rank bound T <= Rank(U) R holds always.
    """
    q, u = g.qfim, g.uhlmann
    frame = _weight_frame(g, w_mat)
    w_mat = frame.w_mat
    d = q.shape[0]
    t_val = frame.t_value
    r_val = quantumness_R(g)
    rank_u = _rank_antisym(u)
    saturating_weight = None
    saturating_omegas = None
    max_omega = None
    if d == 2:
        max_omega = float(q[1, 1] / q[0, 0])
        if u[0, 1] != 0.0:  # det U = U_12^2
            saturating_weight = q / q[0, 0]
            saturating_omegas = (float(q[0, 1] / q[0, 0]), float(q[1, 1] / q[0, 0]))
    off_q = np.max(np.abs(q - np.diag(np.diag(q))), initial=0.0)
    off_w = np.max(np.abs(w_mat - np.diag(np.diag(w_mat))), initial=0.0)
    odd_diagonal = d % 2 == 1 and off_q <= 1e-12 and off_w <= 1e-12
    return TSaturationReport(
        t_value=t_val,
        r_value=r_val,
        t_equals_r=abs(t_val - r_val) <= 1e-9,
        saturating_weight=saturating_weight,
        saturating_omegas=saturating_omegas,
        maximizing_diagonal_omega=max_omega,
        odd_diagonal_requires_zero_u=odd_diagonal,
        rank_u=rank_u,
        rank_bound_ok=t_val <= rank_u * r_val + 1e-9,
    )


def weight_transform(g: InformationGeometry, w_mat: np.ndarray) -> WeightTransform:
    """Split W = P^T D P and rotate the geometry into the eigenframe of W.

    T is invariant: T[D, PQP^T, PUP^T] = T[W, Q, U].  Diagonal inputs pass
    through unchanged (P = I), keeping the trivial case exact.  The state
    does not move, so the rotated geometry keeps its spectrum, ``psi`` and
    ``r``, and with them the structural R and C_H of its route.
    """
    w_mat = _weight_and_root(w_mat, g.n_params)[0]
    d = g.n_params
    if np.count_nonzero(w_mat - np.diag(np.diag(w_mat))) == 0:
        return WeightTransform(rotated=g, diagonal_weight=w_mat.copy(), rotation=np.eye(d))
    vals, vecs = np.linalg.eigh(w_mat)
    for k in range(d):
        idx = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[idx, k] < 0:
            vecs[:, k] = -vecs[:, k]
    rot = vecs.T
    q_r = rot @ g.qfim @ rot.T
    u_r = rot @ g.uhlmann @ rot.T
    slds_r = tuple(
        hermitian_part(sum(rot[mu, nu] * g.slds[nu] for nu in range(d)))
        for mu in range(d)
    ) if g.slds else ()
    rotated = InformationGeometry(0.5 * (q_r + q_r.T), 0.5 * (u_r - u_r.T), slds_r, g.tangent_dim,
                                  g.rho_spectrum, g.psi, g.r)
    return WeightTransform(rotated=rotated, diagonal_weight=np.diag(vals), rotation=rot)


@lru_cache(maxsize=None)
def _gell_mann(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generalized Gell-Mann basis G_a, stacked (n^2 - 1, n, n) in lexicographic
    order (symmetric pairs, antisymmetric pairs, diagonal), Hilbert-Schmidt
    norm sqrt(2); with flat rows giving Tr[x G_a] = traces @ x.ravel() and
    Tr[rho G_a G_b] = (products @ rho.ravel())[a (n^2 - 1) + b].  Built on
    first use per n, read-only."""
    basis = np.zeros((n * n - 1, n, n), dtype=complex)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for a, (i, j) in enumerate(pairs):
        basis[a, i, j] = basis[a, j, i] = 1.0
        basis[len(pairs) + a, i, j], basis[len(pairs) + a, j, i] = -1j, 1j
    for l in range(1, n):
        diag = [1.0] * l + [-float(l)] + [0.0] * (n - l - 1)
        basis[2 * len(pairs) + l - 1] = np.diag(diag) * np.sqrt(2.0 / (l * (l + 1)))
    traces = basis.transpose(0, 2, 1).reshape(n * n - 1, n * n)
    products = (basis[:, None] @ basis[None, :]).transpose(0, 1, 3, 2).reshape(-1, n * n)
    for arr in (basis, traces, products):
        arr.flags.writeable = False
    return basis, traces, products


class NormalSpaceBasis(NamedTuple):
    """Orthonormal basis of the SLD normal space with its Gram and coupling data.

    Direction j is P_j = sum_a coeffs[a, j] (G_a - c_a) in the Gell-Mann basis,
    c_a = Tr[rho G_a] (``means``), so Tr[rho P_j] = 0.  ``gram`` is the complex
    matrix Tr[rho P_i P_j] (its real part is the identity by orthonormality)
    and ``coupling`` is Im Tr[rho L_i P_j]."""

    coeffs: np.ndarray
    means: np.ndarray
    gram: np.ndarray
    coupling: np.ndarray

    @property
    def size(self) -> int:
        return self.coeffs.shape[1]

    @property
    def ops(self) -> tuple[np.ndarray, ...]:
        """The operators P_j, built from the coefficients."""
        n = int(np.sqrt(len(self.means) + 1))
        basis = _gell_mann(n)[0]
        ops = np.tensordot(self.coeffs, basis, axes=(0, 0))
        ops -= (self.means @ self.coeffs)[:, None, None] * np.eye(n)
        return tuple(ops)


def tangent_normal_decomposition(
    rho: np.ndarray,
    g: InformationGeometry,
    pseudo_inverse: bool = False,
) -> NormalSpaceBasis:
    """Orthonormal basis of the SLD normal space at rho.

    Real coefficients x stand for sum_a x_a (G_a - Tr[rho G_a]) in the Gell-Mann
    basis.  With S = Tr[rho G_a G_b] - Tr[rho G_a] Tr[rho G_b], the inner
    product Re Tr[rho (AB + BA)] / 2 is x^T Re S y, Im Tr[rho A B] is x^T Im S y,
    and SLD i has coefficients Tr[L_i G_a] / 2.  The SLD span is projected out
    under Re S, and directions whose Gram eigenvalue falls below RANK_TOL times
    the largest diagonal of Re S are discarded.  Those satisfy rho P = 0, so
    they add nothing to the Holevo objective; dropping them keeps the Gram
    matrix invertible.
    """
    if not g.slds:
        raise InvalidInput("geometry must carry SLD operators")
    f = _qfim_inverse(g, pseudo_inverse)[4]  # singularity policy
    rho = np.asarray(rho, dtype=complex)
    coordinates = _gell_mann_coordinates(rho[None], np.asarray(g.slds)[None])
    ((_, basis),) = _normal_spaces(*coordinates, f[None])
    return take(basis, 0)


def _gell_mann_coordinates(rho: np.ndarray, slds: np.ndarray) -> tuple:
    """The Gell-Mann coordinates that `_normal_spaces` reads, of states
    (B, n, n) with SLDs (B, d, n, n): rho's means c_a = Tr[rho G_a] (B, n^2 - 1),
    the form S_ab = Tr[rho G_a G_b] - c_a c_b and the SLD coefficients
    Tr[L_i G_a] / 2 (B, d, n^2 - 1)."""
    n = rho.shape[-1]
    _, traces, products = _gell_mann(n)
    flat_rho = rho.reshape(len(rho), n * n, 1)
    means = (traces @ flat_rho)[..., 0].real
    s = (products @ flat_rho).reshape(means.shape + (-1,))
    s -= means[:, :, None] * means[:, None, :]
    return means, s, 0.5 * (slds.reshape(slds.shape[:2] + (-1,)) @ traces.T).real


def _normal_spaces(means: np.ndarray, s: np.ndarray, l: np.ndarray, f: np.ndarray) -> list:
    """The normal-space bases of a batch of states given by their
    `_gell_mann_coordinates` (the means, the form S and the SLD
    coefficients l (B, d, n^2 - 1)) and `_invert`'s
    F (B, d, d) of their Q, as `tangent_normal_decomposition` builds one,
    grouped by size: (rows, basis with those rows stacked along a leading
    axis)."""
    s_re = s.real
    # Q = l Re S l^T and F Q F^T = I (on the kept eigenvalues where Q is
    # ill), so the rows of F l are an orthonormal tangent frame under Re S
    frame = f @ l
    cand = np.eye(s.shape[-1]) - frame.swapaxes(-1, -2) @ (frame @ s_re)

    w, v = np.linalg.eigh(cand.swapaxes(-1, -2) @ s_re @ cand)
    # The cut is against the scale of the form itself, not the projected
    # maximum, which would keep pure roundoff when the normal space is empty.
    raw_scale = np.max(np.diagonal(s_re, axis1=-2, axis2=-1), axis=-1)
    sizes = np.where(raw_scale > 0, np.sum(w > RANK_TOL * raw_scale[:, None], axis=-1), 0)
    groups = []
    for size in sorted(set(sizes.tolist())):  # (np.unique would import numpy.ma)
        rows = np.flatnonzero(sizes == size)
        sel = subset(rows, len(sizes))
        vecs, kept = v[sel, :, ::-1][..., :size], w[sel, None, ::-1][..., :size]
        pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[:, None, :], axis=-2)
        coeffs = cand[sel] @ (vecs * (np.where(pivot < 0, -1.0, 1.0) / np.sqrt(kept)))
        groups.append((rows, _basis(coeffs, means[sel], s[sel], l[sel])))
    return groups


def _basis(coeffs: np.ndarray, means: np.ndarray, s: np.ndarray, l: np.ndarray) -> NormalSpaceBasis:
    """The stacked basis of the given coefficients (B, n^2 - 1, m), with its
    Gram and coupling matrices."""
    sv = s @ coeffs
    gram = coeffs.swapaxes(-1, -2) @ sv
    gram = 0.5 * (gram + gram.swapaxes(-1, -2).conj())
    return NormalSpaceBasis(coeffs, means, gram, (l @ sv).imag)


def subset(rows: np.ndarray, total: int) -> np.ndarray | slice:
    """An index for ``rows`` of a batch of ``total``: a slice, so a view
    and no copy, when the rows are all of them."""
    return slice(None) if len(rows) == total else rows


def take(batch, rows):
    """The given rows (an index, a slice or None for a new axis) of a batch
    held in a NamedTuple of arrays, nested NamedTuples included."""
    return type(batch)(*(take(v, rows) if isinstance(v, tuple) else v[rows] for v in batch))


__all__ = [
    "InformationGeometry",
    "NormalSpaceBasis",
    "WeightTransform",
    "TSaturationReport",
    "compute_geometry",
    "geometry_from_matrices",
    "rld_qfim",
    "quantumness_R",
    "t_measure",
    "t_saturation_analysis",
    "weight_transform",
    "tangent_normal_decomposition",
    "uhlmann_axial",
]
