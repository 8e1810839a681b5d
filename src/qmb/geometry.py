"""Information geometry of a parameterized state: Q, U, R and T.

The geometry of density-matrix input, the normal space and the one-point
analyses of T (`t_saturation_analysis`, `weight_transform`) are in `general`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, SingularQFIM
from .linalg import (
    adjugate,
    broadcast,
    dot,
    entry_sum,
    hermitian_part,
    raise_first_failure,
    require_bloch_vectors,
    require_pure_state,
    require_weight,
    rows_failing,
    small_matmul,
    spd_sqrt,
    stacked,
    tracenorm_antisym,
)

# The one line between regular and singular Q: a row is regular, with full
# tangent rank, where every eigenvalue of Q exceeds RANK_TOL times the
# largest (`_eigen_inverses`).  Past cond(Q) = 1 / RANK_TOL the rounding of
# C_SLD, R and T, about eps cond(Q), exceeds the bound chain's slack.
RANK_TOL = 1e-9
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
    def _adj_u(self) -> np.ndarray:
        """adj(Q^-1) u (`_invert`) for d = 3, u the axial vector of U."""
        return (self._qfim_inverses[5] @ uhlmann_axial(self.uhlmann)[..., None])[..., 0]


def geometry_from_matrices(
    q: np.ndarray, u: np.ndarray, slds: Sequence[np.ndarray] = ()
) -> InformationGeometry:
    """Wrap explicit (Q, U) matrices, for cross-checks and synthetic inputs."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    return _geometry(0.5 * (q + q.T), 0.5 * (u - u.T), tuple(np.asarray(s) for s in slds))


def _geometry(q: np.ndarray, u: np.ndarray, slds: tuple, rho_spectrum=None,
              psi=None, r=None, det=None) -> InformationGeometry:
    """The geometry of (Q, U, SLDs), its tangent rank (the eigenvalues of Q
    that `_eigen_inverses` keeps) and cached inverses and eigenpairs from
    `_invert`, given det Q where the model's structure knows it."""
    inverses, rank, eigh = _invert(q, det)
    g = InformationGeometry(q, u, slds, rank if rank.ndim else int(rank), rho_spectrum, psi, r)
    g.__dict__["_qfim_inverses"] = inverses  # the cached_property slots
    if eigh is not None:
        g.__dict__["_qfim_eigh"] = eigh
    return g


def _invert(q: np.ndarray, det: np.ndarray | None = None) -> tuple:
    """Q's inverses (Q^-1, sqrt(det Q^-1), ill, void, F with F^T F = Q^-1,
    and for d = 3 adj(Q^-1)), tangent rank and, if every row was
    decomposed, eigenpairs.  ``det`` is det Q from the model's structure,
    for one point or a batch, with d in {2, 3}.  A row is then regular where
    det Q / (Tr Q)^d, at most lambda_min / lambda_max, exceeds RANK_TOL,
    and takes Q^-1 = adj(Q) / det Q, sqrt(det Q^-1) = 1 / sqrt(det Q) and
    adj(Q^-1) = Q / det Q; it forms no F (None), which only normal spaces
    of matrix input and d >= 4 read.  Other rows, and every row without
    ``det``, take `_eigen_inverses` of their own eigendecomposition."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # ill rows
        if det is None:
            w, v = np.linalg.eigh(q)
            return *_eigen_inverses(w, v), (w, v)
        d = q.shape[-1]
        flat, det = q.reshape(-1, d, d), det.reshape(-1)
        by = det[:, None, None]
        inverses = (adjugate(flat) / by, 1.0 / np.sqrt(det), *np.zeros((2, len(flat)), bool),
                    None, *((flat / by,) if d == 3 else ()))
        rank, eigh = broadcast(d, len(flat)), None
        trace = entry_sum(flat.diagonal(0, -2, -1))
        rest = ~(det / trace ** d > RANK_TOL)  # det Q is 0 or NaN there, too
        if rest.any():
            w, v = np.linalg.eigh(flat[rest])
            part, rank[rest] = _eigen_inverses(w, v)
            for full, x in zip(inverses, part):
                if full is not None:
                    full[rest] = x
            if rest.all():
                eigh = w.reshape(q.shape[:-1]), v.reshape(q.shape)
    if q.ndim != 3:  # one point
        inverses = tuple(x if x is None else x.reshape(x.shape[1:]) for x in inverses)
        rank = rank.reshape(())
    return inverses, rank, eigh


def _eigen_inverses(w: np.ndarray, v: np.ndarray) -> tuple:
    """`_invert`'s inverses from Q's eigenpairs (w ascending), and the
    tangent rank: the number of eigenvalues kept, those above RANK_TOL times
    the largest.  A row is ``ill`` exactly where its smallest eigenvalue is
    not kept; Q^-1 is then the pseudo-inverse on the kept ones, 0 where Q
    has no positive eigenvalue (``void``), and sqrt(det Q^-1) is 0.
    F = diag(sqrt(1 / w)) V^T on the kept w, and adj(Q^-1) =
    V diag(p) V^T, p their products in pairs."""
    top = w[..., -1:]
    keep = w > RANK_TOL * top
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    vt = v.swapaxes(-1, -2)
    pairs = (inv_w[..., [1, 0, 0]] * inv_w[..., [2, 2, 1]],) if w.shape[-1] == 3 else ()
    inverses = ((v * inv_w[..., None, :]) @ vt, np.prod(np.sqrt(inv_w), axis=-1),
                ~keep[..., 0], top[..., 0] <= 0.0, np.sqrt(inv_w)[..., :, None] * vt,
                *((v * p[..., None, :]) @ vt for p in pairs))
    return inverses, np.sum(keep, axis=-1)


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
      `require_bloch_vectors` and `_bloch_geometry`: r.d_i r = 0, so
      L_i = d_i r.sigma, Q_ij = d_i r.d_j r and U_ij = r.(d_i r x d_j r), with
      the spectrum (1 +- |r|) / 2.
    """
    if pure is not None:
        return _vector_geometry(*pure)
    if bloch is not None:
        return _bloch_geometry(*bloch)
    from .general import compute_geometry  # on first use: no built-in model gives matrices
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
    # Q + iU >= 0 has rank at most n - 1, so det(Q + iU) = 0: det Q = U_12^2
    # for n = d = 2, and u^T Q u (u the axial vector of U) for n = d = 3
    det = None
    with np.errstate(over="ignore"):  # past the float range, (Tr Q)^d overflows too: eigh
        if psi.shape[-1] == q.shape[-1] == 2:
            det = u[..., 0, 1] * u[..., 0, 1]
        elif psi.shape[-1] == q.shape[-1] == 3:
            axial = uhlmann_axial(u)
            det = dot(axial, (q @ axial[..., None])[..., 0])
    return _geometry(q, u, (), spectrum, psi, det=det)


def _bloch_geometry(r: np.ndarray, dr: np.ndarray) -> InformationGeometry:
    """The qubit route of `model_geometry`, from r (B, 3) and d r (B, d, 3):
    the geometry carries r.  The encoding must be unitary, r a rotation of a
    fixed vector, so r.d_i r = 0: the first row where |r.d_i r| exceeds
    TANGENT_TOL |r| |d_i r| raises InvalidInput.  Then the SLDs
    L_i = a_i I + b_i.sigma have a_i = 0 and b_i = d_i r."""
    r, dr, radius = require_bloch_vectors(r, dr)
    # each vector over its largest entry, so that no square under- or overflows
    u, du = (v / np.maximum(_largest(abs(v)), 1e-300)[..., None] for v in (r, dr))
    # |u.d_i u| against |u| |d_i u| with no quotient; the norms are 0 only where u or d_i u is
    along, norms = np.abs(dot(du, u[..., None, :])), np.sqrt(dot(u, u)[..., None] * dot(du, du))
    raise_first_failure((rows_failing(~(along > TANGENT_TOL * norms)), lambda i: InvalidInput(
        "d r is not tangent to r: |r.d r| / (|r| |d r|) = "
        f"{(along / np.where(norms > 0.0, norms, 1.0)).reshape(-1, dr.shape[-2])[i].max():.3e}; "
        "a qubit given by its Bloch vector must be encoded unitarily")))
    q = dr @ dr.swapaxes(-1, -2)  # symmetric: both triangles sum the same products
    u = np.zeros(q.shape)
    for i, j in itertools.combinations(range(q.shape[-1]), 2):
        # a x b for a = d_i r, b = d_j r: a_(k+1) b_(k+2) - a_(k+2) b_(k+1), as np.cross rounds it
        a, b = dr[..., i, :], dr[..., j, :]
        cross = a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]
        u[..., i, j] = dot(r, cross)
        u[..., j, i] = -u[..., i, j]
    spectrum = stacked(0.5 + 0.5 * radius, np.maximum(0.5 - 0.5 * radius, 0.0))
    # Lagrange's identity: det Q = |d_1 r|^2 |d_2 r|^2 - (d_1 r.d_2 r)^2 = |d_1 r x d_2 r|^2
    with np.errstate(over="ignore"):  # past the float range, (Tr Q)^2 overflows too: eigh
        det = dot(cross, cross) if q.shape[-1] == 2 else None
    return _geometry(q, u, (), spectrum, r=r, det=det)


def _largest(a: np.ndarray) -> np.ndarray:
    """The largest of the 3 entries of each vector in a (..., 3)."""
    return np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])


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
    d = 3, Q^-1 U Q^-1 = [adj(Q^-1) u]x (`adjugate`), u the axial vector of
    U.  Neither forms a product with Q^-1.
    A row whose Q^-1 leaves the float range gets inf or NaN, and
    `batch_reports` makes it a null row."""
    qinv, root_det, ill = g._qfim_inverses[:3]
    with np.errstate(over="ignore", invalid="ignore"):
        if g.n_params == 2:
            det_sqrt_w = sqrt_w[..., 0, 0] * sqrt_w[..., 1, 1] - sqrt_w[..., 0, 1] * sqrt_w[..., 1, 0]
            core = (g.uhlmann[..., 0, 1] * root_det * root_det * det_sqrt_w)[..., None, None] * _J
        elif g.n_params == 3:
            core = sqrt_w @ _from_axial(g._adj_u) @ sqrt_w
        else:
            core = sqrt_w @ qinv @ g.uhlmann @ qinv @ sqrt_w
        c_sld = entry_sum(w_mat * qinv, 2)
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
    eigenvalue.  For d = 3 the spectrum is {0, +-sqrt(u^T adj(Q^-1) u)}, u
    the axial vector of U; other d take a stacked eigvalsh of i F U F^T
    (F^T F = Q^-1).  As in `_frame`, a row whose Q^-1
    leaves the float range gets inf or NaN.  A row of pure states ``g.psi``
    with d > n - 1 that is not ill has R = 1 exactly: Q + iU = <l_a|l_b> >= 0
    has rank at most n - 1 < d, so i Q^-1 U has the eigenvalue -1, none larger."""
    with np.errstate(over="ignore", invalid="ignore"):
        if g.n_params == 2:
            r = np.abs(g.uhlmann[..., 0, 1]) * g._qfim_inverses[1]
        elif g.n_params == 3:
            r = np.sqrt(np.abs(dot(uhlmann_axial(g.uhlmann), g._adj_u)))  # >= 0 but for rounding
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
    "geometry_from_matrices",
    "quantumness_R",
    "t_measure",
    "uhlmann_axial",
]
