"""Information geometry of a parameterized state: Q, U, R, T, and the normal space."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SingularQFIM
from .linalg import (
    SUPPORT_TOL,
    hermitian_part,
    require_density,
    require_derivative,
    require_weight,
    rld_solve,
    sld_in_eigenbasis,
    spd_sqrt,
    state_eigensystem,
    tracenorm_antisym,
)

COND_LIMIT = 1e12
RANK_TOL = 1e-9


@dataclass(frozen=True)
class InformationGeometry:
    """SLD QFIM, mean Uhlmann curvature, the SLDs, and the tangent-space rank."""

    qfim: np.ndarray
    uhlmann: np.ndarray
    slds: tuple[np.ndarray, ...]
    tangent_dim: int

    @property
    def n_params(self) -> int:
        return self.qfim.shape[0]

    @cached_property
    def _qfim_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of Q, computed once."""
        return np.linalg.eigh(np.asarray(self.qfim, dtype=float))


@dataclass(frozen=True)
class NormalSpaceBasis:
    """Orthonormal basis of the SLD normal space with its Gram and coupling data.

    ``gram`` is the complex matrix Tr[rho P_i P_j] (its real part is the
    identity by orthonormality) and ``coupling`` is Im Tr[rho L_i P_j].
    """

    ops: tuple[np.ndarray, ...]
    gram: np.ndarray
    coupling: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class WeightTransform:
    """Rotation + rescaling splitting of a weight matrix, W = P^T D P."""

    rotated: InformationGeometry
    diagonal_weight: np.ndarray
    rotation: np.ndarray


@dataclass(frozen=True)
class TSaturationReport:
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
    q = 0.5 * (q + q.T)
    u = 0.5 * (u - u.T)
    return InformationGeometry(q, u, tuple(np.asarray(s) for s in slds), _psd_rank(q))


def _psd_rank(q: np.ndarray, tol: float = RANK_TOL) -> int:
    w = np.linalg.eigvalsh(q)
    top = w[-1] if w.size else 0.0
    if top <= 0:
        return 0
    return int(np.sum(w > tol * top))


def compute_geometry(
    rho: np.ndarray,
    derivs: Sequence[np.ndarray],
    support_tol: float = SUPPORT_TOL,
    check: bool = True,
    rank_tol: float = RANK_TOL,
) -> InformationGeometry:
    """SLD-route geometry from a state and its parameter derivatives.

    Q_munu = Re Tr[rho L_mu L_nu], U_munu = Im Tr[rho L_mu L_nu]; the
    tangent dimension is the rank of Q at relative tolerance ``rank_tol``
    (adjustable for sensitivity studies near singular lines).
    """
    d = len(derivs)
    if d < 1:
        raise ValueError("need at least one parameter derivative")
    if check:
        rho = require_density(rho)
        derivs = [require_derivative(dr) for dr in derivs]
    w, v = state_eigensystem(rho)
    slds = tuple(sld_in_eigenbasis(w, v, dr, support_tol) for dr in derivs)
    gram = np.empty((d, d), dtype=complex)
    rho_l = [np.asarray(rho, dtype=complex) @ l for l in slds]
    for a in range(d):
        for b in range(a, d):
            gram[a, b] = np.trace(rho_l[a] @ slds[b])
            if b > a:
                gram[b, a] = np.conj(gram[a, b])
    q = 0.5 * (gram.real + gram.real.T)
    u = 0.5 * (gram.imag - gram.imag.T)
    np.fill_diagonal(u, 0.0)
    return InformationGeometry(q, u, slds, _psd_rank(q, rank_tol))


def rld_qfim(rho: np.ndarray, derivs: Sequence[np.ndarray], check: bool = True) -> np.ndarray:
    """RLD quantum Fisher information J_munu = Tr[rho L^R_mu L^R_nu^dag].

    Defined for full-rank states only; raises SingularState otherwise.
    """
    ls = [rld_solve(rho, dr, check=check) for dr in derivs]
    d = len(ls)
    j = np.empty((d, d), dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    for a in range(d):
        for b in range(a, d):
            j[a, b] = np.trace(rho @ ls[a] @ ls[b].conj().T)
            if b > a:
                j[b, a] = np.conj(j[a, b])
    return 0.5 * (j + j.conj().T)


def _qfim_inverse(
    g: InformationGeometry,
    pseudo_inverse: bool = False,
    cond_limit: float = COND_LIMIT,
    rank_tol: float = RANK_TOL,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(Q^-1, Q^-1/2, used_pseudo) with the singularity policy applied to
    the cached eigenpairs of Q.

    The pseudo branch is rank revealing: eigenvalues below rank_tol times
    the largest are dropped.
    """
    w, v = g._qfim_eigh
    top = w[-1] if w.size else 0.0
    if top <= 0.0:
        raise SingularQFIM("QFIM has no positive eigenvalues")
    ill = w[0] <= 0.0 or top / w[0] > cond_limit
    if ill and not pseudo_inverse:
        raise SingularQFIM(
            f"QFIM condition number exceeds {cond_limit:.1e} "
            f"(eigenvalues {w[0]:.3e} .. {top:.3e})"
        )
    if ill:
        keep = w > rank_tol * top
        inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        used_pseudo = True
    else:
        inv_w = 1.0 / w
        used_pseudo = False
    qinv = (v * inv_w) @ v.T
    qinv_sqrt = (v * np.sqrt(inv_w)) @ v.T
    return qinv, qinv_sqrt, used_pseudo


@dataclass(frozen=True)
class _WeightFrame:
    """What every weighted bound reads at one (geometry, W): the validated
    W, sqrt(W), Q^-1, the core sqrt(W) Q^-1 U Q^-1 sqrt(W) and
    C_SLD = Tr[W Q^-1].  ``used_pseudo`` says whether Q^-1 is the
    rank-truncated pseudo-inverse."""

    w_mat: np.ndarray
    sqrt_w: np.ndarray
    qinv: np.ndarray
    core: np.ndarray
    c_sld: float
    used_pseudo: bool

    @cached_property
    def core_norm(self) -> float:
        """||sqrt(W) Q^-1 U Q^-1 sqrt(W)||_1."""
        return tracenorm_antisym(self.core)

    @property
    def t_value(self) -> float:
        return self.core_norm / self.c_sld

    @property
    def c_t(self) -> float:
        return self.c_sld + self.core_norm


def _weight_frame(
    g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False
) -> _WeightFrame:
    w_mat = require_weight(w_mat, g.n_params)
    qinv, _, used_pseudo = _qfim_inverse(g, pseudo_inverse)
    sqrt_w = spd_sqrt(w_mat)
    return _WeightFrame(
        w_mat=w_mat,
        sqrt_w=sqrt_w,
        qinv=qinv,
        core=sqrt_w @ qinv @ g.uhlmann @ qinv @ sqrt_w,
        c_sld=float(np.trace(w_mat @ qinv)),
        used_pseudo=used_pseudo,
    )


def uhlmann_axial(u: np.ndarray) -> np.ndarray:
    """The vector (U_23, -U_13, U_12) of a 3x3 antisymmetric matrix."""
    return np.array([u[1, 2], -u[0, 2], u[0, 1]])


def quantumness_R(g: InformationGeometry, pseudo_inverse: bool = False) -> float:
    """Weight-independent incompatibility R, the spectral radius of i Q^-1 U.

    Evaluated through the Hermitian similarity i Q^-1/2 U Q^-1/2.  For
    d in {2, 3} it equals sqrt(det U / det Q) and sqrt(u^T Q u / det Q)
    (u the axial vector of U).
    """
    _, qinv_sqrt, _ = _qfim_inverse(g, pseudo_inverse)
    herm = 1j * (qinv_sqrt @ g.uhlmann @ qinv_sqrt)
    vals = np.linalg.eigvalsh(hermitian_part(herm))
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def t_measure(g: InformationGeometry, w_mat: np.ndarray, pseudo_inverse: bool = False) -> float:
    """Weight-dependent measure ||sqrt(W) Q^-1 U Q^-1 sqrt(W)||_1 / Tr[W Q^-1]."""
    return _weight_frame(g, w_mat, pseudo_inverse).t_value


def _rank_antisym(u: np.ndarray, tol: float = RANK_TOL) -> int:
    sv = np.linalg.svd(u, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


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
        if abs(np.linalg.det(u)) > 0:
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
    through unchanged (P = I), keeping the trivial case exact.
    """
    w_mat = require_weight(w_mat, g.n_params)
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
    rotated = InformationGeometry(0.5 * (q_r + q_r.T), 0.5 * (u_r - u_r.T), slds_r, g.tangent_dim)
    return WeightTransform(rotated=rotated, diagonal_weight=np.diag(vals), rotation=rot)


def _gell_mann_basis(n: int) -> list[np.ndarray]:
    """Generalized Gell-Mann basis in lexicographic order (symmetric pairs,
    antisymmetric pairs, then diagonal), Hilbert-Schmidt norm sqrt(2)."""
    basis: list[np.ndarray] = []
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


def tangent_normal_decomposition(
    rho: np.ndarray,
    g: InformationGeometry,
    tol: float = RANK_TOL,
    pseudo_inverse: bool = False,
) -> NormalSpaceBasis:
    """Orthonormal basis of the SLD normal space at rho.

    Candidates are the generalized Gell-Mann operators shifted to satisfy
    Tr[rho X] = 0; the SLD span is projected out under the inner product
    <A, B> = Re Tr[rho (AB + BA)] / 2, and directions whose Gram eigenvalue
    falls below ``tol`` times the largest are discarded.  Those null
    directions satisfy rho P = 0, so they contribute nothing to the Holevo
    objective; dropping them keeps the Gram matrix invertible.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    d = g.n_params
    if not g.slds:
        raise ValueError("geometry must carry SLD operators")
    _qfim_inverse(g, pseudo_inverse)  # singularity policy

    def pairing(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.real(np.trace(rho @ (a @ b + b @ a)))) / 2.0

    # Orthonormalize the tangent span first so projection works even when
    # the SLD Gram matrix is (near) singular.
    tg = np.array([[pairing(a, b) for b in g.slds] for a in g.slds])
    tw, tv = np.linalg.eigh(tg)
    tangent_frame = []
    for k in range(d):
        if tw[k] > tol * max(tw[-1], 0.0) and tw[k] > 0:
            vec = sum(tv[nu, k] * g.slds[nu] for nu in range(d))
            tangent_frame.append(vec / np.sqrt(tw[k]))

    eye = np.eye(n, dtype=complex)
    candidates = []
    raw_scale = 0.0
    for gm in _gell_mann_basis(n):
        x = gm - np.real(np.trace(rho @ gm)) * eye
        raw_scale = max(raw_scale, pairing(x, x))
        for frame_op in tangent_frame:
            x = x - pairing(frame_op, x) * frame_op
        candidates.append(x)

    gram = np.array([[pairing(a, b) for b in candidates] for a in candidates])
    w, v = np.linalg.eigh(gram)
    # Null directions are cut against the scale of the form itself (the
    # largest candidate Gram eigenvalue before tangent projection);
    # thresholding against the projected maximum would keep pure roundoff
    # when the true normal space is empty.
    cut = tol * raw_scale
    ops: list[np.ndarray] = []
    if raw_scale > 0:
        for k in range(len(candidates) - 1, -1, -1):
            if w[k] <= cut:
                break
            col = v[:, k]
            idx = int(np.argmax(np.abs(col)))
            if col[idx] < 0:
                col = -col
            op = sum(col[a] * candidates[a] for a in range(len(candidates)))
            ops.append(hermitian_part(op / np.sqrt(w[k])))
    m = len(ops)
    p_gram = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            p_gram[i, j] = np.trace(rho @ ops[i] @ ops[j])
    coupling = np.empty((d, m))
    for i in range(d):
        for j in range(m):
            coupling[i, j] = float(np.imag(np.trace(rho @ g.slds[i] @ ops[j])))
    return NormalSpaceBasis(
        ops=tuple(ops),
        gram=0.5 * (p_gram + p_gram.conj().T),
        coupling=coupling,
    )


def singular_values_pairing(
    g: InformationGeometry, w_mat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of sqrt(W) Q^-1 U Q^-1 sqrt(W): direct SVD vs pairing.

    The pairing expression multiplies each canonical-block singular value
    mu_k of the conjugated U by the two eigenvalues d_i d_j of sqrt(W) Q^-1
    acting on that block; it is exact only when the conjugated U is
    block-canonical in the eigenbasis of sqrt(W) Q^-1 (returned second, for
    tests that construct such aligned inputs).
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
    "singular_values_pairing",
]
