"""Information geometry of a parameterized state: Q, U, R, T, and the normal space."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import SingularQFIM
from .linalg import (
    SUPPORT_TOL,
    density_spectrum,
    hermitian_part,
    require_derivative,
    require_full_rank,
    require_hermitian,
    require_weight,
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

    @cached_property
    def _qfim_inverses(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """(Q^-1, Q^-1/2, ill) from the cached eigenpairs, computed once.

        ``ill`` says that Q has a nonpositive eigenvalue or a condition
        number above COND_LIMIT; the inverses are then rank-revealing
        pseudo-inverses that drop eigenvalues below RANK_TOL times the
        largest.  Raises SingularQFIM when Q has no positive eigenvalue.
        """
        w, v = self._qfim_eigh
        top = w[-1] if w.size else 0.0
        if top <= 0.0:
            raise SingularQFIM("QFIM has no positive eigenvalues")
        ill = bool(w[0] <= 0.0 or top / w[0] > COND_LIMIT)
        if ill:
            keep = w > RANK_TOL * top
            inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        else:
            inv_w = 1.0 / w
        return (v * inv_w) @ v.T, (v * np.sqrt(inv_w)) @ v.T, ill


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
    return _geometry(0.5 * (q + q.T), 0.5 * (u - u.T), tuple(np.asarray(s) for s in slds))


def _geometry(
    q: np.ndarray, u: np.ndarray, slds: tuple[np.ndarray, ...], rank_tol: float = RANK_TOL
) -> InformationGeometry:
    """The geometry of (Q, U, SLDs); the one eigendecomposition of Q gives
    the tangent rank at relative tolerance ``rank_tol`` and fills the
    geometry's cached eigenpairs."""
    w, v = np.linalg.eigh(q)
    top = w[-1] if w.size else 0.0
    rank = int(np.sum(w > rank_tol * top)) if top > 0 else 0
    g = InformationGeometry(q, u, slds, rank)
    g.__dict__["_qfim_eigh"] = (w, v)  # the cached_property slot
    return g


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
    (adjustable for sensitivity studies near singular lines).  rho is
    decomposed once, and with ``check`` validated against that spectrum.
    """
    d = len(derivs)
    if d < 1:
        raise ValueError("need at least one parameter derivative")
    w, v = state_eigensystem(rho, check)
    if check:
        derivs = [require_derivative(dr) for dr in derivs]
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
    return _geometry(q, u, slds, rank_tol)


def rld_qfim(rho: np.ndarray, derivs: Sequence[np.ndarray], check: bool = True) -> np.ndarray:
    """RLD quantum Fisher information J_munu = Tr[rho L^R_mu L^R_nu^dag].

    Defined for full-rank states only; raises SingularState otherwise.  The
    state is validated and its spectrum taken once, and one factorization
    of rho solves rho L^R_mu = d_mu rho for every derivative.
    """
    rho, w = density_spectrum(rho, check=check)
    if check:
        derivs = [require_hermitian(dr, "drho") for dr in derivs]
    require_full_rank(w)
    n = rho.shape[0]
    ls = np.linalg.solve(rho, np.hstack(derivs)).reshape(n, -1, n).transpose(1, 0, 2)
    j = np.einsum("aij,bij->ab", rho @ ls, ls.conj())
    return 0.5 * (j + j.conj().T)


def _qfim_inverse(
    g: InformationGeometry, pseudo_inverse: bool = False
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(Q^-1, Q^-1/2, used_pseudo) with the singularity policy applied to
    the geometry's cached inverses: an ill-conditioned Q raises
    SingularQFIM unless ``pseudo_inverse`` allows the pseudo-inverses."""
    qinv, qinv_sqrt, ill = g._qfim_inverses
    if ill and not pseudo_inverse:
        w = g._qfim_eigh[0]
        raise SingularQFIM(
            f"QFIM condition number exceeds {COND_LIMIT:.1e} "
            f"(eigenvalues {w[0]:.3e} .. {w[-1]:.3e})"
        )
    return qinv, qinv_sqrt, ill


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


@dataclass(frozen=True)
class NormalSpaceBasis:
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

    @cached_property
    def ops(self) -> tuple[np.ndarray, ...]:
        """The operators P_j, built from the coefficients on first read."""
        n = int(np.sqrt(len(self.means) + 1))
        basis = _gell_mann(n)[0]
        ops = np.tensordot(self.coeffs, basis, axes=(0, 0))
        ops -= (self.means @ self.coeffs)[:, None, None] * np.eye(n)
        return tuple(ops)


def tangent_normal_decomposition(
    rho: np.ndarray,
    g: InformationGeometry,
    tol: float = RANK_TOL,
    pseudo_inverse: bool = False,
) -> NormalSpaceBasis:
    """Orthonormal basis of the SLD normal space at rho.

    Real coefficients x stand for sum_a x_a (G_a - Tr[rho G_a]) in the Gell-Mann
    basis.  With S = Tr[rho G_a G_b] - Tr[rho G_a] Tr[rho G_b], the inner
    product Re Tr[rho (AB + BA)] / 2 is x^T Re S y, Im Tr[rho A B] is x^T Im S y,
    and SLD i has coefficients Tr[L_i G_a] / 2.  The SLD span is projected out
    under Re S, and directions whose Gram eigenvalue falls below ``tol`` times
    the largest diagonal of Re S are discarded.  Those satisfy rho P = 0, so
    they add nothing to the Holevo objective; dropping them keeps the Gram
    matrix invertible.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not g.slds:
        raise ValueError("geometry must carry SLD operators")
    _qfim_inverse(g, pseudo_inverse)  # singularity policy
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    _, traces, products = _gell_mann(n)
    flat_rho = rho.ravel()
    means = (traces @ flat_rho).real
    s = (products @ flat_rho).reshape(len(means), -1) - np.outer(means, means)
    s_re = s.real
    l = 0.5 * (np.reshape(g.slds, (len(g.slds), -1)) @ traces.T).real

    # Orthonormalize the tangent span first so projection works even when
    # the SLD Gram matrix is (near) singular.
    tw, tv = np.linalg.eigh(l @ s_re @ l.T)
    keep = (tw > tol * max(tw[-1], 0.0)) & (tw > 0)
    frame = (tv[:, keep] / np.sqrt(tw[keep])).T @ l
    cand = np.eye(len(means)) - frame.T @ (frame @ s_re)

    w, v = np.linalg.eigh(cand.T @ s_re @ cand)
    # The cut is against the scale of the form itself, not the projected
    # maximum, which would keep pure roundoff when the normal space is empty.
    raw_scale = float(np.max(np.diag(s_re)))
    kept = np.flatnonzero(w > tol * raw_scale)[::-1] if raw_scale > 0 else np.zeros(0, int)
    vecs = v[:, kept]
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(kept))]
    coeffs = cand @ (vecs * (np.where(pivot < 0, -1.0, 1.0) / np.sqrt(w[kept])))
    sv = s @ coeffs
    gram = coeffs.T @ sv
    return NormalSpaceBasis(
        coeffs=coeffs,
        means=means,
        gram=0.5 * (gram + gram.conj().T),
        coupling=(l @ sv).imag,
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
