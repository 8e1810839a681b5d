"""What no sweep of a built-in model reaches: density-matrix input and the
one-point analyses.

The checks and SLD and RLD solves of states given as matrices (rho, d rho),
`compute_geometry`, the Gell-Mann normal spaces, the general dual Holevo
solver, the RLD bound, the models' density matrices (`model_point`) and the
analyses of T at one point (`t_saturation_analysis`, `weight_transform`).
`import qmb` does not compile this module: the package resolves its names on
first use, and the branches of `geometry`, `bounds` and `sweep` that reach it
import it there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import HolevoSolution, _holevo_solutions, _objective, _TangentSetup
from .errors import (DerivativeNotTraceless, InvalidInput, NonHermitianInput, SingularState,
                     StepTooLarge)
from .geometry import (RANK_TOL, InformationGeometry, _geometry, _qfim_inverse, _split_gram,
                       _weight_and_root, _WeightFrame, _weight_frame, quantumness_R, subset,
                       take)
from .linalg import (DENSITY_TRACE_TOL, HERMITICITY_TOL, SUPPORT_TOL, _require_eig_floor,
                     hermitian_part, raise_first_failure, require_pure_state, small_matmul,
                     tracenorm_antisym)
from .models import (_EYE3, MODEL_IDS, PARAM_NAMES, PAULI, ModelConfig, _apply, _dot_j, _mat,
                     _pure_vectors, _su2_frame, _tunable_qubit_bloch_derivs)

# Cap on the Newton steps of one dual solve; a handful close the gap.
_DUAL_MAX_ITER = 50


def _hermitian_checks(h: np.ndarray, name: str) -> tuple:
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NonHermitianInput(f"{name} must be a square matrix, got shape {h.shape}")
    finite = np.isfinite(h).all(axis=(-2, -1))
    scale = 1.0 + np.max(np.abs(h), axis=(-2, -1), initial=0.0)
    with np.errstate(invalid="ignore"):
        defect = np.max(np.abs(h - h.swapaxes(-1, -2).conj()), axis=(-2, -1), initial=0.0)
    return (
        (~finite, lambda i: NonHermitianInput(f"{name} has non-finite entries")),
        (defect > HERMITICITY_TOL * scale,
         lambda i: NonHermitianInput(f"{name} is not Hermitian: defect {defect.flat[i]:.3e}")),
    )


def require_hermitian(h: np.ndarray, name: str = "operator") -> np.ndarray:
    """Validate the Hermiticity invariant and return the input as complex."""
    h = np.asarray(h, dtype=complex)
    raise_first_failure(*_hermitian_checks(h, name))
    return h


def require_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate unit trace and positivity (up to the eigenvalue floor)."""
    return density_spectrum(rho, name)[0]


def _require_unit_trace(rho: np.ndarray, name: str) -> np.ndarray:
    rho = require_hermitian(rho, name)
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    raise_first_failure((np.abs(tr - 1.0) > DENSITY_TRACE_TOL, lambda i: NonHermitianInput(
        f"{name} has trace {tr.flat[i]!r}, expected 1")))
    return rho


def density_spectrum(rho: np.ndarray, name: str = "rho") -> tuple[np.ndarray, np.ndarray]:
    """rho as a complex array and its ascending eigenvalues from one eigvalsh,
    validated against them as ``require_density`` does."""
    rho = _require_unit_trace(rho, name)
    w = np.linalg.eigvalsh(rho)
    _require_eig_floor(w[..., 0], name)
    return rho, w


def eig_hermitian(h: np.ndarray, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns eigenvalues sorted descending and the matching eigenvector
    columns with a deterministic phase: the largest-magnitude component of
    each eigenvector (lowest index on ties) is made real and positive.
    """
    h = require_hermitian(h) if check else np.asarray(h)
    w, v = np.linalg.eigh(hermitian_part(h))
    w, v = w[..., ::-1], v[..., ::-1]
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    mag = np.hypot(pivot.real, pivot.imag)  # as abs() rounds a complex scalar
    return w, v * np.where(mag > 0, pivot.conj() / np.where(mag > 0, mag, 1.0), 1.0)


def state_eigensystem(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a density matrix, tiny negatives clamped to 0.

    rho is validated as ``require_density`` does, against the spectrum of
    this same decomposition.
    """
    w, v = eig_hermitian(_require_unit_trace(rho, "rho"), check=False)
    _require_eig_floor(w[..., -1], "rho")
    return np.clip(w, 0.0, None), v


def require_derivative(drho: np.ndarray) -> np.ndarray:
    """Validate a state derivative: Hermitian and traceless."""
    drho = np.asarray(drho, dtype=complex)
    tr = np.trace(drho, axis1=-2, axis2=-1)
    raise_first_failure(*_hermitian_checks(drho, "drho"), (np.abs(tr) > 1e-10, lambda i: (
        DerivativeNotTraceless(f"Tr drho = {tr.flat[i]!r}, expected 0"))))
    return drho


def sld_in_eigenbasis(w: np.ndarray, v: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """The SLD of ``drho`` given the eigensystem (w, v) of rho, so several
    derivatives of one state share a single decomposition."""
    vh = v.swapaxes(-1, -2).conj()
    m = small_matmul(small_matmul(vh, drho), v)
    denom = w[..., :, None] + w[..., None, :]
    keep = denom > SUPPORT_TOL
    coeff = np.where(keep, 2.0 * m / np.where(keep, denom, 1.0), 0.0)
    return hermitian_part(small_matmul(small_matmul(v, coeff), vh))


def sld_solve(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L solving d_rho = (L rho + rho L) / 2.

    In the eigenbasis of rho, L_ij = 2 (drho)_ij / (p_i + p_j) on the
    support (p_i + p_j > SUPPORT_TOL) and 0 elsewhere; the kernel-sector
    choice makes Tr[rho L^2] minimal and matches the pure-state SLD.
    """
    w, v = state_eigensystem(rho)
    return sld_in_eigenbasis(w, v, require_derivative(drho))


def require_full_rank(w: np.ndarray) -> None:
    """Raise SingularState unless the RLD exists: the ascending spectrum w
    has no eigenvalue at or below SUPPORT_TOL."""
    if w[0] <= SUPPORT_TOL:
        raise SingularState(f"rho is rank deficient (min eigenvalue {w[0]:.3e}); RLD undefined")


def rld_solve(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Right logarithmic derivative L^R = rho^-1 drho (full-rank rho only)."""
    rho, w = density_spectrum(rho)
    drho = require_hermitian(drho, "drho")
    require_full_rank(w)
    return np.linalg.solve(rho, drho)


class ModelPoint(NamedTuple):
    """A state and its parameter derivatives at one parameter vector."""

    params: tuple[float, ...]
    rho: np.ndarray
    derivs: tuple[np.ndarray, ...]


def model_point(cfg: ModelConfig, params: Sequence[float]) -> ModelPoint:
    """The state and its exact derivatives at one parameter vector, with as
    many parameters as the model names (`PARAM_NAMES`)."""
    if cfg.model_id not in MODEL_IDS:
        raise InvalidInput(f"unknown model {cfg.model_id!r}")
    values = np.asarray(params, dtype=float)
    if values.shape != (cfg.n_params,):
        raise InvalidInput(f"{cfg.model_id} takes the parameters {PARAM_NAMES[cfg.model_id]}, "
                           f"got an array of shape {values.shape}")
    if cfg.model_id == "tunable_qubit":
        r, d1, d2 = _tunable_qubit_bloch_derivs(cfg, *values.tolist())
        rho, derivs = _bloch_state(r, np.stack([d1, d2]))
    else:
        rho, derivs = _su2_state(cfg, values)
    return ModelPoint(tuple(values.tolist()), rho, tuple(derivs))


def _su2_state(cfg: ModelConfig, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The evolved pure state rho = psi psi^dag (..., n, n) and its exact
    derivatives (..., d, n, n) of an SU(2) model, over the leading axes of
    ``params`` (..., d) and the constants: psi = U psi0, and with the
    vectors l_k of `_pure_vectors`, d_k rho = (U l_k psi^dag + psi (U l_k)^dag) / 2."""
    psi0, js, axes, scales = _su2_frame(cfg, params)
    psi0, ells = _pure_vectors(psi0, js, axes, scales)
    u = _su2_exp(_dot_j(axes[0], js), params[..., 0] * cfg.constants["t"])
    psi, moved = _apply(u, psi0), _apply(u[..., None, :, :], ells)
    rho = hermitian_part(psi[..., :, None] * psi[..., None, :].conj())
    return rho, hermitian_part(moved[..., :, None] * psi[..., None, None, :].conj())


def _su2_exp(nj: np.ndarray, x) -> np.ndarray:
    """exp(-i x n.J) in closed form, from n.J (..., dim, dim) of a unit axis n
    in the spin-1/2 (dim 2) or spin-1 (dim 3) representation.  Spin 1/2 is
    cos(x/2) I - i sin(x/2) n.sigma with n.sigma = 2 n.J; spin 1, where
    (n.J)^3 = n.J, is I - i sin(x) n.J - (1 - cos x) (n.J)^2, with
    1 - cos x written 2 sin^2(x/2) to stay accurate at small x."""
    half = np.asarray(x) / 2.0
    if nj.shape[-1] == 2:
        return _mat(np.cos(half)) * np.eye(2) - 2j * _mat(np.sin(half)) * nj
    return (_EYE3 - 1j * _mat(np.sin(x)) * nj
            - _mat(2.0 * np.sin(half) ** 2) * small_matmul(nj, nj))


def _bloch_state(r: np.ndarray, dr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho = (I + r.sigma) / 2 and its derivatives (dr_k.sigma) / 2 from the
    Bloch vector r (..., 3) and its derivatives dr (..., d, 3)."""
    rho = hermitian_part(0.5 * (np.eye(2) + _dot_j(r, PAULI)))
    return rho, hermitian_part(0.5 * _dot_j(dr, PAULI))


def unitary_generator(
    u_path: Callable[[float], np.ndarray],
    x: float,
    h: float = 1e-3,
    full_output: bool = False,
):
    """Translation generator i (dU/dx) U^dag by 4-point central differences.

    The 4-point stencil is the Richardson extrapolation of the plain central
    difference; if the two disagree by more than 1e-4 the step is too large
    for the path's curvature.  The Hermiticity defect before symmetrization
    is available as a diagnostic via ``full_output``.
    """
    if h <= 0:
        raise InvalidInput("step h must be positive")
    u0 = u_path(x)
    d_one = (u_path(x + h) - u_path(x - h)) / (2.0 * h)
    d_two = (u_path(x + 2.0 * h) - u_path(x - 2.0 * h)) / (4.0 * h)
    d_rich = (4.0 * d_one - d_two) / 3.0
    gen_raw = 1j * d_rich @ u0.conj().T
    gen_one = 1j * d_one @ u0.conj().T
    if float(np.max(np.abs(gen_raw - gen_one))) > 1e-4:
        raise StepTooLarge(
            f"Richardson and one-step generator estimates differ by "
            f"{float(np.max(np.abs(gen_raw - gen_one))):.3e} at x={x!r}; reduce h"
        )
    defect = float(np.max(np.abs(gen_raw - gen_raw.conj().T)))
    gen = hermitian_part(gen_raw)
    if full_output:
        return gen, defect
    return gen


def generator_geometry(
    psi0: np.ndarray, gens: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state QFIM and Uhlmann matrix from translation generators: the
    real and imaginary parts of the Gram matrix <l_a|l_b> of the vectors
    l_k = 2i (H_k - <H_k>) psi0, checked by `require_pure_state`."""
    psi = np.asarray(psi0, dtype=complex)
    applied = np.asarray(gens, dtype=complex).reshape((-1,) + 2 * psi.shape) @ psi
    centered = applied - (psi.conj() @ applied.T).real[:, None] * psi
    _, ells = require_pure_state(psi, 2j * centered)
    return _split_gram(ells.conj() @ ells.T)


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


def c_rld(j: np.ndarray, w_mat: np.ndarray) -> float:
    """RLD scalar bound Tr[W Re J^-1] + ||sqrt(W) Im J^-1 sqrt(W)||_1."""
    j = np.asarray(j, dtype=complex)
    value, singular = _c_rld(j, *_weight_and_root(w_mat, j.shape[0]))
    if singular:
        raise SingularState("RLD QFIM is singular")
    return float(value)


def _c_rld(j: np.ndarray, w_mat: np.ndarray, sqrt_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C_RLD per point and where J is singular, on the line that
    `geometry._eigen_inverses` draws for Q: its smallest eigenvalue at or
    below RANK_TOL times the largest (the value there is void).  The
    antisymmetric part enters as the sum of the absolute eigenvalues of
    W Im J^-1, the trace norm of sqrt(W) Im J^-1 sqrt(W), which is similar
    to it; the singular values of W Im J^-1 sum to more unless W is a
    multiple of I."""
    vals = np.linalg.eigvalsh(j)
    singular = vals[..., 0] <= RANK_TOL * vals[..., -1]
    jinv = np.linalg.inv(np.where(singular[..., None, None], np.eye(j.shape[-1]), j))
    jinv = 0.5 * (jinv + jinv.swapaxes(-1, -2).conj())
    value = (np.trace(w_mat @ jinv.real, axis1=-2, axis2=-1)
             + tracenorm_antisym(sqrt_w @ jinv.imag @ sqrt_w))
    return value, singular


def _tangent_setup(basis: NormalSpaceBasis, frame: _WeightFrame) -> _TangentSetup:
    return _TangentSetup(
        frame=frame, left=frame.sqrt_w @ frame.qinv @ basis.coupling, gram=basis.gram
    )


def holevo_tangent_min(
    g: InformationGeometry, basis: NormalSpaceBasis, w_mat: np.ndarray
) -> HolevoSolution:
    """Minimize the tangent-space Holevo objective over K.

    An empty normal space, or a single parameter, leaves only K = 0.  A
    one-dimensional normal space with d <= 3 parameters has an exact minimum
    (``_holevo_exact``).  Every other case solves the Lagrangian dual
    (``_holevo_dual``).  The returned value never exceeds the K = 0
    objective, so it always sits between C_SLD and C_T.
    """
    return _holevo_solutions(take(_tangent_setup(basis, _weight_frame(g, w_mat)), None))[1].at(0)


def _holevo_dual(setup: _TangentSetup) -> HolevoSolution:
    """Certified minimum for any normal space of size m >= 1, one point.

    ||A||_1 = max <Y, A> over antisymmetric Y with ||Y||_op <= 1, and the
    objective is convex in b = K sqrt(W), so (Albarelli, Friel & Datta,
    PRL 123, 200503, 2019) C_H = max_Y g(Y) with the concave
    g(Y) = C_SLD + <Y, core> - gamma^T H^+ gamma, H = I_d (x) Re P + Y (x) Im P,
    gamma = vec(left^T Y).  Its inner minimizer x* = vec(b*) = -H^+ gamma is
    a primal point, so each iterate brackets C_H between g and the objective
    at x*.  Newton steps in the entries y_a of Y above the diagonal (gradient
    <E_a, Im Z(x*)>, Hessian -2 U H^+ U^T, u_a = gamma_a + H_a x*) maximize
    the quadratic model over the feasible set, with backtracking on g.
    """
    frame, left, gram = setup.frame, setup.left, setup.gram
    d, m = left.shape
    rows, cols = np.triu_indices(d, 1)
    basis = np.zeros((len(rows), d, d))
    basis[np.arange(len(rows)), rows, cols] = 1.0
    basis -= basis.swapaxes(-1, -2)
    h_0 = np.kron(np.eye(d), gram.real)
    h_y = np.stack([np.kron(e, gram.imag) for e in basis])
    gamma_y = (left.T @ basis).swapaxes(-1, -2).reshape(len(basis), d * m)
    core_y = np.einsum("aij,ij->a", basis, frame.core)
    objective, from_b = _objective(setup), np.linalg.inv(frame.sqrt_w)

    def dual(y: np.ndarray) -> tuple:
        """g(y), x*(y), and the gradient and negated Hessian of g at y."""
        gamma = y @ gamma_y
        w, v = np.linalg.eigh(h_0 + np.tensordot(y, h_y, 1))
        keep, proj = w > 1e-12 * w[-1], v.T @ gamma
        if np.any(np.abs(proj[~keep]) > 1e-9 * np.linalg.norm(gamma)):
            return -np.inf, None, None, None  # gamma outside the range of H
        inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        x = -v @ (inv * proj)
        u = (gamma_y + h_y @ x) @ v
        grad = core_y + 2.0 * (gamma_y @ x) + (h_y @ x) @ x
        return frame.c_sld + y @ core_y + gamma @ x, x, grad, 2.0 * (u * inv) @ u.T

    y = np.zeros(len(basis))
    g, x, grad, hess = dual(y)
    value, lower, k_best, evals, gap = float(frame.c_t), float(g), np.zeros((m, d)), 1, np.inf
    for steps in range(_DUAL_MAX_ITER + 1):
        k = x.reshape(d, m).T @ from_b
        primal = float(objective(k))
        if primal < value:
            value, k_best = primal, k
        lower = max(lower, float(g))
        # steps go on past the tolerance for as long as they narrow the bracket
        if not 0.0 < value - lower < gap or steps == _DUAL_MAX_ITER:
            break
        gap = value - lower
        z = _ball_step(y, grad, hess) if d <= 3 else _clipped_step(y, grad, hess, basis)
        # near the optimum g is flat to rounding while x* still converges, so
        # a step that loses no more than rounding is taken
        t = 1.0
        for _ in range(34):
            trial = dual(y + t * (z - y))
            evals += 1
            if trial[0] >= g - 1e-14 * abs(g):
                break
            t *= 0.5
        else:
            break  # no ascent left along the step
        y, (g, x, grad, hess) = y + t * (z - y), trial
    # at the optimum rounding can put g a few ulps above the primal value
    return HolevoSolution(k_best, value, min(lower, value), evals)


def _ball_step(y, grad, hess):
    """For d <= 3, where ||Y||_op = |y|: the maximizer over |z| <= 1 of the
    model grad.(z - y) - (z - y).hess.(z - y) / 2.  That is the Newton point,
    or if that is unbounded or outside the ball (a boundary optimum),
    z(lam) = (hess + lam I)^-1 (grad + hess y) at the root of |z(lam)| = 1."""
    a, q = np.linalg.eigh(hess)
    a = np.maximum(a, 0.0)
    flat = a <= 1e-12 * a[-1]
    slope, c = q.T @ grad, q.T @ (grad + hess @ y)
    if not np.any(flat & (np.abs(slope) > 1e-14 * np.max(np.abs(c)))):
        z = y + q @ np.where(flat, 0.0, slope / np.where(flat, 1.0, a))
        if z @ z <= 1.0:
            return z
    # |z(lam)| >= 1 here, and 1 / |z(lam)| - 1 is increasing and concave,
    # so Newton steps on it rise monotonically onto the root
    lam = max(0.0, float(np.max(np.abs(c) - a)))
    for _ in range(100):
        den = np.where(a + lam > 0.0, a + lam, np.inf)
        zc = c / den
        norm, curve = np.sqrt(zc @ zc), zc @ (zc / den)
        nxt = lam + (norm - 1.0) * norm * norm / curve if curve > 0.0 else lam
        if norm <= 1.0 or not nxt > lam:
            break
        lam = nxt
    z = q @ zc
    return z / max(1.0, np.sqrt(z @ z))


def _clipped_step(y, grad, hess, basis):
    """The model maximizer of `_ball_step` over ||Y||_op <= 1 for d >= 4, by
    up to 200 accelerated projected-gradient steps from y; the projection
    clips the eigenvalues of iY to [-1, 1]."""
    rows, cols = np.triu_indices(basis.shape[-1], 1)
    rate = 1.0 / max(np.linalg.eigvalsh(hess)[-1], 1e-12 * np.max(np.abs(grad)), 1e-300)
    z = prev = y
    t = 1.0
    for _ in range(200):
        t, t_prev = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)), t
        v = z + (t_prev - 1.0) / t * (z - prev)
        w, u = np.linalg.eigh(1j * np.tensordot(v + rate * (grad - hess @ (v - y)), basis, 1))
        prev, z = z, (-1j * (u * np.clip(w, -1.0, 1.0)) @ u.conj().T).real[rows, cols]
        if np.max(np.abs(z - prev)) <= 1e-13:
            break
    return z


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
