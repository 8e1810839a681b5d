"""Dense complex-matrix primitives for Hermitian operators.

Everything here works on plain ``numpy`` arrays (square, n <= 8 in practice):
one matrix, or a stack of them along leading axes.  A stack of real 2x2 or
3x3 matrices has its adjugate in closed form; eigendecompositions are one
stacked LAPACK call.  A stack of products is formed by
`small_matmul` as broadcast multiply-adds.  A stack is validated matrix by
matrix, and the first failing matrix in C order raises the error it would
raise alone.  All decompositions are exact dense methods; no iterative
estimators.
The checks and solves of density matrices are in `general`.
"""

from __future__ import annotations

import numpy as np

from .errors import DerivativeNotTraceless, InvalidInput, NonHermitianInput

HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_EIG_FLOOR = -1e-12
# An eigenvalue of rho at or below SUPPORT_TOL is zero; a weight matrix whose
# smallest eigenvalue is at or below WEIGHT_FLOOR is not positive definite.
SUPPORT_TOL = 1e-10
WEIGHT_FLOOR = 1e-12


def raise_first_failure(*checks) -> None:
    """Raise for the first entry (C order) failing a check: ``checks`` are
    (mask, make_error) pairs in the order one entry is checked, the masks
    broadcast together, and ``make_error(i)`` builds flat entry i's error.  A
    mask may be a Python bool, the check of a value shared by every entry."""
    if any(np.logical_or.reduce(mask, axis=None) for mask, _ in checks):
        bad = np.array([m.ravel() for m in np.broadcast_arrays(*(mask for mask, _ in checks))])
        i = int(np.argmax(bad.any(axis=0)))
        raise checks[int(np.argmax(bad[:, i]))][1](i)


def stacked(*parts, axis: int = -1) -> np.ndarray:
    """The parts broadcast together and stacked along a new axis, -1 or -2,
    as ``np.stack(np.broadcast_arrays(*parts), axis)`` stacks them, by
    assignment into one array: neither helper's Python-level call is made."""
    if not any(getattr(p, "ndim", 0) for p in parts):
        return np.array(parts)
    shape = np.broadcast(*parts).shape
    at = len(shape) + 1 + axis
    out = np.empty(shape[:at] + (len(parts),) + shape[at:], np.result_type(*parts))
    for i, part in enumerate(parts):
        out[(..., i) + (slice(None),) * (-1 - axis)] = part
    return out


def broadcast(x, shape: tuple) -> np.ndarray:
    """``np.broadcast_to(x, shape)`` as a new array, with no Python-level call."""
    out = np.empty(shape, np.result_type(x))
    out[...] = x
    return out


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, rounded as ``np.dot`` rounds one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (stacks of) small matrices, broadcast as ``@`` broadcasts.

    The product is one broadcast multiply-add per inner index, summed in
    index order: for the 2x2 and 3x3 matrices of the models a stacked
    complex ``@`` costs several times as much per matrix.  The form never
    depends on the stack, so for n >= 2, and for real input of any n, each
    matrix is rounded the same way whatever stack holds it.  A complex
    n = 1 product is one complex multiply, which numpy rounds by the shape
    of the operands, 1-2 ulp apart; no model has n = 1.
    """
    n = a.shape[-1]
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, n):
        out = out + a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A^dag) / 2."""
    return 0.5 * (a + a.swapaxes(-1, -2).conj())


def _require_eig_floor(lowest: np.ndarray, name: str) -> None:
    raise_first_failure((lowest < DENSITY_EIG_FLOOR, lambda i: NonHermitianInput(
        f"{name} has negative eigenvalue {np.ravel(lowest)[i]:.3e}")))


_WRAP = np.array([0, 1, 2, 0, 1])


_ADJ2_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def adjugate(a: np.ndarray) -> np.ndarray:
    """adj(A) of real 2x2 or 3x3 matrices (..., n, n), so adj(A) A = det(A) I.
    For n = 2 it is [[a_22, -a_12], [-a_21, a_11]].  For n = 3, column k of
    adj(A)^T is the cross product of A's columns k + 1 and k + 2 (mod 3), and
    A [u]x A^T = [adj(A)^T u]x for every A ([u]x the antisymmetric matrix of
    the axial vector u)."""
    if a.shape[-1] == 2:
        return a[..., ::-1, ::-1].swapaxes(-1, -2) * _ADJ2_SIGNS
    e = a[..., _WRAP[:, None], _WRAP]  # e_ij = A_(i mod 3)(j mod 3): each minor is a slice
    cof = e[..., 1:4, 1:4] * e[..., 2:5, 2:5] - e[..., 2:5, 1:4] * e[..., 1:4, 2:5]
    return cof.swapaxes(-1, -2)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values, ||A||_1 = Tr sqrt(A^dag A)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return np.sum(np.linalg.svd(a, compute_uv=False), axis=-1)


def tracenorm_antisym(m: np.ndarray) -> float:
    """Trace norm of a real antisymmetric matrix (closed form for d <= 3)."""
    d = m.shape[-1]
    if d == 1:
        return np.zeros(m.shape[:-2])[()]
    if d == 2:
        return 2.0 * np.abs(m[..., 0, 1])
    if d == 3:
        return 2.0 * np.hypot(np.hypot(m[..., 1, 2], m[..., 0, 2]), m[..., 0, 1])
    return trace_norm(m)


def require_pure_state(psi: np.ndarray, ells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate pure states psi (..., n) given with the vectors
    l_k = L_k psi (..., d, n) of their SLDs, as `require_density` and
    `require_derivative` validate rho = psi psi^dag and its derivatives:
    finite entries, Tr rho = |psi|^2 = 1, and Tr d_k rho = <psi|l_k> / 2 = 0.
    psi broadcasts against l's leading axes, and is checked in the shape it
    is given: a psi (n,) shared by every row is checked once.
    Hermiticity and the eigenvalue floor hold by construction."""
    psi, ells = np.asarray(psi, dtype=complex), np.asarray(ells, dtype=complex)
    if ells.ndim < 2 or ells.shape[-2] < 1:
        raise InvalidInput("need at least one parameter derivative")
    raise_first_failure((~np.isfinite(psi).all(axis=-1), lambda i: NonHermitianInput(
        "rho has non-finite entries")))
    tr = (psi.conj() * psi).sum(axis=-1).real
    raise_first_failure((np.abs(tr - 1.0) > DENSITY_TRACE_TOL, lambda i: NonHermitianInput(
        f"rho has trace {tr.flat[i]!r}, expected 1")))
    tr_d = 0.5 * (psi.conj()[..., None, :] * ells).sum(axis=-1)
    raise_first_failure(
        (~np.isfinite(ells).all(axis=-1),
         lambda i: NonHermitianInput("drho has non-finite entries")),
        (np.abs(tr_d) > 1e-10,
         lambda i: DerivativeNotTraceless(f"Tr drho = {tr_d.flat[i]!r}, expected 0")))
    return psi, ells


def require_bloch_vectors(
    r: np.ndarray, dr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate qubit states given by Bloch vectors r (..., 3) with their
    derivatives d r (..., d, 3), as `require_density` and `require_derivative`
    validate rho = (I + r.sigma) / 2 and d_k rho = d_k r.sigma / 2: finite
    entries, and the lower eigenvalue (1 - |r|) / 2 above the floor.  Unit
    trace, Hermiticity and traceless derivatives hold by construction.
    Returns r, d r and |r|."""
    r, dr = np.asarray(r, dtype=float), np.asarray(dr, dtype=float)
    if dr.ndim < 2 or dr.shape[-2] < 1:
        raise InvalidInput("need at least one parameter derivative")
    raise_first_failure((~np.isfinite(r).all(axis=-1), lambda i: NonHermitianInput(
        "rho has non-finite entries")))
    radius = np.sqrt(dot(r, r))
    _require_eig_floor(0.5 * (1.0 - radius), "rho")
    raise_first_failure((~np.isfinite(dr).all(axis=(-2, -1)), lambda i: NonHermitianInput(
        "drho has non-finite entries")))
    return r, dr, radius


WEIGHT_NOT_DEFINITE = "weight matrix must be positive definite"


def spd_sqrt(w_mat: np.ndarray) -> np.ndarray:
    """Spectral square root of a symmetric positive definite weight matrix
    (or a stack); its ``eigh`` also tests definiteness: a weight whose
    smallest eigenvalue is at or below WEIGHT_FLOOR is not definite."""
    vals, vecs = np.linalg.eigh(w_mat)
    raise_first_failure((vals[..., 0] <= WEIGHT_FLOOR, lambda i: InvalidInput(WEIGHT_NOT_DEFINITE)))
    return small_matmul(vecs * np.sqrt(vals)[..., None, :], vecs.swapaxes(-1, -2))


def require_weight(w_mat: np.ndarray, d: int | None = None) -> np.ndarray:
    """Validate the shape, finiteness and symmetry of a weight matrix and
    return its symmetric part; definiteness is left to `spd_sqrt`."""
    w_mat = np.asarray(w_mat, dtype=float)
    if w_mat.ndim < 2 or w_mat.shape[-1] != w_mat.shape[-2]:
        raise InvalidInput(f"weight matrix must be square, got shape {w_mat.shape}")
    if d is not None and w_mat.shape[-1] != d:
        raise InvalidInput(f"weight matrix has dimension {w_mat.shape[-1]}, expected {d}")
    finite = np.isfinite(w_mat).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):
        asym = np.max(np.abs(w_mat - w_mat.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
        scale = 1.0 + np.max(np.abs(w_mat), axis=(-2, -1), initial=0.0)
    raise_first_failure(
        (~finite, lambda i: InvalidInput("weight matrix has non-finite entries")),
        (asym > 1e-10 * scale, lambda i: InvalidInput("weight matrix must be symmetric")),
    )
    return 0.5 * (w_mat + w_mat.swapaxes(-1, -2))
