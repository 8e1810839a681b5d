"""Shared generators for randomized property tests (all explicitly seeded),
and oracles that several test modules share."""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from qmb import bounds, geometry, models, sweep
from qmb.geometry import _geometry
from qmb.linalg import SUPPORT_TOL, hermitian_part, require_derivative, state_eigensystem
from qmb.models import (
    PAULI,
    ModelArrays,
    _bloch_state,
    _dot_j,
    _mat,
    _su2_qubit_axes,
    _su2_qutrit_axes,
    _tunable_qubit_bloch_derivs,
    _vec,
    su2_generators,
)

# Property tests draw the same examples on every run and have no deadline,
# so the suite stays reproducible on slow or shared machines.
settings.register_profile("qmb", derandomize=True, deadline=None, database=None)
settings.load_profile("qmb")


def random_traceless_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h - np.trace(h) * np.eye(n) / n


def random_density(rng: np.random.Generator, n: int, min_eig: float = 0.05) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a @ a.conj().T + n * min_eig * np.eye(n)
    return h / np.trace(h).real


def random_model(
    rng: np.random.Generator, n: int, d: int, min_eig: float = 0.05
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Full-rank state plus d Hermitian traceless derivative directions."""
    rho = random_density(rng, n, min_eig)
    return rho, [random_traceless_hermitian(rng, n) for _ in range(d)]


def random_pure_model(
    rng: np.random.Generator, n: int, d: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pure state |psi><psi| plus d derivatives |dpsi><psi| + |psi><dpsi|."""
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    derivs = []
    for _ in range(d):
        dpsi = rng.normal(size=n) + 1j * rng.normal(size=n)
        dpsi -= psi * np.real(np.vdot(psi, dpsi))  # keeps the norm fixed
        derivs.append(np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj()))
    return np.outer(psi, psi.conj()), derivs


def pure_model_vectors(rho: np.ndarray, derivs) -> tuple[np.ndarray, np.ndarray]:
    """A pure state psi psi^dag with derivatives (..., d, n, n) as the vectors
    of the vector route: psi (..., n), the top eigenvector of rho, and
    l_k = L_k psi = 2 d_k rho psi (..., d, n)."""
    psi = np.linalg.eigh(rho)[1][..., -1]
    return psi, 2.0 * (np.asarray(derivs) @ psi[..., None, :, None])[..., 0]


def random_rank_deficient_model(
    rng: np.random.Generator, n: int, d: int, rank: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Mixed state of the given rank plus d derivatives tangent to the
    rank-``rank`` states, d/dt of (rho + t (h rho + rho h^dag)) / Tr."""
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    derivs = []
    for _ in range(d):
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = h @ rho + rho @ h.conj().T
        x = 0.5 * (x + x.conj().T)
        derivs.append(x - np.trace(x).real * rho)
    return rho, derivs


def random_spd(rng: np.random.Generator, d: int, spread: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(d, d)) * spread
    return a @ a.T + 0.1 * np.eye(d)


def random_antisymmetric(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    a = rng.normal(size=(d, d))
    u = a - a.T
    if rank is not None and rank < d:
        # zero out blocks beyond the requested rank in the canonical form
        w, vecs = np.linalg.eigh(1j * u)
        order = np.argsort(-np.abs(w))
        w = w[order]
        vecs = vecs[:, order]
        w[rank:] = 0.0
        u = np.real(-1j * (vecs * w) @ vecs.conj().T)
        u = 0.5 * (u - u.T)
    return u


def tunable_qubit_pure_geometry_grid(
    alpha: np.ndarray,
    beta: np.ndarray,
    gamma: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
    l1: float = 0.0,
    l2: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (Q11, Q12, Q22, U12) over broadcastable pure-state angle grids.

    Same geometry as `tunable_qubit_point` restricted to |r0| = 1, evaluated
    without constructing density matrices or Bloch vectors; the fig1
    maximization oracle in tests/test_sweep.py searches an angle grid with it.
    Sparse (``np.meshgrid(..., sparse=True)``) inputs cost one trig call per
    axis value; all four outputs share the broadcast shape of the inputs,
    and scalar inputs give 0-d results.

    Derivation.  Write w = Rz(2 l1) r0, r = Rz(2 l2) R_n(2 gamma) w,
    d1 = Rz(2 l2) R_n(2 gamma) (2 z x w) and d2 = 2 z x r (see
    `_tunable_qubit_bloch_derivs`).  Rotations preserve dot products and
    Rz fixes z-components, so with |r| = |w| = 1:

    * Q11 = |d1|^2 = 4 |z x w|^2 = 4 (1 - w_z^2) = 4 sin^2 alpha;
    * Q22 = |d2|^2 = 4 (1 - r_z^2);
    * Q12 = d1.d2 = 2 z.(r x d1) = 4 z.R_n(z - w_z w)
      = 4 ((R_n z)_z - cos(alpha) r_z), using w x (z x w) = z - w_z w;
    * U12 = r.(d1 x d2) = 2 (r_z (r.d1) - |r|^2 (d1)_z) = -2 (d1)_z, because
      the path is tangent to the sphere (r.d1 = 0).

    Every z-component is z.R_n(v) = v_z c + (n x v)_z s + n_z (n.v)(1 - c)
    with c = cos 2gamma, s = sin 2gamma and n = (sin theta cos phi,
    sin theta sin phi, cos theta).  w has azimuth beta + 2 l1, so only
    delta = beta + 2 l1 - phi enters:

        r_z = ca c + st sa sd s + ct (st sa cd + ct ca)(1 - c)
        Q12 = 4 (c + ct^2 (1 - c) - ca r_z)
        U12 = -4 st sa (cd s - ct sd (1 - c))

    (ca = cos alpha, sd = sin delta, ...).  Rz(2 l2) changes no
    z-component and no dot product, so l2 cancels and is accepted only to
    keep the signature of the model parameters.
    """
    del l2  # cancels; see the derivation above
    sa, ca = np.sin(alpha), np.cos(alpha)
    st, ct = np.sin(theta), np.cos(theta)
    two_gamma = np.multiply(2.0, gamma)
    c2g, s2g = np.cos(two_gamma), np.sin(two_gamma)
    one_m_c2g = 1.0 - c2g
    delta = np.subtract(beta, phi) + 2.0 * l1
    sd, cd = np.sin(delta), np.cos(delta)
    st_sa = st * sa
    r_z = ca * c2g + st_sa * sd * s2g + ct * (st_sa * cd + ct * ca) * one_m_c2g
    q22 = 4.0 * (1.0 - r_z * r_z)
    q12 = 4.0 * (c2g + ct * ct * one_m_c2g - ca * r_z)
    u12 = -4.0 * st_sa * (cd * s2g - ct * sd * one_m_c2g)
    q11 = 4.0 * sa * sa
    if np.shape(q11) != np.shape(u12):  # alpha alone spans fewer axes
        q11 = np.broadcast_to(q11, np.shape(u12))
    return q11, q12, q22, u12


# A compact deterministic Nelder-Mead simplex minimizer: the search of the
# Holevo-ladder oracle (tests/test_bounds.py) and of the fig1 oracle
# (tests/test_sweep.py).  The simplex is one (n + 1, n) array; the
# ordering stays in plain Python.
def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    step: float = 0.1,
    max_iter: int = 5000,
    f_tol_rel: float = 1e-13,
    x_tol: float = 1e-12,
) -> tuple[np.ndarray, float, int]:
    """Minimize ``fn`` from ``x0``; returns (x_best, f_best, evaluations).

    The initial simplex offsets each coordinate by ``step``.  Termination:
    the simplex function values agree to ``f_tol_rel`` relative to the best
    value, or the vertices collapse to within ``x_tol``, or the evaluation
    budget runs out.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    if n == 0:
        return x0, float(fn(x0)), 1
    if step == 0:
        step = 0.1
    verts = np.tile(x0, (n + 1, 1))
    verts[np.arange(1, n + 1), np.arange(n)] += step
    pairs = sorted(zip([float(fn(v)) for v in verts], range(n + 1)))
    order = [i for _, i in pairs]
    vals = {i: f for f, i in pairs}
    evals = n + 1

    while evals < max_iter:
        best_i, worst_i = order[0], order[-1]
        f_best, f_worst = vals[best_i], vals[worst_i]
        if f_worst - f_best <= f_tol_rel * (abs(f_best) + 1e-300):
            break
        if float(np.max(np.abs(verts - verts[best_i]))) <= x_tol:
            break
        centroid = (np.sum(verts, axis=0) - verts[worst_i]) / n

        def replace_worst(x: np.ndarray, f: float) -> None:
            verts[worst_i] = x
            vals[worst_i] = f
            order.pop()
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                if vals[order[mid]] <= f:
                    lo = mid + 1
                else:
                    hi = mid
            order.insert(lo, worst_i)

        reflected = centroid + (centroid - verts[worst_i])
        f_ref = float(fn(reflected))
        evals += 1
        if f_ref < f_best:
            expanded = centroid + 2.0 * (reflected - centroid)
            f_exp = float(fn(expanded))
            evals += 1
            if f_exp < f_ref:
                replace_worst(expanded, f_exp)
            else:
                replace_worst(reflected, f_ref)
        elif f_ref < vals[order[-2]]:
            replace_worst(reflected, f_ref)
        else:
            if f_ref < f_worst:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (verts[worst_i] - centroid)
            f_con = float(fn(contracted))
            evals += 1
            if f_con < min(f_ref, f_worst):
                replace_worst(contracted, f_con)
            else:
                vbest = verts[order[0]]
                for i in order[1:]:
                    verts[i] = vbest + 0.5 * (verts[i] - vbest)
                    vals[i] = float(fn(verts[i]))
                evals += n
                order = sorted(order, key=vals.__getitem__)

    best_i = order[0]
    return verts[best_i].copy(), vals[best_i], evals


def expm_generator(h: np.ndarray, t=1.0) -> np.ndarray:
    """exp(-i t H) for Hermitian H (or a stack of them) via one spectral
    decomposition: the oracle of the models' closed-form SU(2) exponential."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * np.asarray(t)[..., None] * w)
    return (v * phases[..., None, :]) @ v.swapaxes(-1, -2).conj()


# The per-row arithmetic before the tiny-matrix kernels, the structure-
# aware geometry and the pure states as vectors: every state a density
# matrix, every stacked complex product a plain `@`, the SU(2) exponential by
# eigh, the SLDs of every model from rho's decomposition, the Gram entries as
# traces of products, every normal space by eigendecompositions in the
# Gell-Mann basis, and R from a stacked eigvalsh.  `use_matmul_oracle` routes
# a sweep through it, so the kernels' and the closed forms' rounding can be
# held to a tolerance.
def matmul_su2_state(cfg, params):
    """`models._su2_state` with `@` products and the eigh exponential."""
    c = cfg.constants
    alpha, beta, t = c["alpha"], c["beta"], c["t"]
    b, theta = params[..., 0], params[..., 1]
    s = np.sin(b * t / 2.0)
    if cfg.model_id == "su2_qutrit":
        js = su2_generators(3)
        psi0 = _vec(np.cos(alpha / 2.0), 0.0, np.sin(alpha / 2.0) * np.exp(1j * beta))
        axes = _su2_qutrit_axes(b, theta, params[..., 2], t)
        scales = (-t, 2.0 * s, 2.0 * np.cos(theta) * s)
    else:
        js = tuple(0.5 * p for p in PAULI)
        psi0 = _vec(np.cos(alpha / 2.0), np.sin(alpha / 2.0) * np.exp(1j * beta))
        axes = _su2_qubit_axes(b, theta, t)
        scales = (-t, 2.0 * s)
    gens = np.broadcast_arrays(*(_mat(k) * _dot_j(n, js) for k, n in zip(scales, axes)))
    gens = np.stack(gens, axis=-3)
    u = expm_generator(_mat(b) * _dot_j(axes[0], js), t)
    uh = u.swapaxes(-1, -2).conj()
    rho0 = psi0[..., :, None] * psi0[..., None, :].conj()
    rho = hermitian_part(u @ rho0 @ uh)
    derivs = [hermitian_part(u @ (1j * (g @ rho0 - rho0 @ g)) @ uh) for g in np.moveaxis(gens, -3, 0)]
    return rho, np.stack(derivs, axis=-3), gens


def matrix_model_arrays(cfg, params):
    """`models.model_arrays` with every state a density matrix: the SU(2)
    models by `matmul_su2_state`, the tunable qubit by `_bloch_state`."""
    if cfg.model_id != "tunable_qubit":
        return ModelArrays(*matmul_su2_state(cfg, params)[:2], None, None)
    r, d1, d2 = _tunable_qubit_bloch_derivs(cfg, params[..., 0], params[..., 1])
    return ModelArrays(*_bloch_state(r, np.stack([d1, d2], axis=-2)), None, None)


def matmul_compute_geometry(rho, derivs, check=True):
    """`geometry.compute_geometry` with `@` SLDs and traces of `@` products."""
    derivs = np.asarray(derivs)
    d = derivs.shape[-3]
    w, v = state_eigensystem(rho, check)
    if check:
        derivs = require_derivative(derivs)
    vh = v.swapaxes(-1, -2).conj()
    denom = w[..., :, None] + w[..., None, :]
    keep = denom > SUPPORT_TOL
    slds = []
    for k in range(d):
        m = vh @ derivs[..., k, :, :] @ v
        coeff = np.where(keep, 2.0 * m / np.where(keep, denom, 1.0), 0.0)
        slds.append(hermitian_part(v @ coeff @ vh))
    rho_l = [np.asarray(rho, dtype=complex) @ l for l in slds]
    gram = np.empty(np.shape(rho)[:-2] + (d, d), dtype=complex)
    for a in range(d):
        for b in range(a, d):
            gram[..., a, b] = np.trace(rho_l[a] @ slds[b], axis1=-2, axis2=-1)
            gram[..., b, a] = np.conj(gram[..., a, b])
    slds = np.stack(slds, axis=-3)
    q = 0.5 * (gram.real + gram.real.swapaxes(-1, -2))
    u = 0.5 * (gram.imag - gram.imag.swapaxes(-1, -2))
    u[..., range(d), range(d)] = 0.0
    return _geometry(q, u, tuple(slds) if slds.ndim == 3 else slds, w)


def matmul_model_geometry(rho, derivs, pure, bloch):
    """`geometry.model_geometry` ignoring what the model knows: every batch
    through `matmul_compute_geometry`."""
    return matmul_compute_geometry(rho, derivs)


def eigvalsh_spectral_radius(g):
    """`geometry._spectral_radius` by a stacked eigvalsh for every d."""
    qinv_sqrt = g._qfim_inverses[1]
    vals = np.linalg.eigvalsh(hermitian_part(1j * (qinv_sqrt @ g.uhlmann @ qinv_sqrt)))
    return np.max(np.abs(vals), axis=-1, initial=0.0)


def use_matmul_oracle(monkeypatch) -> None:
    """Route `run_sweep` and the one-point functions through the oracles
    above; an infinite margin sends every qubit row of `_normal_spaces`
    through the eigendecompositions."""
    monkeypatch.setattr(models, "_su2_state", matmul_su2_state)
    monkeypatch.setattr(sweep, "model_arrays", matrix_model_arrays)
    monkeypatch.setattr(sweep, "model_geometry", matmul_model_geometry)
    monkeypatch.setattr(bounds, "compute_geometry", matmul_compute_geometry)
    monkeypatch.setattr(geometry, "_QUBIT_MARGIN", np.inf)
    for module in (geometry, bounds):
        monkeypatch.setattr(module, "_spectral_radius", eigvalsh_spectral_radius)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
