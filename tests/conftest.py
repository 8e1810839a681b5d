"""Shared generators for randomized property tests (all explicitly seeded),
and oracles that several test modules share: among them the closed-form
geometry of the models and the closed-form bounds the library is held to."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from qmb import bounds, general, geometry, models, sweep
from qmb.errors import InvalidInput
from qmb.general import (
    _bloch_state,
    _need_derivatives,
    _require_unit_trace,
    require_derivative,
    state_eigensystem,
)
from qmb.geometry import _bloch_geometry, _geometry, _weight_frame
from qmb.linalg import (
    SUPPORT_TOL,
    _require_eig_floor,
    dot,
    hermitian_part,
    stacked,
    tracenorm_antisym,
)
from qmb.models import (
    ModelArrays,
    PAULI,
    _dot_j,
    _mat,
    _rotation_axis,
    _su2_frame,
    _su2_qubit_axes,
    _su2_qutrit_axes,
    _tunable_qubit_bloch_derivs,
    rotation_about_axis,
    rotation_about_z,
    su2_generators,
    tunable_qubit_r0,
)

# Property tests draw the same examples on every run and have no deadline,
# so the suite stays reproducible on slow or shared machines.  CI also runs
# chosen property tests under "qmb-ci" (pytest --hypothesis-profile=qmb-ci),
# the same with ten times the default 100 examples; there the chunk contract
# (`test_rows_do_not_depend_on_their_chunk`) runs chunks of one row at every
# preset's default density.
settings.register_profile("qmb", derandomize=True, deadline=None, database=None)
settings.register_profile("qmb-ci", settings.get_profile("qmb"), max_examples=1000)
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


def tunable_qubit_bloch(cfg, l1: float, l2: float) -> np.ndarray:
    """Transformed Bloch vector Rz(2 l2) R_n(2 gamma) Rz(2 l1) r0, by
    composing the rotation matrices.

    This route, the vector that `models._tunable_qubit_bloch_derivs` returns
    and a closed form in tests/test_models.py are three evaluations of the
    same vector; the tests hold them to agree.
    """
    c = cfg.constants
    gamma, theta, phi = c["gamma"], c["theta"], c["phi"]
    return (
        rotation_about_z(2.0 * l2)
        @ rotation_about_axis(_rotation_axis(theta, phi), 2.0 * gamma)
        @ rotation_about_z(2.0 * l1)
        @ tunable_qubit_r0(c)
    )


def su2_initial_generators(cfg, params) -> tuple[np.ndarray, ...]:
    """The initial-frame generators H_k = scale_k n_k.J of an SU(2) model at
    one parameter vector, from `models._su2_frame`; the exact derivatives
    are d_k rho = U (i [H_k, rho0]) U^dag."""
    _, js, axes, scales = _su2_frame(cfg, np.asarray(params, dtype=float))
    return tuple(k * _dot_j(n, js) for k, n in zip(scales, axes))


def su2_qubit_geometry(cfg, params) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (Q, U) of the SU(2) qubit under H = B (cos(theta) Jx +
    sin(theta) Jz) with the pure probe (alpha, beta), at params (B, theta)."""
    c = cfg.constants
    alpha, beta, t = c["alpha"], c["beta"], c["t"]
    b, theta = (float(x) for x in params)
    n_theta, n1 = _su2_qubit_axes(np.sin(b * t / 2.0), np.cos(b * t / 2.0), np.cos(theta),
                                  np.sin(theta))
    n2 = np.cross(n_theta, n1)
    s = math.sin(b * t / 2.0)
    r0 = np.array(
        [math.sin(alpha) * math.cos(beta), math.sin(alpha) * math.sin(beta), math.cos(alpha)]
    )
    q = np.empty((2, 2))
    q[0, 0] = t**2 * (1.0 - (n_theta @ r0) ** 2)
    q[1, 1] = 4.0 * s**2 * (1.0 - (n1 @ r0) ** 2)
    q[0, 1] = q[1, 0] = 2.0 * t * s * (n1 @ r0) * (n_theta @ r0)
    u_theta_b = 2.0 * t * s * (n2 @ r0)
    return q, np.array([[0.0, -u_theta_b], [u_theta_b, 0.0]])


def su2_qutrit_geometry(cfg, params) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (Q, U) of the SU(2) qutrit (spin 1) under H = B J_n,
    n = (ct cp, ct sp, st), with the pure probe (alpha, beta), at params
    (B, theta, phi)."""
    c = cfg.constants
    alpha, beta, t = c["alpha"], c["beta"], c["t"]
    b, theta, phi = (float(x) for x in params)
    x = math.sin(alpha) * math.cos(beta - 2.0 * phi)
    y = math.sin(alpha) * math.sin(beta - 2.0 * phi)
    s, c = math.sin(b * t / 2.0), math.cos(b * t / 2.0)
    s_bt, c_bt = math.sin(b * t), math.cos(b * t)
    c2a = math.cos(2.0 * alpha)
    ct, st = math.cos(theta), math.sin(theta)
    q = np.empty((3, 3))
    q[0, 0] = 2.0 * t**2 * (1.0 - st**2 * c2a + ct**2 * x)
    q[1, 1] = 8.0 * s**2 * (
        1.0 - c**2 * c2a * ct**2 + (c**2 * st**2 - s**2) * x - s_bt * st * y
    )
    q[2, 2] = 8.0 * ct**2 * s**2 * (
        1.0 - s**2 * c2a * ct**2 - (c**2 - st**2 * s**2) * x + s_bt * st * y
    )
    q[0, 1] = q[1, 0] = 4.0 * t * ct * s * (s * y - c * st * (c2a + x))
    q[0, 2] = q[2, 0] = 4.0 * t * ct**2 * s * (s * st * (c2a + x) + c * y)
    q[1, 2] = q[2, 1] = 4.0 * ct * s**2 * (
        s_bt * (c2a * ct**2 - (st**2 + 1.0) * x) - 2.0 * c_bt * st * y
    )
    ca = math.cos(alpha)
    u = np.zeros((3, 3))
    u[0, 1] = 4.0 * t * ca * ct * s**2
    u[0, 2] = 2.0 * t * ca * ct**2 * s_bt
    u[1, 2] = -4.0 * ca * s**2 * math.sin(2.0 * theta)
    u -= u.T
    return q, u


def analytic_geometry(cfg, params) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form (Q, U) of a model point: the SU(2) formulas above, and
    for the tunable qubit, a rotation of r0 (r.d_i r = 0), Q_ij = d_i r.d_j r and
    U_ij = r.(d_i r x d_j r) from its Bloch path (`geometry._bloch_geometry`)."""
    if cfg.model_id == "su2_qubit":
        return su2_qubit_geometry(cfg, params)
    if cfg.model_id == "su2_qutrit":
        return su2_qutrit_geometry(cfg, params)
    r, d1, d2 = _tunable_qubit_bloch_derivs(cfg, *(float(x) for x in params))
    g = _bloch_geometry(r, np.stack([d1, d2]))
    return g.qfim, g.uhlmann


def holevo_pure_qubit_closed_form(g, w_mat: np.ndarray) -> float:
    """Pure-qubit two-parameter Holevo bound, Tr[W Q^-1] + 2 sqrt(det[W Q^-1])."""
    if g.n_params != 2:
        raise InvalidInput("closed form is specific to two-parameter models")
    frame = _weight_frame(g, w_mat)
    prod = frame.w_mat @ frame.qinv
    det = max(float(np.linalg.det(prod)), 0.0)
    return float(np.trace(prod)) + 2.0 * float(np.sqrt(det))


def op_norm_inf(a: np.ndarray) -> float:
    """Spectral radius, the maximum |eigenvalue| of the matrix: the norm of
    the quantumness R = ||i Q^-1 U||, whose arguments are similar to
    Hermitian matrices, so the spectrum is real."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def tangent_setup(g, basis, w_mat: np.ndarray):
    """The per-point pieces of the Holevo objective (`bounds._TangentSetup`)
    at the weight matrix ``w_mat``."""
    return general._tangent_setup(basis, _weight_frame(g, w_mat))


def tangent_objective(g, basis, w_mat: np.ndarray) -> Callable[[np.ndarray], float]:
    """The Holevo objective of `bounds` as a function of the flattened K matrix."""
    return bounds._objective(tangent_setup(g, basis, w_mat))


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

    Same geometry as `analytic_geometry` of the tunable qubit restricted to
    |r0| = 1, evaluated without constructing density matrices or Bloch
    vectors; the fig1 maximization oracle in tests/test_sweep.py searches an
    angle grid with it.
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
    """`general._su2_state` through the generators: d_k rho = U (i [H_k, rho0]) U^dag,
    with `@` products and the eigh exponential."""
    c = cfg.constants
    alpha, beta, t = c["alpha"], c["beta"], c["t"]
    b, theta = params[..., 0], params[..., 1]
    s = np.sin(b * t / 2.0)
    factors = s, np.cos(b * t / 2.0), np.cos(theta), np.sin(theta)
    if cfg.model_id == "su2_qutrit":
        js = su2_generators(3)
        psi0 = stacked(np.cos(alpha / 2.0), 0.0, np.sin(alpha / 2.0) * np.exp(1j * beta))
        axes = _su2_qutrit_axes(*factors, params[..., 2])
        scales = (-t, 2.0 * s, 2.0 * np.cos(theta) * s)
    else:
        js = tuple(0.5 * p for p in PAULI)
        psi0 = stacked(np.cos(alpha / 2.0), np.sin(alpha / 2.0) * np.exp(1j * beta))
        axes = _su2_qubit_axes(*factors)
        scales = (-t, 2.0 * s)
    gens = np.broadcast_arrays(*(_mat(k) * _dot_j(n, js) for k, n in zip(scales, axes)))
    gens = np.stack(gens, axis=-3)
    u = expm_generator(_mat(b) * _dot_j(axes[0], js), t)
    uh = u.swapaxes(-1, -2).conj()
    rho0 = psi0[..., :, None] * psi0[..., None, :].conj()
    rho = hermitian_part(u @ rho0 @ uh)
    derivs = [hermitian_part(u @ (1j * (g @ rho0 - rho0 @ g)) @ uh) for g in np.moveaxis(gens, -3, 0)]
    return rho, np.stack(derivs, axis=-3)


def matrix_model_arrays(cfg, params):
    """`models.model_arrays` with every state a density matrix: the SU(2)
    models by `matmul_su2_state`, the tunable qubit by `_bloch_state`."""
    if cfg.model_id != "tunable_qubit":
        return ModelArrays(*matmul_su2_state(cfg, params), None, None)
    r, d1, d2 = _tunable_qubit_bloch_derivs(cfg, params[..., 0], params[..., 1])
    return ModelArrays(*_bloch_state(r, np.stack([d1, d2], axis=-2)), None, None)


def matmul_compute_geometry(rho, derivs):
    """`general.compute_geometry` with `@` SLDs and traces of `@` products."""
    d = np.shape(derivs)[-3]
    w, v = state_eigensystem(rho)
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
    """`geometry._spectral_radius` by a stacked eigvalsh of
    i Q^-1/2 U Q^-1/2 for every d, Q^-1/2 from Q's eigenpairs."""
    w, v = g._qfim_eigh
    qinv_sqrt = (v * np.sqrt(stacked_inverse(w)[0])[..., None, :]) @ v.swapaxes(-1, -2)
    vals = np.linalg.eigvalsh(hermitian_part(1j * (qinv_sqrt @ g.uhlmann @ qinv_sqrt)))
    return np.max(np.abs(vals), axis=-1, initial=0.0)


def stacked_inverse(w):
    """The inverse eigenvalues that `geometry._eigen_inverses` keeps (0 on the
    others) and ill, from Q's ascending eigenvalues w: it keeps those above
    RANK_TOL times the largest, and a row is ill where the smallest is dropped."""
    keep = w > geometry.RANK_TOL * w[..., -1:]
    return np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0), ~keep[..., 0]


def stacked_frame(g, w_mat, sqrt_w):
    """`geometry._frame` as stacked `@` products for every d: Q^-1 from the
    eigenpairs, the core sqrt(W) Q^-1 U Q^-1 sqrt(W), C_SLD = Tr[W Q^-1],
    the core's trace norm and C_T = C_SLD + that norm."""
    w, v = g._qfim_eigh
    inv_w, ill = stacked_inverse(w)
    qinv = (v * inv_w[..., None, :]) @ v.swapaxes(-1, -2)
    core = sqrt_w @ qinv @ g.uhlmann @ qinv @ sqrt_w
    c_sld = np.trace(w_mat @ qinv, axis1=-2, axis2=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # as in `geometry._frame`
        norm = tracenorm_antisym(core)
        return geometry._WeightFrame(w_mat, sqrt_w, qinv, core, c_sld, ill, norm, c_sld + norm)


def solve_adjugate(a):
    """`linalg.adjugate` through LAPACK, det(A) solve(A, I): in
    `bounds._holevo_exact` it makes the d = 3 step k = solve(sqrt W, b), as
    it was before the cofactors, up to rounding."""
    det = np.linalg.det(a)[..., None, None]
    return np.linalg.solve(a, np.broadcast_to(np.eye(3), a.shape)) * det


def use_lapack_oracle(monkeypatch, stacked: bool) -> None:
    """Invert every Q by LAPACK's eigh: an infinite _CLOSED_FORM_MARGIN
    certifies no Cholesky factor in `_invert`, so every F that a normal
    space reads comes from eigh too; with ``stacked``, also build the weight
    frame and R from stacked products (`stacked_frame`,
    `eigvalsh_spectral_radius`) instead of the d = 2 determinant forms and
    the d = 3 cofactors, and take the exact Holevo step's d = 3 solve from
    LAPACK (`solve_adjugate`): the path as it was before the closed forms."""
    monkeypatch.setattr(geometry, "_CLOSED_FORM_MARGIN", np.inf)
    if stacked:
        for module in (geometry, bounds):
            monkeypatch.setattr(module, "_frame", stacked_frame)
            monkeypatch.setattr(module, "_spectral_radius", eigvalsh_spectral_radius)
        monkeypatch.setattr(bounds, "adjugate", solve_adjugate)


def use_matmul_oracle(monkeypatch) -> None:
    """Route `run_sweep` and the one-point functions through the oracles
    above: the pure states as density matrices, so their normal spaces are
    built from the Gell-Mann coordinates, and an infinite margin inverts
    every Q by eigh."""
    monkeypatch.setattr(general, "_su2_state", matmul_su2_state)
    monkeypatch.setattr(sweep, "model_arrays", matrix_model_arrays)
    monkeypatch.setattr(sweep, "model_geometry", matmul_model_geometry)
    monkeypatch.setattr(general, "compute_geometry", matmul_compute_geometry)
    monkeypatch.setattr(geometry, "_CLOSED_FORM_MARGIN", np.inf)
    for module in (geometry, bounds):
        monkeypatch.setattr(module, "_spectral_radius", eigvalsh_spectral_radius)


# The mixed-qubit route before the tunable qubit went from the model to the
# bounds as its Bloch vector: the model handed over rho and its derivatives
# from `_bloch_state` with the Bloch data, `model_geometry` validated the
# matrices and built the closed-form SLD matrices L_i = a_i I + b_i.sigma,
# and `_normal_spaces` read the Gell-Mann coordinates from rho.
# `use_bloch_matrix_oracle` routes a sweep through it.
def bloch_matrix_arrays(cfg, params):
    """`models.model_arrays` with a Bloch-vector qubit's rho and derivatives."""
    arrays = models.model_arrays(cfg, params)
    if arrays.bloch is None:
        return arrays
    return ModelArrays(*_bloch_state(*arrays.bloch), None, arrays.bloch)


def bloch_sld_geometry(r, dr):
    """The qubit geometry from r (B, 3) and d r (B, d, 3) with the SLD
    matrices L_i = a_i I + b_i.sigma (B, d, 2, 2) and no Bloch vector."""
    radius = np.sqrt(dot(r, r))
    radial = dot(dr, r[..., None, :])  # r.d_i r
    cut = 1.0 - radius <= SUPPORT_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        kr = np.where(cut, (1.0 + 2.0 * radius) / (2.0 * radius**2 * (1.0 + radius)),
                      -1.0 / ((1.0 - radius) * (1.0 + radius)))[..., None] * radial
        a = np.where(cut[..., None], radial / (2.0 * radius * (1.0 + radius))[..., None], kr)
    b = dr - kr[..., None] * r[..., None, :]
    q = dr @ dr.swapaxes(-1, -2) - kr[..., :, None] * radial[..., None, :]
    u = np.zeros(q.shape)
    for i, j in zip(*np.triu_indices(dr.shape[-2], 1)):
        u[..., i, j] = dot(r, np.cross(dr[..., i, :], dr[..., j, :]))
        u[..., j, i] = -u[..., i, j]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    slds = np.stack([a + bz, bx - 1j * by, bx + 1j * by, a - bz], axis=-1)
    spectrum = np.stack([0.5 + 0.5 * radius, np.maximum(0.5 - 0.5 * radius, 0.0)], axis=-1)
    return _geometry(0.5 * (q + q.swapaxes(-1, -2)), u, slds.reshape(b.shape[:-1] + (2, 2)),
                     spectrum)


def bloch_matrix_geometry(rho, derivs, pure, bloch):
    """`geometry.model_geometry` with a Bloch-vector qubit validated as the
    matrices rho and derivs, its geometry from `bloch_sld_geometry`."""
    if bloch is None:
        return geometry.model_geometry(rho, derivs, pure, bloch)
    derivs = _need_derivatives(derivs)
    rho = _require_unit_trace(rho, "rho")
    # the eigenvalues of a 2x2 state are (Tr rho +- |r|) / 2
    radius = np.hypot((rho[..., 0, 0] - rho[..., 1, 1]).real, 2.0 * np.abs(rho[..., 0, 1]))
    _require_eig_floor(0.5 * (np.trace(rho, axis1=-2, axis2=-1).real - radius), "rho")
    require_derivative(derivs)
    return bloch_sld_geometry(*bloch)


def use_bloch_matrix_oracle(monkeypatch) -> None:
    """Route `run_sweep` through the mixed-qubit route above."""
    monkeypatch.setattr(sweep, "model_arrays", bloch_matrix_arrays)
    monkeypatch.setattr(sweep, "model_geometry", bloch_matrix_geometry)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
