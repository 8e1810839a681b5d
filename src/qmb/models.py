"""Parameterized state families: tunable two-parameter qubit and SU(2) qubit/qutrit.

Each model is written down once.  `model_arrays` gives a batch of states in
the form the geometry reads them (vectors for a pure state, the Bloch vector
for a mixed qubit), and `general.model_point` gives one point's density
matrix and exact parameter derivatives from the same definitions.  The closed-form QFIM
and Uhlmann curvature that the tests hold the SLD route against live in
tests/conftest.py.

Conventions worth spelling out once:

* The tunable qubit encodes (lambda1, lambda2) via z-phase unitaries with an
  intermediate rotation ``exp(-i gamma n.sigma)``; the Bloch vector of the
  final state is ``Rz(2 lambda2) R_n(2 gamma) Rz(2 lambda1) r0``, and the
  parameters enter only through ``xi = 2 lambda1 - phi`` and
  ``eps = 2 lambda2 + phi``.
* The SU(2) models carry generator triples in the initial-frame convention
  ``H_k = i (d_k U^dag) U``; with this choice the closed-form QFIM and
  Uhlmann entries are expectation values in the *initial* state, and the
  exact derivative relation is ``d_k rho = U (i [H_k, rho0]) U^dag``.
  The forward convention ``i (d_k U) U^dag`` (what `general.unitary_generator`
  computes) is related by ``i (d_k U^dag) U = -U^dag [i (d_k U) U^dag] U``.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput
from .linalg import broadcast, dot, entry_sum, raise_first_failure, small_matmul, stacked

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)
_PAULI_STACK = np.array(PAULI)  # read-only, like the stacks of `_spin_matrices`
_PAULI_STACK.flags.writeable = False
_EYE3 = np.eye(3)

MODEL_IDS = ("tunable_qubit", "su2_qubit", "su2_qutrit")

PARAM_NAMES: dict[str, tuple[str, ...]] = {
    "tunable_qubit": ("lambda1", "lambda2"),
    "su2_qubit": ("B", "theta"),
    "su2_qutrit": ("B", "theta", "phi"),
}

# The constants each model takes: a config names no other.
_CONSTANT_NAMES: dict[str, set[str]] = {
    "tunable_qubit": {"r_x", "r_y", "r_z", "alpha", "beta", "gamma", "theta", "phi"},
    "su2_qubit": {"alpha", "beta", "t"},
    "su2_qutrit": {"alpha", "beta", "t"},
}


def su2_generators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (Jx, Jy, Jz) for the spin-(dim-1)/2 representation.

    Basis ordering is by descending magnetic quantum number, i.e.
    (|1>, |0>, |-1>) for dim = 3.
    """
    return tuple(_spin_matrices(dim).copy())


@cache
def _spin_matrices(dim: int) -> np.ndarray:
    """`su2_generators` stacked (3, dim, dim), built on first use per dim, read-only."""
    j = (dim - 1) / 2.0
    m = j - np.arange(dim)
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = ladder
    js = np.zeros((3, dim, dim), dtype=complex)
    js[0], js[1] = 0.5 * (jp + jp.conj().T), -0.5j * (jp - jp.conj().T)
    js[2, range(dim), range(dim)] = m
    js.flags.writeable = False
    return js


def _mat(x) -> np.ndarray:
    """A scalar or a batch of scalars, shaped to scale (stacked) matrices."""
    return np.asarray(x)[..., None, None]


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(Stacked) matrix times (stacked) vector."""
    return (m @ v[..., None])[..., 0]


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return stacked(c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0).reshape(c.shape + (3, 3))


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    n = np.asarray(axis, dtype=float)
    n = n / np.sqrt(dot(n, n))[..., None]
    k = stacked(0.0, -n[..., 2], n[..., 1], n[..., 2], 0.0, -n[..., 0], -n[..., 1], n[..., 0],
                0.0).reshape(n.shape[:-1] + (3, 3))
    return _EYE3 + _mat(np.sin(angle)) * k + _mat(1.0 - np.cos(angle)) * (k @ k)


class ModelConfig(NamedTuple):
    """A model family plus its fixed constants (angles, Bloch components, time)."""

    model_id: str
    constants: Mapping[str, float]

    @property
    def n_params(self) -> int:
        return len(PARAM_NAMES[self.model_id])


def model_config(model_id: str, **constants: float) -> ModelConfig:
    """A config whose names pass `_check_names` and values `_checked_config`."""
    if model_id not in MODEL_IDS:
        raise InvalidInput(f"unknown model {model_id!r}; expected one of {MODEL_IDS}")
    _check_names(model_id, constants)
    return _checked_config(model_id, constants)


def _check_names(model_id: str, names) -> None:
    """Raise InvalidInput unless the names are only the model's constants, all
    it requires, and the tunable qubit's probe as (alpha, beta) or (r_x, r_y, r_z),
    not both."""
    names, tunable = set(names), model_id == "tunable_qubit"
    unknown = names - _CONSTANT_NAMES[model_id]
    if unknown:
        raise InvalidInput(f"unknown names for {model_id}: {sorted(unknown)}")
    missing = ({"gamma", "theta", "phi"} if tunable else {"alpha", "beta", "t"}) - names
    if missing:
        raise InvalidInput(f"{model_id} requires constants {sorted(missing)}")
    probe, bloch = sorted(names & {"alpha", "beta"}), sorted(names & {"r_x", "r_y", "r_z"})
    if tunable and probe and bloch:
        raise InvalidInput(f"{probe[0]!r} and {bloch[0]!r} are both set; "
                           f"{probe[0]!r} would override {bloch[0]!r}")
    if tunable and len(probe) == 1:
        raise InvalidInput("pure-state form needs both alpha and beta")
    if tunable and "alpha" not in names and not {"r_x", "r_y", "r_z"} <= names:
        raise InvalidInput("tunable_qubit requires r_x, r_y, r_z (or alpha, beta)")


def _constant(name: str, v) -> float | np.ndarray:
    """A constant's value as a float, or as an array of floats for a list,
    tuple or array; InvalidInput naming the constant if it is not numeric."""
    try:
        return np.asarray(v, float) if getattr(v, "ndim", isinstance(v, (list, tuple))) else float(v)
    except (TypeError, ValueError):
        raise InvalidInput(f"constant {name}={v!r} is not a number") from None


def _checked_config(model_id: str, constants: Mapping) -> ModelConfig:
    """The config once its values hold: each finite, the tunable qubit's
    (r_x, r_y, r_z) no longer than 1, an SU(2) model's t positive.  A
    constant is one value, or an array of values, one per row of a batch;
    a scalar stays a scalar, so what depends on it alone is evaluated (and
    checked) once.  The first failing row raises, as a config of scalars would."""
    constants = {k: _constant(k, v) for k, v in constants.items()}
    cfg, shape = ModelConfig(model_id, constants), np.broadcast(*constants.values()).shape
    rules = [(not math.isfinite(val) if isinstance(val, float) else ~np.isfinite(val),
              lambda i, k=k, v=val: InvalidInput(
                  f"constant {k}={float(broadcast(v, shape).flat[i])!r} is not finite"))
             for k, val in constants.items()]
    if model_id != "tunable_qubit":
        rules.append((constants["t"] <= 0.0,
                      lambda i: InvalidInput("evolution time t must be positive")))
    elif "alpha" not in constants:  # (alpha, beta) give a unit vector by construction
        # |r0|^2 from the components: the model stacks r0, once per chunk
        r_x, r_y, r_z = constants["r_x"], constants["r_y"], constants["r_z"]
        rules.append((r_x * r_x + r_y * r_y + r_z * r_z > 1.0 + 1e-12, lambda i: InvalidInput(
            "Bloch vector norm "
            f"{float(np.linalg.norm(tunable_qubit_r0(constants).reshape(-1, 3)[i]))!r} exceeds 1")))
    raise_first_failure(*rules)
    return cfg


def tunable_qubit_r0(constants: Mapping[str, float]) -> np.ndarray:
    """Initial Bloch vector, pure-state (alpha, beta) or explicit (r_x, r_y, r_z)."""
    if "alpha" in constants:
        a, b = constants["alpha"], constants["beta"]
        return stacked(np.sin(a) * np.cos(b), np.sin(a) * np.sin(b), np.cos(a))
    return stacked(constants["r_x"], constants["r_y"], constants["r_z"]).astype(float)


def _rotation_axis(theta: float, phi: float) -> np.ndarray:
    return stacked(np.cos(phi) * np.sin(theta), np.sin(phi) * np.sin(theta), np.cos(theta))


def _tunable_qubit_bloch_derivs(
    cfg: ModelConfig, l1: float, l2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, d1 r, d2 r) with the derivatives taken analytically, over the
    leading axes that the constants and (l1, l2) broadcast to.

    d Rz(2 l)/d l = 2 [z x] Rz(2 l), so each derivative is a rotated cross
    product z x v = (-v_y, v_x, 0); no finite differences are involved.
    """
    c = cfg.constants
    r0 = tunable_qubit_r0(c)
    gamma, theta, phi = c["gamma"], c["theta"], c["phi"]
    rot_v = rotation_about_axis(_rotation_axis(theta, phi), 2.0 * gamma)
    rz1 = rotation_about_z(2.0 * l1)
    rz2 = rotation_about_z(2.0 * l2)

    def z_cross(v):
        return stacked(-v[..., 1], v[..., 0], 0.0)

    w = _apply(rz1, r0)
    r = _apply(rz2, _apply(rot_v, w))
    d1 = _apply(rz2, _apply(rot_v, 2.0 * z_cross(w)))
    d2 = 2.0 * z_cross(r)
    return r, d1, d2


def _su2_qubit_axes(s, c, ct, st) -> tuple[np.ndarray, np.ndarray]:
    """The SU(2) qubit's generator axes from s, c = sin, cos(B t / 2) and
    ct, st = cos, sin(theta)."""
    return stacked(ct, 0.0, st), stacked(c * st, -s, -c * ct)


def _su2_qutrit_axes(s, c, ct, st, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SU(2) qutrit's generator axes from the factors of `_su2_qubit_axes` and phi."""
    cp, sp = np.cos(phi), np.sin(phi)
    n_theta = stacked(ct * cp, ct * sp, st)
    n1 = stacked(s * sp + c * st * cp, -s * cp + c * st * sp, -c * ct)
    n2 = stacked(c * sp - s * st * cp, -c * cp - s * st * sp, s * ct)
    return n_theta, n1, n2


def _dot_j(vec: np.ndarray, js: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k vec_k J_k for vectors (..., 3)."""
    return _mat(vec[..., 0]) * js[0] + _mat(vec[..., 1]) * js[1] + _mat(vec[..., 2]) * js[2]


def _su2_frame(cfg: ModelConfig, params: np.ndarray) -> tuple:
    """(psi0, spin matrices, generator axes, generator scales) of an SU(2)
    model: its initial-frame generators are H_k = scale_k n_k.J."""
    c = cfg.constants
    alpha, beta, t = c["alpha"], c["beta"], c["t"]
    b, theta = params[..., 0], params[..., 1]
    s, c = np.sin(b * t / 2.0), np.cos(b * t / 2.0)  # each trig factor once
    ct, st = np.cos(theta), np.sin(theta)
    if cfg.model_id == "su2_qutrit":
        psi0 = stacked(np.cos(alpha / 2.0), 0.0, np.sin(alpha / 2.0) * np.exp(1j * beta))
        axes = _su2_qutrit_axes(s, c, ct, st, params[..., 2])
        return psi0, _spin_matrices(3), axes, (-t, 2.0 * s, 2.0 * ct * s)
    psi0 = stacked(np.cos(alpha / 2.0), np.sin(alpha / 2.0) * np.exp(1j * beta))
    return psi0, 0.5 * _PAULI_STACK, _su2_qubit_axes(s, c, ct, st), (-t, 2.0 * s)


def _pure_vectors(psi0, js, axes, scales) -> tuple[np.ndarray, np.ndarray]:
    """psi0 (..., n) and l_k = L_k psi0 = 2i (H_k - <H_k>) psi0 (..., d, n)
    for initial-frame generators H_k = scale_k n_k.J, the SLDs of the pure
    state in its initial frame.  psi0 is returned as given, so a state
    shared by every row (n,) stays one vector, and J_c psi0 and <J_c> are
    formed once.  Every product is a broadcast multiply-add, so a row
    rounds the same way in any batch."""
    jpsi = entry_sum(js * psi0[..., None, None, :])  # J_c psi0, (..., 3, n)
    mean = entry_sum(psi0.conj()[..., None, :] * jpsi).real  # <J_c>
    centered = jpsi - mean[..., None] * psi0[..., None, :]
    n_k = stacked(*axes, axis=-2)  # (..., d, 3)
    return psi0, (2j * stacked(*scales))[..., None] * small_matmul(n_k, centered)


class ModelArrays(NamedTuple):
    """A batch of states as the model knows them, with no density matrix
    where the model knows more (rho and derivs are then None).  A state pure
    by construction is ``pure`` = (psi0 (..., n), l (..., d, n)), its initial
    state and the vectors l_k = L_k psi0 of its SLDs in the initial frame
    (psi0 broadcasts against l's leading axes, and is one vector (n,) where
    the fixed constants alone set it); a
    qubit given by its Bloch vector is ``bloch`` = (r (..., 3), d r (..., d, 3));
    any other state is rho (..., n, n) with its derivatives
    (..., d, n, n).  ``bloch`` is for a unitary encoding alone, r a rotation
    of a fixed vector so that r.d_k r = 0, which `geometry.model_geometry`
    checks and from which `bounds.batch_reports` reads C_H = C_T and
    C_RLD = C_T; a qubit whose |r| varies is given as rho and derivs."""

    rho: np.ndarray | None
    derivs: np.ndarray | None
    pure: tuple[np.ndarray, np.ndarray] | None
    bloch: tuple[np.ndarray, np.ndarray] | None


def model_arrays(cfg: ModelConfig, params: np.ndarray) -> ModelArrays:
    """The states over the leading axes of ``params`` (..., d) and the
    constants: the batch form of `model_point`.  The SU(2) models and the
    tunable qubit given (alpha, beta) are pure, and need no evolution
    operator: Q + iU is the Gram matrix <l_a|l_b>, which the evolution
    leaves unchanged.  The
    tunable qubit's evolution exp(-i l2 Z) exp(-i gamma n.sigma)
    exp(-i l1 Z) has the initial-frame generators H_1 = -Z and
    H_2 = -(M^T z).sigma, M = R_n(2 gamma) Rz(2 l1).  The tunable qubit given
    (r_x, r_y, r_z) hands over its Bloch vector and derivatives alone."""
    c = cfg.constants
    if cfg.model_id != "tunable_qubit":
        return ModelArrays(None, None, _pure_vectors(*_su2_frame(cfg, params)), None)
    l1 = params[..., 0]
    if "alpha" in c:
        a, b = c["alpha"], c["beta"]
        psi0 = stacked(np.cos(a / 2.0), np.sin(a / 2.0) * np.exp(1j * b))
        rot_v = rotation_about_axis(_rotation_axis(c["theta"], c["phi"]), 2.0 * c["gamma"])
        m_z = _apply(rotation_about_z(2.0 * l1).swapaxes(-1, -2), rot_v[..., 2, :])  # M^T z
        axes = (np.array([0.0, 0.0, 1.0]), m_z)
        return ModelArrays(None, None, _pure_vectors(psi0, _PAULI_STACK, axes, (-1.0, -1.0)), None)
    r, d1, d2 = _tunable_qubit_bloch_derivs(cfg, l1, params[..., 1])
    return ModelArrays(None, None, None, (r, stacked(d1, d2, axis=-2)))


