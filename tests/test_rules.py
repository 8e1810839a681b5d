"""Each degeneracy rule flips exactly at its constant, and malformed library
input raises an error that is both a QmbError and a ValueError."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmb.bounds import FLAG_RLD_UNAVAILABLE, ReportOptions, batch_reports, c_rld, full_report
from qmb.errors import InvalidInput, NonHermitianInput, QmbError, SingularQFIM, SingularState
from qmb.geometry import (
    RANK_TOL,
    TANGENT_TOL,
    _geometry,
    compute_geometry,
    geometry_from_matrices,
    model_geometry,
    quantumness_R,
    rld_qfim,
)
from qmb.linalg import DENSITY_EIG_FLOOR, SUPPORT_TOL, WEIGHT_FLOOR, require_weight, spd_sqrt
from qmb.models import (
    PARAM_NAMES,
    ModelPoint,
    _bloch_state,
    generator_geometry,
    model_config,
    model_point,
)
from qmb.sweep import Axis, SweepSpec, _qfim_weight, figure_preset, run_sweep, validate_spec

from conftest import random_traceless_hermitian

# A value 1% to either side of a rule's constant, as a multiple of it.
SIDE = st.sampled_from([0.99, 1.01])


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@settings(max_examples=40)
@given(angle=st.floats(0.0, 2.0 * math.pi), side=SIDE)
def test_weight_floor(angle, side):
    lam = WEIGHT_FLOOR * side
    rot = _rotation(angle)
    w_mat = rot @ np.diag([lam, 1.0]) @ rot.T
    if lam <= WEIGHT_FLOOR:
        with pytest.raises(ValueError, match="positive definite"):
            spd_sqrt(w_mat)
    else:
        root = spd_sqrt(w_mat)
        assert np.allclose(root @ root, w_mat, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("v", [-12.0 - 1e-3, -12.0 + 1e-3])
def test_log_axis_weight_floor(v):
    spec = replace(figure_preset("fig1"), axes=(), fixed={"omega_log10": v})
    if 10.0 ** v > WEIGHT_FLOOR:
        assert validate_spec(spec).weight.kind == "diag_log_axis"
    else:
        with pytest.raises(QmbError, match="omega must be finite and above 1e-12"):
            validate_spec(spec)


@settings(max_examples=40)
@given(angle=st.floats(0.25 * math.pi, 0.5 * math.pi), side=SIDE)
def test_qfim_weight_floor(angle, side):
    # Q = R diag(lam, 1) R^T has Q_11 = lam c^2 + s^2, so the ratio
    # k = lam / Q_11 asks for lam = k s^2 / (1 - k c^2)
    k = WEIGHT_FLOOR * side
    c, s = math.cos(angle), math.sin(angle)
    lam = k * s * s / (1.0 - k * c * c)
    rot = _rotation(angle)
    q = rot @ np.diag([lam, 1.0]) @ rot.T
    q = 0.5 * (q + q.T)
    g = _geometry(q[None], np.zeros((1, 2, 2)), ())
    _, void = _qfim_weight(g)
    assert void.tolist() == [k <= WEIGHT_FLOOR]


@settings(max_examples=20)
@given(seed=st.integers(0, 2**16), side=SIDE)
def test_support_tol(seed, side):
    rng = np.random.default_rng(seed)
    low = SUPPORT_TOL * side
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    unitary = np.linalg.qr(a)[0]
    p = rng.uniform(0.2, 0.8)
    spectrum = np.array([p * (1.0 - low), (1.0 - p) * (1.0 - low), low])
    rho = (unitary * spectrum) @ unitary.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    derivs = np.array([random_traceless_hermitian(rng, 3) for _ in range(2)])
    report = full_report(ModelPoint((0.0, 0.0), rho, tuple(derivs)), np.eye(2),
                         ReportOptions(compute_holevo=False))
    deficient = low <= SUPPORT_TOL
    assert (FLAG_RLD_UNAVAILABLE in report.flags) == deficient
    if deficient:
        with pytest.raises(SingularState):
            rld_qfim(rho, derivs)
    else:
        assert np.all(np.isfinite(rld_qfim(rho, derivs)))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**16), side=SIDE)
def test_bloch_eig_floor(seed, side):
    # a qubit given as (r, d r) has the lower eigenvalue (1 - |r|) / 2, so
    # the floor of rho's spectrum falls at |r| = 1 - 2 DENSITY_EIG_FLOOR
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    radius = 1.0 - 2.0 * DENSITY_EIG_FLOOR * side
    r = radius * v / np.linalg.norm(v)
    bloch = r[None], np.cross(r, rng.normal(size=(1, 2, 3)))  # tangent, r.d r = 0
    if side > 1.0:
        with pytest.raises(NonHermitianInput, match="negative eigenvalue"):
            model_geometry(None, None, None, bloch)
    else:
        assert model_geometry(None, None, None, bloch).rho_spectrum[0, 1] == 0.0


@settings(max_examples=20)
@given(seed=st.integers(0, 2**16), side=SIDE)
def test_bloch_tangent_tol(seed, side):
    # the Bloch route takes a unitary encoding: d_k r has a part along r of
    # at most TANGENT_TOL |r| |d_k r|.  The second row's second derivative
    # gets a radial part eps r / |r| with eps = side TANGENT_TOL |t| (t its
    # tangent part), so |r.d r| = side TANGENT_TOL |r| |d r|; rounding, about
    # 1e-16 |r| |d r|, stays well inside the 1% margin.  The bound is
    # absolute, so it holds the same way on the third row, whose 1 - |r| is
    # twice SUPPORT_TOL, where the dropped SLD terms are largest
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(3, 3))
    radius = np.append(rng.uniform(0.1, 1.0, size=2), 1.0 - 2.0 * SUPPORT_TOL)
    r *= (radius / np.linalg.norm(r, axis=-1))[:, None]
    dr = np.cross(r[:, None, :], rng.normal(size=(3, 2, 3)))
    for row in (1, 2):
        dr[row, 1] += side * TANGENT_TOL * np.linalg.norm(dr[row, 1]) * r[row] / radius[row]
    for rows in ([0, 1], [0, 2]):
        if side > 1.0:
            with pytest.raises(InvalidInput, match="d r is not tangent to r"):
                model_geometry(None, None, None, (r[rows], dr[rows]))
        else:
            assert model_geometry(None, None, None, (r[rows], dr[rows])).r is not None


@settings(max_examples=20)
@given(side=SIDE, u=st.floats(0.1, 2.0))
def test_cond_limit(side, u):
    # cond(Q) = c: past 1 / RANK_TOL, Q is singular
    c = side / RANK_TOL
    g = geometry_from_matrices(np.diag([1.0, 1.0 / c]), [[0.0, u], [-u, 0.0]])
    if side > 1.0:
        with pytest.raises(SingularQFIM, match="condition number"):
            quantumness_R(g)
    else:
        assert math.isfinite(quantumness_R(g))


@settings(max_examples=40)
@given(angle=st.floats(0.0, 2.0 * math.pi), scale=st.sampled_from([1e-3, 1.0, 1e3]), side=SIDE)
def test_rld_cond_limit(angle, scale, side):
    # J = u diag(scale, scale * side * RANK_TOL) u^dag with a complex unitary u
    c, s = math.cos(angle), math.sin(angle) * np.exp(0.7j)
    u = np.array([[c, -s.conjugate()], [s, c]])
    j = u @ np.diag([scale, scale * side * RANK_TOL]) @ u.conj().T
    if side < 1.0:
        with pytest.raises(SingularState, match="RLD QFIM is singular"):
            c_rld(j, np.eye(2))
    else:
        assert math.isfinite(c_rld(j, np.eye(2)))


def _rows_at_cond(route, conds, seed, scale):
    """One row per cond(Q) in ``conds`` on the given route, Q's largest
    eigenvalue ``scale`` and its smallest scale / cond, in a random frame:
    a pure qutrit given as vectors, psi = V e_1 and l the rotation O of
    (V e_2, sqrt(0.6) i V e_2, V e_3 / sqrt(cond)), V unitary, whose d = 3
    leaves one normal direction; or a unitarily encoded mixed qubit,
    r = O (0, 0, 0.5) and d r the rotation of (O e_x, O e_y / sqrt(cond)),
    given by its Bloch vector or as rho and its derivatives.  Returns
    (rho, derivs, geometry)."""
    rng = np.random.default_rng(seed)
    small = 1.0 / np.sqrt(np.asarray(conds, dtype=float))[:, None]
    turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if route == "vector":
        v = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0].T
        ells = np.stack(np.broadcast_arrays(v[1], math.sqrt(0.6) * 1j * v[1], small * v[2]), -2)
        psi = np.broadcast_to(v[0], (len(small), 3))
        return None, None, model_geometry(None, None, (psi, math.sqrt(scale) * turn @ ells), None)
    r = np.broadcast_to(0.5 * turn[:, 2], (len(small), 3))
    dr = np.stack(np.broadcast_arrays(turn[:, 0], small * turn[:, 1]), -2)
    dr = math.sqrt(scale) * _rotation(rng.uniform(0.0, 2.0 * math.pi)) @ dr
    if route == "bloch":
        return None, None, model_geometry(None, None, None, (r, dr))
    rho, derivs = _bloch_state(r, dr)
    return rho, derivs, compute_geometry(rho, derivs)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
@pytest.mark.parametrize("route", ["vector", "bloch", "matrix"])
def test_one_line_between_regular_and_singular(route, seed, scale):
    # a row at cond(Q) = 0.5 / RANK_TOL is regular with full tangent rank
    # and valued; one at 2 / RANK_TOL is ill, a flagged null row.  Rounding
    # moves the small eigenvalue by about 1e-16 scale, 2e-7 of it
    rho, derivs, g = _rows_at_cond(route, [0.5 / RANK_TOL, 2.0 / RANK_TOL], seed, scale)
    d = g.n_params
    eye = np.broadcast_to(np.eye(d), (2, d, d))
    cols = batch_reports(rho, derivs, g, eye, eye, ReportOptions(compute_rld=False))
    assert g.tangent_dim.tolist() == [d, d - 1]
    assert cols["flags"]["SingularQFIM"].tolist() == [False, True]
    assert cols["null"].tolist() == [False, True]
    assert np.isfinite(cols["c_h"][0]) and np.isnan(cols["c_h"][1])


def test_near_singular_sweep_completes():
    # a pure tunable qubit across gamma = 0, where the two encodings
    # commute and Q turns singular: every row is valued or a flagged null
    # row, and no rounding of R near the line aborts the sweep.  A pure
    # qubit has R = 1 exactly, read from its structure, so no row carries
    # RAboveOne
    spec = SweepSpec("tunable_qubit", fixed={"alpha": 1.0, "beta": 0.3, "theta": 1.1, "phi": 0.4,
                                             "lambda2": 0.2},
                     axes=(Axis("gamma", -1e-3, 1e-3, 41), Axis("lambda1", 0.3, 0.9, 7)),
                     outputs=("c_sld", "R"))
    rows = run_sweep(spec)
    assert len(rows) == 287
    for row in rows:
        values = list(row.outputs.values())
        assert "RAboveOne" not in row.flags
        if "SingularQFIM" in row.flags:
            assert values == [None, None]
        else:
            assert all(math.isfinite(v) for v in values)
            assert row.outputs["R"] == 1.0


@pytest.mark.parametrize("scale", [1e-13, 1e-6, 1e6])
def test_rld_cut_is_relative(scale):
    # a well-conditioned J is regular at any scale: C_RLD = 2 / scale at J = scale I
    assert c_rld(scale * np.eye(2), np.eye(2)) == pytest.approx(2.0 / scale, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spd_sqrt(np.diag([1.0, -1.0])),
        lambda: require_weight(np.ones((2, 3))),
        lambda: compute_geometry(np.eye(2) / 2, np.zeros((0, 2, 2))),
        lambda: model_config("su2_qubit", alpha=0.1, beta=0.0),
        lambda: generator_geometry(np.array([1.0, 0.0]), []),
        lambda: model_point(model_config("su2_qubit", alpha=0.1, beta=0.0, t=1.0), (0.5,)),
    ],
    ids=["weight_not_definite", "weight_not_square", "no_derivatives", "missing_constant",
         "no_generators", "wrong_parameter_count"],
)
def test_input_errors_are_qmb_errors(call):
    with pytest.raises(QmbError) as info:
        call()
    assert isinstance(info.value, ValueError)


_CONSTANTS = {
    "tunable_qubit": {"r_x": 0.1, "r_y": 0.2, "r_z": 0.3, "gamma": 0.4, "theta": 0.5, "phi": 0.6},
    "su2_qubit": {"alpha": 0.7, "beta": 0.1, "t": 2.0},
    "su2_qutrit": {"alpha": 0.7, "beta": 0.1, "t": 2.0},
}


@pytest.mark.parametrize("model_id", sorted(_CONSTANTS))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_parameter_count(model_id, offset):
    # a model point takes exactly as many parameters as the model names
    cfg = model_config(model_id, **_CONSTANTS[model_id])
    params = np.linspace(0.1, 0.9, len(PARAM_NAMES[model_id]) + offset)
    if offset:
        with pytest.raises(InvalidInput, match=f"{model_id} takes the parameters"):
            model_point(cfg, params)
    else:
        assert model_point(cfg, params).params == tuple(params)
