"""The bounds against 40-digit values of the same float inputs
(tests/exact.py): unitarily encoded qubits given by their Bloch vectors up
to the RANK_TOL line and the pure line, and the pure-state presets, C_H
and its certified lower bound included."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmb.bounds import ReportOptions, batch_reports
from qmb.geometry import RANK_TOL, model_geometry
from qmb.linalg import SUPPORT_TOL

from exact import EPS, OUTPUTS, bloch_row, preset_spec, sweep_errors


@given(seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 8.9),
       radius=st.one_of(st.just(1.0), st.floats(-14.0, -0.01).map(lambda e: 1.0 - 10.0**e)),
       parallel=st.booleans(),
       log_weights=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
@example(seed=0, log_cond=8.9, radius=1.0 - 2.0 * SUPPORT_TOL, parallel=True,
         log_weights=[0.0, 0.0])
def test_bloch_rows_match_exact_values(seed, log_cond, radius, parallel, log_weights):
    # a qubit r = |r| e_3 with d r the rows of M (e_1, e_2), in a random
    # frame, cond(Q) up to 10^8.9 < 1 / RANK_TOL and |r| up to 1 (the pure
    # line and 2 SUPPORT_TOL below it included), under a random diagonal
    # weight.  M is diag(1, cond^-1/2), or a pair of unit rows at the angle
    # 2 / sqrt(cond), turned and scaled at random.  Each row is regular
    # and holds R to 4 eps and T, C_SLD, C_T and C_R to
    # 3 eps (1 + sqrt(cond(Q))) of the exact values, relative: the cross
    # product d_1 r x d_2 r, whose square is det Q, loses
    # about eps |d_1 r| |d_2 r| to cancellation, eps sqrt(cond(Q)) of it.
    # R = |r.c| / |c|, c that product, is |r| to rounding, so no row
    # reaches the RAboveOne line 1 + 1e-9; C_RLD is C_T to the bit
    rng = np.random.default_rng(seed)
    cond = 10.0**log_cond
    if parallel:
        t = 2.0 / math.sqrt(cond)
        m = np.array([[1.0, 0.0], [math.cos(t), math.sin(t)]])
    else:
        m = np.diag([1.0, 1.0 / math.sqrt(cond)])
    m = np.linalg.qr(rng.normal(size=(2, 2)))[0] @ m * 10.0 ** rng.uniform(-3.0, 3.0)
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    r, dr = radius * frame[2], m @ frame[:2]
    w_mat = np.diag(10.0 ** np.array(log_weights))
    g = model_geometry(None, None, None, (r[None], dr[None]))
    cols = batch_reports(None, None, g, w_mat[None], np.sqrt(w_mat)[None], ReportOptions())
    want = bloch_row(r, dr, w_mat)
    assert not cols["flags"]["SingularQFIM"][0]
    assert cols["R"][0] <= 1.0 + 1e-9
    got = np.array([cols[k][0] for k in OUTPUTS])
    exact = np.array([getattr(want, k) for k in OUTPUTS])
    w = np.linalg.eigvalsh(want.q)
    budget = np.where(np.array(OUTPUTS) == "R", 4.0, 3.0 * (1.0 + math.sqrt(w[-1] / w[0])))
    assert np.all(np.abs(got - exact) <= budget * EPS * np.abs(exact))
    if radius < 1.0 - 2.0 * SUPPORT_TOL:  # rho has full rank
        assert cols["c_rld"][0] == cols["c_t"][0]


@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_pure_presets_match_exact_values(name):
    # the pure presets, as vectors, at default density: fig4's qubit
    # (cond(Q) up to 342) and fig5's qutrit (up to 4.1) hold R, T, C_SLD,
    # C_T, C_R and C_H to 8 eps of the exact values of their SLD vectors
    # (2.6 eps at worst here); R = 1 is read from the structure
    errors = sweep_errors(preset_spec(name))
    assert not errors["null"].any()
    assert np.all(errors["error"] <= 8.0)
    assert np.all(errors["cond"] < 1.0 / RANK_TOL)


def test_fig5_holevo_brackets_exact_value():
    # fig5's pure qutrit at default density has one normal direction
    # (m = 1).  Its C_H is held to 4 eps (1.7 eps at worst here) of a
    # 40-digit value from the unit normal z in R^6 and an mpmath root for
    # tau, which does not use the structural coupling u sqrt(det Q^-1).
    # The closed-form dual point's lower bound and the value bracket it,
    # lower <= C_H <= value, up to 4 eps of rounding (1.3 eps at worst
    # here).  On 272 of the 289 rows C_H lies below C_T by more than
    # 1e-12 relative, so the normal direction moves the value
    errors = sweep_errors(preset_spec("fig5"))
    i = OUTPUTS.index("c_h")
    exact, got, lower = errors["exact"][:, i], errors["got"][:, i], errors["lower"]
    assert np.all(errors["error"][:, i] <= 4.0)
    assert np.all(lower <= exact * (1.0 + 4.0 * EPS)) and np.all(exact <= got * (1.0 + 4.0 * EPS))
    c_t = errors["exact"][:, OUTPUTS.index("c_t")]
    assert np.sum(c_t - exact > 1e-12 * c_t) == 272
