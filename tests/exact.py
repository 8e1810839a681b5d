"""A 40-digit reference for the bounds of one row, on mpmath.

`bloch_row` takes a qubit's Bloch vector and its derivatives (r, d r), and
`vector_row` a pure state's SLD vectors l_k = L_k psi, each with a weight
W, as the float arrays the library receives.  Both give Q, U, det Q, R, T,
C_SLD, C_T and C_R of those very floats, computed at 40 significant
digits and rounded to float once, at the end.  Every float converts to
mpmath exactly, so the only error left is the 40-digit rounding.

The forms are the definitions, for d = 2 and d = 3:

* Q + iU = <l_a|l_b> for vectors; Q_ab = d_a r.d_b r and
  U_ab = r.(d_a r x d_b r) for a unitarily encoded Bloch vector;
* det Q by cofactors and Q^-1 = adj(Q) / det Q;
* C_SLD = Tr[W Q^-1];
* R, the spectral radius of i M with M = Q^-1 U:
  M has trace 0 and, for d = 3, a zero eigenvalue, so its eigenvalues are
  0 and +-i sigma with sigma^2 = -Tr(M^2) / 2;
* T = ||sqrt(W) A sqrt(W)||_1 / C_SLD, A = Q^-1 U Q^-1.  For d = 2,
  sqrt(W) A sqrt(W) = A_12 sqrt(det W) J, so the trace norm is
  2 |A_12| sqrt(det W).  For d = 3, S [a]x S = [adj(S) a]x for symmetric S
  and the axial vector a of A, so it is 2 sqrt(a^T adj(W) a);
* C_T = C_SLD + T C_SLD and C_R = (1 + R) C_SLD.

Run this file to print, for each preset at default density, the worst
relative error of each output against these values in units of eps:

    PYTHONPATH=src python tests/exact.py
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
import numpy as np

DIGITS = 40
EPS = np.finfo(float).eps


class Exact(NamedTuple):
    """A row's exact values, rounded to float: Q and U (d, d), det Q, and the
    scalars R, T, C_SLD, C_T and C_R."""

    q: np.ndarray
    u: np.ndarray
    det: float
    R: float
    T: float
    c_sld: float
    c_t: float
    c_r: float


def _mp(x: np.ndarray) -> list:
    """A float vector or matrix as (nested) lists of exact mpf values."""
    rows = np.asarray(x, float).tolist()
    if np.ndim(x) == 1:
        return [mpmath.mpf(v) for v in rows]
    return [[mpmath.mpf(v) for v in row] for row in rows]


def _gram(d: int, entry) -> tuple[list, list]:
    """(Q, U) with Q_ab = Q_ba and U_ab = -U_ba = entry(a, b) for a <= b."""
    q, u = [[0] * d for _ in range(d)], [[0] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            q[a][b], u[a][b] = entry(a, b)
            q[b][a], u[b][a] = q[a][b], -u[a][b]
    return q, u


def _det(a: list) -> mpmath.mpf:
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return sum(a[0][k] * (a[1][(k + 1) % 3] * a[2][(k + 2) % 3]
                          - a[1][(k + 2) % 3] * a[2][(k + 1) % 3]) for k in range(3))


def _adj(a: list) -> list:
    """adj(A), so adj(A) A = det(A) I."""
    d = len(a)
    if d == 2:
        return [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]
    # the cofactor of entry (j, i), by cyclic minors
    return [[a[(j + 1) % 3][(i + 1) % 3] * a[(j + 2) % 3][(i + 2) % 3]
             - a[(j + 1) % 3][(i + 2) % 3] * a[(j + 2) % 3][(i + 1) % 3] for j in range(3)]
            for i in range(3)]


def _matmul(a: list, b: list) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _bounds(q: list, u: list, w: list) -> Exact:
    d = len(q)
    det = _det(q)
    qinv = [[x / det for x in row] for row in _adj(q)]
    c_sld = sum(w[i][j] * qinv[i][j] for i in range(d) for j in range(d))
    m = _matmul(qinv, u)
    sigma2 = -sum(m[i][k] * m[k][i] for i in range(d) for k in range(d)) / 2
    r_value = mpmath.sqrt(max(sigma2, 0))
    a = _matmul(m, qinv)
    if d == 2:
        norm = 2 * abs(a[0][1]) * mpmath.sqrt(_det(w))
    else:
        axial = [a[1][2], -a[0][2], a[0][1]]
        adj_w = _adj(w)
        norm = 2 * mpmath.sqrt(sum(axial[i] * adj_w[i][j] * axial[j]
                                   for i in range(3) for j in range(3)))
    t_value = norm / c_sld
    return Exact(np.array(q, float), np.array(u, float), float(det), float(r_value),
                 float(t_value), float(c_sld), float(c_sld + norm),
                 float((1 + r_value) * c_sld))


def bloch_row(r: np.ndarray, dr: np.ndarray, w_mat: np.ndarray) -> Exact:
    """The exact values of one unitarily encoded qubit, r (3,), d r (d, 3)."""
    with mpmath.workdps(DIGITS):
        r, dr, w = _mp(r), _mp(dr), _mp(w_mat)

        def entry(a, b):
            x, y = dr[a], dr[b]
            cross = [x[(k + 1) % 3] * y[(k + 2) % 3] - x[(k + 2) % 3] * y[(k + 1) % 3]
                     for k in range(3)]
            return sum(p * q for p, q in zip(x, y)), sum(p * c for p, c in zip(r, cross))

        return _bounds(*_gram(len(dr), entry), w)


def vector_row(ells: np.ndarray, w_mat: np.ndarray) -> Exact:
    """The exact values of one pure state from its SLD vectors l (d, n)."""
    with mpmath.workdps(DIGITS):
        re, im, w = _mp(ells.real), _mp(ells.imag), _mp(w_mat)

        def entry(a, b):  # <l_a|l_b> = sum conj(l_a) l_b
            return (sum(p * q + s * t for p, q, s, t in zip(re[a], re[b], im[a], im[b])),
                    sum(p * t - s * q for p, q, s, t in zip(re[a], re[b], im[a], im[b])))

        return _bounds(*_gram(len(re), entry), w)


OUTPUTS = ("R", "T", "c_sld", "c_t", "c_r")


def sweep_errors(spec) -> dict:
    """Each row of a validated spec's sweep against its exact values, read
    from the inputs that `model_geometry` receives and the columns that
    `batch_reports` returns: a dict of ``result`` (the `SweepResult`) and
    arrays, one entry per row, of the ``exact`` and computed (``got``)
    values of `OUTPUTS` (rows, 5), their relative ``error`` in units of
    eps (NaN on null rows), ``cond``, lambda_max / lambda_min of the exact
    Q, ``null`` and ``c_rld`` (NaN where not asked)."""
    from qmb import sweep

    inputs, columns = [], []
    geometry, reports = sweep.model_geometry, sweep.batch_reports

    def recorded_geometry(*arrays):
        inputs.append(arrays)
        return geometry(*arrays)

    def recorded_reports(*args):
        columns.append((args[3], reports(*args)))
        return columns[-1][1]

    sweep.model_geometry, sweep.batch_reports = recorded_geometry, recorded_reports
    try:
        result = sweep.run_sweep(spec)
    finally:
        sweep.model_geometry, sweep.batch_reports = geometry, reports
    exact, qs = [], []
    for (_, _, pure, bloch), (w_mat, _) in zip(inputs, columns, strict=True):
        for i in range(len(w_mat)):
            if bloch is not None:
                r, dr = (np.broadcast_to(x, (len(w_mat),) + x.shape[-k:])[i]
                         for x, k in zip(bloch, (1, 2)))
                want = bloch_row(r, dr, w_mat[i])
            else:
                want = vector_row(pure[1][i], w_mat[i])
            exact.append([getattr(want, k) for k in OUTPUTS])
            qs.append(want.q)
    w = np.linalg.eigvalsh(np.array(qs))
    cols = {k: np.concatenate([c[k] if c[k] is not None else np.full(len(m), np.nan)
                               for m, c in columns]) for k in ("null", "c_rld", *OUTPUTS)}
    out = {"exact": np.array(exact), "got": np.stack([cols[k] for k in OUTPUTS], axis=-1),
           "cond": w[:, -1] / w[:, 0], "null": cols["null"], "c_rld": cols["c_rld"]}
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.abs(out["got"] - out["exact"]) / np.abs(out["exact"]) / EPS
    out["error"] = np.where(out["null"][:, None], np.nan, error)
    out["result"] = result
    return out


PRESETS = {"fig2": {"r_y": 0.2, "r_z": 0.4}, "fig3a": {}, "fig3b": {}, "fig4": {}, "fig5": {}}


def preset_spec(name: str, count: int | None = None):
    """A preset at its default density (or ``count``) asking for every output."""
    from dataclasses import replace

    from qmb import sweep

    config = {**PRESETS[name], **({} if count is None else {"count": count})}
    spec = sweep.validate_spec(sweep.figure_preset(name, config))
    return replace(spec, outputs=sweep.CANONICAL_OUTPUTS)


if __name__ == "__main__":
    for preset in PRESETS:
        errors = sweep_errors(preset_spec(preset))
        worst = np.nanmax(errors["error"], axis=0)
        print(f"{preset}: {len(errors['cond'])} rows, cond(Q) up to {errors['cond'].max():.3g}; "
              "worst error / eps: " + ", ".join(f"{k} {v:.3g}" for k, v in zip(OUTPUTS, worst)))
