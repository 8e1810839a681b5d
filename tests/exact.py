"""A 40-digit reference for the bounds of one row, on mpmath.

`bloch_row` takes a qubit's Bloch vector and its derivatives (r, d r), and
`vector_row` a pure state psi and its SLD vectors l_k = L_k psi, each with
a weight W, as the float arrays the library receives.  Both give Q, U,
det Q, R, T, C_SLD, C_T, C_R and C_H of those very floats, computed at 40
significant digits and rounded to float once, at the end.  Every float converts to
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
* C_T = C_SLD + T C_SLD and C_R = (1 + R) C_SLD;
* C_H = C_T where a theorem gives K = 0: a unitarily encoded qubit, and a
  pure state whose tangent space fills the pure states' directions,
  d = 2(n - 1).  A pure qutrit with d = 3 has one normal direction: the
  unit z in the real form v -> (Re v, Im v) orthogonal to psi, i psi and
  the l_a, by cofactors, with Gram matrix |z|^2 = 1 and coupling
  S_k = Im<l_k|z>.  With s = sqrt(W) Q^-1 S and c = adj(sqrt W) a, a the
  axial vector of Q^-1 U Q^-1, C_H = C_SLD + tau^2 / |s|^2
  + 2 sqrt(p^2 + (q - tau)^2), p the part of c along s and q the rest, at
  the root tau in [0, q] of tau sqrt(p^2 + (q - tau)^2) = |s|^2 (q - tau),
  found by mpmath; |s|^2 = sigma^T W sigma, |c|^2 = a^T adj(W) a and
  c.s = sqrt(det W) a.sigma, sigma = Q^-1 S, need no sqrt(W).

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
    scalars R, T, C_SLD, C_T, C_R and C_H."""

    q: np.ndarray
    u: np.ndarray
    det: float
    R: float
    T: float
    c_sld: float
    c_t: float
    c_r: float
    c_h: float


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


def _elimination_det(a: list) -> mpmath.mpf:
    """det(A) of any size by Gaussian elimination with partial pivoting."""
    a, det = [list(row) for row in a], mpmath.mpf(1)
    for k in range(len(a)):
        pivot = max(range(k, len(a)), key=lambda i: abs(a[i][k]))
        if a[pivot][k] == 0:
            return mpmath.mpf(0)
        if pivot != k:
            a[k], a[pivot], det = a[pivot], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


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


def _holevo(c_sld, a: list, w: list, sigma: list) -> mpmath.mpf:
    """C_H of one normal direction with Gram matrix 1, sigma = Q^-1 S and
    a the axial vector of Q^-1 U Q^-1, d = 3."""
    def form(m, x, y):
        return sum(x[i] * m[i][j] * y[j] for i in range(3) for j in range(3))

    s2, c2 = form(w, sigma, sigma), form(_adj(w), a, a)
    if s2 == 0:
        return c_sld + 2 * mpmath.sqrt(c2)
    p2 = _det(w) * sum(x * y for x, y in zip(a, sigma)) ** 2 / s2
    q, p = mpmath.sqrt(max(c2 - p2, 0)), mpmath.sqrt(p2)

    def rho(tau):
        return mpmath.sqrt(p2 + (q - tau) ** 2)

    if q == 0 or p == 0:
        tau = min(q, s2)
    else:
        tau = mpmath.findroot(lambda t: t * rho(t) - s2 * (q - t), (0, q), solver="illinois")
    return c_sld + tau * tau / s2 + 2 * rho(tau)


def _bounds(q: list, u: list, w: list, sigma: list | None = None) -> Exact:
    """The exact values of Q and U under W; C_H = C_T unless ``sigma`` gives
    the one normal direction's Q^-1 S."""
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
    c_h = c_sld + norm if sigma is None else _holevo(c_sld, axial, w, sigma)
    return Exact(np.array(q, float), np.array(u, float), float(det), float(r_value),
                 float(t_value), float(c_sld), float(c_sld + norm),
                 float((1 + r_value) * c_sld), float(c_h))


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


def vector_row(psi: np.ndarray, ells: np.ndarray, w_mat: np.ndarray) -> Exact:
    """The exact values of one pure state psi (n,) from its SLD vectors
    l (d, n), with d = 2(n - 1) or n = d = 3."""
    with mpmath.workdps(DIGITS):
        re, im, w = _mp(ells.real), _mp(ells.imag), _mp(w_mat)

        def entry(a, b):  # <l_a|l_b> = sum conj(l_a) l_b
            return (sum(p * q + s * t for p, q, s, t in zip(re[a], re[b], im[a], im[b])),
                    sum(p * t - s * q for p, q, s, t in zip(re[a], re[b], im[a], im[b])))

        q, u = _gram(len(re), entry)
        if len(re) == 2 * (len(psi) - 1):
            return _bounds(q, u, w)
        # n = d = 3: z orthogonal to psi, i psi and the l_a in R^6, entry
        # by entry the signed minor of the other five columns
        x, y = _mp(psi.real), _mp(psi.imag)
        rows = [x + y, [-v for v in y] + x, *(a + b for a, b in zip(re, im))]
        z = [(-1) ** k * _elimination_det([r[:k] + r[k + 1:] for r in rows]) for k in range(6)]
        z = [v / mpmath.sqrt(sum(v * v for v in z)) for v in z]
        # S_k = Im<l_k|z> = sum Re l_k Im z - Im l_k Re z
        coupling = [sum(p * t - s * v for p, s, v, t in zip(a, b, z[:3], z[3:]))
                    for a, b in zip(re, im)]
        det = _det(q)
        sigma = [sum(x * c for x, c in zip(row, coupling)) / det for row in _adj(q)]
        return _bounds(q, u, w, sigma)


OUTPUTS = ("R", "T", "c_sld", "c_t", "c_r", "c_h")


def sweep_errors(spec) -> dict:
    """Each row of a validated spec's sweep against its exact values, read
    from the inputs that `model_geometry` receives and the columns that
    `batch_reports` returns: a dict of ``result`` (the `SweepResult`) and
    arrays, one entry per row, of the ``exact`` and computed (``got``)
    values of `OUTPUTS` (rows, 6), their relative ``error`` in units of
    eps (NaN on null rows), ``cond``, lambda_max / lambda_min of the exact
    Q, ``null``, and ``c_rld`` and C_H's certified ``lower`` (NaN where not
    asked)."""
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
                psi = np.broadcast_to(pure[0], pure[1].shape[:-2] + pure[0].shape[-1:])
                want = vector_row(psi[i], pure[1][i], w_mat[i])
            exact.append([getattr(want, k) for k in OUTPUTS])
            qs.append(want.q)
    w = np.linalg.eigvalsh(np.array(qs))
    cols = {k: np.concatenate([c[k] if c[k] is not None else np.full(len(m), np.nan)
                               for m, c in columns]) for k in ("null", "c_rld", "lower", *OUTPUTS)}
    out = {"exact": np.array(exact), "got": np.stack([cols[k] for k in OUTPUTS], axis=-1),
           "cond": w[:, -1] / w[:, 0], "null": cols["null"], "c_rld": cols["c_rld"],
           "lower": cols["lower"]}
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
