"""Compact deterministic Nelder-Mead simplex minimizer.

Written for the tiny non-smooth convex problems this package produces
(at most a few tens of variables); dense exact methods elsewhere keep the
objective cheap, so plain simplex descent is the right tool.  The simplex
is one (n + 1, n) array, so the centroid and the vertex spread are single
vectorized reductions; the ordering stays in plain Python.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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
