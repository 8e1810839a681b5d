"""Per-layer spans and counts, taken from outside the library.

A module imports its callees by name, so each wrapper replaces the name the
calling module holds (``qmb.sweep.full_report``, ``qmb.bounds.nelder_mead``,
...).  A name a module no longer holds is skipped, and its metrics read 0.
Spans and counts stay in memory; ``totals()`` hands them to the parent
process, and ``layer_metrics`` turns the totals of several passes into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (module holding the name, name, span bucket)
SPANS = (
    ("sweep", "model_point", "models.model_point"),
    ("sweep", "tunable_qubit_pure_geometry_grid", "models.pure_grid"),
    ("sweep", "compute_geometry", "geometry.compute_geometry"),
    ("bounds", "compute_geometry", "geometry.compute_geometry"),
    ("bounds", "tangent_normal_decomposition", "geometry.normal_space"),
    ("bounds", "c_sld", "bounds.scalar"),
    ("bounds", "quantumness_R", "bounds.scalar"),
    ("bounds", "t_measure", "bounds.scalar"),
    ("bounds", "c_t_bound", "bounds.scalar"),
    ("sweep", "quantumness_R", "bounds.scalar"),
    ("sweep", "t_measure", "bounds.scalar"),
    ("sweep", "full_report", "bounds.full_report"),
    ("bounds", "holevo_tangent_min", "bounds.holevo"),
    ("bounds", "nelder_mead", "neldermead.holevo"),
    ("sweep", "nelder_mead", "neldermead.refine"),
    ("sweep", "closed_form_quantumness", "sweep.r_crosscheck"),
)
# (module holding the name, name, call counter)
COUNTS = (
    ("bounds", "spd_sqrt", "linalg.spd_sqrt"),
    ("geometry", "spd_sqrt", "linalg.spd_sqrt"),
    ("bounds", "require_weight", "linalg.require_weight"),
    ("geometry", "require_weight", "linalg.require_weight"),
    ("sweep", "require_weight", "linalg.require_weight"),
)
NUMPY_LINALG = {
    "eig": "linalg.eig", "eigh": "linalg.eig", "eigvals": "linalg.eig",
    "eigvalsh": "linalg.eig", "svd": "linalg.svd", "det": "linalg.det",
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [bucket, seconds covered by child spans]
        self.time_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.point_s: list[float] = []
        self.last_row = 0.0
        self.paused = False

    # -- wrappers ---------------------------------------------------------
    def span(self, bucket, fn, after=None):
        """Wrap ``fn`` in a span.  ``after(args, kwargs, result)`` runs
        untimed and uncounted; its time is kept out of the parent's self time."""

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [bucket, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self.stack.pop()
                self.calls[bucket] += 1
                self.self_s[bucket] += dur - frame[1]
                if all(f[0] != bucket for f in self.stack):
                    self.time_s[bucket] += dur
                if self.stack:
                    self.stack[-1][1] += dur
            if after is not None:
                start = perf_counter()
                self.paused = True
                try:
                    after(args, kwargs, result)
                finally:
                    self.paused = False
                    if self.stack:
                        self.stack[-1][1] += perf_counter() - start
            return result

        return wrapper

    def counter(self, key, fn):
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def row_factory(self, row_cls):
        """Stand-in for ``ResultRow``: a row is built when its point ends."""

        def make_row(*args, **kwargs):
            now = perf_counter()
            self.point_s.append(now - self.last_row)
            self.last_row = now
            return row_cls(*args, **kwargs)

        return make_row

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import numpy as np

        mods = {name: importlib.import_module(f"qmb.{name}") for name in ("bounds", "geometry", "sweep")}
        after = {
            "models.pure_grid": self._after_pure_grid,
            "geometry.normal_space": self._after_normal_space,
            "bounds.holevo": self._after_holevo,
            "neldermead.holevo": self._after_nelder_mead("neldermead.holevo"),
            "neldermead.refine": self._after_nelder_mead("neldermead.refine"),
        }
        for mod, name, bucket in SPANS:
            fn = getattr(mods[mod], name, None)
            if fn is not None:
                if bucket == "bounds.holevo":
                    self._holevo_sig = inspect.signature(fn)
                setattr(mods[mod], name, self.span(bucket, fn, after.get(bucket)))
        for mod, name, key in COUNTS:
            fn = getattr(mods[mod], name, None)
            if fn is not None:
                setattr(mods[mod], name, self.counter(key, fn))
        for name, key in NUMPY_LINALG.items():
            setattr(np.linalg, name, self.counter(key, getattr(np.linalg, name)))
        row_cls = getattr(mods["sweep"], "ResultRow", None)
        if row_cls is not None:
            mods["sweep"].ResultRow = self.row_factory(row_cls)

    def _after_pure_grid(self, args, kwargs, result) -> None:
        self.counts["models.pure_grid.elements"] += int(result[0].size)

    def _after_normal_space(self, args, kwargs, result) -> None:
        self.counts["geometry.normal_space.dims"] += result.size

    def _after_nelder_mead(self, bucket):
        def after(args, kwargs, result) -> None:
            self.counts[bucket + ".evals"] += int(result[2])

        return after

    def _after_holevo(self, args, kwargs, result) -> None:
        import numpy as np
        from qmb.bounds import HolevoOptions, tangent_objective

        bound = self._holevo_sig.bind(*args, **kwargs).arguments
        g, basis, w_mat = bound["g"], bound["basis"], bound["w_mat"]
        tol = (bound.get("opts") or HolevoOptions()).tol
        at_zero = tangent_objective(g, basis, w_mat)(np.zeros(basis.size * g.n_params))
        self.counts["bounds.holevo.evals"] += int(result.iterations)
        self.counts["bounds.holevo.useful"] += at_zero - result.value > tol * max(abs(result.value), 1e-30)
        self.counts["bounds.holevo.not_converged"] += not result.converged

    # -- the sweep pass ---------------------------------------------------
    def start_pass(self) -> None:
        self.last_row = perf_counter()

    def totals(self) -> dict:
        return {
            "time_s": dict(self.time_s),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "point_s": self.point_s,
        }


def merge_totals(passes: list[dict]) -> dict:
    """Sum the totals of several traced passes."""
    merged: dict = {"time_s": Counter(), "self_s": Counter(), "calls": Counter(), "counts": Counter(), "point_s": []}
    for p in passes:
        for key in ("time_s", "self_s", "calls", "counts"):
            merged[key].update(p[key])
        merged["point_s"].extend(p["point_s"])
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scaled_ms_per_point(p: dict) -> float:
    return 1e3 * p["wall_s"] * p["speed"] / p["points"]


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the worker results of traced passes; the
    untraced passes of the same run give the tracing overhead."""
    t = merge_totals([p["trace"] for p in traced])
    points = sum(p["points"] for p in traced)
    time_s, self_s, calls, counts = t["time_s"], t["self_s"], t["calls"], t["counts"]
    sweep_s = time_s.get("sweep", 0.0)

    def ms_per_point(seconds: float) -> tuple[float, str]:
        return (1e3 * seconds / points, "ms")

    def per_point(n: float) -> tuple[float, str]:
        return (n / points, "count")

    quartiles = statistics.quantiles(t["point_s"], n=100) if len(t["point_s"]) > 1 else [0.0] * 99
    return {
        "models.model_point.ms_per_point": ms_per_point(time_s.get("models.model_point", 0.0)),
        "models.pure_grid.calls_per_point": per_point(calls.get("models.pure_grid", 0)),
        "models.pure_grid.elements_per_call": (
            _ratio(counts.get("models.pure_grid.elements", 0), calls.get("models.pure_grid", 0)), "count"),
        "models.pure_grid.ms_per_point": ms_per_point(time_s.get("models.pure_grid", 0.0)),
        "geometry.compute_geometry.ms_per_point": ms_per_point(time_s.get("geometry.compute_geometry", 0.0)),
        "geometry.normal_space.ms_per_point": ms_per_point(time_s.get("geometry.normal_space", 0.0)),
        "geometry.normal_space.dim_mean": (
            _ratio(counts.get("geometry.normal_space.dims", 0), calls.get("geometry.normal_space", 0)), "count"),
        "bounds.scalar.ms_per_point": ms_per_point(time_s.get("bounds.scalar", 0.0)),
        "bounds.full_report.self_ms_per_point": ms_per_point(self_s.get("bounds.full_report", 0.0)),
        "bounds.holevo.ms_per_point": ms_per_point(time_s.get("bounds.holevo", 0.0)),
        "bounds.holevo.time_share": (_ratio(time_s.get("bounds.holevo", 0.0), sweep_s), "share"),
        "bounds.holevo.evals_per_point": per_point(counts.get("bounds.holevo.evals", 0)),
        "bounds.holevo.useful_share": (counts.get("bounds.holevo.useful", 0) / points, "share"),
        "bounds.holevo.not_converged": (counts.get("bounds.holevo.not_converged", 0) / points, "share"),
        "neldermead.holevo.calls_per_point": per_point(calls.get("neldermead.holevo", 0)),
        "neldermead.holevo.evals_per_call": (
            _ratio(counts.get("neldermead.holevo.evals", 0), calls.get("neldermead.holevo", 0)), "count"),
        "neldermead.refine.calls_per_point": per_point(calls.get("neldermead.refine", 0)),
        "neldermead.refine.evals_per_call": (
            _ratio(counts.get("neldermead.refine.evals", 0), calls.get("neldermead.refine", 0)), "count"),
        "linalg.eig_calls_per_point": per_point(calls.get("linalg.eig", 0)),
        "linalg.svd_calls_per_point": per_point(calls.get("linalg.svd", 0)),
        "linalg.det_calls_per_point": per_point(calls.get("linalg.det", 0)),
        "linalg.spd_sqrt.calls_per_point": per_point(calls.get("linalg.spd_sqrt", 0)),
        "linalg.require_weight.calls_per_point": per_point(calls.get("linalg.require_weight", 0)),
        "sweep.self_ms_per_point": ms_per_point(self_s.get("sweep", 0.0)),
        "sweep.r_crosscheck.ms_per_point": ms_per_point(time_s.get("sweep.r_crosscheck", 0.0)),
        "sweep.emit.ms": (1e3 * sum(p["emit_s"] for p in traced) / len(traced), "ms"),
        "sweep.emit.bytes": (sum(p["emit_bytes"] for p in traced) / len(traced), "bytes"),
        "sweep.point_ms_p50": (1e3 * quartiles[49], "ms"),
        "sweep.point_ms_p99": (1e3 * quartiles[98], "ms"),
        "trace.overhead_share": (
            statistics.median(map(_scaled_ms_per_point, traced))
            / statistics.median(map(_scaled_ms_per_point, untraced)) - 1.0, "share"),
    }
