"""Grid sweeps over model parameters and weights, figure presets, CSV/JSON output."""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple, TextIO

import numpy as np

from .bounds import _VOID, FLAG_RLD_UNAVAILABLE, FLAG_SINGULAR_QFIM, ReportOptions, batch_reports
from .errors import InvalidInput, InvalidSpec, UnknownPreset
from .geometry import _weight_and_root, model_geometry
from .linalg import WEIGHT_FLOOR, broadcast, rows_failing, stacked
from .models import MODEL_IDS, PARAM_NAMES, ModelConfig, model_arrays
from .models import _CONSTANT_NAMES, _check_names, _checked_config

CANONICAL_OUTPUTS = ("c_sld", "c_rld", "c_t", "c_r", "c_h", "R", "T", "gap_h", "gap_t", "gap_r")
MAX_SWEEP_POINTS = 10**7
# Grid points per stacked batch: enough to spread NumPy's per-call overhead
# thin, few enough that a stage's arrays stay well under a megabyte.
_CHUNK = 1024

FLAG_R_ABOVE_ONE = "RAboveOne"
FLAG_NOT_SATURATED = "NotSaturated"
# A maximized row is certified where the pipeline's T reaches R = 1 of a
# pure qubit to within this margin, the one a saturation residual
# |g| <= 1e-7 gives (|g|^2 / 2 = -log T).
_SATURATION_TOL = 5e-15

# Angles of the pure tunable-qubit probe and rotation.
_ANGLES = ("alpha", "beta", "gamma", "theta", "phi")
# The tunable qubit's names that `_bind_values` resolves into model names.
_DERIVED_NAMES = {"xi", "r_xy", "r2"}
# Names that describe the probe other than through (alpha, beta), or set
# lambda1 through phi; the maximized probe is pure and lambda1 is direct.
_NON_ANGLE_PROBE_NAMES = {"r_x", "r_y", "r_z", *_DERIVED_NAMES}
# (name, other): `_bind_values` would let the first replace the second's value.
_OVERRIDES = (("xi", "lambda1"), ("r2", "r_xy"), ("r_xy", "r_x"), ("r_xy", "r_y"),
              ("r2", "r_x"), ("r2", "r_y"))


class Axis(NamedTuple):
    """One linearly spaced sweep axis over a parameter or constant."""

    name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        """np.linspace(start, stop, count) by its own steps, with none of its Python-level calls."""
        div, span = self.count - 1, float(self.stop) - float(self.start)
        step, offsets = span / div, np.arange(self.count, dtype=float)
        if step == 0.0:  # the step underflows (numpy's gh-5437): divide, then scale by the span
            offsets /= div
            step = span
        offsets *= step
        offsets += self.start
        offsets[-1] = self.stop
        return offsets


class WeightSpec(NamedTuple):
    """How to build the weight matrix at each point.

    kinds: identity | diag (values) | full (row-major values) |
    qfim (W = Q / Q_11 at the point) | diag_log_axis (W = diag(1, 10**v)
    where v is the named axis value).
    """

    kind: str = "identity"
    values: tuple[float, ...] = ()
    axis: str | None = None


class _Fixed(Mapping):
    """The read-only ``fixed`` of a validated spec; unlike a
    MappingProxyType, it pickles and deep-copies."""

    def __init__(self, values: Mapping[str, float]) -> None:
        self._values = dict(values)

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return repr(self._values)


@dataclass(frozen=True)
class SweepSpec:
    model_id: str
    fixed: Mapping[str, float] = field(default_factory=dict)
    axes: tuple[Axis, ...] = ()
    weight: WeightSpec = field(default_factory=WeightSpec)
    outputs: tuple[str, ...] = CANONICAL_OUTPUTS
    pseudo_inverse: bool = False
    maximize_over: tuple[str, ...] = ()
    # (report options, (W, sqrt W) of a fixed weight kind or None), set by
    # validate_spec alone; dataclasses.replace does not copy it.
    _shared: tuple | None = field(default=None, init=False, repr=False, compare=False)


class ResultRow(NamedTuple):
    axis_values: tuple[float, ...]
    outputs: Mapping[str, float | None]
    flags: tuple[str, ...]


class _Chunk(NamedTuple):
    """Consecutive rows as columns: each row's axis values then outputs as
    one float array (rows, columns) with its void mask (None where no cell
    is void), and each row's flag code, a key of ``flags``, which holds each
    distinct flag tuple once."""

    values: np.ndarray
    void: np.ndarray | None
    codes: np.ndarray
    flags: dict[int, tuple[str, ...]]

    def cells(self, rows: slice = slice(None)) -> list[list]:
        """Each row's cells as Python floats, None where void."""
        values = self.values if self.void is None else np.where(self.void, None, self.values)
        return values[rows].tolist()


def _chunk_of(rows: Iterable[ResultRow], n_axes: int, outputs: tuple[str, ...]) -> _Chunk:
    """Rows as one chunk; a missing output is void."""
    rows, index = list(rows), {}
    cells = np.array([[*r.axis_values, *map(r.outputs.get, outputs)] for r in rows], object)
    cells = cells.reshape(len(rows), n_axes + len(outputs))
    void = np.equal(cells, None)
    codes = [index.setdefault(r.flags, len(index)) for r in rows]
    return _Chunk(np.where(void, 0.0, cells).astype(float), void if void.any() else None,
                  np.array(codes, int), {code: flags for flags, code in index.items()})


class SweepResult(Sequence):
    """A sweep's rows, held as the column chunks the pipeline computed: a
    read-only sequence of ResultRow, each row built when it is read."""

    def __init__(self, n_axes: int, outputs: tuple[str, ...], chunks: list[_Chunk]) -> None:
        self.n_axes, self.outputs, self.chunks = n_axes, outputs, chunks
        self._ends = list(itertools.accumulate(len(c.codes) for c in chunks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i: int) -> ResultRow:
        i = range(len(self))[i]  # a negative index counts from the end
        k = bisect.bisect_right(self._ends, i)
        i -= self._ends[k - 1] if k else 0
        return next(self._rows(self.chunks[k], slice(i, i + 1)))

    def __iter__(self) -> Iterator[ResultRow]:
        return itertools.chain.from_iterable(map(self._rows, self.chunks))

    def _rows(self, chunk: _Chunk, rows: slice = slice(None)) -> Iterator[ResultRow]:
        n = self.n_axes
        for cells, code in zip(chunk.cells(rows), chunk.codes[rows].tolist()):
            yield ResultRow(tuple(cells[:n]), dict(zip(self.outputs, cells[n:])), chunk.flags[code])


def canonical_outputs(requested: Sequence[str]) -> tuple[str, ...]:
    """Expand 'gaps' and order the requested outputs canonically."""
    wanted: set[str] = set()
    for name in requested:
        if name == "gaps":
            wanted |= {"gap_h", "gap_t", "gap_r"}
        elif name in CANONICAL_OUTPUTS:
            wanted.add(name)
        else:
            raise InvalidSpec(f"unknown output {name!r}")
    if not wanted:
        raise InvalidSpec("output set is empty")
    return tuple(name for name in CANONICAL_OUTPUTS if name in wanted)


def validate_spec(spec: SweepSpec) -> SweepSpec:
    """The spec, ``fixed`` a read-only mapping of floats, once every rule that
    reads the spec alone holds; `_bind_values` checks what a row binds."""
    if spec.model_id not in MODEL_IDS:
        raise InvalidSpec(f"unknown model {spec.model_id!r}")
    axis_names = [ax.name for ax in spec.axes]
    if len(set(axis_names)) != len(axis_names):
        raise InvalidSpec("duplicate axis names")
    overlap = set(axis_names) & set(spec.fixed)
    if overlap:
        raise InvalidSpec(f"axis names also fixed: {sorted(overlap)}")
    total = 1
    for ax in spec.axes:
        if not isinstance(ax.count, numbers.Integral):
            raise InvalidSpec(f"axis {ax.name!r} needs an integer count, got {ax.count!r}")
        if ax.count < 2:
            raise InvalidSpec(f"axis {ax.name!r} needs count >= 2, got {ax.count}")
        total *= ax.count
    if total > MAX_SWEEP_POINTS:
        raise InvalidSpec(f"sweep has {total} points, above the {MAX_SWEEP_POINTS} guard")
    fixed = {name: _number(name, v) for name, v in spec.fixed.items()}
    axes = tuple(ax._replace(start=_number(f"axis {ax.name!r} start", ax.start),
                             stop=_number(f"axis {ax.name!r} stop", ax.stop)) for ax in spec.axes)
    spec = replace(spec, fixed=fixed, axes=axes)
    # an axis's ends, then their distance, which a finite grid's step needs finite
    ends = [(ax.name, v) for ax in axes for v in (ax.start, ax.stop)]
    spans = [(f"{ax.name} stop - start", ax.stop - ax.start) for ax in axes]
    for name, v in itertools.chain(fixed.items(), ends, spans):
        if not math.isfinite(v):
            raise InvalidSpec(f"{name}={v!r} is not finite")
    outputs = canonical_outputs(spec.outputs)
    w, d = spec.weight, len(PARAM_NAMES[spec.model_id])
    if w.kind not in ("identity", "diag", "full", "qfim", "diag_log_axis"):
        raise InvalidSpec(f"unknown weight kind {w.kind!r}")
    size = {"diag": d, "full": d * d}.get(w.kind, 0)
    if len(w.values) != size:
        raise InvalidSpec(f"{w.kind} weight needs {size} values, got {len(w.values)}")
    if w.axis is not None and w.kind != "diag_log_axis":
        raise InvalidSpec(f"{w.kind} weight takes no axis, got {w.axis!r}")
    weight = None
    if w.kind == "diag_log_axis":
        _check_log_axis(spec)
    elif w.kind != "qfim":  # a fixed weight, validated and square-rooted once
        values = np.array([_number(f"{w.kind} weight value", v) for v in w.values])
        w_mat = (np.eye(d) if w.kind == "identity" else np.diag(values) if w.kind == "diag"
                 else values.reshape(d, d))
        try:
            weight = _weight_and_root(w_mat, d)
        except ValueError as exc:
            raise InvalidSpec(f"{w.kind} weight: {exc}") from exc
    if spec.maximize_over:
        if spec.model_id != "tunable_qubit":
            raise InvalidSpec("per-point maximization is defined for the tunable qubit")
        if not set(outputs) <= {"R", "T"}:
            raise InvalidSpec("per-point maximization reports R and T only")
        if w.kind != "diag_log_axis":
            raise InvalidSpec("maximization sweeps expect the diag_log_axis weight")
        names = spec.maximize_over
        if len(set(names)) != len(names):
            raise InvalidSpec("duplicate maximized names")
        if not {"alpha", "gamma", "theta"} < set(names) <= set(_ANGLES):
            raise InvalidSpec(
                f"cannot maximize over {sorted(names)}; the supported sets are alpha, gamma "
                "and theta with beta, phi or both"
            )
        bound_names = set(spec.fixed) | set(axis_names)
        if set(names) & bound_names:
            raise InvalidSpec(f"maximized names also fixed: {sorted(set(names) & bound_names)}")
        if bound_names & _NON_ANGLE_PROBE_NAMES:
            # the maximized probe is pure, set by (alpha, beta), at the
            # given lambda1; these names would evaluate a different model
            raise InvalidSpec(
                f"maximization cannot take {sorted(bound_names & _NON_ANGLE_PROBE_NAMES)}; "
                "set the probe by alpha and beta and the parameter by lambda1"
            )
        unbound = set(_ANGLES) - set(names) - bound_names
        if unbound:
            raise InvalidSpec(f"angles neither maximized nor fixed: {sorted(unbound)}")
    # the constants a point binds
    bound = {*fixed, *axis_names, *spec.maximize_over} - {w.axis}
    names = bound - set(PARAM_NAMES[spec.model_id])
    if spec.model_id == "tunable_qubit":
        for name, other in _OVERRIDES:
            if {name, other} <= bound:
                raise InvalidSpec(f"{name!r} and {other!r} are both set; "
                                  f"{name!r} would override {other!r}")
        for name, needed in (("xi", "phi"), ("r2", "r_z")):
            if name in names and needed not in names:
                raise InvalidSpec(f"binding {name!r} requires {needed!r}")
        if names & {"r_xy", "r2"}:
            names |= {"r_x", "r_y"}
        names -= _DERIVED_NAMES
    try:
        _check_names(spec.model_id, names)
    except InvalidInput as exc:
        raise InvalidSpec(str(exc)) from exc
    options = ReportOptions(pseudo_inverse=spec.pseudo_inverse, compute_rld="c_rld" in outputs,
                            compute_holevo="c_h" in outputs or "gap_h" in outputs)
    valid = replace(spec, fixed=_Fixed(fixed), outputs=outputs)
    object.__setattr__(valid, "_shared", (options, weight))
    return valid


def _number(name: str, v) -> float:
    """float(v), or InvalidSpec naming the field that holds v."""
    try:
        return float(v)
    except (TypeError, ValueError):
        raise InvalidSpec(f"{name}={v!r} is not a number") from None


def _check_log_axis(spec: SweepSpec) -> None:
    """The diag_log_axis weight is two-parameter, its axis is swept or fixed
    and no model name, and omega = 10**v is finite and above WEIGHT_FLOOR
    at its value, or at both ends of its axis, which bound every row."""
    if len(PARAM_NAMES[spec.model_id]) != 2:
        raise InvalidSpec("diag_log_axis weight is two-parameter only")
    name = spec.weight.axis
    axis = next((ax for ax in spec.axes if ax.name == name), None)
    if axis is None and name not in spec.fixed:
        raise InvalidSpec("diag_log_axis weight needs a matching axis name")
    if name in {*PARAM_NAMES[spec.model_id], *_CONSTANT_NAMES[spec.model_id], *_DERIVED_NAMES}:
        raise InvalidSpec(f"diag_log_axis weight axis {name!r} is a model name; "
                          "give the weight its own axis")
    ends = (axis.start, axis.stop) if axis else (spec.fixed[name],)
    try:
        omegas = _omegas(ends).tolist()
    except OverflowError:  # only the largest end can leave the float range
        omegas = [math.inf if v == max(ends) else float(_omegas(v)) for v in ends]
    for v, omega in zip(ends, omegas):
        if not (math.isfinite(omega) and omega > WEIGHT_FLOOR):
            raise InvalidSpec(
                f"diag_log_axis weight: {name}={v!r} gives omega={omega!r}; "
                f"omega must be finite and above {WEIGHT_FLOOR:g}"
            )


def _bind_values(model_id: str, bound: dict, rows: int) -> tuple[ModelConfig, np.ndarray]:
    """A validated spec's values as the model parameters (rows, d) and a
    config of constants, with xi, r_xy and r2 resolved.  A name holds one
    value per row, or one for every row, which stays a scalar; only the
    parameters are broadcast.  The first row failing r2 >= r_z^2 or a rule
    of `_checked_config` raises, as that row would alone."""
    values = dict(bound)
    if "xi" in values:
        values["lambda1"] = 0.5 * (values.pop("xi") + values["phi"])
    if "r_xy" in values:
        values["r_x"] = values["r_y"] = values.pop("r_xy")
    if "r2" in values:
        r2 = values.pop("r2")
        planar = r2 - values["r_z"] * values["r_z"]
        below = broadcast(planar < -1e-12, (rows,))
        if below.any():  # the rows before the first bad one raise their own errors first
            first = int(np.argmax(below))
            _bind_values(model_id, {k: broadcast(v, (rows,))[:first]
                                    for k, v in bound.items()}, first)
            raise InvalidSpec(f"r2={float(broadcast(r2, (rows,))[first])!r} is below r_z^2")
        values["r_x"] = values["r_y"] = np.sqrt(np.maximum(planar, 0.0) / 2.0)
    names = PARAM_NAMES[model_id]
    params = np.zeros((rows, len(names)))
    for i, name in enumerate(names):
        if name in values:
            params[:, i] = values.pop(name)
    try:
        return _checked_config(model_id, values), params
    except InvalidInput as exc:
        raise InvalidSpec(str(exc)) from exc


def _omegas(log10_values) -> np.ndarray:
    """omega = 10**v per value, in the shape of ``log10_values`` (0-d for a
    fixed value), rounded as Python's float power rounds it, so that the
    weight and the maximizing angles read the same omega."""
    v = np.asarray(log10_values, dtype=float)
    return np.array([10.0 ** x for x in v.ravel().tolist()]).reshape(v.shape)


def _evaluate_chunk(spec: SweepSpec, bound: dict, rows: int) -> _Chunk:
    """``rows`` rows of a validated spec as one batch; each name in
    ``bound`` holds one value per row.  A fixed constant stays one scalar
    for the whole chunk, so what depends on the constants alone is
    evaluated once per chunk."""
    (opts, weight), w = spec._shared, spec.weight
    values, void = {**spec.fixed, **bound}, np.zeros(rows, bool)
    if w.kind == "diag_log_axis":
        omega = _omegas(values.pop(w.axis))
        w_mat = stacked(1.0, 0.0, 0.0, omega).reshape(-1, 2, 2)
        weight = w_mat, np.sqrt(w_mat)  # diagonal, omega above WEIGHT_FLOOR (validate_spec)
        if spec.maximize_over:  # each row's saturating angles, then the batch
            values.update(_saturating_angles(spec.maximize_over, values, omega))
    cfg, params = _bind_values(spec.model_id, values, rows)
    arrays = model_arrays(cfg, params)
    geometry = model_geometry(*arrays)
    if w.kind == "qfim":
        weight, void = _qfim_weight(geometry)
    w_mat, sqrt_w = (broadcast(x, (rows, *x.shape[-2:])) for x in weight)
    cols = batch_reports(arrays.rho, arrays.derivs, geometry, w_mat, sqrt_w, opts)
    void_h = cols["route"] == _VOID
    missing = {"c_rld": cols["flags"][FLAG_RLD_UNAVAILABLE], "c_h": void_h, "gap_h": void_h}
    cells, gone = [bound[ax.name] for ax in spec.axes], [np.zeros(rows, bool)] * len(spec.axes)
    for name in spec.outputs:  # a gap is void where its bound is
        # C_T = (1 + T) C_SLD and C_R = (1 + R) C_SLD, so gap_t and gap_r are T and R
        base = {"gap_t": "T", "gap_r": "R"}.get(name, name)
        cells.append(cols[base])
        gone.append(missing.get(base, cols["null"]) | void)
    masks = {**cols["flags"], FLAG_R_ABOVE_ONE: ~cols["null"] & (cols["R"] > 1.0 + 1e-9)}
    if spec.maximize_over:
        masks[FLAG_NOT_SATURATED] = ~cols["null"] & ~(cols["T"] >= 1.0 - _SATURATION_TOL)
    codes = np.zeros(rows, int)  # bit k set where the k-th mask is
    for bit, mask in enumerate(masks.values()):
        codes |= mask << bit
    codes = np.where(void, -1, codes)
    flags = {code: tuple(sorted(name for bit, name in enumerate(masks) if code >> bit & 1))
             if code >= 0 else (FLAG_SINGULAR_QFIM,) for code in set(codes.tolist())}
    gone = stacked(*gone)
    return _Chunk(stacked(*cells), gone if gone.any() else None, codes, flags)


def _qfim_weight(geometry) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """(W, sqrt W) for W = Q / Q_11 per row, from the geometry's one
    eigendecomposition Q = V diag(q) V^T: sqrt W = V sqrt(q / Q_11) V^T.  A
    singular QFIM cannot serve as a weight: rows where W is not finite or
    has lambda_min(W) <= WEIGHT_FLOOR are void, and carry the identity."""
    q_vals, q_vecs = geometry._qfim_eigh
    q11 = geometry.qfim[:, :1, :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        w_mat, w_vals = geometry.qfim / q11, q_vals / q11[:, 0]
    void = rows_failing(np.isfinite(w_mat), (-2, -1)) | ~(w_vals[:, 0] > WEIGHT_FLOOR)
    roots = np.sqrt(np.where(void[:, None], 1.0, w_vals))
    sqrt_w = (q_vecs * roots[:, None, :]) @ q_vecs.swapaxes(-1, -2)
    eye = np.eye(q_vals.shape[-1])
    return tuple(np.where(void[:, None, None], eye, x) for x in (w_mat, sqrt_w)), void


def _saturating_angles(
    names: tuple[str, ...], values: dict[str, np.ndarray], omega: np.ndarray
) -> dict[str, np.ndarray]:
    """The five angles with T = R = 1 at each row's omega, the ones not in
    ``names`` as bound in ``values``; gamma and theta, and phi when it is
    maximized with beta, are one value for every row.

    A pure qubit has T <= R = 1, with equality exactly where Q12 = 0 and
    Q22 = omega Q11 (W proportional to Q), so these angles hold the global
    maximum of T.  At theta = pi/2 and gamma = pi/4 the pure-qubit geometry
    is Q11 = 4 sin^2 alpha, Q12 = -4 sin alpha cos alpha sin delta and
    Q22 = 4 (1 - sin^2 alpha sin^2 delta), with delta = beta - phi + 2 l1.
    Both equations hold at alpha = pi/2, cos delta = sqrt(omega) for
    omega <= 1, and at delta = 0, sin alpha = 1 / sqrt(omega) for
    omega >= 1.  delta is solved for beta when beta is maximized (phi = 0
    if phi is maximized too), else for phi.  The sweep certifies each row
    on the T its pipeline computes at these angles.
    """
    l1 = values.get("lambda1", 0.0)
    low = omega <= 1.0
    alpha = np.where(low, 0.5 * math.pi, np.arcsin(1.0 / np.sqrt(np.maximum(omega, 1.0))))
    delta = np.where(low, np.arccos(np.sqrt(np.minimum(omega, 1.0))), 0.0)
    if "beta" in names:
        phi = 0.0 if "phi" in names else values["phi"]
        beta = np.mod(delta + phi - 2.0 * l1, 2.0 * math.pi)
    else:
        beta = values["beta"]
        phi = np.mod(beta + 2.0 * l1 - delta, 2.0 * math.pi)
    return {"alpha": alpha, "beta": beta, "gamma": 0.25 * math.pi, "theta": 0.5 * math.pi,
            "phi": phi}


def run_point(spec: SweepSpec) -> ResultRow:
    """Evaluate a spec without axes as a single row, a batch of one; its
    maximized angles, if any, are found as in a sweep."""
    return run_sweep(replace(spec, axes=()))[0]


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Evaluate the grid in row-major axis order.

    The points are evaluated in chunks of _CHUNK rows, each one stacked
    batch through every stage and kept as its columns; a maximization sweep
    first takes each row's saturating angles (`_saturating_angles`) and
    flags a row whose T falls short of 1 NotSaturated.  Physics flags never
    abort the sweep.  ``threads`` stays only for the benchmark scripts in
    perfbench/, which pass ``threads=1``; any other value raises InvalidSpec.
    """
    if threads != 1:
        raise InvalidSpec("sweeps run serially; threads must be 1")
    if spec._shared is None:
        spec = validate_spec(spec)
    grids = [ax.values() for ax in spec.axes]
    total = math.prod(len(values) for values in grids)
    chunks = []
    for start in range(0, total, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, total))
        cells = np.unravel_index(index, [len(values) for values in grids]) if grids else ()
        bound = {ax.name: values[i] for ax, values, i in zip(spec.axes, grids, cells)}
        chunks.append(_evaluate_chunk(spec, bound, len(index)))
    return SweepResult(len(spec.axes), spec.outputs, chunks)


def columns(spec: SweepSpec) -> list[str]:
    return [ax.name for ax in spec.axes] + list(canonical_outputs(spec.outputs)) + ["flags"]


def emit(rows: Iterable[ResultRow], fmt: str, out: str | TextIO, spec: SweepSpec) -> None:
    """Write rows as CSV or JSON to a path or an open text stream;
    byte-deterministic for a fixed spec.  Both formats read the rows as
    column chunks; any other iterable of ResultRow becomes one chunk first."""
    cols = columns(spec)
    out_names = canonical_outputs(spec.outputs)
    n_axes = len(spec.axes)
    if not (isinstance(rows, SweepResult) and (rows.n_axes, rows.outputs) == (n_axes, out_names)):
        rows = SweepResult(n_axes, out_names, [_chunk_of(rows, n_axes, out_names)])
    if fmt == "csv":
        pieces = itertools.chain([",".join(cols) + "\n"], map(_csv_text, rows.chunks))
    elif fmt == "json":
        pieces = _json_text(rows.chunks, cols)
    else:
        raise InvalidSpec(f"unknown output format {fmt!r}")
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
    else:
        out.writelines(pieces)


def _json_text(chunks: list[_Chunk], cols: list[str]) -> Iterator[str]:
    """The bytes of ``json.dumps(records, indent=1)`` over every row, written
    chunk by chunk: "[", each chunk's records, then "]".  Each record is the
    key of each column before its cell, then its flags; a cell is written
    as json writes a float (float.__repr__, NaN and +-Infinity) or null."""
    import json  # on first use: only the JSON writer reads it

    keys = [f",\n  {json.dumps(c)}: " for c in cols[:-1]]
    keys[0] = ",\n {" + keys[0][1:]  # each record opens with its separator

    def flag_text(flags):  # ',\n  "flags": [...]\n }', the end of a record
        return "," + json.dumps([{"flags": list(flags)}], indent=1)[4:-2]

    first = True
    for chunk in chunks:
        if len(chunk.codes):
            text = _joined(chunk, _json_floats, "null", flag_text, keys)
            yield "[" + text[1:] if first else text  # the first separator opens the list
            first = False
    yield "[]\n" if first else "\n]\n"


def _csv_text(chunk: _Chunk) -> str:
    """The chunk's CSV lines: each cell is its %.12g text and a comma, a
    void cell a comma alone, and the flags end the line."""
    return _joined(chunk, _csv_floats, ",", lambda flags: ";".join(flags) + "\n")


def _csv_floats(values: list[float]) -> list[str]:
    """Each value as %.12g then a comma, by one %-operation."""
    return ("%.12g,\n" * len(values) % tuple(values)).split("\n")[:-1]


def _json_floats(values: list[float]) -> list[str]:
    """Each value as json writes a float, by one json encoding."""
    import json

    return json.dumps(values)[1:-1].split(", ") if values else []


def _joined(chunk: _Chunk, fmt, void: str, flag_text, keys: Sequence[str] = ()) -> str:
    """The chunk's rows as one "".join over a table of strings: each distinct
    bit pattern of its cells (so 0.0 and -0.0, and NaNs of different
    payload, stay apart) as ``fmt`` writes it, once (a list of floats to a
    list of strings), a void cell as ``void``, and each flag tuple as
    ``flag_text(flags)``, which ends the row.  With ``keys``, keys[j]
    precedes each cell of column j."""
    patterns = chunk.values.ravel().view(np.int64)
    order = patterns.argsort()  # the distinct patterns in order, as np.unique finds them
    ordered, first = patterns[order], np.empty(len(patterns), bool)
    first[:1], first[1:] = True, ordered[1:] != ordered[:-1]
    bits, cells = ordered[first], np.empty(len(patterns), np.intp)
    cells[order] = first.cumsum() - 1
    cells = cells.reshape(chunk.values.shape)
    if chunk.void is not None:
        cells = np.where(chunk.void, len(bits), cells)
    low = min(chunk.flags, default=0)  # a text for every code from the least to the greatest
    codes = range(low, max(chunk.flags, default=low - 1) + 1)
    table = [*fmt(bits.view(float).tolist()), void, *keys,
             *(flag_text(chunk.flags[c]) if c in chunk.flags else "" for c in codes)]
    if keys:
        cells = stacked(len(bits) + 1 + np.arange(len(keys)), cells).reshape(len(cells), -1)
    flags = len(bits) + 1 + len(keys) - low + chunk.codes
    index = np.concatenate([cells, flags[:, None]], axis=-1)
    return "".join(np.array(table, object)[index].ravel().tolist())


def figure_preset(name: str, config: Mapping[str, float] | None = None) -> SweepSpec:
    """Sweep recipes reproducing the published parameter scans.

    fig2 intentionally has no default Bloch components: pass r_y and r_z in
    ``config`` (the repository's reproduction recipe uses r_y=0.2, r_z=0.4).
    ``config`` may also override per-preset grid counts via ``count``, an integer >= 2.
    """
    names = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5")
    if name not in names:
        raise UnknownPreset(f"unknown preset {name!r}; expected {', '.join(names)}")
    cfg = dict(config or {})
    count = cfg.pop("count", None)  # an axis needs an integer count of at least 2
    if count is not None and not (_number("count", count).is_integer() and float(count) >= 2):
        raise InvalidSpec(f"count={count!r} must be an integer >= 2")
    # No solver is seeded; a "seed" key is still accepted and ignored because
    # the benchmark workloads in perfbench/ pass one.
    cfg.pop("seed", None)

    def counted(default: int) -> int:
        return default if count is None else int(float(count))

    bloch = {}
    if name == "fig2":
        missing = {"r_y", "r_z"} - cfg.keys()
        if missing:
            raise InvalidSpec(
                f"fig2 requires explicit Bloch components {sorted(missing)} "
                "(no silent defaults; the documented reproduction uses r_y=0.2, r_z=0.4)"
            )
        bloch = {key: _number(key, cfg.pop(key)) for key in ("r_y", "r_z")}
    if cfg:
        raise InvalidSpec(f"unknown {name} config keys {sorted(cfg)}")
    gaps, planar = ("gap_h", "gap_t", "gap_r"), {"gamma": math.pi / 4.0, "theta": math.pi / 2.0}
    if name == "fig1":
        return SweepSpec("tunable_qubit", axes=(Axis("omega_log10", -2.0, 2.0, counted(33)),),
                         weight=WeightSpec(kind="diag_log_axis", axis="omega_log10"),
                         outputs=("R", "T"), maximize_over=_ANGLES)
    if name == "fig2":
        return SweepSpec("tunable_qubit", {**planar, "phi": 0.0, "lambda2": 0.0, **bloch},
                         (Axis("r_x", 0.05, 0.85, counted(64)),
                          Axis("xi", 0.0, 2.0 * math.pi, counted(64))), outputs=gaps)
    if name in ("fig3a", "fig3b"):
        first = (Axis("r_xy", 0.02, 0.60, counted(48)) if name == "fig3a"
                 else Axis("r2", 0.02, 0.95, counted(48)))
        r_z = 0.5 if name == "fig3a" else 0.1
        return SweepSpec("tunable_qubit", {**planar, "r_z": r_z, "lambda1": 0.0, "lambda2": 0.0},
                         (first, Axis("phi", 0.0, 2.0 * math.pi, counted(48))), outputs=gaps)
    if name == "fig4":
        return SweepSpec("su2_qubit", {"alpha": math.pi / 2.0, "beta": 0.0, "t": 5.0},
                         (Axis("theta", 0.10, 1.45, counted(48)),
                          Axis("B", 0.15, 1.10, counted(48))), outputs=gaps)
    return SweepSpec("su2_qutrit", {"alpha": math.pi / 4.0, "beta": 0.0, "t": 1.0, "phi": 0.0},
                     (Axis("theta", -0.6, 0.6, counted(17)),
                      Axis("B", math.pi - 1.2, math.pi + 1.2, counted(17))),
                     outputs=("T", "gap_h", "gap_t"))
