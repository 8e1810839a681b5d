import copy
import io
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qmb
from qmb import bounds, general, geometry, models, sweep
from qmb.bounds import ReportOptions, full_report
from qmb.cli import main as cli_main
from qmb.errors import HierarchyViolation, InvalidSpec, SingularQFIM, UnknownPreset
from qmb.general import compute_geometry, model_point
from qmb.geometry import quantumness_R, t_measure
from qmb.linalg import SUPPORT_TOL
from qmb.models import PARAM_NAMES, model_config
from qmb.sweep import (
    CANONICAL_OUTPUTS,
    Axis,
    SweepSpec,
    WeightSpec,
    canonical_outputs,
    columns,
    emit,
    figure_preset,
    run_point,
    run_sweep,
    validate_spec,
)

from exact import OUTPUTS as EXACT_OUTPUTS
from exact import preset_spec, sweep_errors

from conftest import (
    nelder_mead,
    tunable_qubit_pure_geometry_grid,
    use_bloch_matrix_oracle,
    use_lapack_oracle,
    use_matmul_oracle,
)

ANCHOR = {
    "alpha": math.pi / 4, "beta": 0.0, "t": 1.0,
    "B": math.pi, "theta": 0.0, "phi": 0.0,
}

MIXED_QUBIT = {
    "gamma": math.pi / 4, "theta": math.pi / 2, "phi": 0.35,
    "r_x": 0.3, "r_y": 0.2, "r_z": 0.5, "lambda1": 0.525,
}


# Cells that exercise the number formatting: signed zeros, infinities, nan,
# subnormals and the extremes of the exponent range, next to ordinary floats.
_CELL_VALUES = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225073858507201e-308,
                     1.7976931348623157e308, -1e-300, 1e16, 123456789012.5, 1e-5, 0.1]),
)
# Bit patterns that print alike but differ: the writers format each distinct
# bit pattern once, so these must stay apart.
_SIGNED_ROW = [0.0, -0.0, math.nan, -math.nan,
               np.array(0x7FF8000000000001, np.int64).view(float).item()]  # a NaN payload
# Each chunk draws its cells from a small pool, so values repeat across rows
# and columns, next to the signed zeros and NaNs.
_REPEATED_CELLS = st.lists(_CELL_VALUES, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool + _SIGNED_ROW), min_size=5, max_size=5),
                          min_size=0, max_size=6))
_FLAG_NAMES = st.one_of(
    st.sampled_from(["SingularQFIM", "PseudoInverseUsed", "RldUnavailable",
                     "HolevoNotConverged", "RAboveOne"]),
    st.text(alphabet="a%s,;", max_size=4),
)


def _format_value(v):
    if v is None:
        return ""
    return format(float(v), ".12g")


def _per_cell_csv(rows, spec):
    """The earlier CSV writer, one format call per cell, kept as the oracle
    of emit's %-template lines."""
    cols = columns(spec)
    out_names = canonical_outputs(spec.outputs)
    lines = [",".join(cols)]
    for row in rows:
        cells = [_format_value(v) for v in row.axis_values]
        cells += [_format_value(row.outputs.get(name)) for name in out_names]
        cells.append(";".join(row.flags))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _per_record_json(rows, spec):
    """The earlier JSON writer, one record built key by key."""
    records = []
    for row in rows:
        rec = {}
        for ax, v in zip(spec.axes, row.axis_values):
            rec[ax.name] = v
        for name in canonical_outputs(spec.outputs):
            rec[name] = row.outputs.get(name)
        rec["flags"] = list(row.flags)
        records.append(rec)
    return json.dumps(records, indent=1) + "\n"


def small_spec(**kw):
    base = dict(
        model_id="tunable_qubit",
        fixed=MIXED_QUBIT,
        axes=(Axis("lambda2", 0.0, 0.3, 2),),
        outputs=("c_sld", "c_t", "c_h", "R", "T", "gaps"),
    )
    base.update(kw)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_expands_gaps(self):
        assert canonical_outputs(["gaps", "c_sld"]) == ("c_sld", "gap_h", "gap_t", "gap_r")

    def test_rejects_unknown_output(self):
        with pytest.raises(InvalidSpec):
            canonical_outputs(["c_bogus"])

    def test_rejects_empty_outputs(self):
        with pytest.raises(InvalidSpec):
            canonical_outputs([])

    def test_rejects_axis_fixed_overlap(self):
        spec = small_spec(axes=(Axis("r_x", 0.1, 0.2, 2),))
        with pytest.raises(InvalidSpec):
            validate_spec(spec)

    def test_rejects_single_point_axis(self):
        spec = small_spec(axes=(Axis("lambda2", 0.0, 0.3, 1),))
        with pytest.raises(InvalidSpec):
            validate_spec(spec)

    def test_rejects_oversized_grid(self):
        spec = small_spec(axes=(
            Axis("lambda1", 0, 1, 4000),
            Axis("lambda2", 0, 1, 4000),
        ))
        spec = replace(spec, fixed={k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"})
        with pytest.raises(InvalidSpec):
            validate_spec(spec)

    def test_rejects_unknown_constant(self):
        spec = small_spec(fixed={**MIXED_QUBIT, "bogus": 1.0})
        with pytest.raises(InvalidSpec):
            run_sweep(spec)

    @pytest.mark.parametrize(
        "weight",
        [
            WeightSpec(kind="diag", values=(1.0, -1.0)),
            WeightSpec(kind="diag", values=(1.0, 0.0)),
            WeightSpec(kind="diag", values=(1.0, math.nan)),
            WeightSpec(kind="diag", values=(1.0, 2.0, 3.0)),
            WeightSpec(kind="full", values=(1.0, 0.5, 0.0, 1.0)),
            WeightSpec(kind="full", values=(1.0, 0.0, 0.0)),
        ],
        ids=["negative", "zero", "nan", "wrong_size", "asymmetric", "full_wrong_size"],
    )
    def test_rejects_invalid_fixed_weight(self, weight):
        with pytest.raises(InvalidSpec):
            validate_spec(small_spec(weight=weight))

    @pytest.mark.parametrize(
        "spec, named",
        [
            (replace(figure_preset("fig1"), axes=(), fixed={"omega_log10": -12.0}),
             "omega_log10=-12.0 "),
            (replace(figure_preset("fig1"), axes=(), fixed={"omega_log10": 400.0}),
             "omega_log10=400.0 "),
            (small_spec(axes=(Axis("w", -13.0, 0.0, 3),),
                        weight=WeightSpec(kind="diag_log_axis", axis="w")), "w=-13.0 "),
        ],
        ids=["fig1_omega_1e-12", "fig1_overflow", "mixed_axis_below_1e-12"],
    )
    def test_rejects_log_axis_weight_out_of_range(self, spec, named):
        # omega = 10**v must be finite and above 1e-12 at a fixed value and
        # at both ends of a swept axis; the error names the axis and value
        with pytest.raises(InvalidSpec, match=re.escape(named)):
            run_sweep(spec)

    def test_rejects_log_axis_weight_on_three_parameters(self, monkeypatch):
        # refused while the spec is checked, before any model is built
        def no_model(*args, **kwargs):
            raise AssertionError("model built")

        monkeypatch.setattr(sweep, "model_arrays", no_model)
        spec = SweepSpec("su2_qutrit", fixed=ANCHOR, axes=(Axis("w", -1.0, 1.0, 3),),
                         weight=WeightSpec(kind="diag_log_axis", axis="w"))
        for check in (validate_spec, run_sweep):
            with pytest.raises(InvalidSpec, match="^diag_log_axis weight is two-parameter only$"):
                check(spec)

    @pytest.mark.parametrize(
        "weight, fixed, message",
        [
            # the model ran at lambda1 = 0 on every row, the axis read as the weight's
            (WeightSpec("identity", axis="lambda1"), {}, "identity weight takes no axis"),
            (WeightSpec("diag_log_axis", axis="lambda1"), {},
             "^diag_log_axis weight axis 'lambda1' is a model name"),
            (WeightSpec("diag_log_axis", axis="r_x"), {}, "axis 'r_x' is a model name"),
            (WeightSpec("identity", (2.0, 1.0)), {}, r"^identity weight needs 0 values, got 2$"),
            (WeightSpec("qfim", (2.0, 1.0)), {}, r"^qfim weight needs 0 values, got 2$"),
            (WeightSpec("diag_log_axis", (2.0, 1.0), axis="w"), {"w": 0.5},
             "^diag_log_axis weight needs 0 values, got 2$"),
            (WeightSpec("diag", (2.0, 1.0), axis="lambda1"), {}, "diag weight takes no axis"),
            (WeightSpec("full", (2.0, 0.0, 0.0, 1.0), axis="w"), {"w": 0.5},
             "full weight takes no axis"),
        ],
        ids=["identity_axis", "log_axis_parameter", "log_axis_constant", "identity_values",
             "qfim_values", "log_axis_values", "diag_axis", "full_axis"],
    )
    def test_rejects_weight_fields_its_kind_ignores(self, weight, fixed, message):
        fixed = {**{k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"}, **fixed}
        spec = SweepSpec("tunable_qubit", fixed, (Axis("lambda1", 0.0, 1.0, 3),), weight=weight,
                         outputs=("c_sld", "T"))
        with pytest.raises(InvalidSpec, match=message):
            run_sweep(spec)

    @pytest.mark.parametrize(
        "fixed, axis, message",
        [
            ({"lambda1": math.nan}, Axis("lambda2", 0.0, 1.0, 3), "^lambda1=nan is not finite$"),
            ({"lambda1": 0.5, "gamma": "abc"}, Axis("lambda2", 0.0, 1.0, 3),
             "^gamma='abc' is not a number$"),
            ({"lambda1": 0.5, "gamma": None}, Axis("lambda2", 0.0, 1.0, 3),
             "^gamma=None is not a number$"),
            ({}, Axis("lambda1", "x", 1.0, 3), "^axis 'lambda1' start='x' is not a number$"),
            ({"lambda1": 0.5}, (Axis("lambda2", 0.0, 1.0, 3), WeightSpec("diag", (1.0, "a"))),
             "^diag weight value='a' is not a number$"),
            # one bound name would silently replace another's value
            ({"lambda1": 0.3}, Axis("xi", 0.0, 6.0, 3),
             "^'xi' and 'lambda1' are both set; 'xi' would override 'lambda1'$"),
            ({"lambda1": 0.5}, Axis("r_xy", 0.1, 0.5, 3),
             "^'r_xy' and 'r_x' are both set; 'r_xy' would override 'r_x'$"),
            ({"lambda1": 0.5}, Axis("r2", 0.3, 0.5, 3),
             "^'r2' and 'r_x' are both set; 'r2' would override 'r_x'$"),
            ({"lambda1": 0.5, "r2": 0.3}, Axis("r_xy", 0.1, 0.5, 3),
             "^'r2' and 'r_xy' are both set; 'r2' would override 'r_xy'$"),
            ({"lambda1": 0.5, "alpha": 1.0, "beta": 0.2}, Axis("lambda2", 0.0, 1.0, 3),
             "^'alpha' and 'r_x' are both set; 'alpha' would override 'r_x'$"),
            ({}, Axis("lambda1", math.nan, 1.0, 3), "^lambda1=nan is not finite$"),
            ({}, Axis("lambda1", 0.0, math.inf, 3), "^lambda1=inf is not finite$"),
            ({}, Axis("lambda1", -1e308, 1.7e308, 3), "^lambda1 stop - start=inf is not finite$"),
            ({"lambda1": 0.5, "gamma": -math.inf}, Axis("lambda2", 0.0, 1.0, 3),
             "^gamma=-inf is not finite$"),
            ({"lambda1": 0.5}, Axis("lambda2", 0.0, 1.0, 2.5),
             r"^axis 'lambda2' needs an integer count, got 2\.5$"),
            ({"lambda1": 0.5}, Axis("lambda2", 0.0, 1.0, "3"),
             "^axis 'lambda2' needs an integer count, got '3'$"),
        ],
        ids=["fixed_parameter", "str_constant", "none_constant", "str_axis_start",
             "str_weight_value", "xi_over_lambda1", "r_xy_over_r_x", "r2_over_r_x",
             "r2_over_r_xy", "alpha_over_r_x", "axis_start", "axis_stop", "axis_step_overflows",
             "fixed_constant", "float_count", "str_count"],
    )
    def test_rejects_bad_values_before_any_model(self, fixed, axis, message, monkeypatch):
        # a parameter raised NonHermitianInput once its model was built, a
        # count that is no integer a bare TypeError, and a value that is no
        # number a bare ValueError or TypeError; an axis may come with the
        # weight of its sweep
        def no_model(*args, **kwargs):
            raise AssertionError("model built")

        monkeypatch.setattr(sweep, "model_arrays", no_model)
        base = {k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"}
        axis, weight = (axis, WeightSpec()) if isinstance(axis, Axis) else axis
        spec = SweepSpec("tunable_qubit", {**base, **fixed}, (axis,), weight)
        with pytest.raises(InvalidSpec, match=message):
            run_sweep(spec)

    @staticmethod
    def _counted(monkeypatch, targets) -> dict[str, int]:
        """Calls of each (module, name) from here on, by name."""
        counts = {}
        for module, name in targets:
            counts[name] = 0

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize(
        "name, want",
        [
            # 4096 rows, 4 chunks: the names once, the values and r0 once per
            # chunk, the fixed identity weight rooted once
            ("fig2", {"validate_spec": 1, "_check_names": 1, "_check_log_axis": 0,
                      "_checked_config": 4, "tunable_qubit_r0": 4, "model_config": 0,
                      "spd_sqrt": 1, "_omegas": 0}),
            # 33 rows, 1 chunk: the pure probe needs no r0, validation reads
            # omega at both ends of its axis at once, and the chunk reads each
            # row's omega once, for the angles and the weight, whose root
            # diag(1, sqrt(omega)) needs no decomposition
            ("fig1", {"validate_spec": 1, "_check_names": 1, "_check_log_axis": 1,
                      "_checked_config": 1, "tunable_qubit_r0": 0, "model_config": 0,
                      "spd_sqrt": 0, "_omegas": 2}),
        ],
    )
    def test_each_rule_runs_once(self, name, want, monkeypatch):
        # as the benchmark runs a preset: validated, then swept
        counts = self._counted(monkeypatch, [
            (sweep, "validate_spec"), (sweep, "_check_names"), (sweep, "_check_log_axis"),
            (sweep, "_checked_config"), (models, "tunable_qubit_r0"), (models, "model_config"),
            (geometry, "spd_sqrt"), (sweep, "_omegas"),
        ])
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
        run_sweep(sweep.validate_spec(figure_preset(name, config)))
        assert counts == want

    def test_spec_changed_after_validation_is_validated_again(self):
        spec = replace(validate_spec(small_spec()), weight=WeightSpec("diag", (1.0, -1.0)))
        with pytest.raises(InvalidSpec, match="positive definite"):
            run_sweep(spec)

    def test_validated_spec_is_canonical_and_frozen(self):
        spec = validate_spec(small_spec(fixed={**MIXED_QUBIT, "lambda1": np.float32(0.5)}))
        assert spec.outputs == ("c_sld", "c_t", "c_h", "R", "T", "gap_h", "gap_t", "gap_r")
        assert type(spec.fixed["lambda1"]) is float
        with pytest.raises(TypeError):
            spec.fixed["lambda1"] = 0.1

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_validated_spec_pickles(self, name):
        # a validated spec round-trips through pickle and deepcopy to an
        # equal, still validated spec that sweeps to equal chunks
        config = {"r_y": 0.2, "r_z": 0.4, "count": 6} if name == "fig2" else {"count": 6}
        spec = validate_spec(figure_preset(name, config))
        want = run_sweep(spec).chunks
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec and copied._shared is not None
            with pytest.raises(TypeError):
                copied.fixed["lambda1"] = 0.1
            got = run_sweep(copied).chunks
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a.values, b.values) and a.flags == b.flags
                assert np.array_equal(a.codes, b.codes)
                assert (a.void is None and b.void is None) or np.array_equal(a.void, b.void)


class TestRunPoint:
    def test_qutrit_anchor(self):
        spec = SweepSpec(model_id="su2_qutrit", fixed=ANCHOR)
        row = run_point(spec)
        assert row.outputs["c_h"] == pytest.approx(1.551777, abs=1e-4)
        assert "SingularQFIM" not in row.flags

    def test_zero_curvature_gaps_vanish(self):
        spec = SweepSpec(
            model_id="tunable_qubit",
            fixed={**MIXED_QUBIT, "gamma": 0.0},
            pseudo_inverse=True,
        )
        row = run_point(spec)
        assert row.outputs["T"] == pytest.approx(0.0, abs=1e-12)

    def test_mixed_qubit_purity_row_unflagged(self):
        r0 = np.array([0.3, 0.2, 0.5])
        r0 *= 0.7 / np.linalg.norm(r0)
        fixed = {**MIXED_QUBIT, "r_x": r0[0], "r_y": r0[1], "r_z": r0[2]}
        spec = SweepSpec(model_id="tunable_qubit", fixed=fixed)
        row = run_point(spec)
        assert row.outputs["R"] == pytest.approx(0.7, abs=1e-9)
        assert row.flags == ()

    def test_xi_binding(self):
        xi = 0.7
        fixed = {k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"}
        fixed["xi"] = xi
        spec = SweepSpec(model_id="tunable_qubit", fixed=fixed)
        direct = SweepSpec(
            model_id="tunable_qubit",
            fixed={**MIXED_QUBIT, "lambda1": (xi + MIXED_QUBIT["phi"]) / 2},
        )
        assert run_point(spec).outputs["c_sld"] == pytest.approx(
            run_point(direct).outputs["c_sld"], rel=1e-12
        )

    def test_r2_binding_requires_rz(self):
        spec = SweepSpec(model_id="tunable_qubit",
                         fixed={"gamma": 0.4, "theta": 0.3, "phi": 0.0, "r2": 0.5})
        with pytest.raises(InvalidSpec):
            run_point(spec)


def _magnitudes():
    """Finite floats of either sign from 1e-300 to 1e300, subnormals and 0."""
    scaled = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 299))
    subnormal = st.integers(-64, 64).map(lambda k: k * 5e-324)
    return st.one_of(scaled, st.floats(-1e300, 1e300), subnormal)


@st.composite
def _linspace_ends(draw):
    """(start, stop) with a finite span: any two magnitudes, equal ends, or
    ends a few subnormals apart, whose step underflows (numpy's gh-5437)."""
    kind, start = draw(st.sampled_from(["any", "equal", "underflow"])), draw(_magnitudes())
    if kind == "underflow":
        start = draw(st.integers(-64, 64)) * 5e-324
        return start, start + draw(st.integers(-8, 8)) * 5e-324
    stop = start if kind == "equal" else draw(_magnitudes())
    assume(math.isfinite(stop - start))
    return start, stop


class TestRunSweep:
    @given(ends=_linspace_ends(), count=st.integers(2, 5000))
    @example(ends=(0.0, 5e-324), count=3)  # the step underflows to 0
    @example(ends=(-1e300, 1e300), count=5000)
    @example(ends=(1.0, -2.5), count=7)
    def test_axis_values_match_linspace(self, ends, count):
        # Axis.values follows np.linspace's recipe with none of its
        # Python-level calls; np.linspace stays the oracle, to the bit
        start, stop = ends
        got, want = Axis("x", start, stop, count).values(), np.linspace(start, stop, count)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_two_point_axis(self):
        rows = run_sweep(small_spec())
        assert len(rows) == 2
        assert rows[0].axis_values == (0.0,)
        assert rows[1].axis_values == (0.3,)

    def test_rows_satisfy_hierarchy(self):
        rows = run_sweep(small_spec(axes=(Axis("lambda2", 0.0, 1.0, 4),)))
        for row in rows:
            if row.flags:
                continue
            c_sld = row.outputs["c_sld"]
            assert c_sld - 1e-9 <= row.outputs["c_h"]
            assert row.outputs["gap_h"] <= row.outputs["gap_t"] + 1e-7
            assert row.outputs["gap_t"] <= row.outputs["gap_r"] + 1e-7

    def test_singular_rows_flagged_not_fatal(self):
        fixed = {k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"}
        fixed["gamma"] = 0.0
        spec = SweepSpec(
            model_id="tunable_qubit",
            fixed=fixed,
            axes=(Axis("lambda1", 0.0, 0.5, 3),),
            outputs=("c_sld", "c_h", "T"),
        )
        rows = run_sweep(spec)
        assert len(rows) == 3
        for row in rows:
            assert "SingularQFIM" in row.flags
            assert row.outputs["c_sld"] is None

    def test_thread_count_does_not_change_results(self):
        # sweeps run serially: the default and the explicit threads=1 give the
        # same rows, run after run
        spec = small_spec(axes=(Axis("lambda2", 0.0, 1.0, 5),))
        rows1 = run_sweep(spec)
        rows2 = run_sweep(spec, threads=1)
        assert len(rows1) == 5
        for a, b in zip(rows1, rows2):
            assert a.axis_values == b.axis_values
            for name in a.outputs:
                assert a.outputs[name] == b.outputs[name]

    def test_threads_other_than_one_rejected(self):
        spec = small_spec()
        for threads in (0, 2):
            with pytest.raises(InvalidSpec, match="threads must be 1"):
                run_sweep(spec, threads=threads)
        assert len(run_sweep(spec, threads=1)) == 2

    def test_row_major_order(self):
        spec = small_spec(
            fixed={k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"},
            axes=(Axis("lambda1", 0.0, 0.1, 2), Axis("lambda2", 0.0, 0.2, 3)),
            outputs=("c_sld",),
        )
        rows = run_sweep(spec)
        assert [r.axis_values for r in rows] == [
            (0.0, 0.0), (0.0, 0.1), (0.0, 0.2),
            (0.1, 0.0), (0.1, 0.1), (0.1, 0.2),
        ]


class TestEmit:
    def test_csv_schema(self, tmp_path):
        spec = small_spec()
        rows = run_sweep(spec)
        path = tmp_path / "out.csv"
        emit(rows, "csv", str(path), validate_spec(spec))
        text = path.read_text()
        lines = text.strip("\n").split("\n")
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header == ["lambda2", "c_sld", "c_t", "c_h", "R", "T",
                          "gap_h", "gap_t", "gap_r", "flags"]

    def test_csv_line_count_2x2(self, tmp_path):
        spec = small_spec(
            fixed={k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"},
            axes=(Axis("lambda1", 0.0, 0.1, 2), Axis("lambda2", 0.0, 0.2, 2)),
            outputs=("c_sld",),
        )
        rows = run_sweep(spec)
        path = tmp_path / "grid.csv"
        emit(rows, "csv", str(path), validate_spec(spec))
        assert path.read_text().count("\n") == 5

    def test_csv_determinism(self, tmp_path):
        spec = small_spec(axes=(Axis("lambda2", 0.0, 0.7, 3),))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit(run_sweep(spec), "csv", str(a), validate_spec(spec))
        emit(run_sweep(spec), "csv", str(b), validate_spec(spec))
        assert a.read_bytes() == b.read_bytes()

    def test_json_roundtrip(self, tmp_path):
        spec = small_spec()
        rows = run_sweep(spec)
        path = tmp_path / "out.json"
        emit(rows, "json", str(path), validate_spec(spec))
        records = json.loads(path.read_text())
        assert len(records) == 2
        for rec, row in zip(records, rows):
            assert rec["lambda2"] == row.axis_values[0]
            for name in validate_spec(spec).outputs:
                assert rec[name] == row.outputs[name]
            assert rec["flags"] == list(row.flags)

    def test_unknown_format(self, tmp_path):
        spec = small_spec()
        with pytest.raises(InvalidSpec):
            emit([], "xml", str(tmp_path / "x"), validate_spec(spec))

    @settings(max_examples=300)
    @given(
        cells=st.one_of(
            st.lists(st.lists(_CELL_VALUES, min_size=5, max_size=5), min_size=0, max_size=6),
            _REPEATED_CELLS),
        flags=st.lists(st.lists(_FLAG_NAMES, max_size=4).map(tuple), min_size=7, max_size=7),
        signed_at=st.integers(0, 6),
    )
    def test_csv_and_json_match_per_cell_writer(self, cells, flags, signed_at):
        # two axes and three outputs per row; the outputs map is ordered
        # differently from the canonical outputs, as emit reads it by name.
        # Every chunk holds 0.0 next to -0.0 and NaNs of either sign
        cells.insert(min(signed_at, len(cells)), _SIGNED_ROW)
        spec = replace(small_spec(outputs=("c_t", "R", "c_sld")),
                       axes=(Axis("lambda1", 0.0, 1.0, 2), Axis("lambda2", 0.0, 1.0, 2)))
        rows = [
            sweep.ResultRow(tuple(v[:2]), {"R": v[3], "c_sld": v[2], "c_t": v[4]}, f)
            for v, f in zip(cells, flags)
        ]
        for fmt, oracle in (("csv", _per_cell_csv), ("json", _per_record_json)):
            out = io.StringIO()
            emit(rows, fmt, out, spec)
            assert out.getvalue() == oracle(rows, spec)

    def test_void_cell_sharing_a_stored_value(self):
        # a void cell keeps a value in the chunk; the same bits in a cell
        # that is not void are written, and the void one is not
        spec = replace(small_spec(outputs=("R", "T")), axes=(Axis("lambda1", 0.0, 1.0, 2),))
        values = np.array([[0.5, 2.0, -0.0], [2.0, 0.5, 2.0], [-0.0, 2.0, 0.5]])
        void = np.array([[False, True, False], [False, False, True], [False, True, True]])
        chunk = sweep._Chunk(values, void, np.array([0, 1, 0]), {0: (), 1: ("RAboveOne",)})
        rows = sweep.SweepResult(1, ("R", "T"), [chunk])
        listed = list(rows)
        assert [row.outputs for row in listed] == [
            {"R": None, "T": -0.0}, {"R": 0.5, "T": None}, {"R": None, "T": None}]
        for fmt, oracle in (("csv", _per_cell_csv), ("json", _per_record_json)):
            out = io.StringIO()
            emit(rows, fmt, out, spec)
            assert out.getvalue() == oracle(listed, spec)
        out = io.StringIO()
        emit(rows, "csv", out, spec)
        assert out.getvalue().splitlines()[1:] == ["0.5,,-0,", "2,0.5,,RAboveOne", "-0,,,"]

    @pytest.mark.parametrize("case", ["fig4_two_chunks", "fig1_singular_rows", "pure_no_rld"])
    def test_sweep_result_matches_per_cell_writer(self, case):
        if case == "fig4_two_chunks":  # 1089 rows: a full chunk, then a short one
            spec = figure_preset("fig4", {"count": 33})
        elif case == "fig1_singular_rows":  # omega > 1e9 rows are void, between valid ones
            # (cond(Q) = omega, so omega = 1e9 itself sits on the 1 / RANK_TOL
            # line to within an ulp, and the grid steps around it)
            spec = replace(figure_preset("fig1"), axes=(
                Axis("lambda1", 0.0, 0.5, 3), Axis("omega_log10", 8.25, 10.25, 5)))
        else:  # a pure state voids c_rld alone
            spec = SweepSpec("su2_qubit", fixed={"alpha": 1.0, "beta": 0.0, "t": 2.0, "theta": 0.3},
                             axes=(Axis("B", 0.5, 1.0, 3),))
        rows = run_sweep(spec)
        listed = list(rows)
        assert len(rows) == len(listed) == math.prod(ax.count for ax in spec.axes)
        assert rows[0] == listed[0] and rows[-1] == listed[-1]
        assert [rows[i] for i in range(-len(rows), len(rows))] == listed + listed
        assert listed[-1].axis_values == tuple(ax.stop for ax in spec.axes)
        voids = [name for row in listed for name, v in row.outputs.items() if v is None]
        if case == "fig1_singular_rows":
            assert [row.flags for row in listed[2:5]] == [("SingularQFIM",)] * 3
            assert listed[5].outputs["T"] is not None
        assert bool(voids) == (case != "fig4_two_chunks")
        for fmt, oracle in (("csv", _per_cell_csv), ("json", _per_record_json)):
            out = io.StringIO()
            emit(rows, fmt, out, spec)
            assert out.getvalue() == oracle(listed, spec)
        with pytest.raises(IndexError):
            rows[len(rows)]

    def test_json_written_chunk_by_chunk(self):
        # each chunk's records are encoded and written on their own, so a
        # big sweep never holds its whole JSON text
        spec = figure_preset("fig4", {"count": 33})
        rows = run_sweep(spec)
        writes = []

        class Recorder(io.StringIO):
            def writelines(self, pieces):
                for piece in pieces:
                    writes.append(len(piece))
                    self.write(piece)

        out = Recorder()
        emit(rows, "json", out, spec)
        assert len(rows.chunks) == 2 and len(writes) == 3
        assert out.getvalue() == _per_record_json(list(rows), spec)
        assert writes[-1] == len("\n]\n")

    def test_benchmark_call_forms(self, tmp_path):
        # the benchmark worker calls run_sweep(spec, threads=1), then emit
        # with a path given as a str
        spec = figure_preset("fig5", {"count": 3})
        result = run_sweep(spec, threads=1)
        assert isinstance(result, qmb.SweepResult)
        path = tmp_path / "fig5.csv"
        emit(result, "csv", str(path), spec)
        out = io.StringIO()
        emit(result, "csv", out, spec)
        assert path.read_bytes() == out.getvalue().encode()
        assert out.getvalue().count("\n") == 10


class TestFigurePresets:
    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            figure_preset("fig9")

    @pytest.mark.parametrize("count", [1, 0, -3, 2.7, math.nan, math.inf, "two"])
    def test_rejects_count_below_two_or_not_integer(self, count):
        # an axis needs an integer count of at least 2
        with pytest.raises(InvalidSpec, match="^count="):
            figure_preset("fig4", {"count": count})

    def test_integral_float_count_accepted(self):
        spec = figure_preset("fig4", {"count": 2.0})
        assert [ax.count for ax in spec.axes] == [2, 2]
        assert all(type(ax.count) is int for ax in spec.axes)
        assert [ax.count for ax in figure_preset("fig4").axes] == [48, 48]

    def test_fig2_requires_bloch_config(self):
        with pytest.raises(InvalidSpec):
            figure_preset("fig2")

    @pytest.mark.parametrize("r_y", ["abc", None])
    def test_fig2_rejects_non_numeric_bloch_config(self, r_y):
        with pytest.raises(InvalidSpec, match=f"^r_y={re.escape(repr(r_y))} is not a number$"):
            figure_preset("fig2", {"r_y": r_y, "r_z": 0.4})

    def test_fig2_grid_claim_small(self):
        spec = figure_preset("fig2", {"r_y": 0.2, "r_z": 0.4, "count": 6})
        rows = run_sweep(spec)
        assert len(rows) == 36
        for row in rows:
            if row.flags:
                continue
            assert abs(row.outputs["gap_h"] - row.outputs["gap_t"]) <= 1e-3

    def test_fig2_16x16_holevo_reaches_t_bound(self):
        # with one normal direction and full rank, the tangent minimum sits
        # at K = 0 across the whole grid
        spec = figure_preset("fig2", {"r_y": 0.2, "r_z": 0.4, "count": 16})
        rows = run_sweep(spec)
        unflagged = [r for r in rows if not r.flags]
        assert len(unflagged) >= 250
        worst = max(abs(r.outputs["gap_h"] - r.outputs["gap_t"]) for r in unflagged)
        assert worst <= 1e-6

    def test_fig5_center_node(self):
        spec = figure_preset("fig5", {"count": 3})
        rows = run_sweep(spec)
        center = [r for r in rows if abs(r.axis_values[0]) < 1e-12
                  and abs(r.axis_values[1] - math.pi) < 1e-12]
        assert len(center) == 1
        gap = center[0].outputs["gap_t"] - center[0].outputs["gap_h"]
        assert gap <= 1e-4
        assert center[0].outputs["T"] > 0.8

    def test_fig4_r_bound_strictly_looser(self):
        spec = figure_preset("fig4", {"count": 4})
        rows = run_sweep(spec)
        for row in rows:
            assert row.outputs["gap_r"] > row.outputs["gap_t"]

    @pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig4"])
    def test_gap_t_and_gap_r_are_t_and_r(self, name):
        # C_T = (1 + T) C_SLD and C_R = (1 + R) C_SLD, so the gaps are T and
        # R themselves, bit for bit; (C_T - C_SLD) / C_SLD strayed from T by
        # up to 4.25e-13 relative on fig2.  On these presets C_H = C_T at
        # K = 0 is a theorem on every row, so gap_h is T too
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
        spec = validate_spec(replace(figure_preset(name, config), outputs=("T", "R", "gaps")))
        values = np.concatenate([chunk.values for chunk in run_sweep(spec).chunks])
        t, r, gap_h, gap_t, gap_r = (values[:, columns(spec).index(k)]
                                     for k in ("T", "R", "gap_h", "gap_t", "gap_r"))
        assert gap_t.tobytes() == t.tobytes() and gap_r.tobytes() == r.tobytes()
        assert gap_h.tobytes() == t.tobytes()

    def test_fig3_presets_run(self):
        for name in ("fig3a", "fig3b"):
            spec = figure_preset(name, {"count": 3})
            rows = run_sweep(spec)
            assert len(rows) == 9
            assert any(not r.flags for r in rows)

    def test_presets_never_reach_the_dual_solve(self, monkeypatch):
        # every preset point has a normal space of at most one direction
        # (qubits: n = 2; the pure qutrit: m = 1), so the closed forms
        # serve every preset row.  The pure qubit of fig4 fills its tangent
        # space (m = 0), and the unitarily encoded mixed qubit of fig2 and
        # fig3 has C_H = C_T by its structure: neither builds a normal space
        # or a tangent setup, nor solves.  The pure qutrit of fig5 reads its
        # one direction's coupling from Q and U: one tangent setup of every
        # row, Gram matrix 1, and no coordinates or normal space built
        def no_dual(*args, **kwargs):
            raise AssertionError("dual solve reached")

        calls = {"_normal_spaces": [], "_gell_mann_coordinates": [], "_tangent_setup": [],
                 "_holevo_solutions": []}
        for fn_name, counts in calls.items():
            module = bounds if fn_name == "_holevo_solutions" else general
            monkeypatch.setattr(module, fn_name, lambda *a, _fn=getattr(module, fn_name),
                                _counts=counts: _counts.append(a[0]) or _fn(*a))
        monkeypatch.setattr(general, "_holevo_dual", no_dual)
        for name in ("fig2", "fig3a", "fig3b", "fig4", "fig5"):
            config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
            for counts in calls.values():
                counts.clear()
            rows = run_sweep(figure_preset(name, {**config, "count": 6}))
            assert len(rows) == 36
            assert not any("HolevoNotConverged" in row.flags for row in rows)
            if name == "fig5":
                (setup,) = calls["_holevo_solutions"]
                assert setup.left.shape == (36, 3, 1)
                assert np.array_equal(setup.gram, np.ones((36, 1, 1)))
                calls["_holevo_solutions"].clear()
            assert calls == {name: [] for name in calls}

    @staticmethod
    def _record_linalg(monkeypatch) -> list:
        """A list that fills with every public numpy.linalg call as (name,
        shape of the first argument)."""
        calls = []
        for fn_name in np.linalg.__all__:
            fn = getattr(np.linalg, fn_name)
            if callable(fn) and not isinstance(fn, type):  # not LinAlgError
                monkeypatch.setattr(np.linalg, fn_name, lambda *a, _fn=fn, _name=fn_name, **k: (
                    calls.append((_name, np.shape(a[0]))) or _fn(*a, **k)))
        return calls

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_eigh_calls_per_chunk(self, name, monkeypatch):
        # no numpy.linalg call at all.  Every row's Q^-1 is adj(Q) / det Q,
        # det Q from the model's structure (2x2 for fig1 to fig4, 3x3 for
        # fig5), the pure states (fig1, fig4, fig5) are vectors and the mixed
        # qubit (fig2, fig3) is never decomposed and builds no normal space,
        # nor a density matrix for C_RLD, R is closed
        # form, the fixed identity of fig2 to fig5 is rooted once, by
        # validate_spec, and fig1's diagonal weight is rooted entry by entry.
        # fig5's exact Holevo step solves by the adjugate (count=40 is two
        # chunks)
        config = {"fig2": {"r_y": 0.2, "r_z": 0.4}, "fig5": {"count": 40}}.get(name, {})
        calls = self._record_linalg(monkeypatch)
        spec = validate_spec(figure_preset(name, config))
        calls.clear()
        assert len(run_sweep(spec)) == {"fig1": 33, "fig2": 4096, "fig3a": 2304, "fig3b": 2304,
                                        "fig4": 2304, "fig5": 1600}[name]
        assert calls == []

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_numpy_helpers_per_chunk(self, name, monkeypatch):
        # numpy's Python-level helpers cost several times more on their
        # first call in a process than after, and a preset run pays that:
        # neither the chunks nor their CSV text call any of them
        calls = []
        for fn_name in ("cross", "nan_to_num", "stack", "broadcast_arrays", "unique",
                        "searchsorted"):
            monkeypatch.setattr(np, fn_name, lambda *a, _fn=getattr(np, fn_name), _name=fn_name,
                                **k: calls.append(_name) or _fn(*a, **k))
        config = {"fig2": {"r_y": 0.2, "r_z": 0.4}, "fig5": {"count": 40}}.get(name, {})
        spec = validate_spec(figure_preset(name, config))
        calls.clear()
        rows = run_sweep(spec)
        emit(rows, "csv", io.StringIO(), spec)
        assert len(rows.chunks) == {"fig1": 1, "fig2": 4, "fig3a": 3, "fig3b": 3, "fig4": 3,
                                    "fig5": 2}[name]
        assert calls == []

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_no_python_level_numpy_function_per_chunk(self, name):
        # a preset chunk and its CSV and JSON text enter no Python function
        # of numpy's package, whose first call in a process costs several
        # times a later one, except the ndarray method wrappers (_methods),
        # errstate (_ufunc_config) and the dispatchers of numpy's C
        # functions (multiarray).  fig5 at count=40 is two chunks, and fig3b
        # binds r2.  The cached spin matrices are built inside, too
        package = os.path.dirname(np.__file__) + os.sep
        allowed = {os.path.join(package, "_core", f)
                   for f in ("_methods.py", "_ufunc_config.py", "multiarray.py")}
        config = {"fig2": {"r_y": 0.2, "r_z": 0.4}, "fig5": {"count": 40}}.get(name, {})
        spec = validate_spec(figure_preset(name, config))
        models._spin_matrices.cache_clear()
        entered = set()

        def record(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(package):
                if code.co_filename not in allowed:
                    entered.add(f"{code.co_filename[len(package):]}:{code.co_name}")

        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            rows = run_sweep(spec)
            for fmt in ("csv", "json"):
                emit(rows, fmt, io.StringIO(), spec)
        finally:
            sys.setprofile(previous)
        assert len(rows.chunks) == {"fig1": 1, "fig2": 4, "fig3a": 3, "fig3b": 3, "fig4": 3,
                                    "fig5": 2}[name]
        assert entered == set()

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_no_reduction_over_a_short_axis_of_rows(self, name):
        # numpy's reduction over a short trailing axis of a stack of rows
        # costs 5 to 20 times the same work done elementwise: a preset chunk
        # and its CSV and JSON text call no ndarray reduction (_methods) with
        # an axis on an array whose leading axis is the chunk's rows
        methods = os.path.join(os.path.dirname(np.__file__), "_core", "_methods.py")
        config = {"fig2": {"r_y": 0.2, "r_z": 0.4}, "fig5": {"count": 40}}.get(name, {})
        spec = validate_spec(figure_preset(name, config))
        reduced = []

        def record(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == methods:
                args = frame.f_locals
                if args.get("axis") is not None:
                    shape = getattr(args.get("a"), "shape", ())
                    reduced.append((frame.f_code.co_name, shape, args["axis"]))

        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            rows = run_sweep(spec)
            for fmt in ("csv", "json"):
                emit(rows, fmt, io.StringIO(), spec)
        finally:
            sys.setprofile(previous)
        sizes = {len(chunk.codes) for chunk in rows.chunks}
        assert [call for call in reduced if call[1][:1] and call[1][0] in sizes] == []

    @pytest.mark.parametrize("offset, flags", [(0.0, ("SingularQFIM",)), (3e-5, ())])
    def test_uncertified_row_alone_is_decomposed(self, monkeypatch, offset, flags):
        # a fig5 chunk with one more row at theta = pi/2 - offset, where Q's
        # smallest eigenvalue, about 14 offset^2, fails the structural line
        # det Q / (Tr Q)^3 > RANK_TOL: at offset 0 the row is ill (a flagged
        # null row); at 3e-5 it is regular with lambda_min / lambda_max =
        # 5.2e-9 (det Q / (Tr Q)^3 = 7.0e-10), so its one normal direction
        # is still closed form.  Only that row is decomposed, and every other
        # row is bit-identical to the chunk without it
        spec = validate_spec(figure_preset("fig5", {"count": 7}))
        theta, b = (x.ravel() for x in np.meshgrid(*(ax.values() for ax in spec.axes),
                                                   indexing="ij"))
        at, rows = 10, len(theta)
        bound = {"theta": np.insert(theta, at, math.pi / 2 - offset), "B": np.insert(b, at, b[at])}
        calls = self._record_linalg(monkeypatch)
        chunk = sweep._evaluate_chunk(spec, bound, rows + 1)
        assert calls == [("eigh", (1, 3, 3))]
        calls.clear()
        alone = sweep._evaluate_chunk(spec, {"theta": theta, "B": b}, rows)
        assert calls == []
        assert chunk.flags[chunk.codes[at]] == flags
        outputs = chunk.void[at, len(spec.axes):] if chunk.void is not None else np.zeros(1, bool)
        assert outputs.all() == bool(flags)
        others = np.arange(rows + 1) != at
        np.testing.assert_array_equal(chunk.values[others].view(np.int64),
                                      alone.values.view(np.int64))
        assert [chunk.flags[c] for c in chunk.codes[others]] == [alone.flags[c] for c in alone.codes]

    def test_fig1_singular_rows_flagged_not_fatal(self):
        # at the saturating angles Q = diag(4 / omega, 4) for omega >= 1, so
        # cond(Q) = omega: above 1 / RANK_TOL = 1e9 each row is a flagged
        # null row, and the sweep goes on
        spec = replace(figure_preset("fig1"), axes=(Axis("omega_log10", 12.5, 13.0, 2),))
        rows = run_sweep(spec)
        assert [row.flags for row in rows] == [("SingularQFIM",)] * 2
        assert all(value is None for row in rows for value in row.outputs.values())

    def test_fig1_symmetric_configuration_saturates(self):
        # with optimization disabled and a symmetric pure configuration
        # (diagonal Q with equal entries), T at omega = 1 equals R
        spec = figure_preset("fig1")
        spec = replace(
            spec,
            axes=(Axis("omega_log10", -0.5, 0.0, 2),),
            maximize_over=(),
            fixed={
                "alpha": math.pi / 2, "beta": 0.0,
                "gamma": math.pi / 4, "theta": math.pi / 2, "phi": 0.0,
            },
        )
        rows = run_sweep(spec)
        at_unit = rows[-1]
        assert at_unit.axis_values[0] == 0.0
        assert at_unit.outputs["T"] == pytest.approx(at_unit.outputs["R"], abs=1e-9)

    def test_fig1_maximized_outputs(self):
        # pure qubits have R = 1; by AM-GM T <= 1, with equality where
        # Q12 = 0 and Q22 = omega Q11, which some angles reach at every omega
        spec = figure_preset("fig1")
        spec = replace(spec, axes=(Axis("omega_log10", -2.0, 2.0, 3),))
        rows = run_sweep(spec)
        assert [row.axis_values[0] for row in rows] == [-2.0, 0.0, 2.0]
        for row in rows:
            assert row.outputs["R"] == pytest.approx(1.0, abs=1e-8)
            assert row.outputs["T"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "axis", [None, Axis("omega_log10", -3.0, 3.0, 601)], ids=["preset", "601_weights"]
    )
    def test_fig1_saturates_without_fallback(self, axis):
        # every row takes the closed-form saturating angles, and the
        # pipeline's T certifies each one at T = R = 1: no row is flagged
        spec = figure_preset("fig1")
        if axis is not None:
            spec = replace(spec, axes=(axis,))
        rows = run_sweep(spec)
        assert len(rows) == spec.axes[0].count
        for row in rows:
            assert abs(row.outputs["T"] - 1.0) <= 1e-12
            assert abs(row.outputs["R"] - 1.0) <= 1e-12
            assert row.flags == ()

    @settings(max_examples=25)
    @given(
        omega_log10=st.floats(-3.0, 3.0),
        l1=st.floats(0.0, 2.0 * math.pi),
    )
    def test_fig1_saturates_at_any_weight_and_parameter(self, omega_log10, l1):
        spec = replace(
            figure_preset("fig1"),
            fixed={"lambda1": l1},
            axes=(Axis("omega_log10", omega_log10, -omega_log10, 2),),
        )
        for row in run_sweep(spec):
            assert abs(row.outputs["T"] - 1.0) <= 1e-12
            assert abs(row.outputs["R"] - 1.0) <= 1e-12

    def test_closed_form_matches_grid_path_across_weights(self):
        spec = replace(figure_preset("fig1"), axes=(Axis("omega_log10", -3.0, 3.0, 7),))
        _assert_matches_simplex_oracle(spec, run_sweep(spec))

    @settings(max_examples=15, deadline=None)
    @given(l1=st.floats(-2.0 * math.pi, 2.0 * math.pi), maximized=st.sampled_from(
        [("alpha", "beta", "gamma", "theta", "phi"), ("alpha", "beta", "gamma", "theta"),
         ("alpha", "gamma", "theta", "phi")]))
    def test_closed_form_matches_grid_path_at_any_parameter(self, l1, maximized):
        # a beta or phi left out of the maximized set is fixed at 0.7
        fixed = {"lambda1": l1, **{name: 0.7 for name in ("beta", "phi") if name not in maximized}}
        spec = replace(
            figure_preset("fig1"),
            fixed=fixed,
            maximize_over=maximized,
            axes=(Axis("omega_log10", -4.0, 4.0, 3),),
        )
        _assert_matches_simplex_oracle(spec, run_sweep(spec))

    def test_closed_form_serves_extreme_weights(self):
        # cond(Q) = max(omega, 1 / omega) at the saturating angles, so the
        # closed form serves every omega up to the 1 / RANK_TOL = 1e9 line
        for v in (6.5, -6.5, 8.0, -8.0, 8.5, -8.5, 8.95, -8.95):
            row = run_point(replace(figure_preset("fig1"), axes=(), fixed={"omega_log10": v}))
            assert row.flags == (), v
            assert abs(row.outputs["T"] - 1.0) <= 1e-12, v
            assert abs(row.outputs["R"] - 1.0) <= 1e-12, v

    def test_unsaturated_rows_flagged_not_dropped(self, monkeypatch):
        # angles off the saturation set (gamma != pi/4) fail the certificate
        # T >= 1 - 5e-15: each row is flagged NotSaturated and keeps the T
        # the pipeline computes at those angles, and the sweep completes
        saturating = sweep._saturating_angles

        def off_saturation(names, values, omega):
            return {**saturating(names, values, omega), "gamma": np.full_like(omega, 0.3)}

        monkeypatch.setattr(sweep, "_saturating_angles", off_saturation)
        spec = replace(figure_preset("fig1"), axes=(Axis("omega_log10", -2.0, 2.0, 5),))
        rows = run_sweep(spec)
        assert len(rows) == 5
        omega = np.array([10.0 ** row.axis_values[0] for row in rows])
        angles = off_saturation(spec.maximize_over, {}, omega)
        for i, row in enumerate(rows):
            assert row.flags == ("NotSaturated",)
            assert row.outputs["T"] < 1.0 - 1e-3
            fixed = {name: float(np.broadcast_to(v, omega.shape)[i]) for name, v in angles.items()}
            plain = run_point(replace(spec, maximize_over=(),
                                      fixed={**fixed, "omega_log10": row.axis_values[0]}))
            assert plain.flags == ()
            assert row.outputs == pytest.approx(plain.outputs, rel=1e-14)

    def test_maximization_without_axes_is_one_row(self):
        # the weight axis value comes from fixed; run_point maximizes too
        spec = replace(figure_preset("fig1"), axes=(), fixed={"omega_log10": 0.5})
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert run_point(spec) == rows[0]
        assert abs(rows[0].outputs["T"] - 1.0) <= 1e-12


def _assert_matches_simplex_oracle(spec, rows):
    """Unflagged ``rows`` of a maximization sweep against `_simplex_oracle`
    at each row's weight: T no lower and R equal, within 1e-9."""
    fixed = {name: v for name, v in spec.fixed.items() if name in _ORACLE_SPANS}
    l1 = spec.fixed.get("lambda1", 0.0)
    for row in rows:
        omega = 10.0 ** row.axis_values[0]
        t_oracle, r_oracle = _simplex_oracle(spec.maximize_over, fixed, l1, omega)
        assert row.flags == ()
        assert row.outputs["T"] >= t_oracle - 1e-9
        assert abs(row.outputs["R"] - r_oracle) <= 1e-9


# The span `_simplex_oracle` searches each angle over.
_ORACLE_SPANS = {
    "alpha": (1e-3, math.pi - 1e-3),
    "beta": (0.0, 2.0 * math.pi),
    "gamma": (1e-3, math.pi - 1e-3),
    "theta": (1e-3, math.pi - 1e-3),
    "phi": (0.0, 2.0 * math.pi),
}


def _simplex_oracle(names, fixed, l1, omega, n=17):
    """The earlier fig1 maximization: a grid over every maximized angle
    (beta and phi both), simplex refinement of T from its best cell, and a
    separate grid-plus-simplex maximization of R; both evaluated through
    the ordinary pipeline."""
    spans = _ORACLE_SPANS
    axes = np.meshgrid(
        *[np.linspace(*spans[name], n) for name in names], indexing="ij", sparse=True
    )
    angle = {**fixed, **dict(zip(names, axes))}
    q11, q12, q22, u12 = tunable_qubit_pure_geometry_grid(*(angle[name] for name in spans), l1)
    det_q = q11 * q22 - q12 * q12
    regular = det_q > 1e-6 * np.maximum(q11 * q22, 1e-300)
    abs_u = np.where(regular, np.abs(u12), 0.0)

    def refined_geometry(score, objective):
        idx = np.unravel_index(int(np.argmax(score)), score.shape)
        x0 = np.array([np.linspace(*spans[name], n)[i] for name, i in zip(names, idx)])
        point = dict(fixed)

        def negated(x):
            point.update(zip(names, x))
            a, b, c, u = tunable_qubit_pure_geometry_grid(*(point[name] for name in spans), l1)
            det = a * c - b * b
            return -objective(a, c, u, det) if det > 1e-6 * max(a * c, 1e-300) else 0.0

        x, _, _ = nelder_mead(negated, x0, step=0.08, max_iter=1200)
        angles = {**fixed, **dict(zip(names, map(float, x)))}
        pt = model_point(model_config("tunable_qubit", **angles), (l1, 0.0))
        return compute_geometry(pt.rho, pt.derivs)

    t_score = abs_u / (np.where(regular, q22, 1.0) + omega * q11)
    g_t = refined_geometry(
        t_score, lambda a, c, u, det: 2 * math.sqrt(omega) * abs(u) / (c + omega * a)
    )
    r_score = abs_u / np.sqrt(np.where(regular, det_q, 1.0))
    g_r = refined_geometry(r_score, lambda a, c, u, det: abs(u) / math.sqrt(det))
    try:
        r_value = quantumness_R(g_r)
    except SingularQFIM:
        # the R search can drift onto a near-singular QFIM, where the
        # pipeline refuses R; the pure-qubit value there is 1
        r_value = 1.0
    return t_measure(g_t, np.diag([1.0, omega])), r_value


class TestMaximizeValidation:
    def test_rejects_bloch_components(self):
        spec = replace(figure_preset("fig1"), fixed={"r_x": 0.3, "r_y": 0.0, "r_z": 0.0})
        with pytest.raises(InvalidSpec, match="maximization cannot take .*r_x"):
            validate_spec(spec)

    @pytest.mark.parametrize("name", ["r_xy", "r2", "xi"])
    def test_rejects_derived_probe_names(self, name):
        spec = replace(figure_preset("fig1"), fixed={name: 0.3})
        with pytest.raises(InvalidSpec, match=f"maximization cannot take .*{name}"):
            validate_spec(spec)

    def test_rejects_unbound_angle(self):
        spec = replace(figure_preset("fig1"), maximize_over=("alpha", "gamma", "theta", "phi"))
        with pytest.raises(InvalidSpec, match=r"neither maximized nor fixed: \['beta'\]"):
            validate_spec(spec)

    def test_accepts_fixed_probe(self):
        spec = replace(
            figure_preset("fig1"),
            fixed={"beta": 0.0},
            maximize_over=("alpha", "gamma", "theta", "phi"),
        )
        validate_spec(spec)

    @pytest.mark.parametrize(
        "subset",
        [
            ("gamma", "theta", "phi"),
            ("alpha", "beta"),
            ("theta",),
            ("beta", "phi"),
            ("alpha", "theta", "phi"),
            ("alpha", "beta", "gamma", "phi"),
        ],
        ids="-".join,
    )
    def test_unsupported_subsets_rejected(self, subset):
        # the closed-form saturating angles need alpha, gamma and theta
        # free, and beta or phi; the other angles are fixed here, so only
        # the set itself is at fault
        fixed = {name: 0.5 for name in ("alpha", "beta", "gamma", "theta", "phi")
                 if name not in subset}
        spec = replace(figure_preset("fig1"), fixed=fixed, maximize_over=subset)
        with pytest.raises(InvalidSpec, match="supported sets are alpha, gamma and theta"):
            validate_spec(spec)

    def test_rejects_angle_both_maximized_and_fixed(self):
        spec = replace(figure_preset("fig1"), fixed={"gamma": 0.5})
        with pytest.raises(InvalidSpec, match="gamma"):
            validate_spec(spec)

    def test_rejects_other_weights(self):
        spec = replace(figure_preset("fig1"), weight=WeightSpec(kind="identity"))
        with pytest.raises(InvalidSpec):
            validate_spec(spec)


class TestCli:
    def test_compute_anchor_stdout(self, capsys):
        args = ["compute", "--model", "su2_qutrit"]
        for key, val in ANCHOR.items():
            args += ["--set", f"{key}={val}"]
        assert cli_main(args) == 0
        out = capsys.readouterr().out.strip().split("\n")
        header = out[0].split(",")
        values = out[1].split(",")
        c_h = float(values[header.index("c_h")])
        assert c_h == pytest.approx(1.551777, abs=1e-4)

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--model", "tunable_qubit",
            "--axis", "lambda2=0:0.3:2", "--out", str(out),
        ]
        for key, val in MIXED_QUBIT.items():
            args += ["--set", f"{key}={val}"]
        assert cli_main(args) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("lambda2,c_sld,c_rld,")

    def test_weight_diag_parsing(self, capsys):
        args = ["compute", "--model", "su2_qutrit", "--weight", "diag:1,2,3"]
        for key, val in ANCHOR.items():
            args += ["--set", f"{key}={val}"]
        assert cli_main(args) == 0
        assert "c_sld" in capsys.readouterr().out

    @pytest.mark.parametrize("weight", ["diag:1,-1", "diag:1,0", "diag:1,nan", "full:1,1,0,1"])
    def test_invalid_weight_returns_error(self, capsys, weight):
        args = ["compute", "--model", "su2_qubit", "--weight", weight]
        for key, val in {"alpha": 1, "beta": 0, "t": 1, "B": 1, "theta": 0.3}.items():
            args += ["--set", f"{key}={val}"]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {weight.split(':')[0]} weight: ")

    def test_bad_axis_returns_error(self, capsys):
        assert cli_main(["sweep", "--model", "su2_qubit", "--axis", "B=bad"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset_returns_error(self, capsys):
        assert cli_main(["preset", "fig77"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "point.conf"
        lines = ["model=su2_qutrit"]
        lines += [f"set={k}={v}" for k, v in ANCHOR.items()]
        cfg.write_text("\n".join(lines) + "\n# comment line\n")
        assert cli_main(["compute", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "c_h" in out

    def test_compute_json_stdout(self, capsys):
        args = ["compute", "--model", "su2_qutrit", "--format", "json"]
        for key, val in ANCHOR.items():
            args += ["--set", f"{key}={val}"]
        assert cli_main(args) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["c_h"] == pytest.approx(1.551777, abs=1e-4)
        assert records[0]["flags"] == ["RldUnavailable"]

    def test_explicit_flags_beat_config(self, tmp_path, monkeypatch, capsys):
        specs = []

        def spy(spec):
            specs.append(spec)
            return run_point(spec)

        monkeypatch.setattr("qmb.cli.run_point", spy)
        cfg = tmp_path / "point.conf"
        lines = ["model=su2_qubit", "weight=diag:1,2"]
        lines += [f"set={k}={v}" for k, v in
                  {"alpha": 1.0, "beta": 0.0, "t": 2.0, "B": 1.0, "theta": 0.3}.items()]
        cfg.write_text("\n".join(lines) + "\n")
        assert cli_main(["compute", "--config", str(cfg), "--weight", "identity", "--set", "B=0.5"]) == 0
        assert cli_main(["compute", "--config", str(cfg)]) == 0
        explicit, from_config = specs
        assert (explicit.fixed["B"], explicit.weight) == (0.5, WeightSpec(kind="identity"))
        assert (from_config.fixed["B"], from_config.weight) == (1.0, WeightSpec(kind="diag", values=(1.0, 2.0)))

    def test_threads_flag_rejected(self, capsys):
        args = ["sweep", "--model", "tunable_qubit", "--axis", "lambda2=0:0.3:2",
                "--threads", "2"]
        for key, val in MIXED_QUBIT.items():
            args += ["--set", f"{key}={val}"]
        with pytest.raises(SystemExit) as exc:
            cli_main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "preset"])
    def test_seed_flag_rejected(self, capsys, command):
        # no solver is seeded, so there is no seed to set
        argv = ["compute", "--model", "su2_qutrit"] if command == "compute" else ["preset", "fig4"]
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, entry", [
        ("compute", "format=json"), ("compute", "pseudo-inverse=1"), ("compute", "seeed=3"),
        ("compute", "threads=2"), ("compute", "axis=B=0:1:2"), ("compute", "seed=5"),
        ("preset", "model=su2_qutrit"), ("preset", "weight=diag:1,100"), ("preset", "seed=4"),
    ])
    def test_unknown_config_key_returns_error(self, tmp_path, capsys, command, entry):
        if command == "compute":
            argv, lines = ["compute"], ["model=su2_qutrit"]
            lines += [f"set={k}={v}" for k, v in ANCHOR.items()]
        else:
            argv, lines = ["preset", "fig4"], ["set=count=2"]
        cfg = tmp_path / "run.conf"
        cfg.write_text("\n".join(lines + [entry]) + "\n")
        assert cli_main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        key = entry.split("=", 1)[0]
        assert captured.err.startswith(f"error: unknown {command} config keys ['{key}']")

    @pytest.mark.parametrize("flag", [["--model", "su2_qutrit"], ["--weight", "diag:1,100"]])
    def test_preset_rejects_model_and_weight_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli_main(["preset", "fig4", "--set", "count=2", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["1", "0", "-3", "2.7"])
    def test_preset_rejects_bad_count(self, capsys, count):
        assert cli_main(["preset", "fig4", "--set", f"count={count}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: count={float(count)!r} must be an integer >= 2")

    def test_preset_accepts_integral_count(self, capsys):
        assert cli_main(["preset", "fig4", "--set", "count=2.0"]) == 0
        assert capsys.readouterr().out.count("\n") == 5

    def test_preset_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "preset.conf"
        cfg.write_text(f"set=count=2\nout={tmp_path / 'from_config.csv'}\n")
        assert cli_main(["preset", "fig4", "--config", str(cfg)]) == 0
        from_config = (tmp_path / "from_config.csv").read_text()
        assert cli_main(["preset", "fig4", "--set", "count=2"]) == 0
        assert capsys.readouterr().out == from_config
        assert from_config.count("\n") == 5

    def test_console_script_installed(self):
        # the child interpreter sees the package where this process found it
        src_dir = os.path.dirname(os.path.dirname(qmb.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "qmb.cli", "compute", "--model", "su2_qubit",
             "--set", "alpha=1.0", "--set", "beta=0.0", "--set", "t=2.0",
             "--set", "B=1.0", "--set", "theta=0.3"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "c_sld" in proc.stdout


def _serial_bind(model_id, bound):
    """The earlier binding of one point's names to a config and parameters."""
    values = dict(bound)
    if model_id == "tunable_qubit":
        if "xi" in values:
            values["lambda1"] = 0.5 * (values.pop("xi") + values["phi"])
        if "r_xy" in values:
            v = values.pop("r_xy")
            values["r_x"] = values["r_y"] = v
        if "r2" in values:
            r2 = values.pop("r2")
            r_z = values["r_z"]
            values["r_x"] = values["r_y"] = math.sqrt(max(r2 - r_z * r_z, 0.0) / 2.0)
    params = tuple(float(values.pop(name, 0.0)) for name in PARAM_NAMES[model_id])
    return model_config(model_id, **values), params


def _serial_oracle(spec, bound):
    """The earlier sweep evaluation, one point at a time through
    model_point, compute_geometry and full_report (identity weight, as the
    presets use); returns the row and cond(Q) at the point."""
    model_bound = {k: v for k, v in bound.items() if k != spec.weight.axis}
    cfg, params = _serial_bind(spec.model_id, model_bound)
    point = model_point(cfg, params)
    geometry = compute_geometry(point.rho, point.derivs)
    assert spec.weight.kind == "identity"
    w_mat = np.eye(cfg.n_params)
    axis_values = tuple(float(bound[ax.name]) for ax in spec.axes)
    opts = ReportOptions(
        pseudo_inverse=spec.pseudo_inverse,
        compute_rld="c_rld" in spec.outputs,
        compute_holevo=("c_h" in spec.outputs or "gap_h" in spec.outputs),
    )
    report = full_report(point, w_mat, opts, geometry=geometry)
    flags = set(report.flags)
    if report.r_value is not None and report.r_value > 1.0 + 1e-9:
        flags.add("RAboveOne")

    def gap(c_x):
        return None if c_x is None or report.c_sld is None else (c_x - report.c_sld) / report.c_sld

    values = {
        "c_sld": report.c_sld,
        "c_rld": report.c_rld,
        "c_t": report.c_t,
        "c_r": report.c_r,
        "c_h": report.c_h,
        "R": report.r_value,
        "T": report.t_value,
        "gap_h": gap(report.c_h),
        "gap_t": gap(report.c_t),
        "gap_r": gap(report.c_r),
    }
    row = sweep.ResultRow(
        axis_values=axis_values,
        outputs={name: values[name] for name in spec.outputs},
        flags=tuple(sorted(flags)),
    )
    return row, float(np.linalg.cond(geometry.qfim))


def _assert_rows_close(got, want, rel, cond=0.0, spread=0.0):
    """Equal flags, and values within (rel + 1e-16 cond) |v|, or
    spread cond |v| where that is larger."""
    assert got.axis_values == want.axis_values
    assert got.flags == want.flags
    assert got.outputs.keys() == want.outputs.keys()
    tol = max(rel + 1e-16 * cond, spread * cond)
    for name, value in want.outputs.items():
        if value is None:
            assert got.outputs[name] is None, name
        else:
            assert abs(got.outputs[name] - value) <= tol * abs(value), name


def _property_spec(model_id, kind, pseudo_inverse, span, rng):
    """A small grid over one model whose first axis crosses a singular
    line at its middle point: gamma = 0 (commuting encodings) for the
    tunable qubit, B t = 2 pi (no theta information) for the SU(2) models.
    "fig1" is the fig1 maximization instead (the weight kind is its own):
    closed-form angles up to omega ~ 1e6, the grid path above, no singular
    line."""
    if model_id == "fig1":
        axes = (Axis("lambda1", 0.1, 1.3, 2), Axis("omega_log10", -3.0, 3.0 + 10.0 * span, 3))
        return replace(figure_preset("fig1"), fixed={"lambda2": rng.uniform(0.0, 1.0)},
                       axes=axes, pseudo_inverse=pseudo_inverse)
    if model_id == "tunable_qubit":
        r = rng.normal(size=3)
        r *= rng.uniform(0.2, 0.95) / np.linalg.norm(r)
        fixed = {
            "theta": rng.uniform(0.3, 2.8), "phi": rng.uniform(0.0, 6.0),
            "lambda2": rng.uniform(0.0, 1.0), "r_x": r[0], "r_y": r[1], "r_z": r[2],
        }
        axes = [Axis("gamma", -span, span, 3), Axis("lambda1", 0.1, 1.3, 2)]
    else:
        fixed = {"alpha": rng.uniform(0.3, 2.8), "beta": rng.uniform(0.0, 6.0), "t": 1.0}
        if model_id == "su2_qutrit":
            fixed["phi"] = rng.uniform(0.0, 1.0)
        axes = [Axis("B", 2 * math.pi - span, 2 * math.pi + span, 3), Axis("theta", 0.2, 1.2, 2)]
    d = len(PARAM_NAMES[model_id])
    if kind == "diag":
        weight = WeightSpec("diag", tuple(rng.uniform(0.5, 2.0, d)))
    elif kind == "full":
        a = rng.normal(size=(d, d))
        weight = WeightSpec("full", tuple((a @ a.T + d * np.eye(d)).ravel()))
    elif kind == "diag_log_axis":
        axes.append(Axis("omega_log10", -1.0, 1.0, 2))
        weight = WeightSpec(kind, axis="omega_log10")
    else:
        weight = WeightSpec(kind)
    return SweepSpec(
        model_id, fixed=fixed, axes=tuple(axes), weight=weight, pseudo_inverse=pseudo_inverse
    )


class TestChunkedSweep:
    """The chunked sweep against the earlier one-point-at-a-time path and
    against its own batch of one."""

    @pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_matches_serial_oracle(self, name):
        # batched sums may round differently, and conditioning amplifies that
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
        spec = validate_spec(figure_preset(name, {**config, "count": 12}))
        rows = run_sweep(spec)
        combos = itertools.product(*(ax.values() for ax in spec.axes))
        for row, combo in zip(rows, combos, strict=True):
            bound = {**spec.fixed, **{ax.name: float(v) for ax, v in zip(spec.axes, combo)}}
            want, cond = _serial_oracle(spec, bound)
            _assert_rows_close(row, want, 1e-12, cond)

    @pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_kernels_match_matmul_oracle(self, name):
        # the tiny-matrix kernels, the closed-form R and the routes that use
        # what the models know round differently from the plain `@` chain,
        # eigvalsh and rho's decomposition; conditioning amplifies that
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
        spec = replace(validate_spec(figure_preset(name, {**config, "count": 12})),
                       outputs=("c_sld", "c_rld", "c_t", "c_r", "c_h", "R", "T"))
        _assert_sweep_matches_oracle(spec)

    @pytest.mark.parametrize("stacked", [False, True], ids=["eigh", "stacked_products"])
    @pytest.mark.parametrize("name", ["fig2", "fig4"])
    def test_two_parameter_closed_forms_match_lapack(self, name, stacked):
        # the inverses adj(Q) / det Q with the structural det Q, alone and
        # with the d = 2 determinant forms of the core, C_SLD and R, against
        # LAPACK's eigh and the stacked products, at the preset's default
        # density.  Past cond(Q) of about 1e3 the tolerance is the eigh
        # route's own error, 4 eps cond(Q): on fig2 it strays up to 3.6 eps
        # cond(Q) from the structural route, which tests/exact.py holds to a
        # few eps of 40-digit values
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
        spec = replace(validate_spec(figure_preset(name, config)),
                       outputs=("c_sld", "c_rld", "c_t", "c_r", "c_h", "R", "T"))
        _assert_sweep_matches_oracle(spec, lambda patch: use_lapack_oracle(patch, stacked),
                                     spread=4.0 * np.finfo(float).eps)

    def test_three_parameter_forms_match_lapack(self):
        # fig5 at its default density through the structural inverses, the
        # cofactor forms of the core and R and the adjugate solve, against
        # every row through eigh (no structural det Q), the stacked products,
        # eigvalsh R and LAPACK's solve
        spec = replace(validate_spec(figure_preset("fig5")),
                       outputs=("c_sld", "c_t", "c_r", "c_h", "R", "T"))
        _assert_sweep_matches_oracle(spec, lambda patch: use_lapack_oracle(patch, stacked=True))

    @pytest.mark.parametrize("name", ["fig2", "fig4"])
    def test_preset_rows_round_as_run_point(self, name):
        # every stage works row by row, so a row of a full chunk rounds
        # exactly as the same row evaluated alone
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
        spec = validate_spec(figure_preset(name, config))
        rows = run_sweep(spec)
        for row in (rows[i] for i in range(0, len(rows), 97)):
            bound = dict(zip((ax.name for ax in spec.axes), row.axis_values))
            point = run_point(replace(spec, fixed={**spec.fixed, **bound}))
            assert point._replace(axis_values=row.axis_values) == row

    @pytest.mark.parametrize("lambda_2", [5e-11, 1e-10, 1.5e-10, 2e-10, 2.5e-10, 1e-9])
    def test_pure_mixed_line_agrees(self, lambda_2):
        # rho's second eigenvalue lambda_2 straddles both places the pure
        # states are told apart: the shortcut (lambda_2 <= 1e-10) and the
        # normal-space cut (m = 0 up to about 2e-10); every path gives C_H = C_T
        r = 1.0 - 2.0 * lambda_2
        r_xy = math.sqrt((r * r - 0.4**2) / 2.0)
        fixed = {"gamma": math.pi / 4, "theta": math.pi / 2, "phi": 0.0, "lambda1": 0.3,
                 "lambda2": 0.0, "r_x": r_xy, "r_y": r_xy, "r_z": 0.4}
        row = run_point(SweepSpec("tunable_qubit", fixed=fixed, outputs=("c_sld", "c_t", "c_h")))
        assert row.outputs["c_h"] == row.outputs["c_t"]
        assert row.flags == ()

    @settings(max_examples=40, deadline=None)
    @given(
        model_id=st.sampled_from([*sorted(PARAM_NAMES), "fig1"]),
        kind=st.sampled_from(["identity", "diag", "full", "qfim", "diag_log_axis"]),
        pseudo_inverse=st.booleans(),
        span=st.floats(0.05, 0.6),
        seed=st.integers(0, 2**16),
    )
    def test_rows_equal_batch_of_one(self, model_id, kind, pseudo_inverse, span, seed):
        if kind == "diag_log_axis" and model_id == "su2_qutrit":
            kind = "identity"  # the log-axis weight is two-parameter only
        spec = _property_spec(model_id, kind, pseudo_inverse, span, np.random.default_rng(seed))
        rows = run_sweep(spec)
        assert len(rows) == math.prod(ax.count for ax in spec.axes)
        if spec.maximize_over:
            assert spec.outputs == ("R", "T")
        else:
            assert spec.outputs == CANONICAL_OUTPUTS
            assert any("SingularQFIM" in row.flags for row in rows)  # the singular line
        for row in rows:
            bound = dict(zip((ax.name for ax in spec.axes), row.axis_values))
            point = run_point(replace(spec, fixed={**spec.fixed, **bound}))
            _assert_rows_close(row, point._replace(axis_values=row.axis_values), 1e-14)

    @pytest.mark.parametrize("pseudo_inverse", [False, True])
    def test_zero_qfim_is_a_null_row(self, pseudo_inverse):
        # a maximally mixed probe carries no information: Q = 0 has no
        # pseudo-inverse either, so both modes give flagged null rows
        fixed = {"gamma": 0.7, "theta": 1.0, "phi": 0.0, "r_x": 0.0, "r_y": 0.0, "r_z": 0.0}
        spec = SweepSpec("tunable_qubit", fixed=fixed, axes=(Axis("lambda1", 0.0, 1.0, 2),),
                         pseudo_inverse=pseudo_inverse)
        for row in [*run_sweep(spec), run_point(replace(spec, fixed={**fixed, "lambda1": 0.1}))]:
            assert row.flags == ("RldUnavailable", "SingularQFIM")
            assert all(value is None for value in row.outputs.values())

    def test_chunk_boundary(self, monkeypatch):
        spec = small_spec(
            fixed={k: v for k, v in MIXED_QUBIT.items() if k != "lambda1"},
            axes=(Axis("lambda1", 0.0, 0.4, 3), Axis("lambda2", 0.0, 0.3, 2)),
            weight=WeightSpec("qfim"),
            outputs=CANONICAL_OUTPUTS,
        )
        whole = run_sweep(spec)
        monkeypatch.setattr(sweep, "_CHUNK", 5)
        chunked = run_sweep(spec)
        assert len(chunked) == sweep._CHUNK + 1
        for got, want in zip(chunked, whole, strict=True):
            _assert_rows_close(got, want, 1e-14)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_rows_do_not_depend_on_their_chunk(self, monkeypatch, name):
        # a row's output bits depend on the row alone: chunks of 7 and 1024
        # rows give the same CSV and full-precision JSON bytes at the
        # preset's default density, and so do chunks of one row, at
        # count = 12 (fig1 and fig5 at their default density), or at the
        # default density under the qmb-ci profile
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}

        def texts(chunk, config):
            monkeypatch.setattr(sweep, "_CHUNK", chunk)
            spec = validate_spec(figure_preset(name, config))
            rows, out = run_sweep(spec), []
            for fmt in ("csv", "json"):
                emit(rows, fmt, buffer := io.StringIO(), spec)
                out.append(buffer.getvalue())
            return out

        assert texts(7, config) == texts(1024, config)
        if name not in ("fig1", "fig5") and settings.default.max_examples < 1000:
            config = {**config, "count": 12}
        assert texts(1, config) == texts(1024, config)

    def test_hierarchy_violation_names_the_first_bad_row(self, monkeypatch):
        # one check per chunk: row 2 leaves the chain at its last link and
        # row 5 at an earlier one, and row 2 is the one reported
        spec = small_spec(axes=(Axis("lambda2", 0.0, 0.7, 8),))
        good = run_sweep(spec)
        radius = bounds._spectral_radius

        def broken(g):
            r = radius(g).copy()
            r[[2, 5]] = 1.5, -0.9  # C_R > 2 C_SLD at row 2; C_T > C_R at row 5
            return r

        monkeypatch.setattr(bounds, "_spectral_radius", broken)
        with pytest.raises(HierarchyViolation) as info:
            run_sweep(spec)
        out = good[2].outputs
        assert str(info.value) == (f"C_R > 2 C_SLD: c_sld={out['c_sld']!r} c_h={out['c_h']!r} "
                                   f"c_t={out['c_t']!r} c_r={2.5 * out['c_sld']!r}")

    @pytest.mark.parametrize(
        "fixed, axes, message",
        [
            (
                {"r_z": 0.5},
                (Axis("r2", 0.6, 0.1, 3), Axis("phi", 0.0, 1.0, 2)),
                "r2=0.1 is below r_z^2",
            ),
            (
                {"phi": 0.0, "r_y": 0.3, "r_z": 0.3},
                (Axis("lambda2", 0.0, 1.0, 2), Axis("r_x", 0.5, 1.1, 4)),
                "Bloch vector norm 1.1789826122551597 exceeds 1",
            ),
            (
                # the first row is too long; a later one has r2 below r_z^2
                {"r_z": 0.5},
                (Axis("r2", 1.2, 0.1, 4), Axis("phi", 0.0, 1.0, 2)),
                "Bloch vector norm 1.0954451150103321 exceeds 1",
            ),
            (
                # r2 and r_z both fixed: the rule reads two scalars
                {"r_z": 0.5, "r2": 0.2}, (Axis("phi", 0.0, 1.0, 2),), "r2=0.2 is below r_z^2",
            ),
        ],
        ids=["r2_below_rz2", "bloch_norm_above_1", "first_row_first", "fixed_r2_below_rz2"],
    )
    def test_invalid_row_raises_as_serial(self, fixed, axes, message):
        # the messages are the ones the one-point-at-a-time sweep raised
        base = {"gamma": 0.7, "theta": 1.5, "lambda1": 0.0}
        spec = SweepSpec("tunable_qubit", fixed={**base, **fixed}, axes=axes)
        with pytest.raises(InvalidSpec) as info:
            run_sweep(spec)
        assert str(info.value) == message


class TestRowInvariantConstants:
    """Fixed constants stay scalars through binding and the model stage; the
    earlier route bound each one as a full row."""

    @staticmethod
    def _compare_with_full_rows(monkeypatch, run):
        # every chunk the sweep evaluates is evaluated again with each fixed
        # constant bound as one value per row, and must hold the same bits
        evaluate, compared = sweep._evaluate_chunk, []

        def both(spec, bound, rows):
            chunk = evaluate(spec, bound, rows)
            full = {k: np.full(rows, float(v)) for k, v in spec.fixed.items()}
            want = evaluate(spec, {**full, **bound}, rows)
            assert chunk.values.tobytes() == want.values.tobytes()
            assert (chunk.void is None) == (want.void is None)
            if chunk.void is not None:
                np.testing.assert_array_equal(chunk.void, want.void)
            np.testing.assert_array_equal(chunk.codes, want.codes)
            assert chunk.flags == want.flags
            compared.append(rows)
            return chunk

        monkeypatch.setattr(sweep, "_evaluate_chunk", both)
        run()
        assert compared

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"])
    def test_presets_match_full_rows(self, name, monkeypatch):
        config = {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {}
        spec = figure_preset(name, {**config, "count": 5})
        self._compare_with_full_rows(monkeypatch, lambda: run_sweep(spec))

    @pytest.mark.parametrize("case", ["fixed_bloch", "fixed_log_axis", "run_point_su2",
                                      "run_point_fig1", "run_point_bloch", "run_point_fig3b"])
    def test_specs_match_full_rows(self, case, monkeypatch):
        bloch = {key: MIXED_QUBIT[key] for key in ("gamma", "theta", "phi", "r_x", "r_y", "r_z")}
        specs = {
            "fixed_bloch": SweepSpec("tunable_qubit", bloch, (Axis("lambda1", 0.0, 1.0, 4),
                                                              Axis("lambda2", -0.5, 0.5, 3))),
            "fixed_log_axis": replace(figure_preset("fig1"), fixed={"omega_log10": 0.7},
                                      axes=(Axis("lambda1", 0.0, 0.5, 5),)),
            "run_point_su2": SweepSpec("su2_qutrit", ANCHOR),
            "run_point_fig1": replace(figure_preset("fig1"), axes=(), fixed={"omega_log10": -0.4}),
            "run_point_bloch": SweepSpec("tunable_qubit", MIXED_QUBIT),
            # a fig3b row binds both r2 and r_z as fixed scalars
            "run_point_fig3b": replace(figure_preset("fig3b"), axes=(),
                                       fixed={**figure_preset("fig3b").fixed, "r2": 0.5,
                                              "phi": 0.3}),
        }
        run = run_point if case.startswith("run_point") else run_sweep
        self._compare_with_full_rows(monkeypatch, lambda: run(specs[case]))

    @pytest.mark.parametrize("name, n", [("fig4", 2), ("fig5", 3)])
    def test_pure_state_built_once_per_chunk(self, name, n, monkeypatch):
        # psi0 depends on alpha and beta alone, both fixed in these presets
        shapes, pure_vectors = [], models._pure_vectors

        def recorded(psi0, *args):
            shapes.append(psi0.shape)
            return pure_vectors(psi0, *args)

        monkeypatch.setattr(models, "_pure_vectors", recorded)
        run_sweep(figure_preset(name, {"count": 5}))
        assert shapes == [(n,)]


def _assert_sweep_matches_oracle(spec, oracle=use_matmul_oracle, spread=0.0):
    """Every row of ``spec``'s sweep within (1e-12 + 1e-16 cond(Q)) |v|, or
    spread cond(Q) |v| where that is larger, of the sweep through
    ``oracle``, with identical flags; returns the rows."""
    rows = run_sweep(spec)
    with pytest.MonkeyPatch.context() as patch:
        oracle(patch)
        qfims, model_geometry = [], sweep.model_geometry

        def recorded(*args, **kwargs):
            g = model_geometry(*args, **kwargs)
            qfims.append(g.qfim)
            return g

        patch.setattr(sweep, "model_geometry", recorded)
        want = run_sweep(spec)
    conds = np.linalg.cond(np.concatenate(qfims))
    for got, ref, cond in zip(rows, want, conds, strict=True):
        _assert_rows_close(got, ref, 1e-12, cond, spread)
    return rows


class TestStructuredRoutes:
    """The pure states as vectors, the mixed-qubit route and the qubit's
    closed-form normal direction against the density-matrix SLD route kept
    in tests/conftest.py."""

    ROUTE_OUTPUTS = ("c_sld", "c_rld", "c_t", "c_r", "c_h", "R", "T")

    def test_fig1_matches_oracle(self):
        # the maximized rows are pure by construction; omega = 1e9 exactly
        # sits on the 1 / RANK_TOL line to within an ulp, so the singular
        # end steps past it
        spec = figure_preset("fig1", {"count": 12})
        _assert_sweep_matches_oracle(spec)
        spec = replace(spec, axes=(Axis("lambda1", 0.0, 0.5, 3), Axis("omega_log10", 7.5, 10.5, 4)))
        flags = [row.flags for row in _assert_sweep_matches_oracle(spec)]
        assert flags == [(), (), ("SingularQFIM",), ("SingularQFIM",)] * 3

    @pytest.mark.parametrize("model_id", ["su2_qubit", "su2_qutrit"])
    def test_singular_line_matches_oracle(self, model_id):
        # B t = 2 pi carries no theta information: the grid of
        # test_su2_qubit_grid_crossing_the_singular_line closes in on it from
        # both sides, past cond(Q) = 1 / RANK_TOL into the singular rows:
        # 46 regular and 48 singular rows for the qubit, 32 and 62 for the
        # qutrit
        offsets = np.concatenate([-np.logspace(-2.0, -7.5, 23), [0.0], np.logspace(-7.5, -2.0, 23)])
        fixed = {"alpha": 1.0, "beta": 0.3, "t": 1.0}
        if model_id == "su2_qutrit":
            fixed["phi"] = 0.4
        flags = []
        for b in 2.0 * math.pi + offsets:
            spec = SweepSpec(model_id, fixed={**fixed, "B": float(b)},
                             axes=(Axis("theta", 0.3, 0.9, 2),), outputs=self.ROUTE_OUTPUTS)
            flags += [row.flags for row in _assert_sweep_matches_oracle(spec)]
        assert flags.count(("RldUnavailable", "SingularQFIM")) >= 48
        assert flags.count(("RldUnavailable",)) >= 32

    @settings(max_examples=30, deadline=None)
    @given(
        radius=st.sampled_from([1.0, 1.0 - 1e-12]),
        polar=st.floats(0.3, 2.8), theta=st.floats(0.3, 2.8), gamma=st.floats(0.3, 1.2),
        angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
    )
    def test_near_pure_probes_match_oracle(self, radius, polar, theta, gamma, angles):
        # rho's lower eigenvalue is at most 5e-13: the qubit route's SLD
        # drops its support term, Re S is singular to within it, and every
        # row takes the pure-state shortcut C_H = C_T.  The probe's polar
        # angle, theta and gamma stay away from 0 and pi, the model's
        # singular lines, where Q's small eigenvalue carries rounding of
        # about 1e-15 cond(Q) on either route
        azimuth, phi, lambda2 = angles
        r = radius * np.array([math.sin(polar) * math.cos(azimuth),
                               math.sin(polar) * math.sin(azimuth), math.cos(polar)])
        fixed = {"gamma": gamma, "theta": theta, "phi": phi, "lambda2": lambda2,
                 "r_x": r[0], "r_y": r[1], "r_z": r[2]}
        spec = SweepSpec("tunable_qubit", fixed=fixed, outputs=self.ROUTE_OUTPUTS,
                         axes=(Axis("lambda1", 0.1, 1.3, 7),))
        for row in _assert_sweep_matches_oracle(spec):
            assert row.outputs["c_h"] == row.outputs["c_t"]

    @settings(max_examples=30, deadline=None)
    @given(lambda_2=st.floats(5e-11, 1e-9), lambda_1=st.floats(0.0, math.pi),
           phi=st.floats(0.0, 2.0 * math.pi))
    def test_pure_mixed_band_matches_oracle(self, lambda_2, lambda_1, phi):
        # the band of test_pure_mixed_line_agrees; c_rld is left out because
        # lambda_2 = 1e-10 puts rho's lower eigenvalue on SUPPORT_TOL itself,
        # where RldUnavailable follows the last bit
        r = 1.0 - 2.0 * lambda_2
        r_xy = math.sqrt((r * r - 0.4**2) / 2.0)
        fixed = {"gamma": math.pi / 4, "theta": math.pi / 2, "phi": phi, "lambda2": 0.0,
                 "lambda1": lambda_1, "r_x": r_xy, "r_y": r_xy, "r_z": 0.4}
        spec = SweepSpec("tunable_qubit", fixed=fixed,
                         outputs=tuple(name for name in self.ROUTE_OUTPUTS if name != "c_rld"))
        row, = _assert_sweep_matches_oracle(spec)
        assert row.outputs["c_h"] == row.outputs["c_t"]


# A pure probe on a rotation axis 1e-4 from z, whose row at lambda1 = 0.25
# has cond(Q) = 6.5e9: past the 1 / RANK_TOL line, where a regular row
# would have lost a tangent direction and solved below C_T.
_BAND_EXAMPLE = dict(radius=1.0, polar=0.5, theta=1e-4, gamma=1.0, angles=[0.0, 0.0, 0.0])


class TestBlochRoute:
    """The mixed tunable qubit carried as (r, d r) from the model to the
    bounds, against 40-digit values of the same floats (tests/exact.py)
    and the route that handed over rho and its derivatives and built the
    SLD matrices and the Gell-Mann coordinates from them
    (`use_bloch_matrix_oracle` in tests/conftest.py)."""

    @pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b"])
    def test_presets_equal_oracle(self, name):
        # every flag, void cell and flag code as on the matrix route, c_rld
        # included; R, T, C_SLD, C_T and C_R of every row at default
        # density within 32 eps of the exact values (fig2's cond(Q) reaches
        # 4e7; 20 eps at worst, on fig3a); gap_h is T and c_rld is c_t to
        # the bit, C_H = C_T and C_RLD = C_T being theorems on these rows
        spec = preset_spec(name)
        errors = sweep_errors(spec)
        assert not errors["null"].any()
        assert np.all(errors["error"] <= 32.0)
        got = errors["result"]
        with pytest.MonkeyPatch.context() as patch:
            use_bloch_matrix_oracle(patch)
            want = run_sweep(spec)
        assert len(got.chunks) == len(want.chunks) > 1
        h, t, rld, c_t = (len(spec.axes) + CANONICAL_OUTPUTS.index(k)
                          for k in ("gap_h", "T", "c_rld", "c_t"))
        for a, b in zip(got.chunks, want.chunks):
            assert a.values[:, h].tobytes() == a.values[:, t].tobytes()
            assert a.values[:, rld].tobytes() == a.values[:, c_t].tobytes()
            np.testing.assert_array_equal(a.void, b.void)
            np.testing.assert_array_equal(a.codes, b.codes)
            assert a.flags == b.flags

    @pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b"])
    def test_structural_c_rld_matches_matrix_route(self, name):
        # C_RLD = C_T on every row at count = 12, against the RLD bound of
        # the matrices rho = (I + r.sigma) / 2 and d_k rho = d_k r.sigma / 2
        # (`general._c_rld`), within that route's own error, 64 eps cond(Q)
        # (26 eps cond(Q) on fig2 at default density), and with the same
        # rows flagged RldUnavailable
        spec = preset_spec(name, count=12)
        bloch, columns = [], []
        model_arrays, reports = sweep.model_arrays, sweep.batch_reports
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "model_arrays", lambda *a: bloch.append(
                model_arrays(*a).bloch) or model_arrays(*a))
            patch.setattr(sweep, "batch_reports", lambda *a: columns.append(
                (a[2], a[3], reports(*a))) or columns[-1][2])
            run_sweep(spec)
        assert len(columns) == 1
        (r, dr), (g, w_mat, cols) = bloch[0], columns[0]
        j = general._rld_matrix(*general._bloch_state(r, dr))
        want, singular = general._c_rld(j, w_mat, w_mat)  # W = I
        np.testing.assert_array_equal(cols["flags"]["RldUnavailable"], singular)
        assert not singular.any() and cols["c_rld"].tobytes() == cols["c_t"].tobytes()
        w = np.linalg.eigvalsh(g.qfim)
        tol = 64.0 * np.finfo(float).eps * w[:, -1] / w[:, 0]
        assert np.all(np.abs(cols["c_rld"] - want) <= tol * want)

    @given(
        radius=st.one_of(st.just(1.0), st.floats(-14.0, -0.3).map(lambda e: 1.0 - 10.0**e)),
        polar=st.floats(0.1, 3.0), theta=st.floats(1e-4, 0.5 * math.pi),
        gamma=st.floats(0.05, 1.5),
        angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
    )
    @example(**_BAND_EXAMPLE)
    @example(radius=1.0 - 2.0 * SUPPORT_TOL, polar=0.5, theta=1e-3, gamma=1.0,
             angles=[0.0, 0.0, 0.0])
    def test_near_pure_rows_match_oracle(self, radius, polar, theta, gamma, angles):
        # probes up to the pure ones and rotation axes close to z, where the
        # two parameters nearly coincide and cond(Q) grows as 1 / theta^2,
        # past 1 / RANK_TOL: every regular row holds R to 4 eps and T,
        # C_SLD, C_T and C_R to 3 eps (1 + sqrt(cond(Q))) of 40-digit
        # values from the same floats (test_bloch_rows_match_exact_values),
        # and no row, up to the pure line, carries RAboveOne
        azimuth, phi, lambda2 = angles
        r = radius * np.array([math.sin(polar) * math.cos(azimuth),
                               math.sin(polar) * math.sin(azimuth), math.cos(polar)])
        fixed = {"gamma": gamma, "theta": theta, "phi": phi, "lambda2": lambda2,
                 "r_x": r[0], "r_y": r[1], "r_z": r[2]}
        spec = validate_spec(SweepSpec("tunable_qubit", fixed=fixed,
                                       axes=(Axis("lambda1", 0.1, 1.3, 9),)))
        errors = sweep_errors(spec)
        rows = errors["result"]
        regular = ~errors["null"]
        budget = np.where(np.array(EXACT_OUTPUTS) == "R", 4.0,
                          3.0 * (1.0 + np.sqrt(errors["cond"]))[:, None])
        assert np.all(errors["error"][regular] <= budget[regular])
        assert not any("RAboveOne" in row.flags for row in rows)
        assert [i for i, row in enumerate(rows) if "SingularQFIM" in row.flags] == (
            errors["null"].nonzero()[0].tolist())
        if dict(radius=radius, polar=polar, theta=theta, gamma=gamma, angles=angles) == _BAND_EXAMPLE:
            # its row at lambda1 = 0.25 has cond(Q) = 6.5e9, past the line:
            # ill, a flagged null row
            assert errors["null"].nonzero()[0].tolist() == [1]

    def test_matrices_only_for_the_rld(self, monkeypatch):
        # a fig2 chunk builds neither rho nor the Gell-Mann basis, C_RLD
        # asked or not, since C_RLD = C_T on its rows; the RLD bound of the
        # same qubit given as a model point builds rho and its derivatives
        calls = []
        for module, name in ((general, "_bloch_state"), (general, "_gell_mann")):
            monkeypatch.setattr(module, name, lambda *a, _fn=getattr(module, name), _name=name: (
                calls.append(_name) or _fn(*a)))
        spec = validate_spec(figure_preset("fig2", {"r_y": 0.2, "r_z": 0.4, "count": 12}))
        assert len(run_sweep(spec)) == 144
        rows = run_sweep(replace(spec, outputs=CANONICAL_OUTPUTS))
        assert calls == []
        fixed = {**spec.fixed, **dict(zip((ax.name for ax in spec.axes), rows[5].axis_values))}
        cfg, params = _serial_bind(spec.model_id, fixed)
        report = full_report(model_point(cfg, params), np.eye(2),
                             ReportOptions(compute_holevo=False))
        assert calls == ["_bloch_state"]
        assert report.c_rld == pytest.approx(rows[5].outputs["c_t"], rel=1e-12)
