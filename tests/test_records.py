"""Value records are NamedTuples: built by keyword, with their defaults,
changed by ``_replace``, hashable where their fields are.  Only the two
records that cache state derived from their fields stay dataclasses."""

import dataclasses
import inspect

import numpy as np
import pytest

import qmb
from qmb import bounds, cli, errors, general, geometry, linalg, models, sweep
from qmb.bounds import BoundsReport, HolevoSolution, ReportOptions
from qmb.general import ModelPoint, NormalSpaceBasis, TSaturationReport, WeightTransform
from qmb.models import ModelConfig
from qmb.sweep import Axis, ResultRow, WeightSpec

PUBLIC_RECORDS = [HolevoSolution, ReportOptions, BoundsReport, WeightTransform,
                  TSaturationReport, NormalSpaceBasis, ModelConfig, ModelPoint, Axis,
                  WeightSpec, ResultRow]


def test_only_cached_records_are_dataclasses():
    # InformationGeometry caches its inverses and SweepSpec its validated
    # options; dataclasses.replace drops that state, where _replace would copy it
    modules = (qmb, bounds, cli, errors, general, geometry, linalg, models, sweep)
    classes = {cls for module in modules
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__.startswith("qmb")}
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} == {
        "InformationGeometry", "SweepSpec"}
    assert geometry._WeightFrame in classes and bounds._TangentSetup in classes


@pytest.mark.parametrize("record", PUBLIC_RECORDS, ids=lambda r: r.__name__)
def test_record_keyword_construction_and_replace(record):
    values = {name: f"{name} value" for name in record._fields}
    rec = record(**values)
    assert rec._asdict() == values
    first = record._fields[0]
    changed = rec._replace(**{first: "other"})
    assert getattr(changed, first) == "other" and getattr(rec, first) == values[first]
    assert changed[1:] == rec[1:]


def test_record_defaults():
    assert WeightSpec() == WeightSpec(kind="identity", values=(), axis=None)
    assert ReportOptions() == ReportOptions(pseudo_inverse=False, compute_rld=True,
                                            compute_holevo=True)


@pytest.mark.parametrize("record", [
    Axis("r_x", 0.1, 0.8, 32), WeightSpec("diag", (1.0, 2.0)), ReportOptions(compute_rld=False),
], ids=lambda r: type(r).__name__)
def test_spec_records_are_hashable(record):
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_fig5_chunk_takes_the_core_norm_once(monkeypatch):
    # the weight frame takes ||core||_1, and with it C_T, once per chunk;
    # the regular rows' group slices them, and its exact step evaluates the
    # objective, whose trace norm is the group's one call
    calls = {"geometry": 0, "bounds": 0}
    for module in (geometry, bounds):
        def counted(m, _name=module.__name__.split(".")[-1], _fn=linalg.tracenorm_antisym):
            calls[_name] += 1
            return _fn(m)

        monkeypatch.setattr(module, "tracenorm_antisym", counted)
    rows = sweep.run_sweep(sweep.validate_spec(sweep.figure_preset("fig5")))
    assert len(rows.chunks) == 1 and np.isfinite(rows.chunks[0].values).all()
    assert calls == {"geometry": 1, "bounds": 1}
