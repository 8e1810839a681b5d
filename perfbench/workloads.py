"""Benchmark workloads: figure presets at fixed grid sizes.

Each workload is one ``qmb preset`` sweep at a grid small enough that a
single pass takes a few seconds on one core, so a run holds several passes,
each in a fresh process.  Why each workload exists is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class Workload:
    preset: str
    count: int
    config: Mapping[str, float] = field(default_factory=dict)
    # Output columns that come from an iterative optimizer and are compared
    # with the reference at the looser iterative tolerance.
    iterative: tuple[str, ...] = ("gap_h",)


WORKLOADS: dict[str, Workload] = {
    "fig2_mixed_qubit": Workload("fig2", 12, {"r_y": 0.2, "r_z": 0.4}),
    "fig5_qutrit": Workload("fig5", 7),
    "fig4_pure_qubit": Workload("fig4", 32),
    "fig1_weight_scan": Workload("fig1", 5, iterative=("R", "T")),
}

REFERENCE_SEED = 0


def build_spec(sweep, name: str, seed: int):
    """The validated sweep spec of a workload, as ``qmb preset`` builds it."""
    wl = WORKLOADS[name]
    config = {**wl.config, "count": wl.count, "seed": seed}
    return sweep.validate_spec(sweep.figure_preset(wl.preset, config))
