"""Tests of the benchmark itself: the correctness checker, the repeatability
of traced counts, the metric names, and failure outside a full checkout.

Run from the root of the repository:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE_TEXT = (check.REFERENCE_DIR / "fig2_mixed_qubit.csv").read_text()


def edited(row: int, column: str, change) -> str:
    """The fig2 reference CSV with one cell of one data row changed."""
    lines = REFERENCE_TEXT.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = change(cells[header.index(column)])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def failures(text: str) -> int:
    return check.check_output("fig2_mixed_qubit", text, WORKLOADS["fig2_mixed_qubit"].iterative)[1]


def scaled(factor: float):
    return lambda cell: repr(float(cell) * factor)


def test_reference_passes_its_own_check():
    assert failures(REFERENCE_TEXT) == 0


@pytest.mark.parametrize(
    "column, change",
    [
        ("gap_t", scaled(1 + 1e-7)),  # closed form, beyond 1e-9
        ("gap_h", scaled(1 - 1e-4)),  # iterative, beyond 1e-6
        ("gap_r", lambda cell: ""),  # value vanished
        ("flags", lambda cell: "HierarchyViolation"),  # not a physics flag
    ],
)
def test_checker_rejects_perturbed_row(column, change):
    assert failures(edited(5, column, change)) == 1


@pytest.mark.parametrize(
    "column, change",
    [
        ("gap_h", scaled(1 + 1e-8)),  # within the iterative tolerance
        ("gap_t", scaled(1 + 1e-11)),  # within the closed-form tolerance
        ("flags", lambda cell: "HolevoNotConverged"),  # physics flag
    ],
)
def test_checker_accepts_row_within_tolerance(column, change):
    assert failures(edited(5, column, change)) == 0


@pytest.mark.parametrize(
    "row",
    [
        {"gap_h": "0.5", "gap_t": "0.4", "gap_r": "0.6"},
        {"gap_h": "0.1", "gap_t": "0.4", "gap_r": "1.01"},
        {"T": "0.9", "R": "0.8"},
    ],
)
def test_checker_rejects_broken_bound_chain(row):
    """Even a row equal to its reference fails when it breaks the chain."""
    problems = check.row_problems(row, row, ())
    assert len(problems) == 1 and "bound chain" in problems[0]


def test_checker_fails_every_row_of_a_missing_output():
    attempted, failed, _ = check.check_output("fig2_mixed_qubit", "", ("gap_h",))
    assert attempted == failed == len(REFERENCE_TEXT.splitlines()) - 1


def test_end_to_end_names_match_benchmark_json():
    fake = {"points": 10, "failed": 0, "wall_s": 1.0, "setup_s": 0.2, "speed": 1.0, "peak_rss_mb": 40.0}
    metrics = run.end_to_end_metrics([fake, fake])
    assert [(n, u) for n, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_second_seed_passes(workload, tmp_path):
    seed = REFERENCE_SEED + 3
    deadline = time.monotonic() + 300
    passes = [run.run_pass(workload, seed, True, tmp_path, 0, deadline) for _ in range(2)]
    assert all(p["failed"] == 0 for p in passes)
    first, second = (layer_metrics([p], [p]) for p in passes)
    assert [(n, u) for n, (_, u) in first.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    exact = [n for n, (_, u) in first.items() if u in ("count", "bytes")]
    exact += ["bounds.holevo.useful_share", "bounds.holevo.not_converged"]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the command exits non-zero
    and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_pure_qubit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
