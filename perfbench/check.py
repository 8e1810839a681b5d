"""Row-by-row correctness check of a sweep's CSV output against a reference.

The reference CSVs in ``reference/`` were written by ``record_reference.py``
from the library at the commit that introduced this benchmark.  A row fails
when any value leaves its tolerance, when a value appears or disappears,
when it carries a flag that is neither a physics flag nor in the reference
row, or when it breaks the bound chain.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Closed-form columns (axis values, R, T, gap_t, gap_r) must agree to about
# the 12 significant digits the CSV keeps; columns produced by an iterative
# optimizer (gap_h, and fig1's maximized R and T) only to the optimizer's
# convergence level.
CLOSED_RTOL = 1e-9
CLOSED_ATOL = 1e-12
ITERATIVE_RTOL = 1e-6
ITERATIVE_ATOL = 1e-8
# Allowed excess in gap_h <= gap_t <= gap_r <= 1 and T <= R <= 1; the gaps
# are relative to C_SLD, so this matches the library's own hierarchy slack.
CHAIN_SLACK = 1e-7

# Flags that report physics (a singular point, an unavailable bound), not a
# defect; a row may carry them without failing.
PHYSICS_FLAGS = frozenset(
    {"SingularQFIM", "PseudoInverseUsed", "RldUnavailable", "HolevoNotConverged"}
)


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, cells)) for cells in reader]


def load_reference(name: str) -> tuple[list[str], list[dict[str, str]]]:
    return parse_csv((REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8"))


def _value(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def row_problems(
    got: dict[str, str], want: dict[str, str], iterative: tuple[str, ...]
) -> list[str]:
    """Every reason a row differs from its reference row; empty if it passes."""
    problems = []
    for col, want_cell in want.items():
        if col == "flags":
            continue
        got_cell = got.get(col)
        if got_cell is None:
            problems.append(f"{col}: missing")
            continue
        g, w = _value(got_cell), _value(want_cell)
        if g is None or w is None:
            if g is not w:
                problems.append(f"{col}: {got_cell!r} vs reference {want_cell!r}")
            continue
        rtol, atol = (
            (ITERATIVE_RTOL, ITERATIVE_ATOL) if col in iterative else (CLOSED_RTOL, CLOSED_ATOL)
        )
        if not _close(g, w, rtol, atol):
            problems.append(f"{col}: {g!r} vs reference {w!r}")
    allowed = PHYSICS_FLAGS | set(filter(None, want.get("flags", "").split(";")))
    unexpected = set(filter(None, got.get("flags", "").split(";"))) - allowed
    if unexpected:
        problems.append(f"unexpected flags {sorted(unexpected)}")
    for chain in (("gap_h", "gap_t", "gap_r"), ("T", "R")):
        present = [(c, _value(got[c])) for c in chain if got.get(c)] + [("1", 1.0)]
        for (lo_name, lo), (hi_name, hi) in zip(present, present[1:]):
            if lo > hi + CHAIN_SLACK:
                problems.append(f"bound chain broken: {lo_name}={lo!r} > {hi_name}={hi!r}")
    return problems


def check_output(name: str, text: str, iterative: tuple[str, ...]) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, problem descriptions) for a sweep's CSV."""
    want_header, want_rows = load_reference(name)
    got_header, got_rows = parse_csv(text)
    attempted = len(want_rows)
    if got_header != want_header:
        return attempted, attempted, [f"header {got_header} vs reference {want_header}"]
    failed = 0
    problems = []
    for index, want in enumerate(want_rows):
        found = row_problems(got_rows[index], want, iterative) if index < len(got_rows) else ["missing"]
        if found:
            failed += 1
            problems.append(f"row {index}: " + "; ".join(found))
    if len(got_rows) > attempted:
        problems.append(f"{len(got_rows) - attempted} rows beyond the reference")
        failed = attempted
    return attempted, failed, problems
