"""The six figure presets at their default density, pinned as gzipped CSV in
tests/data/ with full-precision cells and each row's cond(Q).

Regenerate the files, after a change that is meant to move the figures,
with

    PYTHONPATH=src python tests/pinned_grids.py

`test_pinned_grids.py` compares a fresh sweep of each preset against them.
"""

from __future__ import annotations

import csv
import gzip
import io
from pathlib import Path

import numpy as np

from qmb import sweep
from qmb.sweep import columns, figure_preset, run_sweep

DATA = Path(__file__).resolve().parent / "data"
PRESETS = {"fig1": {}, "fig2": {"r_y": 0.2, "r_z": 0.4}, "fig3a": {}, "fig3b": {}, "fig4": {},
           "fig5": {}}


def path(name: str) -> Path:
    return DATA / f"pinned_{name}.csv.gz"


def sweep_grid(name: str) -> dict:
    """The preset's sweep as arrays: ``values`` (rows, columns) with its
    ``void`` mask, ``flags`` (one string per row) and ``cond``, each row's
    lambda_max / lambda_min of Q (inf where Q has no positive lowest
    eigenvalue), read from the geometry of each chunk."""
    spec = figure_preset(name, PRESETS[name])
    conds, model_geometry = [], sweep.model_geometry

    def recorded(*arrays):
        g = model_geometry(*arrays)
        w = g._qfim_eigh[0]
        with np.errstate(divide="ignore"):
            conds.append(np.where(w[:, 0] > 0.0, w[:, -1] / w[:, 0], np.inf))
        return g

    sweep.model_geometry = recorded
    try:
        result = run_sweep(spec)
    finally:
        sweep.model_geometry = model_geometry
    values = np.concatenate([c.values for c in result.chunks])
    void = np.concatenate([np.zeros(c.values.shape, bool) if c.void is None else c.void
                           for c in result.chunks])
    return {"columns": columns(spec), "values": values, "void": void,
            "flags": [";".join(row.flags) for row in result], "cond": np.concatenate(conds)}


def write(name: str) -> None:
    """The preset's grid as CSV: every cell as repr(float) or empty where
    void, then the flags and cond(Q); gzipped with no timestamp."""
    grid = sweep_grid(name)
    text = io.StringIO()
    out = csv.writer(text, lineterminator="\n")
    out.writerow([*grid["columns"], "cond_q"])
    for values, void, flags, cond in zip(grid["values"].tolist(), grid["void"].tolist(),
                                         grid["flags"], grid["cond"].tolist()):
        out.writerow([*("" if v else repr(x) for x, v in zip(values, void)), flags, repr(cond)])
    with open(path(name), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as handle:
            handle.write(text.getvalue().encode())


def read(name: str) -> dict:
    """A pinned grid in the arrays of `sweep_grid`, ``cond`` included."""
    with gzip.open(path(name), "rt", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    cells = [row[:-2] for row in rows]
    void = np.array([[c == "" for c in row] for row in cells], bool).reshape(len(rows), -1)
    values = np.array([[float(c) if c else 0.0 for c in row] for row in cells]).reshape(void.shape)
    return {"columns": header[:-1], "values": values, "void": void,
            "flags": [row[-2] for row in rows], "cond": np.array([float(r[-1]) for r in rows])}


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for preset in PRESETS:
        write(preset)
        print(path(preset))
