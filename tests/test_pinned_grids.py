"""Every figure preset at its default density against its pinned grid
(`pinned_grids.py`): each cell within (1e-12 + 1e-16 cond(Q)) |v| of the
pinned value v, the same void cells and the same flags.  Each run prints,
per column, the changed-cell count, the worst change / tolerance ratio and
the largest change (``pytest -s``)."""

import numpy as np
import pytest

from pinned_grids import PRESETS, read, sweep_grid


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_matches_pinned_grid(name):
    want, got = read(name), sweep_grid(name)
    assert got["columns"] == want["columns"]
    assert got["values"].shape == want["values"].shape
    np.testing.assert_array_equal(got["void"], want["void"])
    assert got["flags"] == want["flags"]
    old, new = want["values"], got["values"]
    same = want["void"] | (old == new) | (np.isnan(old) & np.isnan(new))
    change = np.where(same, 0.0, np.abs(new - old))
    with np.errstate(invalid="ignore"):  # an infinite cond(Q) times |v| = 0 allows no change
        tol = (1e-12 + 1e-16 * want["cond"][:, None]) * np.abs(old)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero tolerance: inf or nan
        ratio = np.where(same, 0.0, change / tol)
    print(f"{name}: {np.count_nonzero(~same)} of {old.size} cells changed")
    for column, kept, worst, largest in zip(want["columns"], same.T, ratio.T, change.T):
        print(f"  {column}: {np.count_nonzero(~kept)} changed, worst change / tolerance "
              f"{np.nanmax(worst, initial=0.0):.3g}, largest change {largest.max(initial=0.0):.3g}")
    outside = ~same & ~(change <= tol)
    rows, cols = np.nonzero(outside)
    assert not outside.any(), (
        f"{outside.sum()} cells outside the tolerance, first at row {rows[0]} column "
        f"{want['columns'][cols[0]]!r}: {old[rows[0], cols[0]]!r} -> {new[rows[0], cols[0]]!r}")
