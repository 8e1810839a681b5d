"""The start-up contract: `import qmb` and every preset leave `qmb.general`
(density-matrix input, the dual Holevo solver, the RLD bound) unloaded, and
its names still resolve through the package on first use."""

import os
import subprocess
import sys
import textwrap

import pytest

import qmb

CHILD = textwrap.dedent("""
    import io, math, sys
    from contextlib import redirect_stdout
    from dataclasses import replace

    import numpy as np

    import qmb
    from qmb import cli, sweep

    for name in ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"):
        spec = sweep.figure_preset(name, {"r_y": 0.2, "r_z": 0.4} if name == "fig2" else {})
        rows = sweep.run_sweep(spec)
        for fmt in ("csv", "json"):
            sweep.emit(rows, fmt, io.StringIO(), spec)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["preset", "fig5"]) == 0
    assert set(qmb.__all__) <= set(dir(qmb))
    assert "qmb.general" not in sys.modules, "a preset loaded qmb.general"

    if sys.argv[1] == "c_rld":
        spec = sweep.figure_preset("fig2", {"r_y": 0.2, "r_z": 0.4, "count": 3})
        rows = sweep.run_sweep(replace(spec, outputs=("c_rld", "gap_h")))
        assert len(rows) == 9 and all(math.isfinite(row.outputs["c_rld"]) for row in rows)
    else:
        cfg = qmb.model_config("su2_qutrit", alpha=math.pi / 4, beta=0.0, t=1.0)
        report = qmb.full_report(qmb.model_point(cfg, (math.pi, 0.2, 0.0)), np.eye(3))
        assert report.c_h is not None
    assert "qmb.general" in sys.modules

    star = {}
    exec("from qmb import *", star)
    assert set(qmb.__all__) <= set(star)
    assert all(getattr(qmb, name) is star[name] for name in qmb.__all__)
    assert qmb.compute_geometry is qmb.general.compute_geometry
""")


@pytest.mark.parametrize("first_use", ["c_rld", "full_report"])
def test_presets_leave_general_unloaded(first_use):
    # a fresh interpreter, as a `qmb preset` process starts: the six presets
    # through run_sweep, CSV and JSON, and the CLI load no qmb.general; a
    # sweep asking for C_RLD, or full_report on a model point, loads it
    src_dir = os.path.dirname(os.path.dirname(qmb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, first_use],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
