"""SHA-256 of the figure presets' output text, to compare two trees byte for byte.

Twenty-two outputs: the six presets with their default outputs, and fig2 to
fig5 with every canonical output, each as CSV and as JSON (fig2 with
r_y=0.2, r_z=0.4).  Each line is the digest, then the output's label:

    PYTHONPATH=src python tests/preset_digests.py
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import replace

from qmb import sweep

CONFIGS = {"fig1": {}, "fig2": {"r_y": 0.2, "r_z": 0.4}, "fig3a": {}, "fig3b": {}, "fig4": {},
           "fig5": {}}


def outputs():
    """(label, spec) of each preset output set, default outputs first."""
    for name, config in CONFIGS.items():
        yield name, sweep.figure_preset(name, config)
    for name, config in CONFIGS.items():
        if name != "fig1":  # a maximization sweep reports R and T only
            spec = sweep.figure_preset(name, config)
            yield f"{name} all outputs", replace(spec, outputs=sweep.CANONICAL_OUTPUTS)


def digests() -> dict[str, str]:
    """The SHA-256 of each output's CSV and JSON text, by label."""
    out = {}
    for label, spec in outputs():
        spec = sweep.validate_spec(spec)
        rows = sweep.run_sweep(spec)
        for fmt in ("csv", "json"):
            text = io.StringIO()
            sweep.emit(rows, fmt, text, spec)
            out[f"{label} {fmt}"] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    return out


if __name__ == "__main__":
    for label, digest in digests().items():
        print(digest, label)
