"""SHA-256 of the figure presets' output text, to compare two trees byte for byte.

Twenty-two outputs: the six presets with their default outputs, and fig2 to
fig5 with every canonical output, each as CSV and as JSON (fig2 with
r_y=0.2, r_z=0.4).  Each line is the digest, then the output's label:

    PYTHONPATH=src python tests/preset_digests.py > digests.txt

With ``--compare FILE`` the digests are checked against a saved listing,
such as the script's own output on another tree: it names each output whose
digest moved, or that one side lacks, and exits 1 if any did:

    PYTHONPATH=src python tests/preset_digests.py --compare digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
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


def compare(saved: dict[str, str], now: dict[str, str]) -> list[str]:
    """A line for each label whose digest differs between two listings, or
    that only one of them holds."""
    return [f"{label}: {'moved' if label in saved and label in now else 'missing'} "
            f"({saved.get(label, '-')[:12]} -> {now.get(label, '-')[:12]})"
            for label in [*saved, *(k for k in now if k not in saved)]
            if saved.get(label) != now.get(label)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="a saved listing to check the digests against")
    args = parser.parse_args(argv)
    now = digests()
    if args.compare is None:
        for label, digest in now.items():
            print(digest, label)
        return 0
    saved = {}
    with open(args.compare, encoding="utf-8") as handle:
        for line in filter(str.strip, handle):
            digest, label = line.rstrip("\n").split(" ", 1)
            saved[label] = digest
    changed = compare(saved, now)
    print(*changed, f"{len(changed)} of {len(set(saved) | set(now))} outputs changed", sep="\n")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
