"""Write the reference CSV of every workload into ``reference/``.

Run from the root of a checkout, on the commit whose outputs are to become
the reference:

    python3 perfbench/record_reference.py

The references in the repository were recorded at the commit that added
this benchmark, before any change to ``src/qmb``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from check import REFERENCE_DIR
from workloads import REFERENCE_SEED, WORKLOADS, build_spec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qmb import sweep  # noqa: E402


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        spec = build_spec(sweep, name, REFERENCE_SEED)
        sweep.emit(sweep.run_sweep(spec, threads=1), "csv", str(REFERENCE_DIR / f"{name}.csv"), spec)
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
