"""One sweep pass of one workload, in a fresh process.

Started by ``run.py`` with the BLAS and OpenMP thread counts pinned to 1.
Pins itself to one CPU, imports ``qmb`` from ``src/`` of the checkout (timed
as set-up), runs the workload's preset through ``run_sweep`` and ``emit`` as
``qmb preset`` does, checks the CSV against the reference, and prints one
JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SpeedProbe:
    """The machine's speed during a pass, sampled on the pass's own CPU.

    The CPUs of a shared host run faster or slower from one moment to the
    next, as other tenants load them.  Every ``PERIOD_S`` a SIGALRM runs a
    short fixed loop of small-matrix LAPACK calls and interpreter work, the
    mix a sweep point does; the pass's time excludes these slices.  The loop
    also runs once before and once after the pass, so that a pass too short
    for an alarm still gets a speed.  ``speed`` is the loop's rate over a
    nominal rate: 1 is a typical moment of the 2-vCPU machine the benchmark
    was tuned on.  Traced passes sample only before and after, so that no
    slice lands inside a span.
    """

    SLICE_ITERATIONS = 100
    PERIOD_S = 0.05
    NOMINAL_RATE = 60000.0

    def __init__(self, during_pass: bool) -> None:
        import numpy as np

        self.eigh = np.linalg.eigh  # bound before any tracer wraps it
        self.matrix = np.diag([1.0, 2.0, 3.0]) + 0.1
        self.during_pass = during_pass
        self.iterations = 0
        self.seconds = 0.0
        self.seconds_in_pass = 0.0

    def _slice(self) -> float:
        start = time.perf_counter()
        for _ in range(self.SLICE_ITERATIONS):
            self.eigh(self.matrix)
            sum(i * i for i in range(50))
        elapsed = time.perf_counter() - start
        self.iterations += self.SLICE_ITERATIONS
        self.seconds += elapsed
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        self.seconds_in_pass += self._slice()

    def __enter__(self) -> SpeedProbe:
        for _ in range(10):
            self._slice()
        if self.during_pass:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during_pass:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(10):
            self._slice()

    @property
    def speed(self) -> float:
        return self.iterations / self.seconds / self.NOMINAL_RATE


def versions() -> dict[str, str]:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    from check import check_output
    from workloads import WORKLOADS, build_spec

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qmb
    from qmb import sweep

    spec = build_spec(sweep, args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if not Path(qmb.__file__).resolve().is_relative_to(SRC):
        print(f"qmb imported from {qmb.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    probe = SpeedProbe(during_pass=not args.trace)
    tracer = None
    run_sweep = sweep.run_sweep
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_sweep = tracer.span("sweep", run_sweep)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-{os.getpid()}.csv"
    text, error = "", None
    with probe:
        if tracer is not None:
            tracer.start_pass()
        start = time.perf_counter()
        try:
            rows = run_sweep(spec, threads=1)
            emit_start = time.perf_counter()
            sweep.emit(rows, "csv", str(out_path), spec)
        except Exception as exc:  # a pass that raises fails every row it owed
            error = f"{type(exc).__name__}: {exc}"
            emit_start = time.perf_counter()
        end = time.perf_counter()
    if error is None:
        text = out_path.read_text(encoding="utf-8")
    out_path.unlink(missing_ok=True)

    attempted, failed, problems = check_output(args.workload, text, workload.iterative)
    for problem in ([error] if error else problems)[:5]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    result = {
        "points": attempted,
        "failed": failed,
        "wall_s": end - start - probe.seconds_in_pass,
        "emit_s": end - emit_start,
        "emit_bytes": len(text.encode()),
        "setup_s": setup_s,
        "speed": probe.speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if tracer is not None:
        result["trace"] = tracer.totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
