"""The qmb benchmark: one command, every metric, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2_mixed_qubit --seed 1 --seconds 25 --trace 0

Each pass of the workload's sweep runs in a fresh worker process (see
``worker.py``) with the BLAS and OpenMP thread counts pinned to 1, so that
every pass pays the import and the module-level caches that a ``qmb preset``
run pays, and peak RSS is per pass.  Passes repeat until ``--seconds`` have
gone by, taking the CPUs in turn.  With ``--trace 0`` the last line reports
the end-to-end metrics as medians over the passes, with times scaled to the
nominal machine speed the worker's probe measured during each pass; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"  # each run writes its CSVs to its own subdirectory
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "QMB_THREADS": "1",
}
MIN_PASSES = 3
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, out_dir: Path, cpu: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out-dir", str(out_dir), "--cpu", str(cpu)]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **PINNED_THREADS}, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"a {workload} pass did not finish before the deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"the {workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> list[dict]:
    """Passes until ``seconds`` are spent; traced runs alternate untraced and
    traced passes, marking the traced ones with a ``trace`` entry.  Passes
    (pairs of passes when traced) take the CPUs in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    passes: list[dict] = []
    while time.monotonic() - start < seconds or len(passes) < MIN_PASSES * (1 + trace):
        i = len(passes)
        cpu = cpus[(i // (1 + trace)) % len(cpus)]
        passes.append(run_pass(workload, seed, trace and i % 2 == 1, out_dir, cpu, deadline))
    return passes


def end_to_end_metrics(passes: list[dict]) -> dict[str, tuple[float, str]]:
    attempted = sum(p["points"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "points_per_s": (statistics.median(p["points"] / p["wall_s"] / p["speed"] for p in passes), "1/s"),
        "setup_s": (statistics.median(p["setup_s"] * p["speed"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }


def git_commit() -> str:
    """The commit of the checkout, read from its own ``.git`` if it has one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(first_pass: dict) -> dict[str, object]:
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **first_pass["versions"],
        "commit": git_commit(),
        **PINNED_THREADS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = SCRATCH / str(os.getpid())
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # succeeds only once no other run is using it

    if args.trace:
        from tracer import layer_metrics

        untraced = [p for p in passes if "trace" not in p]
        traced = [p for p in passes if "trace" in p]
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(passes)
    attempted = sum(p["points"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} env={json.dumps(environment(passes[0]))}")
    print(f"# failed_share {failed / attempted!r} ({failed} of {attempted} rows)")
    speeds = [p["speed"] for p in passes]
    print(f"# machine speed {statistics.median(speeds)!r} (min {min(speeds)!r}, max {max(speeds)!r})")
    print(f"# unscaled points_per_s {statistics.median(p['points'] / p['wall_s'] for p in passes)!r}, "
          f"setup_s {statistics.median(p['setup_s'] for p in passes)!r}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
