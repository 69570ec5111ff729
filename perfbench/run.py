"""Benchmark of the prejordan rank tables: time to a verified answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every repetition is a fresh interpreter
(perfbench/worker.py), because users pay the package's module-level caches
on every command-line call.  Workloads, seed semantics and the pinned
answers live in workloads.py; README.md says why each workload was chosen.

A measuring unit is the group of processes that covers the workload's
whole pool once (see workloads.unit_size).  Untraced (--trace 0), units
repeat while the next one still fits in S seconds, and the run reports the
medians over units of

    wall_s       first call into prejordan to answers checked, summed over
                 the unit's processes
    setup_s      interpreter start through ``import prejordan.pipeline``,
                 over SETUP_PROBES probe processes and every repetition
    peak_rss_mb  peak resident memory of the unit's largest process

Only units whose every process returned the pinned answers are timed.
Traced (--trace 1), untraced and traced units alternate for S seconds, and
the run reports the per-layer metrics of tracing.PER_LAYER, summed over a
unit's processes and averaged over the traced units.

A repetition fails when it raises, exits non-zero or returns an answer that
differs from the pinned one.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, counting repetitions.  A
process still running RUN_LIMIT_S after the start is a timeout, not a
wrong answer: the run then stops, says so on stderr and exits with code 3
without a result.  Everything measured, with seed, thread count and
versions, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_PROBES = 5
#: every process started is ended before the run reaches this age
RUN_LIMIT_S = 170.0
#: largest --seconds: leaves RUN_LIMIT_S - MAX_SECONDS for a last unit that
#: runs longer than the units before it
MAX_SECONDS = 110


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class RunTimeout(Exception):
    """A worker process was still running at the run's deadline."""


def spawn(request: dict, env: dict, deadline: float) -> dict:
    """Run one worker process to completion; its JSON record."""
    args = [sys.executable, str(WORKER), repr(time.monotonic()),
            json.dumps(request)]
    try:
        proc = subprocess.run(args, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunTimeout(json.dumps(request)[:200]) from None
    if proc.returncode != 0:
        return {"failures": [f"exit code {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"failures": ["worker printed no result"]}


def summarize(plain: list, traced: list, setup: list) -> tuple[dict, dict]:
    """(counts, metrics) of one run from its units of worker records."""
    reps = [r for unit in plain + traced for r in unit]
    failed = sum(1 for r in reps if r.get("failures") != [])
    counts = {"attempted": len(reps), "failed": failed}

    def good(units):
        return [u for u in units if all(r.get("failures") == [] for r in u)]

    timed = good(plain)
    if not timed:
        return counts, {}
    metrics = {
        "wall_s": statistics.median(
            sum(r["wall_s"] for r in u) for u in timed),
        "setup_s": statistics.median(
            setup + [r["setup_s"] for r in reps if "setup_s" in r]),
        "peak_rss_mb": statistics.median(
            max(r["peak_rss_mb"] for r in u) for u in timed),
    }
    if not traced:
        return counts, metrics
    layered = good(traced)
    if not layered:
        return counts, {}
    mean = {key: sum(r["layers"][key] for u in layered for r in u)
            / len(layered) for key in layered[0][0]["layers"]}
    overhead = statistics.median(sum(r["wall_s"] for r in u)
                                 for u in layered) - metrics["wall_s"]
    records = [r for u in timed for r in u]
    cpu = sum(r["cpu_util"] * r["wall_s"] for r in records) \
        / sum(r["wall_s"] for r in records)
    return counts, tracing.derive(mean, overhead, cpu)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    if not (ROOT / "src" / "prejordan" / "__init__.py").is_file():
        print(f"error: no prejordan package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    run_id = uuid.uuid4().hex[:12]
    OUT.mkdir(exist_ok=True)

    setup, plain, traced, unit_s = [], [], [], []
    size = workloads.unit_size(args.workload)

    def run_unit(trace: bool) -> list:
        records = []
        for _ in range(size):
            k = size * (len(plain) + len(traced)) + len(records)
            request = {"workload": args.workload,
                       "inputs": workloads.inputs(args.workload, args.seed, k),
                       "trace": trace, "run_id": run_id,
                       "trace_path": str(OUT / f"spans-{args.workload}-{k}"
                                                 f".jsonl.gz")}
            records.append(spawn(request, env, deadline))
        return records

    try:
        for _ in range(SETUP_PROBES):
            probe = spawn({"workload": None}, env, deadline)
            if "setup_s" not in probe:
                print(f"error: set-up probe failed: {probe['failures']}",
                      file=sys.stderr)
                return 1
            setup.append(probe["setup_s"])
        # untraced: units back to back; traced: untraced and traced units in
        # turn, so that trace.overhead_s compares like with like
        while True:
            t0 = time.monotonic()
            plain.append(run_unit(False))
            if args.trace:
                traced.append(run_unit(True))
            unit_s.append(time.monotonic() - t0)
            if time.monotonic() - start + max(unit_s) > args.seconds:
                break
    except RunTimeout as exc:
        print(f"error: timeout, not a wrong answer: a process was still "
              f"running {RUN_LIMIT_S:g} s after the start, so the program "
              f"is too slow for this benchmark ({exc})", file=sys.stderr)
        return 3

    counts, metrics = summarize(plain, traced, setup)
    units = dict(tracing.UNITS) if args.trace else dict(END_TO_END)
    first = plain[0][0]
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "run_id": run_id,
            "nproc": threads,
            "blas_threads": first.get("blas_threads"),
            "numpy": first.get("numpy"), "blas": first.get("blas"),
            "python": sys.version.split()[0], "units_run": len(unit_s),
            **counts, "failed_frac": counts["failed"] / counts["attempted"]}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                    f".json", "w") as fh:
        json.dump({"info": info, "metrics": metrics, "setup_probes": setup,
                   "plain": plain, "traced": traced}, fh, indent=1)
    for r in (r for unit in plain + traced for r in unit):
        for failure in r.get("failures") or []:
            print(f"failed: {failure}", file=sys.stderr)
    if not metrics:
        print("error: no unit returned the pinned answers in every process",
              file=sys.stderr)
        return 1
    print(json.dumps(info))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':32s} {info['failed_frac']:14.6g} "
          f"(failed {counts['failed']} of {counts['attempted']} processes)")
    print(json.dumps({
        "correct": counts["failed"] == 0, **counts,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
