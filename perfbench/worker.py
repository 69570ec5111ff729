"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py SPAWN_TIME REQUEST_JSON

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so setup_s
spans interpreter start-up and ``import prejordan.pipeline``.  REQUEST_JSON
holds the workload name (null for a set-up probe), its inputs, whether to
trace, and where to write the spans.  The result is one JSON line on
stdout.  run.py starts this process with PYTHONPATH pointing at the
checkout's ``src`` and the BLAS thread count set.
"""

import sys
import time

import prejordan.pipeline  # noqa: F401  (the import is what setup_s times)

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def measure(name: str, inputs: dict, tracer=None) -> dict:
    """Run and time one repetition; a failure is recorded, not raised."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer:
            failures = tracer.call("bench.run", workloads.run, name, inputs)
        else:
            failures = workloads.run(name, inputs)
    except Exception as exc:  # the repetition failed; the run goes on
        failures = [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_util": (time.process_time() - cpu0) / wall,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failures": failures}


def main() -> int:
    spawn_time = float(sys.argv[1])
    request = json.loads(sys.argv[2])
    record = {"setup_s": SETUP_DONE - spawn_time}
    name = request["workload"]
    if name is None:
        print(json.dumps(record))
        return 0
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer(request["run_id"])
        tracing.install(tracer)
    record.update(measure(name, request["inputs"], tracer),
                  numpy=np.__version__, blas=blas_version(),
                  blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"))
    if tracer:
        record["layers"] = tracer.additive()
        tracer.write(request["trace_path"],
                     {"workload": name, "inputs": request["inputs"]})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
