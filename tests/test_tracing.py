"""Traced benchmark runs (perfbench/tracing.py) rebind package names to
timing wrappers; check that the names they rebind still carry the work."""

import functools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import collections, json, sys
sys.path[:0] = sys.argv[2:]
import tracing
from prejordan import expansion, pipeline
tracer = tracing.Tracer("check")
tracing.install(tracer)
exec(sys.argv[1])
names = [span[1] for span in tracer.spans]
print(json.dumps({
    "spans": sorted(set(names)),
    "calls": collections.Counter(names),
    "nested": collections.Counter(f"{names[parent]} > {name}" for
                                  parent, name, _, _ in tracer.spans
                                  if parent >= 0),
    "counts": tracer.counts}))
"""


def traced(call: str) -> dict:
    """Spans and counters of one traced call, run in a subprocess so the
    rebinding does not leak into other tests."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, call, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_table_records_spans():
    # type images are built by the recursion on normal shapes, so the
    # table rewrites no word: no dendriform.dnormalize span
    out = traced("expansion.expansion_table(5)")
    assert "expansion.table" in out["spans"]
    assert "dendriform.dnormalize" not in out["spans"]
    assert out["counts"]["expansion.table_entries"] == 504


@functools.cache
def traced_report() -> dict:
    return traced("pipeline.degree_report("
                  "pipeline.ReportConfig(degree=5, field='F'))")


def test_traced_report_records_linalg_spans():
    out = traced_report()
    assert {"linalg.lifted.add_rows",
            "linalg.kernel.add_rows"} <= set(out["spans"])
    for ctx in ("lifted", "kernel"):
        assert out["counts"][f"linalg.{ctx}.rows_in"] > 0
        assert out["counts"][f"linalg.{ctx}.rank"] > 0


def test_traced_report_records_symrep_spans():
    # the A-matrices of raw blocks are built by calls to the module global
    # symrep.clifton_a, so the symrep.clifton_a span times them
    out = traced_report()
    assert {"symrep.clifton_a", "symrep.raw_blocks"} <= set(out["spans"])
    assert out["calls"].get("symrep.clifton_a", 0) > 0
    assert out["nested"].get("symrep.raw_blocks > symrep.clifton_a", 0) > 0


def test_traced_report_records_lifted_raw_blocks():
    # the lifted rows are built by RhoCache.raw_of_elements, the one array
    # entry point for raw blocks, so the lifted rank's raw blocks are timed
    out = traced_report()
    assert out["nested"].get("pipeline.lifted_rank > symrep.raw_blocks",
                             0) > 0
    assert out["nested"].get("pipeline.kernel_rank > expansion.xblock", 0) > 0
