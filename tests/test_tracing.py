"""Traced benchmark runs (perfbench/tracing.py) rebind package names to
timing wrappers; check that the names they rebind still carry the work."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[2:]
import tracing
from prejordan import expansion, pipeline
tracer = tracing.Tracer("check")
tracing.install(tracer)
exec(sys.argv[1])
print(json.dumps({"spans": sorted({span[1] for span in tracer.spans}),
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
    out = traced("expansion.expansion_table(5)")
    assert {"expansion.table", "dendriform.dnormalize"} <= set(out["spans"])
    assert out["counts"]["expansion.table_entries"] == 504
    assert out["counts"]["dendriform.terms_in"] > 0


def test_traced_report_records_linalg_spans():
    out = traced("pipeline.degree_report("
                 "pipeline.ReportConfig(degree=5, field='F'))")
    assert {"linalg.lifted.add_rows",
            "linalg.kernel.add_rows"} <= set(out["spans"])
    for ctx in ("lifted", "kernel"):
        assert out["counts"][f"linalg.{ctx}.rows_in"] > 0
        assert out["counts"][f"linalg.{ctx}.rank"] > 0
