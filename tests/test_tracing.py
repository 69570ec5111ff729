"""Traced benchmark runs (perfbench/tracing.py) rebind package names to
timing wrappers; check that the names they rebind still carry the work."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracing
from prejordan import expansion
tracer = tracing.Tracer("check")
tracing.install(tracer)
expansion.expansion_table(5)
print(json.dumps({"spans": sorted({span[1] for span in tracer.spans}),
                  "counts": tracer.counts}))
"""


def test_traced_table_records_spans():
    # in a subprocess, so the rebinding does not leak into other tests
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {"expansion.table", "dendriform.dnormalize"} <= set(out["spans"])
    assert out["counts"]["expansion.table_entries"] == 504
    assert out["counts"]["dendriform.terms_in"] > 0
