"""Tests of the benchmark itself: failure counting, seeds, tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

import gzip
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from prejordan import pipeline  # noqa: E402
from prejordan.errors import InvariantViolation  # noqa: E402


def test_wrong_expected_row_counts_as_failed(monkeypatch):
    inputs = {"partitions": [[7]]}
    good = worker.measure("rank-fp-d7", inputs)
    assert good["failures"] == []
    monkeypatch.setitem(workloads.EXPECTED, (7,), (1, 95, 38, 0))
    bad = worker.measure("rank-fp-d7", inputs)
    assert len(bad["failures"]) == 1 and "(7,)" in bad["failures"][0]
    counts, metrics = run.summarize([[good], [bad]], [], [0.1])
    assert counts == {"attempted": 2, "failed": 1}
    # only the unit that returned the pinned answers is timed
    assert metrics["wall_s"] == good["wall_s"]
    assert set(metrics) == {name for name, _ in run.END_TO_END}


def test_perturbed_lifting_raises_and_counts(monkeypatch):
    liftings = pipeline.liftings_to_degree(7)
    c, word = liftings[5].terms[0]
    broken = replace(liftings[5], terms=((c + 1, word),)
                     + liftings[5].terms[1:])
    with pytest.raises(InvariantViolation):
        workloads.gate([liftings[4], broken], (1, 2, 3, 4, 5, 6, 7))
    monkeypatch.setattr(pipeline, "liftings_to_degree",
                        lambda n: liftings[:5] + [broken] + liftings[6:])
    record = worker.measure("gate-d7",
                            {"sigma": [2, 1, 3, 4, 5, 6, 7],
                             "liftings": [4, 5]})
    assert record["failures"][0].startswith("InvariantViolation")
    counts, metrics = run.summarize([[record]], [], [0.1])
    assert counts == {"attempted": 1, "failed": 1}
    assert metrics == {}


def test_seed_semantics():
    name = "gate-d7"
    assert workloads.unit_size(name) == 1
    first = workloads.inputs(name, 3, 0)
    assert workloads.inputs(name, 3, 1) == first
    assert sorted(first["liftings"]) == list(range(672))
    assert sorted(first["sigma"]) == list(range(1, 8))
    assert workloads.inputs(name, 4, 0) != first
    name = "rank-fp-d7"
    assert workloads.unit_size(name) == 2
    pool = sorted(lam for pair in workloads.PAIRS for lam in pair)
    for seed in range(10):
        even = workloads.inputs(name, seed, 0)["partitions"]
        odd = workloads.inputs(name, seed, 1)["partitions"]
        assert even == workloads.inputs(name, seed, 2)["partitions"]
        assert sorted(map(tuple, even + odd)) == pool
    assert all(lam in workloads.EXPECTED for lam in pool)


def test_traced_worker_reports_every_layer(tmp_path):
    spans = tmp_path / "spans.jsonl.gz"
    request = {"workload": "rank-fp-d7", "inputs": {"partitions": [[7]]},
               "trace": True, "run_id": "test", "trace_path": str(spans)}
    record = run.spawn(request, run.child_env(1), time.monotonic() + 60)
    assert record["failures"] == []
    layers = record["layers"]
    self_total = sum(layers[f"{layer}.self_s"]
                     for layer in tracing.LAYERS + ("bench",))
    assert self_total == pytest.approx(record["wall_s"], rel=0.05)
    assert layers["linalg.kernel.rank"] == 37
    assert layers["linalg.lifted.rank"] == 95
    assert layers["pipeline.liftings"] == 672
    metrics = tracing.derive(layers, 0.0, 1.0)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    with gzip.open(spans, "rt") as fh:
        header = json.loads(fh.readline())
        first = json.loads(fh.readline())
    assert header["run_id"] == first[0] == "test"
    assert first[3] == "bench.run"


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER


def test_summary_is_over_whole_units():
    def rec(wall, rss):
        return {"wall_s": wall, "setup_s": 0.2, "peak_rss_mb": rss,
                "failures": []}
    units = [[rec(1.0, 50), rec(3.0, 70)], [rec(1.5, 50), rec(2.0, 71)],
             [rec(1.0, 50), rec(9.0, 72)]]
    counts, metrics = run.summarize(units, [], [0.1])
    assert counts == {"attempted": 6, "failed": 0}
    assert metrics["wall_s"] == 4.0
    assert metrics["peak_rss_mb"] == 71
    assert metrics["setup_s"] == 0.2


def test_timeout_is_not_a_wrong_answer():
    request = {"workload": None}
    with pytest.raises(run.RunTimeout):
        run.spawn(request, run.child_env(1), time.monotonic())


def test_rejects_seconds_past_the_run_limit():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "gate-d7", "--seed", "1",
                  "--seconds", str(run.MAX_SECONDS + 1)])
    assert exc.value.code == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-fp-d7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
