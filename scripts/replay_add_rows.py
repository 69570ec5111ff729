#!/usr/bin/env python3
"""Record the add_rows calls of a report, replay them, and compare two
checkouts on them.

    python3 scripts/replay_add_rows.py record CALLS.npz --degree 7 \\
        --partition 61 --partition 211111
    python3 scripts/replay_add_rows.py replay CALLS.npz --src SRC \\
        [--repeat 11] [--batch-rows R]
    python3 scripts/replay_add_rows.py check CALLS.npz SRC_A SRC_B \\
        [--batch-rows R]

record runs degree_report over F_p with the package of --src (default:
the src next to this script) and saves every ModularEchelon.add_rows
call: its rows as they arrived (before add_rows consumes them), the
flags it returned, and the state that made it.  A state is tagged by the
order in which it was made, not by id(): once the lifted rank's state is
freed, the kernel rank's state may get the same id.  Each state is
filed under the partition the report was working on ("pruning" before
the first).

replay feeds the recorded calls, state by state, into fresh states of
the package at --src and prints the best of --repeat add_rows times per
partition.  --batch-rows re-cuts each state's rows into calls of that
many rows.  A row raises the rank exactly when it is independent of
every row before it, so the flags must equal the recorded ones whatever
the cut; replay checks that.

check replays on both SRC_A and SRC_B, each in its own interpreter, and
asserts that every state's flags, stored rows (RCF) and pivots are
equal: a byte-identity check of two echelon implementations on the same
input.  Exit code 0 when equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE_SRC = Path(__file__).resolve().parent.parent / "src"


def use_src(src) -> None:
    sys.path.insert(0, str(Path(src).resolve()))


def record(args) -> int:
    use_src(args.src)
    from prejordan import linalg
    from prejordan.pipeline import ReportConfig, degree_report
    from prejordan.symrep import parse_partition

    states, calls, arrays = [], [], {}
    where = ["pruning"]
    cls = linalg.ModularEchelon
    init, add_rows = cls.__init__, cls.add_rows

    def tagged_init(self, ncols, p, *a, **kw):
        init(self, ncols, p, *a, **kw)
        self._replay_tag = len(states)
        states.append({"ncols": ncols, "p": int(p), "partition": where[0]})

    def recorded_add_rows(self, rows):
        rows = np.array(rows)  # a copy: add_rows may consume its input
        flags = add_rows(self, rows.copy())
        k = len(calls)
        arrays[f"rows{k}"] = rows
        arrays[f"flags{k}"] = np.asarray(flags, dtype=bool)
        calls.append(self._replay_tag)
        return flags

    def progress(msg: str) -> None:
        if msg.startswith("partition ") and msg.endswith(")"):
            where[0] = msg.split()[1]

    cls.__init__, cls.add_rows = tagged_init, recorded_add_rows
    try:
        degree_report(ReportConfig(
            degree=args.degree, field="F", prime=args.prime,
            partitions=tuple(parse_partition(s) for s in args.partition)
            if args.partition else None), progress)
    finally:
        cls.__init__, cls.add_rows = init, add_rows
    meta = {"states": states, "calls": calls}
    np.savez(args.calls, meta=np.array(json.dumps(meta)), **arrays)
    print(f"recorded {len(calls)} add_rows calls of "
          f"{len({c for c in calls})} states to {args.calls}")
    return 0


def load(path):
    data = np.load(path)
    meta = json.loads(str(data["meta"]))
    rows = [data[f"rows{k}"] for k in range(len(meta["calls"]))]
    flags = [data[f"flags{k}"] for k in range(len(meta["calls"]))]
    return meta, rows, flags


def state_feeds(meta, rows, flags, batch_rows):
    """Per state that made a call: (tag, its calls' rows, recorded
    flags), re-cut into batch_rows rows a call when it is given."""
    out = []
    for tag in sorted(set(meta["calls"])):
        mine = [k for k, c in enumerate(meta["calls"]) if c == tag]
        feed = [rows[k] for k in mine]
        if batch_rows:
            whole = np.concatenate(feed)
            feed = [whole[a:a + batch_rows]
                    for a in range(0, len(whole), batch_rows)]
        out.append((tag, feed, np.concatenate([flags[k] for k in mine])))
    return out


def replay(args) -> int:
    use_src(args.src)
    from prejordan.linalg import ModularEchelon

    meta, rows, flags = load(args.calls)
    feeds = state_feeds(meta, rows, flags, args.batch_rows)
    best: dict[str, float] = {}
    results = {}
    for _ in range(args.repeat):
        spent: dict[str, float] = {}
        for tag, feed, want in feeds:
            info = meta["states"][tag]
            state = ModularEchelon(info["ncols"], info["p"])
            copies = [b.copy() for b in feed]
            got = []
            t0 = time.perf_counter()
            for b in copies:
                got += state.add_rows(b)
            part = info["partition"]
            spent[part] = spent.get(part, 0.0) + time.perf_counter() - t0
            if got != want.tolist():
                print(f"state {tag}: flags differ from the recording",
                      file=sys.stderr)
                return 1
            R, piv = state.rcf()
            results[f"flags{tag}"] = np.asarray(got, dtype=bool)
            results[f"rcf{tag}"] = R
            results[f"piv{tag}"] = piv
        for part, s in spent.items():
            best[part] = min(best.get(part, s), s)
    for part, s in best.items():
        print(f"{part}: best of {args.repeat} {s * 1e3:.1f} ms")
    if args.result:
        np.savez(args.result, **results)
    return 0


def check(args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for k, src in enumerate((args.src_a, args.src_b)):
            out = os.path.join(tmp, f"result{k}.npz")
            cmd = [sys.executable, __file__, "replay", args.calls,
                   "--src", src, "--repeat", "1", "--result", out]
            if args.batch_rows:
                cmd += ["--batch-rows", str(args.batch_rows)]
            if subprocess.run(cmd).returncode:
                return 1
            outs.append(np.load(out))
        a, b = outs
        bad = [key for key in a.files
               if key not in b.files or a[key].shape != b[key].shape
               or a[key].dtype.kind != b[key].dtype.kind
               or not np.array_equal(a[key], b[key])]
        bad += [key for key in b.files if key not in a.files]
    states = len([key for key in a.files if key.startswith("flags")])
    if bad:
        print(f"differ: {', '.join(sorted(bad))}")
        return 1
    print(f"equal: flags, stored rows and pivots of {states} states")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="record the calls of a report")
    p.add_argument("calls", metavar="CALLS.npz")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--partition", action="append")
    p.add_argument("--prime", type=int, default=101)
    p.add_argument("--src", default=HERE_SRC)
    p = sub.add_parser("replay", help="replay recorded calls and time them")
    p.add_argument("calls", metavar="CALLS.npz")
    p.add_argument("--src", default=HERE_SRC)
    p.add_argument("--repeat", type=int, default=11)
    p.add_argument("--batch-rows", type=int)
    p.add_argument("--result", help="save flags, RCF and pivots here")
    p = sub.add_parser("check", help="compare two checkouts on the calls")
    p.add_argument("calls", metavar="CALLS.npz")
    p.add_argument("src_a", metavar="SRC_A")
    p.add_argument("src_b", metavar="SRC_B")
    p.add_argument("--batch-rows", type=int)
    args = ap.parse_args()
    return {"record": record, "replay": replay, "check": check}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
