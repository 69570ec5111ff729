#!/usr/bin/env python3
"""Recompute the identity rank tables degree by degree.

Writes one JSON report and one text table per degree into an output
directory and prints timings along the way.  Degrees 4 and 5 run in
seconds over the rationals and 6 in about a second over the default
prime field; the degree-7 report took 30 s and 261 MiB (two BLAS
threads on a 2-vCPU VM).  Degree 8 takes hours: its partition 332 alone
took 26 min and 2.4 GB, measured before the lifted rank fed only one
lifting per relabeling class.  It is only attempted when asked for
explicitly.

    python3 scripts/reproduce_tables.py                  # degrees 4-6
    python3 scripts/reproduce_tables.py --through 7
    python3 scripts/reproduce_tables.py --through 8 --allow-large
"""

import argparse
import json
import sys
import time
from pathlib import Path

from prejordan.pipeline import ReportConfig, degree_report


def parse_args():
    ap = argparse.ArgumentParser(
        description="recompute the per-degree identity rank tables")
    ap.add_argument("--through", type=int, default=6, choices=range(4, 9),
                    metavar="N", help="last degree to compute (default 6)")
    ap.add_argument("--out-dir", default="results", metavar="DIR",
                    help="where reports are written (default results/)")
    ap.add_argument("--field", default="auto", choices=("auto", "Q", "F"),
                    help="coefficient field policy (default auto)")
    ap.add_argument("--prime", type=int, default=101)
    ap.add_argument("--allow-large", action="store_true",
                    help="also compute partitions over the memory budget")
    return ap.parse_args()


def main():
    args = parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for degree in range(4, args.through + 1):
        print(f"degree {degree}")
        t0 = time.time()
        config = ReportConfig(degree=degree, field=args.field,
                              prime=args.prime,
                              allow_large=args.allow_large)
        rep = degree_report(
            config, progress=lambda msg: print(f"    {msg}", flush=True))
        elapsed = time.time() - t0
        print(rep.to_text())
        print(f"  [{elapsed:.1f} s, field {rep.field}]")
        (out / f"degree{degree}.json").write_text(json.dumps(rep.to_json()))
        (out / f"degree{degree}.txt").write_text(rep.to_text() + "\n")
        skipped = [row for row in rep.rows if row.skipped]
        if skipped:
            parts = ", ".join(str(row.partition) for row in skipped)
            print(f"  skipped over memory budget: {parts} "
                  f"(rerun with --allow-large)")
    print(f"reports written to {out}/", file=sys.stderr)


if __name__ == "__main__":
    main()
