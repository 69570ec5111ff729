#!/usr/bin/env python3
"""Extract coset representatives of the new identities in one partition.

A partition carries new identities when the kernel of the expansion map
is strictly bigger than the span of everything lifted from below.  This
script runs the report of a single partition with --emit-new and saves
the coset representatives, i.e. reduced rows of the kernel that the
lifted span misses, read off the state of the report's own kernel rank.
Coordinates are those of the raw lifted blocks: the row is split into
one length-d block per product type, d the dimension of the irreducible
module.

At degree 8 only five partitions carry anything; 332 is the cheapest:

    python3 scripts/find_new_identities.py --partition 332

Expect a long run for the wide partitions (431, 3221).
"""

import argparse
import json
import time

from prejordan.pipeline import ReportConfig, degree_report
from prejordan.symrep import format_partition, parse_partition


def main():
    ap = argparse.ArgumentParser(
        description="coset representatives of new identities")
    ap.add_argument("--degree", type=int, default=8, choices=range(5, 9))
    ap.add_argument("--partition", required=True,
                    help="e.g. 332 or 4,3,1")
    ap.add_argument("--prime", type=int, default=101,
                    help="prime field for the heavy degrees (default 101)")
    ap.add_argument("--out", default=None,
                    help="JSON output path (default new-DEGREE-PARTITION.json)")
    args = ap.parse_args()

    lam = parse_partition(args.partition)
    if sum(lam) != args.degree:
        ap.error(f"partition {lam} is not of {args.degree}")
    t0 = time.time()
    config = ReportConfig(degree=args.degree, partitions=(lam,),
                          prime=args.prime, emit_new=True)
    rep = degree_report(
        config, progress=lambda msg: print(f"  {msg}", flush=True))
    row = rep.rows[0]
    elapsed = time.time() - t0
    print(f"partition {format_partition(lam)}: lifted rank "
          f"{row.lifted_rank}, kernel dimension {row.nullity}, "
          f"new {row.new}  [{elapsed:.1f} s]")

    out = args.out or f"new-{args.degree}-{format_partition(lam)}.json"
    payload = {
        "degree": args.degree,
        "partition": list(lam),
        "field": rep.field,
        "prime": rep.prime,
        "new": row.new,
        "vectors": [[int(e) for e in v] for v in row.new_vectors or []],
    }
    with open(out, "w") as fh:
        json.dump(payload, fh)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
