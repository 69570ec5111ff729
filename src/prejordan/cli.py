"""Command-line front end.

One subcommand per stage of the workflow: expansion tables, kernel
ranks, liftings, full per-degree reports, module comparison and the
degree-4 integer nullspace bases.  Exit codes: 0 success, 1 bad input or
an unreadable file, 2 invariant violation, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .errors import InvariantViolation, ResourceLimit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prejordan",
        description="identities of the product x*y = x>y + y<x "
                    "in the free dendriform algebra")
    parser.add_argument("--dump-rep", nargs=2, metavar=("LAMBDA", "PERM"),
                        help="print one representation matrix in the matrix "
                             "interchange format and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("expand", help="build an expansion table")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--dump-matrix", metavar="FILE",
                   help="also write the dense monomial-level matrix")
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("kernel", help="expansion ranks and nullities")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--partition", metavar="LAMBDA",
                   help="one partition, e.g. 421 or 4,2,1 (default: all)")
    p.add_argument("--field", choices=["q", "p"],
                   help="q = rationals, p = modular "
                        "(default: q through degree 5, then p)")
    p.add_argument("--prime", type=int, default=101)

    p = sub.add_parser("lift", help="generate and verify liftings")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--out", metavar="FILE",
                   help="save the liftings as an identity file")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the exact expansion check")

    p = sub.add_parser("report", help="full per-partition degree report")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=["text", "json", "csv"],
                   default="text")
    p.add_argument("--allow-large", action="store_true",
                   help="ignore the per-partition memory gate")
    p.add_argument("--field", choices=["q", "p"],
                   help="default: q through degree 5, then p")
    p.add_argument("--prime", type=int, default=101)
    p.add_argument("--partition", action="append", metavar="LAMBDA",
                   help="restrict to this partition (repeatable)")
    p.add_argument("--no-prune", action="store_true",
                   help="degree 8: lift all degree-7 identities, not just "
                        "the rank-growing ones")
    p.add_argument("--emit-new", action="store_true",
                   help="include coordinate vectors of new identities")
    p.add_argument("--out", metavar="FILE", help="write here, not stdout")
    p.add_argument("--progress", action="store_true",
                   help="progress lines on stderr: per partition its "
                        "times, ranks, add_rows calls, rows a call and "
                        "peak RSS")

    p = sub.add_parser("compare", help="do two identity files generate "
                                       "the same module?")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--method", choices=["monomial", "partition"],
                   default="monomial")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("nullbasis", help="degree-4 integer nullspace bases")
    p.add_argument("--degree", type=int, default=4, metavar="N")
    p.add_argument("--method", choices=["hnf", "lll", "rcf"], default="lll")
    p.add_argument("--quiet", action="store_true",
                   help="squared-length summary only")
    return parser


def _summary(values) -> str:
    counts = Counter(values)
    return ", ".join(f"{v} (x{c})" for v, c in sorted(counts.items()))


def cmd_expand(args) -> int:
    from .expansion import expansion_arrays, expansion_matrix
    from .linalg import write_matrix
    from .monomials import assoc_types

    table = expansion_arrays(args.degree)
    t = len(assoc_types(args.degree, 1))
    s = len(table.offsets) - 1
    print(f"degree {args.degree}: {t} association types, {s} normal "
          f"D-types, {len(table.coeffs)} table entries")
    if args.dump_matrix:
        mat = expansion_matrix(args.degree, allow_large=args.allow_large)
        with open(args.dump_matrix, "w") as fh:
            write_matrix(fh, mat.rows, 'Q')
        print(f"wrote {len(mat.rows)}x{len(mat.rows[0])} matrix to "
              f"{args.dump_matrix}")
    return 0


def _resolve_field(args, degree):
    if args.field == "q" or (args.field is None and degree <= 5):
        return 'Q'
    return args.prime


def cmd_kernel(args) -> int:
    from .linalg import check_field
    from .monomials import assoc_types
    from .pipeline import _dtypes, kernel_rank
    from .symrep import (dimension, format_partition, parse_partition,
                         partitions)

    n = args.degree
    field = check_field(_resolve_field(args, n))
    lams = [parse_partition(args.partition)] if args.partition \
        else list(partitions(n))
    for lam in lams:
        if sum(lam) != n:
            raise ValueError(f"{format_partition(lam)} is not a "
                             f"partition of {n}")
    t = len(assoc_types(n, 1))
    s = len(_dtypes(n))
    print(f"degree {n}  field {'Q' if field == 'Q' else 'F_%d' % field}")
    print(f"{'partition':>10} {'d':>3} {'rows':>6} {'cols':>6} "
          f"{'rank':>6} {'nullity':>7}")
    for lam in lams:
        d = dimension(lam)
        rank, nullity = kernel_rank(n, lam, field)[:2]
        print(f"{format_partition(lam):>10} {d:>3} {s * d:>6} {t * d:>6} "
              f"{rank:>6} {nullity:>7}")
    return 0


def cmd_lift(args) -> int:
    from .pipeline import liftings_to_degree, save_identities

    if not 5 <= args.degree <= 8:
        raise ValueError("liftings cover degrees 5 through 8")
    lifted = liftings_to_degree(args.degree, verify=not args.no_verify)
    gate = "skipped" if args.no_verify else "all pass the expansion gate"
    print(f"{len(lifted)} liftings at degree {args.degree}; "
          f"verification {gate}")
    if args.out:
        save_identities(lifted, args.out)
        print(f"saved to {args.out}")
    return 0


def cmd_report(args) -> int:
    from .pipeline import ReportConfig, degree_report
    from .symrep import parse_partition

    config = ReportConfig(
        degree=args.degree,
        field="Q" if args.field == "q" else
              ("F" if args.field == "p" else "auto"),
        prime=args.prime,
        partitions=tuple(parse_partition(s) for s in args.partition)
        if args.partition else None,
        prune=not args.no_prune,
        allow_large=args.allow_large,
        emit_new=args.emit_new)
    progress = (lambda msg: print(msg, file=sys.stderr, flush=True)) \
        if args.progress else None
    report = degree_report(config, progress)
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2) + "\n"
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    from .pipeline import compare_modules, load_identities

    a = load_identities(args.a)
    b = load_identities(args.b)
    degrees = {f.degree for f in a} | {f.degree for f in b}
    if len(degrees) != 1:
        raise ValueError(
            f"mixed degrees {sorted(degrees)}: comparison needs a single "
            f"common degree")
    n = degrees.pop()
    verdict = compare_modules(a, b, n, args.method)
    if args.as_json:
        print(json.dumps(verdict, indent=2))
    elif args.method == "monomial":
        print(f"degree {n}: rank a = {verdict['rank_a']}, "
              f"rank b = {verdict['rank_b']}, "
              f"a then b = {verdict['rank_a_then_b']}, "
              f"b then a = {verdict['rank_b_then_a']}")
        print("equivalent" if verdict["equivalent"] else "NOT equivalent")
    else:
        for lam, row in verdict["per_partition"].items():
            print(f"  {lam}: a {row['rank_a']} -> {row['rank_a_then_other']},"
                  f" b {row['rank_b']} -> {row['rank_b_then_other']}"
                  + ("" if row["equivalent"] else "  MISMATCH"))
        print("equivalent" if verdict["equivalent"] else "NOT equivalent")
    return 0


def cmd_nullbasis(args) -> int:
    from .pipeline import nullspace_identities, squared_lengths

    if not 3 <= args.degree <= 4:
        raise ResourceLimit("dense nullspace bases are kept to degree <= 4")
    idents = nullspace_identities(args.degree, args.method)
    lengths = squared_lengths(idents)
    print(f"degree {args.degree}, method {args.method}: "
          f"{len(idents)} vectors, squared lengths {_summary(lengths)}")
    if not args.quiet:
        for f in idents:
            print(f"  {f}")
    return 0


def cmd_dump_rep(lam_text: str, perm_text: str) -> int:
    from .linalg import write_matrix
    from .symrep import clifton_matrix, parse_partition

    lam = parse_partition(lam_text)
    perm = tuple(int(ch) for ch in perm_text)
    if sorted(perm) != list(range(1, sum(lam) + 1)):
        raise ValueError(
            f"{perm_text!r} is not a permutation of 1..{sum(lam)}")
    rows = clifton_matrix(lam, perm)
    write_matrix(sys.stdout, rows, 'Q')
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"expand": cmd_expand, "kernel": cmd_kernel,
                "lift": cmd_lift, "report": cmd_report,
                "compare": cmd_compare, "nullbasis": cmd_nullbasis}
    try:
        if args.dump_rep:
            return cmd_dump_rep(*args.dump_rep)
        if args.command is None:
            parser.print_help()
            return 0
        return handlers[args.command](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
