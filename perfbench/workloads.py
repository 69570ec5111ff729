"""Workload definitions, seed semantics and pinned answers.

The parent (run.py) imports this module for ``inputs``, which turns a seed
into the inputs of each worker process, and must not import prejordan
itself.  ``run`` executes one repetition inside a worker process and
returns the mismatches against the pinned answers (empty when correct).

Seed semantics
--------------
* gate-d7: the seed picks one relabelling sigma of {1..7} and an order of
  the 672 degree-7 liftings.  Every process relabels all 672 by sigma, in
  that order, and passes them through the expansion gate.
* rank-fp-d7: the seed picks one partition from each conjugate pair of
  the pool.  Even processes compute that pick, odd ones the conjugate of
  every pick, so a unit of two processes covers the whole pool.  Conjugate
  partitions have the same block size d, but their eliminations differ in
  cost by up to a half, so this keeps the cost of a run independent of the
  seed while the seed still decides which partitions share a process and
  which runs first.
"""

from __future__ import annotations

import random

NAMES = ("gate-d7", "rank-fp-d7")

DEGREE = 7
#: rank-fp-d7 pool over F_101: conjugate pairs
PAIRS = (((6, 1), (2, 1, 1, 1, 1, 1)),)
#: liftings of the two defining identities at degree 7
LIFTINGS = 672

# ---------------------------------------------------------- pinned answers
# Copied from DEGREE7_ROWS of tests/test_acceptance.py with the block size d
# in front; (7,) is in no pool but serves the benchmark's own tests, which
# need a degree-7 report that takes seconds.

#: partition: (d, lifted rank, expansion rank, new); a row is correct when
#: it matches and its nullity is lifted rank + new
EXPECTED = {(6, 1): (6, 504, 288, 0), (2, 1, 1, 1, 1, 1): (6, 269, 523, 0),
            (7,): (1, 95, 37, 0)}


def conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for part in lam if part > k) for k in range(lam[0]))


def unit_size(name: str) -> int:
    """Processes per measuring unit, which covers the whole pool once: a run
    measures whole units."""
    return 1 if name == "gate-d7" else 2


def inputs(name: str, seed: int, k: int) -> dict:
    """Inputs of process k of a run with the given seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "gate-d7":
        sigma = list(range(1, DEGREE + 1))
        rng.shuffle(sigma)
        order = list(range(LIFTINGS))
        rng.shuffle(order)
        return {"sigma": sigma, "liftings": order}
    if name == "rank-fp-d7":
        pick = [pair[rng.randrange(2)] for pair in PAIRS]
        if k % 2:
            pick = [conjugate(lam) for lam in pick]
        return {"partitions": [list(lam) for lam in pick]}
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ execution


def run(name: str, inputs: dict) -> list[str]:
    """Run one repetition and check it; returns the mismatches found."""
    from prejordan import pipeline
    if name == "gate-d7":
        liftings = pipeline.liftings_to_degree(DEGREE)
        if len(liftings) != LIFTINGS:
            return [f"{len(liftings)} liftings"]
        gate([liftings[i] for i in inputs["liftings"]],
             tuple(inputs["sigma"]))
        return []
    if name != "rank-fp-d7":
        raise ValueError(f"unknown workload {name!r}")
    lams = tuple(tuple(lam) for lam in inputs["partitions"])
    rep = pipeline.degree_report(pipeline.ReportConfig(
        degree=DEGREE, field="F", partitions=lams))
    return check_report(rep, lams)


def gate(liftings, sigma: tuple) -> None:
    """Relabel every lifting by sigma and pass it through the expansion
    gate, which raises InvariantViolation for a lifting that fails."""
    for ident in liftings:
        ident.relabeled(sigma).check_kernel_membership()


def check_report(rep, lams: tuple) -> list[str]:
    """Mismatches between a DegreeReport and the pinned rows."""
    bad = []
    if rep.lifting_count != LIFTINGS:
        bad.append(f"{rep.lifting_count} liftings")
    if [row.partition for row in rep.rows] != list(lams):
        bad.append("rows do not match the requested partitions")
    for row in rep.rows:
        want = EXPECTED[row.partition]
        got = (row.d, row.lifted_rank, row.all_rank, row.new)
        if row.skipped or got != want or row.nullity != want[1] + want[3]:
            bad.append(f"partition {row.partition}: (d, lifted, expansion,"
                       f" new) = {got}, nullity {row.nullity};"
                       f" expected {want}")
    return bad
