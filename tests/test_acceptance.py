"""Headline results, one test per claim.

Each test pins the numbers the project exists to reproduce, at the
runtime the claim comes with.  The degree-7 and degree-8 full tables
carry release markers (deselected by default; `-m release` or
`-m release_full` turns them on), with quick subsets in the default run.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import random_int_matrix, random_word

DATA = Path(__file__).parent / "data"


@contextmanager
def stopwatch(limit_seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < limit_seconds, \
        f"took {elapsed:.1f} s, budget {limit_seconds} s"


TYPE_COUNTS = {  # degree: (one-product, two-product, normal two-product)
    3: (2, 8, 5), 4: (5, 40, 14), 5: (14, 224, 42), 6: (42, 1344, 132),
    7: (132, 8448, 429), 8: (429, 54912, 1430)}

DEGREE5_ROWS = {  # lifted rank, expansion rank
    (5,): (7, 7), (4, 1): (21, 35), (3, 2): (20, 50), (3, 1, 1): (22, 62),
    (2, 2, 1): (14, 56), (2, 1, 1, 1): (9, 47), (1, 1, 1, 1, 1): (1, 13)}

DEGREE6_ROWS = {
    (6,): (27, 15), (5, 1): (110, 100), (4, 2): (170, 208),
    (4, 1, 1): (176, 244), (3, 3): (87, 123), (3, 2, 1): (247, 425),
    (3, 1, 1, 1): (138, 282), (2, 2, 2): (67, 143), (2, 2, 1, 1): (112, 266),
    (2, 1, 1, 1, 1): (53, 157), (1, 1, 1, 1, 1, 1): (8, 34)}

DEGREE7_ROWS = {
    (7,): (95, 37), (6, 1): (504, 288), (5, 2): (1060, 788),
    (5, 1, 1): (1099, 881), (4, 3): (992, 856), (4, 2, 1): (2333, 2287),
    (4, 1, 1, 1): (1259, 1381), (3, 3, 1): (1333, 1439),
    (3, 2, 2): (1269, 1503), (3, 2, 1, 1): (2035, 2585),
    (3, 1, 1, 1, 1): (800, 1180), (2, 2, 2, 1): (751, 1097),
    (2, 2, 1, 1, 1): (705, 1143), (2, 1, 1, 1, 1, 1): (269, 523),
    (1, 1, 1, 1, 1, 1, 1): (38, 94)}

DEGREE8_ROWS = {  # lifted rank, expansion rank, new
    (8,): (339, 90, 0), (7, 1): (2174, 829, 0), (6, 2): (5778, 2802, 0),
    (6, 1, 1): (5939, 3070, 0), (5, 3): (7671, 4341, 0),
    (5, 2, 1): (16930, 10526, 0), (5, 1, 1, 1): (8951, 6064, 0),
    (4, 4): (3728, 2278, 0), (4, 3, 1): (17721, 12308, 1),
    (4, 2, 2): (13812, 10211, 1), (4, 2, 1, 1): (21676, 16934, 0),
    (4, 1, 1, 1, 1): (8032, 6983, 0), (3, 3, 2): (10039, 7977, 2),
    (3, 3, 1, 1): (13056, 10967, 1), (3, 2, 2, 1): (15853, 14176, 1),
    (3, 2, 1, 1, 1): (13956, 13500, 0), (3, 1, 1, 1, 1, 1): (4289, 4720, 0),
    (2, 2, 2, 2): (2978, 3028, 0), (2, 2, 2, 1, 1): (5803, 6209, 0),
    (2, 2, 1, 1, 1, 1): (3929, 4651, 0), (2, 1, 1, 1, 1, 1, 1): (1262, 1741, 0),
    (1, 1, 1, 1, 1, 1, 1, 1): (158, 271, 0)}

X4_TOP_PARTITION = [
    [1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, -1, 0],
    [1, 0, 2, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [1, 3, 1, 3, 1, 3, 1, 1, 0, 0, 0, 0, 0, 0]]

X4_TOP_RCF_ROWS = [
    [1, 0, 0, 0, -1],
    [0, 1, 0, 0, -1],
    [0, 0, 1, 1, 3]]


def test_criterion_01_type_counts():
    from prejordan.dendriform import normal_dtypes
    from prejordan.monomials import assoc_types
    with stopwatch(1):
        for n, (one, two, normal) in TYPE_COUNTS.items():
            assert len(assoc_types(n, 1)) == one
            assert len(assoc_types(n, 2)) == two
            assert len(normal_dtypes(n)) == normal


def test_criterion_02_degree3_matrix():
    from prejordan.expansion import expansion_matrix
    from prejordan.linalg import int_rows, read_matrix
    with stopwatch(1):
        E = expansion_matrix(3)
        with open(DATA / "expansion_degree3.txt") as fh:
            want, _ = read_matrix(fh)
        assert int_rows(E.transpose().rows) == want
        assert E.rank() == 12
        assert E.transpose().nullity() == 0


def test_criterion_03_degree4_matrix_and_reduced_basis():
    from prejordan.expansion import expansion_matrix
    from prejordan.linalg import (hermite_with_transform, int_rows,
                                  lll_reduce)
    with stopwatch(10):
        E = expansion_matrix(4)
        assert E.shape == (120, 336)
        assert E.rank() == 104
        assert E.transpose().nullity() == 16
        _, U = hermite_with_transform(int_rows(E.rows))
        kernel = U[104:]
        assert len(kernel) == 16
        reduced = lll_reduce(kernel)
        assert sorted(sum(e * e for e in v) for v in reduced) == [12] * 16


def test_criterion_03_hnf_certificate_lengths():
    # The paper reads the 16 rows of U beside the zero rows of H = U E4 as
    # a lattice basis of the integer identities.  Its raw certificates
    # have squared lengths {12 x4, 24 x6, 36 x3, 48 x3}: that multiset is
    # the output of the paper's own elimination, not a property of E4.
    # E4 has rank 104 of 120, so any GL_16(Z) recombination of the kernel
    # rows keeps U unimodular with U E4 = H, and valid eliminations leave
    # {12 x16} (ours), {12 x5, 36 x10, 48} or {12 x10, 24 x4, 36 x2}.
    # What every valid elimination must give is checked instead: the
    # certificates are a Z-basis of the integer kernel lattice, and every
    # vector of that lattice has squared length divisible by 12.
    from prejordan.expansion import expansion_matrix
    from prejordan.linalg import hermite_with_transform, int_rows

    def lattice_hnf(rows):
        H, _ = hermite_with_transform(rows)
        return [row for row in H if any(row)]

    with stopwatch(10):
        A = int_rows(expansion_matrix(4).rows)
        H, U = hermite_with_transform(A)
        assert sum(1 for row in H if any(row)) == 104
        A_ = np.array(A, dtype=object)  # exact Python ints throughout
        assert (np.array(U, dtype=object) @ A_).tolist() == H
        K = U[104:]
        assert len(K) == 16
        K_ = np.array(K, dtype=object)
        assert not (K_ @ A_).any()
        # the certificates span the whole kernel lattice, not a sublattice
        assert lattice_hnf(K_.T.tolist()) == np.eye(16, dtype=int).tolist()
        # a second pivot path reaches the same H and the same lattice
        H2, U2 = hermite_with_transform(A[::-1])
        assert H2 == H
        K2 = [row[::-1] for row in U2[104:]]
        assert lattice_hnf(K2) == lattice_hnf(K)
        # Gram matrix 6 * (even integral): every lattice vector has squared
        # length 0 mod 12, as have the paper's 12/24/36/48 and our all-12
        G = K_ @ K_.T
        assert not (G % 6).any()
        assert not (G.diagonal() % 12).any()


def test_criterion_04_degree4_module_structure():
    from prejordan.pipeline import (compare_modules, defining_identities,
                                    kernel_character, nullspace_identities)
    with stopwatch(30):
        char, mults = kernel_character(4)
        assert tuple(char) == (16, 4, 0, 1, 0)
        assert tuple(mults) == (2, 3, 1, 1, 0)
        verdict = compare_modules(list(defining_identities()),
                                  nullspace_identities(4, "lll"), 4)
        assert verdict["equivalent"]
        assert verdict["rank_a"] == verdict["rank_b"] == 16
        assert verdict["rank_a_then_b"] == verdict["rank_b_then_a"] == 16


def test_criterion_05_degree4_top_partition_worked_example():
    from prejordan.expansion import xblock_matrix
    from prejordan.linalg import int_rows
    from prejordan.pipeline import ReportConfig, degree_report
    X = xblock_matrix(4, (4,))
    assert int_rows(X.rows) == X4_TOP_PARTITION
    R = X.transpose().rcf()
    nonzero = [[int(e) for e in row] for row in R.rows if any(row)]
    assert nonzero == X4_TOP_RCF_ROWS
    rep = degree_report(ReportConfig(degree=4, field="Q"))
    assert [row.nullity for row in rep.rows] == [2, 3, 1, 1, 0]


def test_criterion_06_degree5_both_fields():
    from prejordan.pipeline import ReportConfig, degree_report
    with stopwatch(300):
        rows = {}
        for field in ("Q", "F"):
            rep = degree_report(ReportConfig(degree=5, field=field))
            for row in rep.rows:
                lrank, xrank = DEGREE5_ROWS[row.partition]
                assert row.lifted_rank == lrank
                assert row.all_rank == xrank
                assert row.nullity == lrank
                assert row.new == 0
            rows[field] = [(r.partition, r.lifted_rank, r.all_rank,
                            r.nullity, r.new) for r in rep.rows]
        assert rows["Q"] == rows["F"]


def test_criterion_07_degree6_table():
    from prejordan.pipeline import ReportConfig, degree_report
    with stopwatch(3600):
        rep = degree_report(ReportConfig(degree=6))
        assert rep.lifting_count == 84
        for row in rep.rows:
            lrank, xrank = DEGREE6_ROWS[row.partition]
            assert row.lifted_rank == lrank
            assert row.all_rank == xrank
            assert row.nullity == lrank
            assert row.new == 0


def test_criterion_08_degree7_subset():
    from prejordan.pipeline import ReportConfig, degree_report
    subset = ((7,), (6, 1), (1, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1))
    with stopwatch(1800):
        rep = degree_report(ReportConfig(degree=7, partitions=subset))
        assert rep.lifting_count == 672
        for row in rep.rows:
            lrank, xrank = DEGREE7_ROWS[row.partition]
            assert row.lifted_rank == lrank
            assert row.all_rank == xrank
            assert row.nullity == lrank
            assert row.new == 0
            # the kernel rank stops at the end of its pinned prefix
            assert row.kernel_dtypes_fed == 118


def test_criterion_08_degree7_liftings_pass_gate():
    from prejordan.pipeline import liftings_to_degree
    with stopwatch(10):
        assert len(liftings_to_degree(7, verify=True)) == 672


@pytest.mark.release
def test_criterion_08_degree7_full_table_and_pruning():
    from prejordan.pipeline import ReportConfig, degree_report
    with stopwatch(43200):
        rep = degree_report(ReportConfig(degree=7))
        assert rep.lifting_count == 672
        for row in rep.rows:
            lrank, xrank = DEGREE7_ROWS[row.partition]
            assert row.lifted_rank == lrank
            assert row.all_rank == xrank
            assert row.nullity == lrank
            assert row.new == 0
            assert row.kernel_dtypes_fed == 118
        # liftings that never grew a rank are dropped before degree 8
        assert len(rep.retained) == 133


@pytest.mark.release
def test_criterion_08_degree7_pruning_pass():
    # the pruning step of a degree-8 report on its own: the lifted ranks
    # of all fifteen degree-7 partitions and the union of their flags
    from prejordan.pipeline import (ReportConfig, _retained_indices,
                                    liftings_to_degree)
    with stopwatch(1800):
        kept = _retained_indices(7, liftings_to_degree(7),
                                 ReportConfig(degree=8))
        assert len(kept) == 133


@pytest.mark.release
def test_criterion_09_degree8_gate_partitions():
    from prejordan.pipeline import ReportConfig, degree_report
    gate = ((8,), (7, 1), (3, 3, 2), (2, 1, 1, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1, 1, 1))
    rep = degree_report(ReportConfig(degree=8, partitions=gate))
    assert rep.lifting_count == 1197  # nine liftings of each kept identity
    for row in rep.rows:
        lrank, xrank, new = DEGREE8_ROWS[row.partition]
        assert not row.skipped
        assert row.lifted_rank == lrank
        assert row.all_rank == xrank
        assert row.new == new


@pytest.mark.release
def test_criterion_09_degree8_working_set():
    # `prejordan report --degree 8` on 8 (d = 1) and 44 (d = 14) in one
    # process: 8 costs next to nothing, so its peak RSS is the process's
    # peak before 44 (the pruning pass, the table and the liftings).  44
    # may add at most the working set of its larger rank, in bytes.  Both
    # ranks feed add_rows batches of R = batch_rows(d) = 1,498 rows
    # (C // 4 = 1,501 cut to whole blocks of d, C = t*d):
    # * kernel rank: an X^T batch, a float32 chunk of the store of as
    #   many rows and their product (3 * 4*R*C), the coefficients
    #   (4*R*R) and the int8 store of r_K rows grown by half (1.5*r_K*C);
    # * lifted rank: the same three arrays and coefficients, and the int8
    #   store of r_L rows while it grows (2.5*r_L*C);
    # * the int8 A-matrices of every permutation met (8! * d*d).
    # Each of the three float arrays holds at most the bytes of the int8
    # store at full rank (C x C).  The two peaks read 144 and 244 MiB
    # against a bound of about 317 MiB (2-vCPU VM, two BLAS threads);
    # with batches of 50 D-types and single identities they read 89 and
    # 150 MiB.
    import json
    import math
    import os
    import subprocess
    import sys
    from prejordan import pipeline
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "prejordan.cli", "report", "--degree", "8",
         "--partition", "8", "--partition", "44", "--format", "json"],
        capture_output=True, text=True, timeout=1800,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    base, row = json.loads(proc.stdout)["rows"]
    for got in (base, row):
        lam = tuple(int(c) for c in got["partition"])
        assert (got["lifted"]["rank"], got["all"]["rank"], got["new"]) \
            == DEGREE8_ROWS[lam]
    from prejordan.linalg import ModularEchelon
    d, t = 14, TYPE_COUNTS[8][0]
    C = t * d
    R = ModularEchelon(C, 101).batch_rows(d)
    assert R == 1498 and 4 * R * C <= C * C
    r_L, r_K = DEGREE8_ROWS[(4, 4)][:2]
    kernel = 3 * 4 * R * C + 4 * R * R + 1.5 * r_K * C
    lifted = 3 * 4 * R * C + 4 * R * R + 2.5 * r_L * C
    work = max(kernel, lifted) + math.factorial(8) * d * d
    assert row["lifted_peak_rss_mib"] <= row["peak_rss_mib"] \
        <= base["peak_rss_mib"] + work / 2 ** 20, (base, row)


@pytest.mark.release_full
def test_criterion_09_degree8_full_table():
    from prejordan.pipeline import ReportConfig, degree_report
    rep = degree_report(ReportConfig(degree=8))
    assert rep.lifting_count == 1197
    seen_new = {}
    for row in rep.rows:
        lrank, xrank, new = DEGREE8_ROWS[row.partition]
        if row.skipped:
            continue  # oversize partitions may sit out under the gate
        assert row.lifted_rank == lrank
        assert row.all_rank == xrank
        if new:
            seen_new[row.partition] = row.new
        else:
            assert row.new == 0
    assert seen_new == {(4, 3, 1): 1, (4, 2, 2): 1, (3, 3, 2): 2,
                        (3, 3, 1, 1): 1, (3, 2, 2, 1): 1}


def test_criterion_10_property_suites():
    from prejordan.dendriform import (dnormalize, normalize_word,
                                      rewrite_random_strategy)
    from prejordan.linalg import echelon_state
    from prejordan.monomials import all_perms, compose
    from prejordan.pipeline import defining_identities, nullspace_identities
    from prejordan.symrep import RhoCache, dimension, partitions

    rng = random.Random(99991)

    # confluence under randomized strategies
    for _ in range(100):
        word = random_word(rng, rng.randrange(2, 6), ops=2)
        assert rewrite_random_strategy({word: 1}, rng) == \
            dict(normalize_word(word))

    # representation property on random pairs
    for n in (5, 6, 7, 8):
        lams = [lam for lam in partitions(n) if dimension(lam) <= 21]
        perms = all_perms(n)
        rho = RhoCache(rng.choice(lams), 'Q')
        for _ in range(10):
            p, q = rng.choice(perms), rng.choice(perms)
            left = np.array(rho.of_perm(compose(p, q)), dtype=object)
            right = np.array(rho.of_perm(p), dtype=object) @ \
                np.array(rho.of_perm(q), dtype=object)
            assert (left == right).all()

    # chunked elimination equals one-shot elimination
    for _ in range(10):
        m, k = rng.randrange(2, 10), rng.randrange(1, 8)
        rows = random_int_matrix(rng, m, k, bound=100)
        whole = echelon_state(k, 101)
        whole.add_rows(rows)
        piecewise = echelon_state(k, 101)
        for row in rows:
            piecewise.add_rows([row])
        rw, pw = whole.rcf()
        rc, pc = piecewise.rcf()
        assert (rw == rc).all() and (pw == pc).all()

    # the membership gate accepts every stored identity
    for f in list(defining_identities()) + nullspace_identities(4, "lll"):
        f.check_kernel_membership()

    # dnormalize really is a projection
    poly = {random_word(rng, 5, ops=2): Fraction(3, 2) for _ in range(4)}
    once = dnormalize(poly)
    assert dnormalize(once) == once
