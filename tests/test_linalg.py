"""Exact linear algebra against naive oracles.

Every engine here is checked against a straightforward reimplementation
(dense Fraction elimination, schoolbook determinant, textbook
Gram-Schmidt) on randomized inputs.
"""

import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import gram_det, random_int_matrix, random_rational_matrix
from prejordan import linalg
from prejordan.linalg import (ExactMatrix, ModularEchelon, RationalEchelon,
                              _MOD_CHUNK, _inner_bound, _mod_inplace,
                              check_field, echelon_state, express_in_rowspace,
                              hermite_with_transform, int_det, int_rows,
                              lll_reduce, read_matrix, residues, write_matrix)

P = 101
#: both sides of ModularEchelon's dtype switch: 509 is the largest prime
#: computed in float32, 521 the smallest in float64
CROSS_PRIMES = [2, 3, 101, 509, 521, 32003]


# ------------------------------------------------------------- oracles


def naive_rref(rows):
    """Reduced row echelon form over Q, the obvious way."""
    rows = [[Fraction(e) for e in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    out, pivcols = [], []
    for c in range(ncols):
        pivot = None
        for r in rows:
            if any(r[:c]) or not r[c]:
                continue
            pivot = r
            break
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [e / pivot[c] for e in pivot]
        rows = [[a - r[c] * b for a, b in zip(r, pivot)] for r in rows]
        out = [[a - r[c] * b for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
        pivcols.append(c)
    return out, pivcols


def naive_rcf_mod(rows, p):
    """Reduced row echelon form mod p and its pivot columns, the obvious
    way."""
    rows = [[e % p for e in r] for r in rows]
    out, pivcols = [], []
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[c], -1, p)
        pivot = [e * inv % p for e in pivot]
        rows = [[(a - r[c] * b) % p for a, b in zip(r, pivot)] for r in rows]
        out = [[(a - r[c] * b) % p for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
        pivcols.append(c)
    return out, pivcols


def naive_rank_mod(rows, p):
    rows = [[e % p for e in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        src = next((r for r in rows if r[c]), None)
        if src is None:
            continue
        rows.remove(src)
        inv = pow(src[c], -1, p)
        src = [e * inv % p for e in src]
        rows = [[(a - r[c] * b) % p for a, b in zip(r, src)] for r in rows]
        rank += 1
    return rank


def naive_rank_flags_mod(rows, p):
    """Per row whether it raises the rank mod p of the rows before it:
    naive_rank_mod run incrementally, one reduction per row against the
    normalized rows kept so far."""
    kept, flags = [], []
    for r in rows:
        r = [e % p for e in r]
        for pc, src in kept:
            if r[pc]:
                c = r[pc]
                r = [(a - c * b) % p for a, b in zip(r, src)]
        pc = next((c for c, e in enumerate(r) if e), None)
        flags.append(pc is not None)
        if pc is not None:
            inv = pow(r[pc], -1, p)
            kept.append((pc, [e * inv % p for e in r]))
    return flags


def naive_det(rows):
    rows = [[Fraction(e) for e in r] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        j = next((j for j in range(c, n) if rows[j][c]), None)
        if j is None:
            return Fraction(0)
        if j != c:
            rows[c], rows[j] = rows[j], rows[c]
            det = -det
        det *= rows[c][c]
        for j in range(c + 1, n):
            f = rows[j][c] / rows[c][c]
            rows[j] = [a - f * b for a, b in zip(rows[j], rows[c])]
    return det


def gram_schmidt(rows):
    """Orthogonalization over Q; returns (starred vectors, mu matrix)."""
    star, mu = [], []
    for v in rows:
        v = [Fraction(e) for e in v]
        coeffs = []
        for u in star:
            den = sum(e * e for e in u)
            c = sum(a * b for a, b in zip(v, u)) / den
            coeffs.append(c)
            v = [a - c * b for a, b in zip(v, u)]
        star.append(v)
        mu.append(coeffs)
    return star, mu


def row_lattice_hnf(rows):
    H, _ = hermite_with_transform(rows)
    return [r for r in H if any(r)]


# ------------------------------------------------------- echelon engines


class TestRationalEchelon:
    def test_matches_naive_rref(self):
        rng = random.Random(21)
        for _ in range(60):
            m, n = rng.randrange(1, 8), rng.randrange(1, 8)
            rows = random_rational_matrix(rng, m, n)
            st = RationalEchelon(n)
            st.add_rows(rows)
            expected, pivcols = naive_rref(rows)
            assert st.rank == len(expected)
            assert st.sorted_pivcols() == pivcols
            assert st.rcf_rows() == expected

    def test_fast_rank_mode_agrees(self):
        rng = random.Random(22)
        for _ in range(60):
            m, n = rng.randrange(1, 9), rng.randrange(1, 9)
            rows = random_int_matrix(rng, m, n)
            full = RationalEchelon(n)
            full.add_rows(rows)
            fast = RationalEchelon(n, reduced=False)
            fast.add_rows(rows)
            assert fast.rank == full.rank
            assert fast.sorted_pivcols() == full.sorted_pivcols()

    def test_nullspace(self):
        rng = random.Random(23)
        for _ in range(40):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = random_int_matrix(rng, m, n)
            st = RationalEchelon(n)
            st.add_rows(rows)
            null = st.nullspace_basis()
            assert len(null) == n - st.rank
            for v in null:
                for r in rows:
                    assert sum(a * b for a, b in zip(r, v)) == 0


class TestRandomKernelVectors:
    # the certificate of pipeline.kernel_rank draws kernel vectors from
    # the stored rows of both kinds of state

    @pytest.mark.parametrize("reduced", [True, False])
    def test_rational(self, reduced):
        rng = random.Random(24)
        for _ in range(30):
            m, n = rng.randrange(1, 8), rng.randrange(1, 9)
            rows = random_int_matrix(rng, m, n)
            st = RationalEchelon(n, reduced=reduced)
            st.add_rows(rows)
            Z = st.random_kernel_vectors(n - st.rank + 2, rng)
            assert Z.shape == (n - st.rank + 2, n)
            assert all(isinstance(e, int) for e in Z.flat)
            assert not (np.array(rows, dtype=object) @ Z.T).any()
            # free entries are random, so the vectors span the kernel
            assert naive_rank_mod(Z.tolist(), 1_000_003) == n - st.rank

    @pytest.mark.parametrize("p", CROSS_PRIMES)
    def test_modular(self, p):
        # the product with the store goes in row blocks of _MOD_CHUNK
        # entries (40 rows at 200 columns) and, past the float32 inner
        # bound (65 columns at p = 509), in column chunks
        rng = random.Random(p)
        for m, n in ((5, 9), (120, 200), (200, 120)):
            rows = np.array(random_int_matrix(rng, m, n, bound=50))
            rows[m // 2:] = rows[:m - m // 2] * 3 % p  # rank deficient
            st = ModularEchelon(n, p)
            st.add_rows(rows)
            # 20 more than the nullity span the kernel even at p = 2
            Z = st.random_kernel_vectors(n - st.rank + 20, rng)
            assert Z.dtype == np.int64 and Z.shape == (n - st.rank + 20, n)
            assert ((0 <= Z) & (Z < p)).all()
            assert not (rows @ Z.T % p).any()
            assert naive_rank_mod(Z.tolist(), p) == n - st.rank


class TestModularEchelon:
    def test_rank_matches_naive_mod_p(self):
        rng = random.Random(31)
        for p in CROSS_PRIMES:
            for _ in range(60):
                m, n = rng.randrange(1, 10), rng.randrange(1, 10)
                rows = random_int_matrix(rng, m, n, bound=50)
                st = echelon_state(n, p)
                st.add_rows(rows)
                assert st.rank == naive_rank_mod(rows, p)

    def test_non_c_ordered_rows(self):
        # a Fortran-ordered batch and a column slice, as a restriction to
        # some columns gives, take the same flags and RCF as C-ordered rows
        rng = np.random.default_rng(30)
        M = rng.integers(-50, 50, size=(7, 9))
        for sub in (np.asfortranarray(M), M[:, [0, 2, 4, 5, 8]]):
            assert not sub.flags.c_contiguous
            want = echelon_state(sub.shape[1], P)
            want_flags = want.add_rows(np.ascontiguousarray(sub))
            st = echelon_state(sub.shape[1], P)
            assert st.add_rows(sub) == want_flags
            assert st.rank == want.rank == naive_rank_mod(sub.tolist(), P)
            got, want_rcf = st.rcf(), want.rcf()
            assert (got[0] == want_rcf[0]).all()
            assert list(got[1]) == list(want_rcf[1])

    def test_rcf_matches_rational_when_ranks_agree(self):
        rng = random.Random(32)
        for p in CROSS_PRIMES:
            for _ in range(40):
                m, n = rng.randrange(1, 8), rng.randrange(1, 8)
                rows = random_int_matrix(rng, m, n)
                exact = RationalEchelon(n)
                exact.add_rows(rows)
                dens = [_common_den(xrow) for xrow in exact.rcf_rows()]
                if exact.rank != naive_rank_mod(rows, p) \
                        or any(den % p == 0 for den in dens):
                    continue  # unlucky prime, not what this test is about
                st = echelon_state(n, p)
                st.add_rows(rows)
                got, pivs = st.rcf()
                # compare after clearing denominators row by row
                for grow, xrow, den in zip(got, exact.rcf_rows(), dens):
                    inv = pow(den, -1, p)
                    assert list(grow) == [int(e * den) * inv % p
                                          for e in xrow]
                assert list(pivs) == exact.sorted_pivcols()

    def test_chunked_equals_batch(self):
        # one hundred random matrices per prime fed whole and in ragged
        # chunks; the rows reported as raising the rank do not depend on
        # the chunking, nor on the state's own outer, mini and segment
        # blocks
        rng = random.Random(33)
        for p in CROSS_PRIMES:
            for _ in range(100):
                m, n = rng.randrange(1, 12), rng.randrange(1, 10)
                rows = random_int_matrix(rng, m, n, bound=200)
                whole = echelon_state(n, p)
                flags = whole.add_rows(rows)
                chunked = echelon_state(n, p)
                chunk_flags = []
                i = 0
                while i < m:
                    step = rng.randrange(1, m - i + 1)
                    chunk_flags += chunked.add_rows(rows[i:i + step])
                    i += step
                single = echelon_state(n, p)
                increments = []
                for row in rows:
                    before = single.rank
                    single.add_rows([row])
                    increments.append(single.rank > before)
                rw, pw = whole.rcf()
                rc, pc = chunked.rcf()
                assert whole.rank == chunked.rank
                assert (rw == rc).all() and (pw == pc).all()
                tiny = echelon_state(n, p, block_rows=3, mini_rows=2,
                                     seg_rows=2)
                assert tiny.compute_dtype == whole.compute_dtype
                assert flags == chunk_flags == increments \
                    == tiny.add_rows(rows)
                rt, pt = tiny.rcf()
                assert (rw == rt).all() and (pw == pt).all()
                assert sum(flags) == whole.rank

    def test_back_elimination_skips_untouched_segments(self):
        # sparse rows in batches against a store cut into segments of 3
        # rows: a later batch's pivots leave some stored segments without
        # an entry, and those are skipped; RCF, pivots and the rank flags
        # match the naive elimination mod p
        rng = random.Random(71)
        for p in (101, 521):
            for _ in range(20):
                n = 30
                rows = [[rng.randint(1, p - 1) if rng.random() < 0.2 else 0
                         for _ in range(n)] for _ in range(40)]
                st = echelon_state(n, p, block_rows=4, mini_rows=2,
                                   seg_rows=3)
                flags = []
                for k in range(0, 40, 10):
                    flags += st.add_rows(rows[k:k + 10])
                ranks = [naive_rank_mod(rows[:k], p) for k in range(41)]
                assert flags == [b > a for a, b in zip(ranks, ranks[1:])]
                want, pivots = naive_rcf_mod(rows, p)
                got, got_pivots = st.rcf()
                assert got.tolist() == want and got_pivots.tolist() == pivots

    @pytest.mark.parametrize("p", CROSS_PRIMES)
    def test_default_mini_blocks_match_naive(self, p):
        # 150 rows at the default sizes fill 64-row mini blocks with many
        # pivots each; dependent rows combine rows of their own mini
        # block or of earlier ones, and zero rows and multiples are mixed
        # in.  Fed whole and in ragged chunks (whose mini blocks start
        # elsewhere), the flags match the naive incremental rank and the
        # RCF the naive one
        rng = random.Random(p + 61)
        m, n, mini = 150, 80, 64
        rows = []
        for i in range(m):
            start = i // mini * mini
            kind = rng.random() if i else 0.0
            if kind < 0.55:
                row = [rng.randrange(p) for _ in range(n)]
            elif kind < 0.95:
                inside = start < i and (i < mini or rng.random() < 0.5)
                pool = range(start, i) if inside else range(start)
                row = [0] * n
                for k in rng.sample(pool, min(3, len(pool))):
                    c = rng.randrange(1, p)
                    row = [a + c * b for a, b in zip(row, rows[k])]
            elif kind < 0.97:
                row = [0] * n
            else:
                row = [e * rng.randrange(1, p) for e in rows[i - 1]]
            rows.append(row)
        want_flags = naive_rank_flags_mod(rows, p)
        assert 50 < sum(want_flags) < m - 40
        want, pivots = naive_rcf_mod(rows, p)
        whole = echelon_state(n, p)
        assert whole.mini_rows == mini
        chunked = echelon_state(n, p)
        flags = []
        for a, b in ((0, 37), (37, 130), (130, m)):
            flags += chunked.add_rows(np.array(rows[a:b]))
        assert whole.add_rows(np.array(rows)) == flags == want_flags
        for st in (whole, chunked):
            got, got_pivots = st.rcf()
            assert got.tolist() == want and got_pivots.tolist() == pivots

    def test_large_inverse_columns_at_509(self):
        # at p = 509 the float32 bound is k = 65, so a mini block holds
        # 64 rows.  Rows e_i - sum_{c > i} e_c have unit pivots on the
        # diagonal; T**-1 has entries 2**(b-a-1) mod p above it, and each
        # new pivot meets u = (p-1, ..., p-1), so T**-1 u sums up to
        # 64*(p-1)**2, about 2**24, before the scaling by p - 1.  Random
        # rows after them are reduced through those columns; a column
        # scaled before its reduction is rounded and breaks the RCF
        p, n = 509, 70
        st = ModularEchelon(n, p)
        assert st.compute_dtype == np.float32 and st.mini_rows == 64
        rows = np.zeros((64, n), dtype=np.int64)
        for i in range(60):
            rows[i, i] = 1
            rows[i, i + 1:] = p - 1
        rng = random.Random(509)
        rows[60:] = [[rng.randrange(p) for _ in range(n)] for _ in range(4)]
        a, b = np.triu_indices(60, 1)
        t_inv = np.eye(60, dtype=np.int64)
        t_inv[a, b] = [pow(2, int(e), p) for e in b - a - 1]
        assert (rows[:60, :60] @ t_inv % p == np.eye(60)).all()
        # the largest T**-1 u, times p - 1, is far past 2**24
        assert max((t_inv[:j, :j] @ rows[:j, j]).max()
                   for j in range(1, 60)) * (p - 1) > 2 ** 28
        assert st.add_rows(rows) == naive_rank_flags_mod(rows.tolist(), p)
        want, pivots = naive_rcf_mod(rows.tolist(), p)
        got, got_pivots = st.rcf()
        assert got.tolist() == want and got_pivots.tolist() == pivots

    def test_compute_dtype_follows_prime(self):
        # the degree-7 X^T width at F_101 computes in float32; a prime
        # whose inner bound cannot cover a mini block computes in float64
        # and a silent fallback fails here, not only in the benchmark
        st = ModularEchelon(132 * 6, P)
        assert st.compute_dtype == np.float32
        assert st.seg_rows == st.block_rows == _inner_bound(P, np.float32) \
            == (2 ** 24 - P) // (P - 1) ** 2 == 1677
        assert ModularEchelon(132 * 6, 509).compute_dtype == np.float32
        for p in (521, 32003):
            assert ModularEchelon(132 * 6, p).compute_dtype == np.float64

    def test_float32_bound_edge(self):
        # n = k + 1 stored rows e_i + c_i*e_n, k = 1,677 the float32 inner
        # bound, with c_i = 100 except c_0 = c_1 = c_2 = 99.  A new row
        # with c in its first n columns sums 3*99*99 + 1674*100*100 in the
        # first forward segment: an odd sum just below 2**24 - p.  One more
        # row in that segment would take the sum to 16,779,403, odd and
        # past 2**24, which float32 rounds
        k = (2 ** 24 - P) // (P - 1) ** 2
        n = k + 1
        st = ModularEchelon(n + 2, P)
        c = np.full(n, 100)
        c[:3] = 99
        R = np.zeros((n, n + 2), dtype=np.int64)
        R[np.arange(n), np.arange(n)] = 1
        R[:, n] = c
        assert st.add_rows(R) == [True] * n
        total = int(c @ c)
        assert total == 3 * 99 * 99 + (n - 3) * 100 * 100 > 2 ** 24
        assert 3 * 99 * 99 + (k - 3) * 100 * 100 <= 2 ** 24 - P
        rows = np.zeros((2, n + 2), dtype=np.int64)
        rows[:, :n] = c
        rows[0, n] = total % P  # dependent: reduces to zero
        rows[1, n + 1] = 1      # reduces to (-total, 1) in the last columns
        assert st.add_rows(rows) == [False, True]
        # the new pivot row is e_n + e_{n+1} / (-total), and clearing
        # column n from the stored rows puts -c_i times that entry in
        # column n + 1
        inv = pow(-total, -1, P)
        want = np.zeros((n + 1, n + 2), dtype=np.int64)
        want[np.arange(n + 1), np.arange(n + 1)] = 1
        want[:n, n + 1] = -c * inv % P
        want[n, n + 1] = inv
        got, piv = st.rcf()
        assert piv.tolist() == list(range(n + 1))
        assert (got == want).all()

    def test_wide_int64_rows_match_object_rows(self):
        # int64 and uint64 entries past +-(2**m - p) go through residues,
        # those within are converted straight to the compute dtype; both
        # give the flags and RCF of the same rows as exact Python ints
        rng = random.Random(37)
        for p in CROSS_PRIMES:
            top = 2 ** (24 if p <= 509 else 53) - p
            edges = [top, -top, top + 1, -top - 1, 2 ** 24, -2 ** 24,
                     2 ** 62, -2 ** 62, 2 ** 63 - 1, -2 ** 63]
            for _ in range(20):
                m, n = rng.randrange(1, 8), rng.randrange(1, 8)
                rows = [[rng.choice(edges + [rng.randrange(-2 ** 62, 2 ** 62),
                                             rng.randrange(-50, 50)])
                         for _ in range(n)] for _ in range(m)]
                wide = echelon_state(n, p)
                exact = echelon_state(n, p)
                assert wide.add_rows(np.array(rows, dtype=np.int64)) \
                    == exact.add_rows(np.array(rows, dtype=object))
                (rw, pw), (rx, px) = wide.rcf(), exact.rcf()
                assert (rw == rx).all() and (pw == px).all()
                assert wide.rank == naive_rank_mod(rows, p)
            # uint64 entries past 2**63 must not wrap to negative int64
            rows = [[2 ** 64 - 1, 2 ** 63, top + 1, 1], [top, 0, 2 ** 63, 5]]
            wide = echelon_state(4, p)
            exact = echelon_state(4, p)
            assert wide.add_rows(np.array(rows, dtype=np.uint64)) \
                == exact.add_rows(np.array(rows, dtype=object))
            (rw, pw), (rx, px) = wide.rcf(), exact.rcf()
            assert (rw == rx).all() and (pw == px).all()

    def test_rows_beyond_int64_reduce_exactly(self):
        # object rows are reduced mod p before any cast to int64, so a
        # multiple of 2**70 gives the flags and RCF of the unscaled rows
        rng = random.Random(36)
        st = echelon_state(3, P)
        assert st.add_rows([[2 ** 70, 1, 0]]) == [True]
        assert st.rcf()[0].tolist() == [[1, pow(2 ** 70, -1, P), 0]]
        for _ in range(30):
            m, n = rng.randrange(1, 10), rng.randrange(1, 8)
            rows = random_int_matrix(rng, m, n, bound=50)
            plain = echelon_state(n, P)
            scaled = echelon_state(n, P)
            assert scaled.add_rows([[2 ** 70 * e for e in r] for r in rows]) \
                == plain.add_rows(rows)
            (rs, ps), (rp, pp) = scaled.rcf(), plain.rcf()
            assert (rs == rp).all() and (ps == pp).all()

    def test_rejects_non_integral_rows(self):
        st = echelon_state(2, P)
        with pytest.raises(ValueError):
            st.add_rows([[Fraction(1, 2), 2 ** 70]])
        assert st.rank == 0

    def test_rejects_non_integral_float_rows(self):
        st = echelon_state(3, P)
        with pytest.raises(ValueError, match="integer matrix expected"):
            st.add_rows(np.array([[0.5, 1.0, 0.0]]))
        assert st.rank == 0
        # integral floats are read as the integers they hold
        assert st.add_rows(np.array([[-1.0, 2.0, 0.0]])) == [True]
        assert st.rcf()[0].tolist() == [[1, P - 2, 0]]

    def test_nullspace(self):
        rng = random.Random(34)
        for _ in range(40):
            m, n = rng.randrange(1, 8), rng.randrange(1, 8)
            rows = random_int_matrix(rng, m, n)
            st = echelon_state(n, P)
            st.add_rows(rows)
            null = st.nullspace_basis()
            assert len(null) == n - st.rank
            for v in null:
                for r in rows:
                    assert sum(int(a) * int(b) for a, b in zip(r, v)) % P == 0

    def test_chunked_equals_batch_rational(self):
        rng = random.Random(35)
        for _ in range(25):
            m, n = rng.randrange(1, 9), rng.randrange(1, 8)
            rows = random_rational_matrix(rng, m, n)
            whole = RationalEchelon(n)
            flags = whole.add_rows(rows)
            chunked = RationalEchelon(n)
            chunk_flags = []
            i = 0
            while i < m:
                step = rng.randrange(1, m - i + 1)
                chunk_flags += chunked.add_rows(rows[i:i + step])
                i += step
            single = RationalEchelon(n)
            increments = []
            for row in rows:
                before = single.rank
                single.add_row(row)
                increments.append(single.rank > before)
            assert whole.rcf_rows() == chunked.rcf_rows() \
                == single.rcf_rows()
            assert flags == chunk_flags == increments
            assert sum(flags) == whole.rank


class TestFloatIntake:
    """Rows that already have the compute dtype are reduced and eliminated
    in place; the guards send every other array through residues."""

    @staticmethod
    def exact(rows, p):
        st = echelon_state(len(rows[0]), p)
        flags = st.add_rows(np.array(rows, dtype=object))
        return flags, st.rcf()

    @staticmethod
    def assert_same(got, want):
        (flags, (R, piv)), (wflags, (wR, wpiv)) = got, want
        assert flags == wflags
        assert R.tolist() == wR.tolist() and piv.tolist() == wpiv.tolist()

    def test_compute_dtype_rows_reduced_in_place(self):
        # the array is consumed, no copy made, and the result is that of
        # the same integers given as exact Python ints
        rng = random.Random(41)
        for p in (101, 509, 521, 32003):
            st = ModularEchelon(30, p)
            rows = random_int_matrix(rng, 40, 30, bound=3 * p)
            M = np.array(rows, dtype=st.row_dtype)
            flags = st.add_rows(M)
            self.assert_same((flags, st.rcf()), self.exact(rows, p))
            assert M.min() >= 0 and M.max() < p  # reduced in place

    def test_other_float_rows_take_the_copy(self):
        # a float32 array at a float64 prime (32003: (p-1)**2 passes
        # 2**24, so float32 products would be inexact), float64 rows at a
        # float32 prime and Fortran-ordered rows are left untouched
        rng = random.Random(42)
        for p, dtype, order in ((32003, np.float32, 'C'),
                                (521, np.float32, 'C'),
                                (101, np.float64, 'C'),
                                (101, np.float32, 'F'),
                                (32003, np.float64, 'F')):
            rows = random_int_matrix(rng, 40, 30, bound=p - 1)
            M = np.array(rows, dtype=dtype, order=order)
            kept = M.copy()
            st = ModularEchelon(30, p)
            self.assert_same((st.add_rows(M), st.rcf()), self.exact(rows, p))
            assert (M == kept).all()

    def test_non_integral_rows_raise(self):
        # also when the only non-integer is in a later chunk of the pass
        for p in (101, 521):
            st = ModularEchelon(3, p)
            with pytest.raises(ValueError, match="integer matrix expected"):
                st.add_rows(np.array([[0.5, 1.0, 0.0]], dtype=st.row_dtype))
            M = np.ones((_MOD_CHUNK, 3), dtype=st.row_dtype)
            M[-1, 2] = 2.25
            with pytest.raises(ValueError, match="integer matrix expected"):
                st.add_rows(M)
            assert st.rank == 0
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError):
                    st.add_rows(np.array([[bad, 1, 0]], dtype=st.row_dtype))
            assert st.rank == 0

    def test_rows_past_the_in_place_range_reduce_exactly(self):
        # |x| > 2**m - p goes through residues; in place, float32 floor
        # division would round the large ones (their quotient times p is
        # not a float32).  residues takes floats below 2**53 only
        for p, m, dtype in ((101, 24, np.float32), (509, 24, np.float32),
                            (521, 53, np.float64)):
            top = 2 ** m - p
            big = [top + 1, 2 ** m - 1, 2 ** 30 + 2 ** 12, 3 * 2 ** 26] \
                if m == 24 else [top + 1, 2 ** m - 1, top + p // 2, top + 2]
            rows = [big, [-x for x in big], [1, top, -top, 2 ** m - 2],
                    [7, 0, big[2], 1]]
            M = np.array(rows, dtype=dtype)
            assert [[int(x) for x in r] for r in M.tolist()] == rows
            st = ModularEchelon(4, p)
            self.assert_same((st.add_rows(M), st.rcf()), self.exact(rows, p))


def int64_rcf_flags(rows, p):
    """Flags, RCF and pivots mod p of rows fed one at a time, by int64
    elimination against the normalized rows kept so far (every product
    is below p**2, every sum of rank of them far below 2**63)."""
    rows = np.asarray(rows, dtype=np.int64) % p
    kept = np.zeros((0, rows.shape[1]), dtype=np.int64)
    piv, flags = [], []
    for r in rows:
        r = (r - r[piv] @ kept) % p
        nz = np.flatnonzero(r)
        flags.append(bool(nz.size))
        if nz.size:
            c = int(nz[0])
            r = r * pow(int(r[c]), -1, p) % p
            kept = np.vstack([(kept - np.outer(kept[:, c], r)) % p, r])
            piv.append(c)
    order = np.argsort(piv, kind='stable')
    return flags, kept[order], np.array(piv, dtype=np.intp)[order]


class TestStoreChunks:
    """_forward and _back_eliminate convert the int8 store to the compute
    dtype one chunk of rows at a time: max(_STORE_CHUNK, batch rows)
    rows, at most a segment's.  _forward still reduces once per segment,
    and the new pivot rows of a block are written into its consumed
    rows.  None of this changes a flag, the RCF or the pivots."""

    @staticmethod
    def rows_for(p, rng, N=150, F=12):
        """Batches of rows over N pivot columns and F free ones.  First N
        stored rows e_i + (p-1) on every free column, in ragged batches
        of 1 to 7 rows; a row over the pivot columns then sums about N
        products near (p-1)**2 per free column, past 2**24 at p = 509
        over more than one segment of k = 65 rows.  Then one batch of six
        rows whose second is a multiple of its first, so its first mini
        block of three gives two pivot rows and the next block's three
        are written over rows of their own source; then dense rows,
        multiples and sums of earlier ones, and zero rows."""
        n = N + F
        stored = np.zeros((N, n), dtype=np.int64)
        stored[np.arange(N), np.arange(N)] = 1
        stored[:, N:] = p - 1

        def dense():
            row = [rng.randrange(p // 2, p) for _ in range(N)]
            return row + [rng.randrange(p) for _ in range(F)]

        first = dense()
        overlap = [first, [max(1, p - 2) * e for e in first]] + \
            [dense() for _ in range(4)]
        rest = []
        for i in range(40):
            kind = rng.random()
            if kind < 0.5 or len(rest) < 2:
                rest.append(dense())
            elif kind < 0.9:
                a, b = rng.sample(rest, 2)
                c = rng.randrange(1, p)
                rest.append([x + c * y for x, y in zip(a, b)])
            else:
                rest.append([0] * n)

        def ragged(rows):
            out = []
            while len(rows):
                step = rng.randrange(1, 8)
                out.append(rows[:step])
                rows = rows[step:]
            return out

        return n, ragged(stored.tolist()) + [overlap] + ragged(rest)

    @pytest.mark.parametrize("p", CROSS_PRIMES)
    def test_chunk_rows_change_nothing(self, p, monkeypatch):
        rng = random.Random(p + 5)
        n, batches = self.rows_for(p, rng)
        want_flags, want, want_piv = int64_rcf_flags(
            [r for b in batches for r in b], p)
        store = sum(map(len, batches))
        assert 1 < sum(want_flags) < store - 5
        # 1 row: chunks of the batch's rows; 7: a size that divides no
        # segment; more than the store: whole segments
        for chunk in (None, 1, 7, store + 1):
            if chunk is not None:
                monkeypatch.setattr(linalg, "_STORE_CHUNK", chunk)
            for sizes in ({}, dict(block_rows=6, mini_rows=3, seg_rows=10)):
                st = ModularEchelon(n, p, **sizes)
                flags = []
                for b in batches:
                    flags += st.add_rows(np.array(b, dtype=np.int64))
                got, got_piv = st.rcf()
                assert flags == want_flags, (chunk, sizes)
                assert (got == want).all() and (got_piv == want_piv).all()

    def test_chunk_has_the_batch_rows(self, monkeypatch):
        # at least _STORE_CHUNK rows and the batch's, at most a segment's:
        # smaller chunks would each stream a product the size of the batch
        st = ModularEchelon(8, P)
        assert linalg._STORE_CHUNK == 128 and st.seg_rows == 1677
        assert [st._chunk_rows(r) for r in (1, 128, 300, 5000)] \
            == [128, 128, 300, 1677]
        assert {ModularEchelon(8, 509)._chunk_rows(r) for r in (1, 300)} \
            == {65}
        monkeypatch.setattr(linalg, "_STORE_CHUNK", 7)
        assert [st._chunk_rows(r) for r in (1, 7, 300)] == [7, 7, 300]


class TestBatchRows:
    """batch_rows(d), the rows of one add_rows call fed in blocks of d: a
    multiple of d, at least d, and the largest one whose float batch
    holds at most the bytes of the store at full rank (ncols x ncols)
    within one outer block."""

    #: p: (store, compute) bytes per entry; 32771 is the least prime past
    #: 2**15, the first with an int32 store
    BYTES = {101: (1, 4), 509: (2, 4), 521: (2, 8), 32771: (4, 8)}

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BYTES)), st.integers(1, 50_000),
           st.integers(1, 100))
    def test_rule(self, p, ncols, d):
        state = ModularEchelon(ncols, p)
        store, compute = self.BYTES[p]
        assert (state._R.itemsize, state.compute_dtype.itemsize) \
            == (store, compute)
        R = state.batch_rows(d)
        assert R % d == 0 and R >= d

        def fits(rows):
            return rows <= state.block_rows \
                and rows * ncols * compute <= ncols * ncols * store
        # within both caps, and one more block would break one; only a
        # single block may break them, where no multiple of d fits
        assert fits(R) or R == d
        assert not fits(R + d)
        if fits(d):
            assert fits(R)

    def test_widths_per_store(self):
        # ncols // 4 for int8 and float32 (p <= 127) or int16 and float64
        # (509 < p < 2**15); ncols // 2 for int16 and float32 (127 < p <=
        # 509) or int32 and float64; block_rows caps all four
        for p, ratio in ((101, 4), (509, 2), (521, 4), (32771, 2)):
            for ncols in (792, 6006, 38610):
                state = ModularEchelon(ncols, p)
                assert state.batch_rows(1) \
                    == min(state.block_rows, ncols // ratio)
        assert ModularEchelon(792, 101).batch_rows(6) == 198
        assert ModularEchelon(6006, 101).batch_rows(14) == 1498
        assert ModularEchelon(8580, 101).batch_rows(20) == 1660

    def test_tiny_widths_take_one_block(self):
        for p in self.BYTES:
            assert ModularEchelon(10, p).batch_rows(6) == 6
            assert ModularEchelon(1, p).batch_rows(1) == 1
        assert ModularEchelon(100, 509).batch_rows(90) == 90  # > block_rows
        assert RationalEchelon(10).batch_rows(6) == 6
        assert RationalEchelon(23).batch_rows(6) == 6

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 50_000), st.integers(1, 100))
    def test_rational_rule(self, ncols, d):
        # exact Python numbers have no byte ratio: the width cap ncols // 4
        # and no block cap
        R = RationalEchelon(ncols).batch_rows(d)
        assert R % d == 0 and R >= d
        assert R <= ncols // 4 or R == d
        assert R + d > ncols // 4


def _common_den(row):
    from math import lcm
    return lcm(*(Fraction(e).denominator for e in row)) if row else 1


class TestModularReduction:
    """_mod_inplace and np.remainder against Python's % on the range
    ModularEchelon guarantees, |x| <= 2**m - p with m = 24 (float32) or
    53 (float64), the width guard, and residues on float input."""

    PRIMES = [2, 101, 32003, 1000003]

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_python_mod(self, p):
        for dtype, m in ((np.float32, 24), (np.float64, 53)):
            top = 2 ** m - p
            k = top // p
            edge = [top, -top, -1, 0, 1, p - 1, p, -p,
                    k * p, k * p - 1, k * p + 1, -k * p, -k * p - 1,
                    -k * p + 1, (k - 1) * p + 1, -(k - 1) * p - 1]
            rng = random.Random(p)
            # spread over every scale of the range, past one scratch chunk
            rand = [rng.choice((-1, 1))
                    * rng.randrange(2 ** rng.randrange(1, m + 1))
                    for _ in range(3 * _MOD_CHUNK + 7)]
            values = [x for x in edge + rand if abs(x) <= top]
            A = np.array(values, dtype=dtype)
            assert [int(a) for a in A] == values  # every value held exactly
            # np.remainder, which ModularEchelon applies to short vectors,
            # is exact on the same range
            assert np.remainder(A, p).tolist() == [x % p for x in values]
            _mod_inplace(A, p)
            assert [int(a) for a in A] == [x % p for x in values]
            M = np.array(edge, dtype=dtype).reshape(2, -1)
            _mod_inplace(M, p)
            assert M.ravel().tolist() == [x % p for x in edge]
            # one row, reduced in one pass, and a multi-chunk array with
            # the edge on both sides of every chunk boundary
            R = np.array([edge], dtype=dtype)
            _mod_inplace(R, p)
            assert R.tolist() == [[x % p for x in edge]]
            B = np.resize(np.array(edge, dtype=dtype),
                          (2 * _MOD_CHUNK // len(edge) + 3, len(edge)))
            for at in (0, _MOD_CHUNK, 2 * _MOD_CHUNK, B.size):
                B.flat[max(at - 1, 0)], B.flat[min(at, B.size - 1)] = top, -top
            values = [int(x) for x in B.ravel()]
            _mod_inplace(B, p)
            assert B.ravel().tolist() == [x % p for x in values]

    def test_rejects_what_it_cannot_reduce_in_place(self):
        for dtype in (np.float32, np.float64):
            A = np.arange(12, dtype=dtype).reshape(3, 4)
            with pytest.raises(TypeError):
                _mod_inplace(A[:, ::2], P)
            with pytest.raises(TypeError):
                _mod_inplace(A.T, P)
            assert A.ravel().tolist() == list(range(12))
        for dtype in (np.int64, np.int32, np.float16):
            with pytest.raises(TypeError):
                _mod_inplace(np.arange(12, dtype=dtype), P)

    @pytest.mark.parametrize("p", PRIMES)
    def test_width_guard(self, p):
        # ncols*(p-1)**2 + p <= 2**53 bounds every value the elimination
        # reduces by 2**53 - p; the widest state allowed is built, the
        # next one is refused
        widest = (2 ** 53 - p) // (p - 1) ** 2
        assert ModularEchelon(widest, p).ncols == widest
        with pytest.raises(ValueError):
            ModularEchelon(widest + 1, p)

    def test_residues_reject_non_integral_floats(self):
        for bad in ([0.5, 2.7, -1.5], [2.0 ** 53], [-2.0 ** 60],
                    [float("inf")], [float("nan")]):
            with pytest.raises(ValueError):
                residues(np.array(bad), P)
            with pytest.raises(ValueError):
                residues(np.array(bad, dtype=np.float32), P)
        ok = np.array([[-1.0, 0.0], [2.0 ** 53 - 1, 7.0]])
        assert residues(ok, P).tolist() == [[P - 1, 0],
                                            [(2 ** 53 - 1) % P, 7]]


class TestExactMatrix:
    def test_rank_nullity_transpose(self):
        rng = random.Random(41)
        for _ in range(30):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            A = ExactMatrix(random_int_matrix(rng, m, n))
            assert A.rank() == A.transpose().rank()
            assert A.rank() + A.nullity() == n
            null = A.nullspace_basis()
            assert null.nrows == A.nullity()

    def test_rationals_over_fp_rejected(self):
        # a residue class mod p has no truncated rational in it
        assert ExactMatrix([[Fraction(4, 2), -1, 2 ** 70]], P).rows == \
            [[2, P - 1, 2 ** 70 % P]]
        with pytest.raises(ValueError):
            ExactMatrix([[Fraction(1, 2), 1]], P)
        with pytest.raises(ValueError):
            ExactMatrix([[1.5, 1]], P)

    def test_rowspace_membership(self):
        rng = random.Random(42)
        rows = random_int_matrix(rng, 4, 6)
        target = [3 * a - b + 2 * c
                  for a, b, c in zip(rows[0], rows[2], rows[3])]
        coeffs = express_in_rowspace(rows, [target])[0]
        assert coeffs is not None
        rebuilt = [sum(c * r[j] for c, r in zip(coeffs, rows))
                   for j in range(6)]
        assert rebuilt == [Fraction(e) for e in target]


# ------------------------------------------------------ integer lattices


class TestHermite:
    def test_identity_fixed_point(self):
        I = [[int(i == j) for j in range(5)] for i in range(5)]
        H, U = hermite_with_transform(I)
        assert H == I and U == I

    def test_transform_and_shape(self):
        rng = random.Random(51)
        for _ in range(40):
            m, n = rng.randrange(1, 8), rng.randrange(1, 8)
            A = random_int_matrix(rng, m, n)
            H, U = hermite_with_transform(A)
            assert int_det(U) in (1, -1)
            prod = [[sum(U[i][k] * A[k][j] for k in range(m))
                     for j in range(n)] for i in range(m)]
            assert prod == H
            self._check_hnf_shape(H)

    @staticmethod
    def _check_hnf_shape(H):
        last = -1
        seen_zero = False
        for row in H:
            lead = next((j for j, e in enumerate(row) if e), None)
            if lead is None:
                seen_zero = True
                continue
            assert not seen_zero, "zero rows must come last"
            assert lead > last
            assert row[lead] > 0
            last = lead
        # entries above each pivot reduced into [0, pivot)
        pivots = [(i, next(j for j, e in enumerate(r) if e))
                  for i, r in enumerate(H) if any(r)]
        for i, j in pivots:
            for k in range(i):
                assert 0 <= H[k][j] < H[i][j]

    def test_idempotent(self):
        rng = random.Random(52)
        for _ in range(20):
            A = random_int_matrix(rng, 5, 6)
            H, _ = hermite_with_transform(A)
            H2, _ = hermite_with_transform(H)
            assert H2 == H

    def test_kernel_rows_annihilate(self):
        rng = random.Random(53)
        for _ in range(20):
            m, n = 7, rng.randrange(2, 5)
            A = random_int_matrix(rng, m, n)
            H, U = hermite_with_transform(A)
            r = sum(1 for row in H if any(row))
            for u in U[r:]:
                prod = [sum(u[k] * A[k][j] for k in range(m))
                        for j in range(n)]
                assert prod == [0] * n

    def test_hnf_is_lattice_invariant(self):
        # two generating sets of the same row lattice get the same H
        rng = random.Random(54)
        for _ in range(20):
            A = random_int_matrix(rng, 5, 5)
            B = [row[:] for row in A]
            B.append([a + 2 * b for a, b in zip(A[0], A[3])])
            rng.shuffle(B)
            assert row_lattice_hnf(A) == row_lattice_hnf(B)


class TestDeterminant:
    def test_against_fraction_gaussian(self):
        rng = random.Random(61)
        for _ in range(50):
            n = rng.randrange(1, 7)
            A = random_int_matrix(rng, n, n)
            assert int_det(A) == naive_det(A)

    def test_gram_det(self):
        rng = random.Random(62)
        B = random_int_matrix(rng, 3, 5)
        G = [[sum(a * b for a, b in zip(u, v)) for v in B] for u in B]
        assert gram_det(B) == naive_det(G)


class TestLLL:
    def test_lattice_preserved(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randrange(2, 6)
            B = random_int_matrix(rng, n, n + 1, bound=30)
            if ExactMatrix(B).rank() < n:
                continue
            R = lll_reduce(B)
            assert len(R) == n
            assert gram_det(R) == gram_det(B)
            assert row_lattice_hnf(R) == row_lattice_hnf(B)

    def test_lovasz_condition(self):
        rng = random.Random(72)
        delta = Fraction(3, 4)
        for _ in range(15):
            n = rng.randrange(2, 6)
            B = random_int_matrix(rng, n, n, bound=40)
            if ExactMatrix(B).rank() < n:
                continue
            R = lll_reduce(B)
            star, mu = gram_schmidt(R)
            norms = [sum(e * e for e in v) for v in star]
            for k in range(1, len(R)):
                for j in range(k):
                    assert abs(mu[k][j]) <= Fraction(1, 2)
                assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]

    def test_reduced_basis_stays_put(self):
        # orthogonal rows scaled differently are already reduced
        B = [[4, 0, 0], [0, 3, 0], [0, 0, 5]]
        R = lll_reduce(B)
        assert sorted(sorted(map(abs, r)) for r in R) == \
            sorted(sorted(map(abs, r)) for r in B)

    def test_rejects_dependent_input(self):
        with pytest.raises(ValueError):
            lll_reduce([[1, 2], [2, 4]])


# ------------------------------------------------------------- file I/O


def test_matrix_roundtrip_rational():
    rng = random.Random(81)
    rows = random_rational_matrix(rng, 4, 3)
    buf = io.StringIO()
    write_matrix(buf, rows, 'Q')
    buf.seek(0)
    back, field = read_matrix(buf)
    assert field == 'Q' and back == rows


def test_matrix_roundtrip_modular():
    rng = random.Random(82)
    rows = random_int_matrix(rng, 3, 5)
    buf = io.StringIO()
    write_matrix(buf, rows, P)
    buf.seek(0)
    back, field = read_matrix(buf)
    assert field == P
    assert back == [[e % P for e in r] for r in rows]


def test_write_matrix_rejects_rationals_over_fp():
    buf = io.StringIO()
    write_matrix(buf, [[Fraction(4, 2), -1]], P)
    assert buf.getvalue() == f"1 2 {P}\n2 {P - 1}\n"
    with pytest.raises(ValueError):
        write_matrix(io.StringIO(), [[Fraction(1, 2), 1]], P)


def test_read_matrix_rejects_bad_body():
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("2 2 Q\n1 2 3\n"))


def test_int_rows_rejects_true_fractions():
    with pytest.raises(ValueError):
        int_rows([[Fraction(1, 2)]])


def test_check_field_refuses_non_primes():
    primes = [2, 3, 101, 509, 32003, 2 ** 32 - 5]
    assert [check_field(p) for p in primes] == primes
    assert check_field('Q') == 'Q'
    for bad in (-7, 0, 1, 4, 49, 121, 561, 2 ** 32 - 1, 2 ** 32 + 15):
        with pytest.raises(ValueError):
            check_field(bad)
