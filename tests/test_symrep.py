"""Partitions, characters and the natural representation matrices.

The representation matrices never get compared against printed values
anywhere; the tests pin them down structurally instead: the homomorphism
property, trace characters matching the Murnaghan-Nakayama recursion,
and dimension bookkeeping.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import character_table, clifton_a_reference, cycle_type
from prejordan import symrep
from prejordan.errors import InvariantViolation, ResourceLimit
from prejordan.monomials import all_perms, compose
from prejordan.symrep import (RhoCache, character, class_representative,
                              class_size, class_types, clifton_a,
                              clifton_matrix, conjugate, decompose, dimension,
                              format_partition, module_character,
                              parse_partition, partitions,
                              standard_tableaux)

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


class TestPartitions:
    def test_counts(self):
        for n, count in PARTITION_COUNTS.items():
            assert len(partitions(n)) == count

    def test_descending_lex_order(self):
        for n in range(1, 9):
            ps = partitions(n)
            assert list(ps) == sorted(ps, reverse=True)
            assert ps[0] == (n,)
            assert ps[-1] == (1,) * n

    def test_conjugate_involution(self):
        for n in range(1, 9):
            for lam in partitions(n):
                assert conjugate(conjugate(lam)) == lam
                assert dimension(conjugate(lam)) == dimension(lam)

    def test_format_parse(self):
        assert format_partition((4, 2, 1)) == "421"
        assert parse_partition("421") == (4, 2, 1)
        assert parse_partition("4,2,1") == (4, 2, 1)
        with pytest.raises(ValueError):
            parse_partition("124")  # must be weakly decreasing

    def test_dimensions_square_sum(self):
        for n in range(1, 9):
            assert sum(dimension(lam) ** 2 for lam in partitions(n)) == \
                math.factorial(n)

    def test_tableaux_count_is_dimension(self):
        for n in range(1, 7):
            for lam in partitions(n):
                assert len(standard_tableaux(lam)) == dimension(lam)


class TestClasses:
    def test_class_sizes_sum(self):
        for n in range(1, 8):
            assert sum(class_size(mu) for mu in class_types(n)) == \
                math.factorial(n)

    def test_representative_has_right_type(self):
        for n in range(1, 8):
            for mu in class_types(n):
                assert cycle_type(class_representative(mu)) == mu

    def test_cycle_type_invariant_under_conjugation(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randrange(2, 8)
            ps = all_perms(n)
            g, h = rng.choice(ps), rng.choice(ps)
            inv = tuple(sorted(range(1, n + 1), key=lambda k: h[k - 1]))
            conj = compose(h, compose(g, inv))
            assert cycle_type(conj) == cycle_type(g)


class TestCharacters:
    def test_s4_table(self):
        # classes in class_types(4) order: 1111, 211, 22, 31, 4
        assert character_table(4) == (
            (1, 1, 1, 1, 1),
            (3, 1, -1, 0, -1),
            (2, 0, 2, -1, 0),
            (3, -1, -1, 0, 1),
            (1, -1, 1, 1, -1))

    def test_dimension_column(self):
        for n in range(1, 8):
            one = (1,) * n
            for lam in partitions(n):
                assert character(lam, one) == dimension(lam)

    def test_sign_character(self):
        for n in range(2, 8):
            lam = (1,) * n
            for mu in class_types(n):
                assert character(lam, mu) == (-1) ** (n - len(mu))

    def test_traces_match_recursion(self):
        # independent oracle: trace of the natural representation at a
        # class representative
        for n in range(2, 6):
            for lam in partitions(n):
                rho = RhoCache(lam, 'Q')
                for mu in class_types(n):
                    rep = class_representative(mu)
                    tr = sum(rho.of_perm(rep)[i][i]
                             for i in range(rho.dim))
                    assert tr == character(lam, mu)

    def test_column_orthogonality_identity_class(self):
        for n in range(2, 7):
            table = character_table(n)
            one_idx = list(class_types(n)).index((1,) * n)
            assert sum(row[one_idx] ** 2 for row in table) == \
                math.factorial(n)

    def test_decompose_known_modules(self):
        # regular module: every lambda with multiplicity dim(lambda)
        n = 4
        regular = tuple(math.factorial(n) if mu == (1, 1, 1, 1) else 0
                        for mu in class_types(n))
        assert decompose(regular, n) == \
            tuple(dimension(lam) for lam in partitions(n))
        trivial = tuple(1 for _ in class_types(n))
        assert decompose(trivial, n) == (1, 0, 0, 0, 0)


def elements(elems, dtype, owners=None):
    """The arguments (owner, k, perms, coeffs) of RhoCache.raw_of_elements
    for dicts {perm: coeff}, perms 1-based; dict b is element owners[b]."""
    owners = range(len(elems)) if owners is None else owners
    terms = [(i, perm, c) for i, elem in zip(owners, elems)
             for perm, c in elem.items()]
    return (np.array([i for i, _, _ in terms], dtype=np.intp), len(elems),
            np.array([perm for _, perm, _ in terms]) - 1,
            np.array([c for _, _, c in terms], dtype=dtype))


class TestCliftonMatrices:
    def test_identity_maps_to_identity(self):
        for n in range(2, 6):
            for lam in partitions(n):
                rho = RhoCache(lam, 'Q')
                ident = tuple(range(1, n + 1))
                d = rho.dim
                assert rho.of_perm(ident) == \
                    [[Fraction(i == j) for j in range(d)] for i in range(d)]

    def test_homomorphism_exhaustive_small(self):
        for n in (3, 4):
            perms = all_perms(n)
            for lam in partitions(n):
                rho = RhoCache(lam, 'Q')
                mats = {p: np.array(rho.of_perm(p), dtype=object)
                        for p in perms}
                for p in perms:
                    for q in perms:
                        assert (mats[compose(p, q)] ==
                                mats[p] @ mats[q]).all()

    def test_homomorphism_random_pairs_large(self):
        # 500 random pairs spread over degrees 5 through 8; dimension is
        # capped so the exact rational products stay affordable
        rng = random.Random(77)
        for n in (5, 6, 7, 8):
            lams = [lam for lam in partitions(n) if dimension(lam) <= 21]
            perms = all_perms(n)
            caches = {}
            for _ in range(125):
                lam = rng.choice(lams)
                rho = caches.get(lam)
                if rho is None:
                    rho = caches[lam] = RhoCache(lam, 'Q')
                p, q = rng.choice(perms), rng.choice(perms)
                left = np.array(rho.of_perm(compose(p, q)), dtype=object)
                right = np.array(rho.of_perm(p), dtype=object) @ \
                    np.array(rho.of_perm(q), dtype=object)
                assert (left == right).all()

    def test_clifton_a_entries(self):
        # intersection matrices carry only 0 and +-1
        rng = random.Random(78)
        for n in (4, 5):
            perms = all_perms(n)
            for lam in partitions(n):
                A = clifton_a(lam, [rng.choice(perms) for _ in range(5)])
                assert A.shape == (5, dimension(lam), dimension(lam))
                assert set(np.unique(A)) <= {-1, 0, 1}

    def test_clifton_a_matches_reference(self, monkeypatch):
        # the batched builder against the per-permutation rule, with the
        # working bound set so that batches split into steps of 1 and of 7
        # permutations; 7 divides none of the batch sizes of two or more
        rng = random.Random(80)
        cases = [(lam, all_perms(n)) for n in range(1, 7)
                 for lam in partitions(n)]
        cases += [(lam, rng.sample(all_perms(7), 60))
                  for lam in ((6, 1), (4, 2, 1), (3, 2, 1, 1))]
        cases += [(lam, rng.sample(all_perms(8), 40))
                  for lam in ((4, 3, 1), (2, 2, 1, 1, 1, 1))]
        for lam, perms in cases:
            want = [clifton_a_reference(lam, perm) for perm in perms]
            work = symrep._clifton_data(lam)[-1]
            for step in (1, 7):
                monkeypatch.setattr(symrep, "CLIFTON_BATCH_ENTRIES",
                                    step * work + work // 2)
                got = clifton_a(lam, perms)
                assert got.dtype == np.int8
                assert got.shape == (len(perms),) + (dimension(lam),) * 2
                assert (got == np.array(want)).all()

    def test_clifton_a_width_guard(self):
        # row indices and column heights are int8, so n <= 127; the
        # single column (1^127) has height 127 and A(perm) = sign(perm)
        rng = random.Random(81)
        n = 127
        perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(4)]
        signs = [(-1) ** (n - len(cycle_type(p))) for p in perms]
        assert clifton_a((1,) * n, perms)[:, 0, 0].tolist() == signs
        assert clifton_a((n,), perms).tolist() == [[[1]]] * 4
        for lam in ((n + 1,), (1,) * (n + 1)):
            with pytest.raises(ValueError, match="n <= 127"):
                clifton_a(lam, [tuple(range(1, n + 2))])

    def test_store_is_indexed_by_lexicographic_rank(self):
        # the A-matrix store is found through the lexicographic rank of a
        # permutation, 0- or 1-based, which must be its all_perms index
        for n in range(1, 7):
            perms = np.array(all_perms(n))
            assert symrep._lex_ranks(perms).tolist() == list(range(len(perms)))
            assert (symrep._lex_ranks(perms - 1)
                    == symrep._lex_ranks(perms)).all()
        rng = random.Random(83)
        lam = (3, 2, 1)
        perms = all_perms(6)
        sample = [rng.choice(perms) for _ in range(40)]
        rho = RhoCache(lam, 101)
        got = rho._stacked(np.array(sample))
        assert (got == clifton_a(lam, sample)).all()
        assert rho._size == 1 + len(set(sample) - {perms[0]})

    def test_rank_table_width_guard(self):
        # n! int32 slots: 14.5 MB at n = 10, refused past it
        assert RhoCache((10,), 101).dim == 1
        with pytest.raises(ResourceLimit):
            RhoCache((11,), 101)

    def test_of_element_linear(self):
        n = 4
        lam = (3, 1)
        rho = RhoCache(lam, 'Q')
        perms = all_perms(n)
        elem = {perms[3]: Fraction(2), perms[10]: Fraction(-1)}
        got = np.array(rho.of_element(elem), dtype=object)
        want = 2 * np.array(rho.of_perm(perms[3]), dtype=object) \
            - np.array(rho.of_perm(perms[10]), dtype=object)
        assert (got == want).all()

    def test_raw_blocks_differ_by_leading_matrix(self):
        # raw block = A(id) times the genuine representation block; a
        # half-integer coefficient stays exact in the raw block
        n = 4
        rng = random.Random(79)
        perms = all_perms(n)
        for lam in partitions(n):
            rho = RhoCache(lam, 'Q')
            a_id = rho.a_id.astype(object)
            for elem in ({rng.choice(perms): 3, rng.choice(perms): -2},
                         {rng.choice(perms): Fraction(1, 2)}):
                raw = rho.raw_of_element(elem)
                genuine = np.array(rho.of_element(elem), dtype=object)
                assert raw.any()
                assert (raw == a_id @ genuine).all()

    def test_raw_of_elements_stacks_columns(self):
        lam = (2, 2)
        rho = RhoCache(lam, 101)
        perms = all_perms(4)
        e1 = {perms[0]: 1, perms[5]: 4}
        e2 = {perms[7]: 2}
        stacked = rho.raw_of_elements(*elements([e2, e1], np.int64, [1, 0]))
        d = rho.dim
        assert stacked.shape == (d, 2 * d)
        assert (stacked[:, :d] == rho.raw_of_element(e1)).all()
        assert (stacked[:, d:] == rho.raw_of_element(e2)).all()

    def test_raw_blocks_int64_bound(self):
        # int64 only while every element has sum |c| < 2**63; two
        # A-matrices with a shared entry of equal sign drive that entry to
        # sum |c| exactly, so a looser bound wraps it
        lam = (2, 1, 1)
        rho = RhoCache(lam, 101)
        d = rho.dim
        perms = all_perms(4)
        a = dict(zip(perms, clifton_a(lam, perms)))
        p, q = next((p, q) for p in perms for q in perms if p < q and
                    (a[p] * a[q] == 1).any())

        def reference(elem):
            return np.array([[sum(c * int(a[r][i, j])
                                  for r, c in elem.items())
                              for j in range(d)] for i in range(d)],
                            dtype=object)

        edge = {p: 2 ** 62, q: 2 ** 62 - 1}
        over = {p: 2 ** 62, q: 2 ** 62}
        stacked = rho.raw_of_elements(*elements([edge, edge, {p: -3}],
                                                np.int64))
        assert stacked.dtype == np.int64
        assert (stacked[:, :d] == reference(edge)).all()
        assert (stacked[:, d:2 * d] == reference(edge)).all()
        assert np.abs(stacked).max() == 2 ** 63 - 1
        assert rho.raw_of_element(edge).dtype == np.int64
        raw = rho.raw_of_element(over)
        assert raw.dtype == object
        assert (raw == reference(over)).all()
        assert max(abs(e) for e in raw.flat) == 2 ** 63
        mixed = rho.raw_of_elements(*elements([edge, over], object))
        assert mixed.dtype == object
        assert (mixed[:, :d] == reference(edge)).all()
        assert (mixed[:, d:] == reference(over)).all()

    def test_clifton_matrix_helper(self):
        assert clifton_matrix((2, 1), (1, 2, 3)) == \
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


class TestModuleCharacter:
    def test_rejects_dependent_vectors(self):
        def act(sigma, vec):
            return vec

        with pytest.raises(InvariantViolation):
            module_character([[1, 0], [2, 0]], 2, act)

    def test_trivial_action_gives_trivial_character(self):
        def act(sigma, vec):
            return vec

        char = module_character([[1, 0], [0, 1]], 2, act)
        assert char == (2, 2)
        assert decompose(char, 2) == (2, 0)
