"""Words, association types and the permutation bookkeeping."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from helpers import identity_perm, inverse_perm, is_multilinear, random_word
from prejordan.monomials import (all_perms, assoc_type_index, assoc_types,
                                 basis_index, classify, compose, coeff_str,
                                 degree, format_word, leaves,
                                 multilinear_basis, parse_word, perm_index,
                                 relabel, shape, with_leaves)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


class TestCounts:
    def test_one_product_type_counts(self):
        # binary bracketings of n factors
        for n in range(1, 9):
            assert len(assoc_types(n, 1)) == catalan(n - 1)

    def test_two_product_type_counts(self):
        for n in range(2, 9):
            assert len(assoc_types(n, 2)) == 2 ** (n - 1) * catalan(n - 1)

    def test_degree_3_and_4_one_product_orders(self):
        assert [format_word(w) for w in assoc_types(3, 1)] == \
            ["((x1*x2)*x3)", "(x1*(x2*x3))"]
        assert [format_word(w) for w in assoc_types(4, 1)] == [
            "(((x1*x2)*x3)*x4)", "((x1*(x2*x3))*x4)", "((x1*x2)*(x3*x4))",
            "(x1*((x2*x3)*x4))", "(x1*(x2*(x3*x4)))"]

    def test_multilinear_basis_size(self):
        for n in range(2, 6):
            assert len(multilinear_basis(n, 1)) == \
                len(assoc_types(n, 1)) * math.factorial(n)


class TestPerms:
    def test_all_perms_lex_sorted(self):
        for n in range(1, 6):
            ps = all_perms(n)
            assert ps == sorted(ps)
            assert len(ps) == math.factorial(n)

    def test_compose_and_inverse(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(1, 8)
            ps = all_perms(n)
            p = rng.choice(ps)
            q = rng.choice(ps)
            pq = compose(p, q)
            # (p o q)(k) = p(q(k))
            for k in range(1, n + 1):
                assert pq[k - 1] == p[q[k - 1] - 1]
            assert compose(p, inverse_perm(p)) == identity_perm(n)
            assert compose(inverse_perm(p), p) == identity_perm(n)

    def test_perm_index_matches_position(self):
        for n in range(1, 6):
            idx = perm_index(n)
            for i, p in enumerate(all_perms(n)):
                assert idx[p] == i


class TestWords:
    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_classify_roundtrip(self, n, rng):
        w = random_word(rng, n)
        i, perm = classify(w, 1)
        assert with_leaves(assoc_types(n, 1)[i], perm) == w

    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_relabel_acts_on_leaves(self, n, rng):
        w = random_word(rng, n)
        p = tuple(rng.sample(range(1, n + 1), n))
        assert leaves(relabel(w, p)) == tuple(p[k - 1] for k in leaves(w))
        assert shape(relabel(w, p)) == shape(w)

    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_relabel_composes(self, n, rng):
        w = random_word(rng, n)
        ps = all_perms(n)
        p, q = rng.choice(ps), rng.choice(ps)
        assert relabel(relabel(w, q), p) == relabel(w, compose(p, q))

    @given(st.integers(2, 7), st.integers(1, 2),
           st.randoms(use_true_random=False))
    def test_format_parse_roundtrip(self, n, ops, rng):
        w = random_word(rng, n, ops)
        assert parse_word(format_word(w)) == w

    def test_parse_rejects_junk(self):
        for bad in ["", "x1*", "(x1*x2", "(x1%x2)", "x", "()", "(x1*x2))"]:
            with pytest.raises(ValueError):
                parse_word(bad)

    def test_multilinearity(self):
        assert is_multilinear(parse_word("((x2*x1)*x3)"))
        assert not is_multilinear(parse_word("((x1*x1)*x3)"))
        assert not is_multilinear(parse_word("((x1*x2)*x4)"))

    def test_degree_counts_leaves(self):
        w = parse_word("((x1*(x2*x3))*(x4*x5))")
        assert degree(w) == 5
        assert leaves(w) == (1, 2, 3, 4, 5)

    def test_basis_index_agrees_with_list(self):
        for n in (3, 4):
            idx = basis_index(n, 1)
            for i, w in enumerate(multilinear_basis(n, 1)):
                assert idx(w) == i

    def test_basis_sorted_by_type_then_labels(self):
        for n in (3, 4):
            keys = [(classify(w, 1)[0], leaves(w))
                    for w in multilinear_basis(n, 1)]
            assert keys == sorted(keys)


def test_assoc_type_index_inverts_list():
    for ops in (1, 2):
        idx = assoc_type_index(4, ops)
        for i, w in enumerate(assoc_types(4, ops)):
            assert idx[w] == i


def test_coeff_str():
    from fractions import Fraction
    assert coeff_str(Fraction(3)) == "3"
    assert coeff_str(Fraction(-1, 2)) == "-1/2"
