"""Rewriting into normal form and the normal-word combinatorics.

The rewriting system is confluent, so any strategy must reach the same
normal form; the randomized-strategy comparison below is the load-bearing
check for that.
"""

import math
import random
from collections import Counter

from helpers import (classify_normal, normal_dtype_index, poly_from_json,
                     poly_to_json, random_word)
from prejordan.dendriform import (dnormalize, is_normal, normal_dtypes,
                                  normalize_word, rewrite_random_strategy)
from prejordan.monomials import format_word, leaves, with_leaves


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_normal_dtype_counts():
    for n in range(1, 9):
        assert len(normal_dtypes(n)) == catalan(n)


def test_degree_2_and_3_dtype_orders():
    assert [format_word(w) for w in normal_dtypes(2)] == \
        ["(x1<x2)", "(x1>x2)"]
    assert [format_word(w) for w in normal_dtypes(3)] == [
        "(x1<(x2<x3))", "(x1>(x2<x3))", "(x1<(x2>x3))", "(x1>(x2>x3))",
        "((x1>x2)>x3)"]


def test_normal_dtypes_are_normal():
    for n in range(1, 7):
        for w in normal_dtypes(n):
            assert is_normal(w)


def test_classify_normal_roundtrip():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(2, 7)
        j = rng.randrange(len(normal_dtypes(n)))
        perm = tuple(rng.sample(range(1, n + 1), n))
        w = with_leaves(normal_dtypes(n)[j], perm)
        assert classify_normal(w) == (j, perm)


def test_normal_dtype_index_inverts_list():
    for n in (2, 3, 4, 5):
        idx = normal_dtype_index(n)
        for j, w in enumerate(normal_dtypes(n)):
            assert idx[w] == j


class TestNormalization:
    def test_output_is_normal(self):
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randrange(2, 7)
            terms = normalize_word(random_word(rng, n, ops=2))
            for w, c in terms:
                assert is_normal(w)
                assert len(leaves(w)) == n
                assert c

    def test_leaf_multiset_preserved_per_term(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randrange(2, 7)
            word = random_word(rng, n, ops=2)
            for w, _ in normalize_word(word):
                assert Counter(leaves(w)) == Counter(leaves(word))

    def test_normal_words_are_fixed_points(self):
        rng = random.Random(13)
        for n in range(2, 7):
            for shape_w in normal_dtypes(n):
                perm = tuple(rng.sample(range(1, n + 1), n))
                w = with_leaves(shape_w, perm)
                assert normalize_word(w) == ((w, 1),)

    def test_dnormalize_idempotent(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randrange(2, 7)
            poly = {random_word(rng, n, ops=2): rng.randint(-4, 4),
                    random_word(rng, n, ops=2): rng.randint(-4, 4)}
            once = dnormalize(poly)
            assert dnormalize(once) == once

    def test_confluence_random_strategies(self):
        # 1000 random words through degree 5, each normalized once by the
        # deterministic recursion and once by rule applications in random
        # positions; confluence means zero discrepancies
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randrange(2, 6)
            word = random_word(rng, n, ops=2)
            expected = normalize_word(word)
            got = rewrite_random_strategy({word: 1}, rng)
            assert got == dict(expected)


def test_poly_json_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 6)
        poly = dnormalize({random_word(rng, n, ops=2): rng.randint(-9, 9)
                           for _ in range(3)})
        assert poly_from_json(poly_to_json(poly)) == poly
