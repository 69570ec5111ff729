"""The expansion map from one-product words to normal two-product words."""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import random_word
from prejordan.dendriform import dnormalize, normal_dtypes
from prejordan.errors import ResourceLimit
from prejordan.expansion import (cached_expansion_table, expansion_matrix,
                                 expansion_table, identity_vector,
                                 pj_expand, pj_normal_form,
                                 poly_normal_form, xblock_matrix,
                                 xblock_transpose_rows)
from prejordan.linalg import int_rows, read_matrix
from prejordan.monomials import (assoc_types, classify, multilinear_basis,
                                 parse_word, relabel, with_leaves)
from prejordan.pipeline import liftings_to_degree
from prejordan.symrep import RhoCache, dimension, partitions

DATA = Path(__file__).parent / "data"

DEGREE4_X_RANKS = {(4,): 3, (3, 1): 12, (2, 2): 9, (2, 1, 1): 14,
                   (1, 1, 1, 1): 5}


def test_single_product_expansion():
    assert pj_expand(parse_word("(x1*x2)")) == {
        parse_word("(x1>x2)"): 1, parse_word("(x2<x1)"): 1}


def test_expansion_term_count():
    # each of the n-1 products doubles the raw term count
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(2, 6)
        w = random_word(rng, n)
        assert sum(abs(c) for c in pj_expand(w).values()) <= 2 ** (n - 1)


def test_normal_form_lands_on_normal_words():
    from prejordan.dendriform import is_normal
    rng = random.Random(2)
    for _ in range(60):
        w = random_word(rng, rng.randrange(2, 6))
        for u in pj_normal_form(w):
            assert is_normal(u)


def test_degree3_matrix_golden():
    got = int_rows(expansion_matrix(3).transpose().rows)
    with open(DATA / "expansion_degree3.txt") as fh:
        want, field = read_matrix(fh)
    assert field == 'Q'
    assert got == want


def test_degree3_full_rank():
    # no identities in degree 3: the rows are independent
    E = expansion_matrix(3)
    assert E.shape == (12, 30)
    assert E.rank() == 12
    assert E.transpose().nullity() == 0


def test_degree4_rank_and_nullity():
    # row space drops 16 short: the identity module of degree 4
    E = expansion_matrix(4)
    assert E.shape == (120, 336)
    assert E.rank() == 104
    assert E.transpose().nullity() == 16


def test_equivariance():
    # expanding a relabeled word is relabeling the expansion
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 6)
        w = random_word(rng, n)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        direct = pj_normal_form(relabel(w, sigma))
        moved = {relabel(u, sigma): c for u, c in pj_normal_form(w).items()}
        assert direct == moved


def test_table_matches_direct_expansion():
    from prejordan.dendriform import classify_normal
    from prejordan.monomials import identity_perm, with_leaves
    for n in (3, 4, 5):
        table = expansion_table(n)
        dtypes = normal_dtypes(n)
        for i, tword in enumerate(assoc_types(n, 1)):
            w = with_leaves(tword, identity_perm(n))
            direct = pj_normal_form(w)
            rebuilt = {}
            for j, cell in table[i].items():
                for perm, c in cell.items():
                    rebuilt[with_leaves(dtypes[j], perm)] = c
            assert rebuilt == direct


def test_cache_roundtrip(tmp_path):
    fresh = expansion_table(4)
    first = cached_expansion_table(4, str(tmp_path))
    again = cached_expansion_table(4, str(tmp_path))
    assert (tmp_path / "expansion-4.json").exists()
    assert first == fresh
    assert again == fresh


def test_dense_matrix_degree_gate():
    with pytest.raises(ResourceLimit):
        expansion_matrix(6)
    # explicit override is allowed but stays out of routine tests


def test_poly_normal_form_linear():
    w1 = parse_word("((x1*x2)*x3)")
    w2 = parse_word("(x1*(x2*x3))")
    combined = poly_normal_form({w1: 2, w2: -5})
    a = pj_normal_form(w1)
    b = pj_normal_form(w2)
    want = {}
    for src, c in ((a, 2), (b, -5)):
        for u, cc in src.items():
            want[u] = want.get(u, 0) + c * cc
    assert combined == {u: c for u, c in want.items() if c}


def reference_normal_form(poly):
    """The definition: per-term sum of dnormalize(pj_expand(w))."""
    acc = {}
    for w, c in poly.items():
        for u, cc in dnormalize(pj_expand(w)).items():
            acc[u] = acc.get(u, 0) + c * cc
    return {u: c for u, c in acc.items() if c}


def test_poly_normal_form_exact():
    # coefficient magnitudes on both sides of the int64 bound, rationals,
    # repeated and out-of-range leaf labels, mixed degrees, cancellation
    rng = random.Random(12)

    def coeff():
        return rng.choice([
            rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            rng.choice((-1, 1)) * 2 ** 40, rng.choice((-1, 1)) * 2 ** 61,
            rng.choice((-1, 1)) * (2 ** 63 + rng.randrange(2 ** 64))])

    def word(n):
        w = random_word(rng, n)
        if rng.random() < 0.3:  # repeated labels, not all below n
            w = with_leaves(w, [rng.choice((1, 2, 3, 12)) for _ in range(n)])
        return w

    combos = [{word(n): coeff() for _ in range(rng.randrange(1, 7))}
              for n in range(2, 9) for _ in range(8)]
    combos += [{word(rng.randrange(1, 7)): coeff() for _ in range(6)}
               for _ in range(10)]
    combos.append({word(10): 2 ** 70 + 1, word(5): Fraction(1, 3)})
    # so many distinct labels that row keys must be renumbered mid-way
    combos.append({with_leaves(word(8), rng.sample(range(1, 10 ** 9), 8)):
                   coeff() for _ in range(25)})
    combos += [{}, {1: 3}, {1: 2 ** 63}, {1: 2 ** 63 - 1},
               {word(4): 0.5, word(4): 1.25, word(3): 0}]
    for f in random.Random(13).sample(liftings_to_degree(6), 6):
        scale = coeff() or 7
        scaled = {w: scale * c for c, w in f.terms}
        assert poly_normal_form(scaled) == {}
        extra = word(6)
        combos.append({**scaled, extra: scaled.get(extra, 0) + 1})
    for poly in combos:
        assert poly_normal_form(poly) == reference_normal_form(poly), poly


def test_row_keys_renumber_instead_of_wrapping():
    from prejordan.expansion import _row_keys, type_image
    type_image(parse_word("(x1*x2)"))  # registers the shapes x<y and x>y
    # shape id * radix^2 is 2^64 here, which int64 arithmetic wraps to 0
    keys = _row_keys(np.array([0, 1]), np.zeros((2, 2), dtype=np.int64),
                     2 ** 32)
    assert keys[0] != keys[1]


def test_type_images_normalized_once(monkeypatch):
    # the table and the gate share one normalization per association type
    import prejordan.expansion as expansion
    calls = []
    real = expansion.dnormalize
    monkeypatch.setattr(expansion, "dnormalize",
                        lambda poly: calls.append(1) or real(poly))
    expansion.type_image.cache_clear()
    expansion.expansion_table.cache_clear()
    expansion_table(5)
    for f in liftings_to_degree(5):  # gates the degree-4 pair on the way
        poly_normal_form(f.poly())
    assert len(calls) == len(assoc_types(4, 1)) + len(assoc_types(5, 1))


def test_identity_vector_positions():
    basis = multilinear_basis(4, 1)
    w = basis[17]
    vec = identity_vector({w: Fraction(3)}, 4)
    assert vec[17] == 3
    assert sum(1 for e in vec if e) == 1


def test_identity_vector_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        identity_vector({parse_word("(x1*x2)"): 1,
                         parse_word("((x1*x2)*x3)"): 1}, 3)


class TestBlockMatrices:
    def test_raw_and_genuine_ranks_agree(self):
        for n in (3, 4):
            table = expansion_table(n)
            for lam in partitions(n):
                X = xblock_matrix(n, lam, table=table)
                d = dimension(lam)
                t = len(assoc_types(n, 1))
                s = len(normal_dtypes(n))
                assert X.shape == (t * d, s * d)
                raw_rows = [row for batch in
                            xblock_transpose_rows(n, lam, table=table)
                            for row in batch]
                from prejordan.linalg import ExactMatrix
                assert ExactMatrix(raw_rows).rank() == X.rank()

    def test_degree4_block_ranks(self):
        table = expansion_table(4)
        for lam, want in DEGREE4_X_RANKS.items():
            assert xblock_matrix(4, lam, table=table).rank() == want

    def test_block_ranks_same_mod_p(self):
        from prejordan.linalg import echelon_state
        table = expansion_table(4)
        for lam in partitions(4):
            d = dimension(lam)
            st = echelon_state(len(assoc_types(4, 1)) * d, 101)
            for batch in xblock_transpose_rows(4, lam, 101, table=table):
                st.add_rows(batch)
            assert st.rank == DEGREE4_X_RANKS[lam]

    def test_chunk_size_irrelevant(self):
        table = expansion_table(4)
        lam = (2, 1, 1)
        whole = [row for batch in
                 xblock_transpose_rows(4, lam, 101, chunk=999, table=table)
                 for row in batch]
        pieces = [row for batch in
                  xblock_transpose_rows(4, lam, 101, chunk=1, table=table)
                  for row in batch]
        assert [list(map(int, r)) for r in whole] == \
            [list(map(int, r)) for r in pieces]

    def test_block_sizes_against_type_counts(self):
        # one block column per normal D-type, one block row per type
        n = 4
        lam = (3, 1)
        d = dimension(lam)
        rows = [row for batch in xblock_transpose_rows(n, lam)
                for row in batch]
        assert len(rows) == len(normal_dtypes(n)) * d
        assert len(rows[0]) == len(assoc_types(n, 1)) * d


def test_classify_consistency_with_basis():
    # expansion rows are indexed by classify; spot check the agreement
    basis = multilinear_basis(4, 1)
    for i in (0, 37, 95):
        t_idx, perm = classify(basis[i], 1)
        assert basis[i] == relabel(
            basis[t_idx * 24], perm)
