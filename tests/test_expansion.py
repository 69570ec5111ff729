"""The expansion map from one-product words to normal two-product words."""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (identity_perm, identity_vector, normal_dtype_index,
                     random_word, table_to_json)
from prejordan import pipeline
from prejordan.dendriform import dnormalize, normal_dtypes
from prejordan.errors import ResourceLimit
from prejordan.expansion import (expansion_arrays, expansion_matrix,
                                 expansion_table, pj_expand, pj_normal_form,
                                 poly_normal_form, xblock_matrix,
                                 xblock_transpose_rows)
from prejordan.linalg import echelon_state, int_rows, read_matrix
from prejordan.monomials import (assoc_type_index, assoc_types, classify,
                                 degree, leaves,
                                 multilinear_basis, parse_word, relabel,
                                 shape, with_leaves)
from prejordan.pipeline import liftings_to_degree
from prejordan.symrep import RhoCache, dimension, partitions
from test_linalg import CROSS_PRIMES

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
    for n in range(3, 8):
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


# SHA-1 and size of json.dumps(table_to_json(n, ...)), the bytes of the
# table file format of earlier versions, as written before the table was
# held as arrays (5, 6) and before the images were built level by level
# (7, 8): they pin every entry of the table and its order
TABLE_JSON_SHA1 = {5: ("b05f19f750570f29a58879f043ff7b17535569dc", 13198),
                   6: ("8155a4bc37a63a00b6b337e2eeed2faeee7552b2", 123901),
                   7: ("8a3208cfabbfc52cbe2a3cfbd38b4d9c2fca80bc", 1224556),
                   8: ("21d4e6aa431f26cc57c053ad1af25d53fe14dae3", 12462336)}


@pytest.mark.parametrize(
    "n", [5, 6, 7, pytest.param(8, marks=pytest.mark.release)])
def test_table_json_bytes_pinned(n):
    import hashlib
    text = json.dumps(table_to_json(n, expansion_arrays(n)))
    assert (hashlib.sha1(text.encode()).hexdigest(), len(text)) == \
        TABLE_JSON_SHA1[n]


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


def test_poly_normal_form_exact(monkeypatch):
    # coefficient magnitudes on both sides of the int64 bound, rationals,
    # repeated and out-of-range leaf labels, mixed degrees, cancellation
    import prejordan.expansion as expansion
    radices = []
    real = expansion._relabel_sum
    monkeypatch.setattr(expansion, "_relabel_sum", lambda *args: radices.append(
        args[4]) or real(*args))
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
    # 256 distinct labels: a key of shape id and 8 label codes then needs
    # id * 256**8 = id * 2**64, so it must be renumbered mid-way; keys
    # wrapped in int64 would drop the shape id and merge different shapes
    labels = rng.sample(range(1, 10 ** 9), 256)
    combos.append({with_leaves(word(8), labels[k:k + 8]): coeff()
                   for k in range(0, 256, 8)})
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
    # the 256 labels are past the position weights, which need codes < n
    assert 256 in radices


def test_row_keys_renumber_instead_of_wrapping():
    from prejordan.expansion import _row_keys
    zeros = [np.zeros(2, dtype=np.int64)] * 2
    # head * radix^2 is 2^64 here, which int64 arithmetic wraps to 0
    keys = _row_keys(np.array([0, 1]), 2, zeros, 2 ** 32, 63)
    assert keys[0] != keys[1]
    # 2^41 fits in int64 but not below 2^40, the room left beside 23 bits
    # of row numbers: renumbered before the second column
    assert _row_keys(np.array([0, 1]), 2, zeros, 2 ** 20, 40).tolist() == \
        [0, 2 ** 20]
    # four distinct rows times 2^62 cannot fit even when renumbered
    with pytest.raises(OverflowError):
        _row_keys(np.arange(4), 4, [np.zeros(4, dtype=np.int64)], 2 ** 62, 63)


def summed_terms(n, types, codes, coeffs):
    """The definition of split_normal_form in Python: the sorted nonzero
    (shape, labels, coeff) of the sum of the relabeled type images."""
    from prejordan.expansion import type_images
    store = type_images(n, types)
    acc = {}
    for t, row, c in zip(types.tolist(), codes.tolist(), coeffs.tolist()):
        rows = range(store.start[t], store.start[t] + store.count[t])
        for s, perm, cc in zip(store.shapes[rows].tolist(),
                               store.perms[rows].tolist(),
                               store.coeffs[rows].tolist()):
            key = (s, tuple(row[v] for v in perm))
            acc[key] = acc.get(key, 0) + c * cc
    return sorted((s, labels, c) for (s, labels), c in acc.items() if c)


def as_terms(shapes, labels, coeffs):
    return list(zip(shapes.tolist(), map(tuple, labels.tolist()),
                    coeffs.tolist()))


def assert_same_arrays(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert (x == y).all()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_split_normal_form_matches_column_keys(n):
    # the position-weight keys give what the column keys of _relabel_sum
    # give: the same shapes, labels, coefficients (and dtypes), in the same
    # order; on multilinear combinations, with some terms repeated so that
    # sums meet and cancel, and on repeated labels
    from prejordan.expansion import _relabel_sum, split_normal_form, \
        type_images
    rng = np.random.default_rng(n)
    t = len(assoc_types(n, 1))
    store = type_images(n, range(t))
    liftings = liftings_to_degree(n)
    liftings = random.Random(n).sample(liftings, min(4, len(liftings)))
    for trial in range(24):
        k = int(rng.integers(1, 13))
        types = rng.integers(0, t, k)
        if trial % 3 == 2:  # labels repeated, all below radix <= n
            radix = int(rng.integers(1, n + 1))
            codes = rng.integers(0, radix, (k, n))
        else:
            radix = n
            codes = np.array([rng.permutation(n) for _ in range(k)], np.int8)
        coeffs = rng.integers(-9, 10, k)
        if trial % 4 == 3:  # exact numbers past the int64 bound
            coeffs = np.array([Fraction(int(c), 3) + 2 ** 70 for c in coeffs],
                              dtype=object)
        # term 0 again, with its coefficient negated or doubled
        types, codes = np.append(types, types[0]), np.vstack([codes, codes[:1]])
        coeffs = np.append(coeffs, -coeffs[0] if trial % 2 else coeffs[0])
        got = split_normal_form(n, types, codes, coeffs, radix)
        assert_same_arrays(got, _relabel_sum(store, types, codes, coeffs,
                                             radix)[1:])
        if trial < 3:
            assert as_terms(*got) == summed_terms(n, types, codes, coeffs)
    for f in liftings:
        assert_same_arrays(split_normal_form(n, f.types, f.leaves, f.coeffs, n),
                           (f.types[:0], f.leaves[:0], f.coeffs[:0]))
        coeffs = f.coeffs.copy()
        coeffs[0] += 1
        got = split_normal_form(n, f.types, f.leaves, coeffs, n)
        assert len(got[2])
        assert_same_arrays(got, _relabel_sum(store, f.types, f.leaves, coeffs,
                                             n)[1:])


def test_key_dtype_bound(monkeypatch):
    # every label part is an integer of at most n**n - 1: float32 holds
    # them through degree 8 (8**8 - 1 < 2**24), float64 through 13
    import prejordan.expansion as expansion
    assert [expansion._key_dtype(n) for n in (2, 8, 9, 13, 14)] == \
        [np.float32, np.float32, np.float64, np.float64, None]
    store = expansion.type_images(8, range(len(assoc_types(8, 1))))
    P = expansion._position_weights(8, store.perms, np.float32)
    assert ((P @ np.full(8, 7, np.float32)) == 8 ** 8 - 1).all()
    # moved by one degree, float32 keys at degree 9 come out wrong
    types, codes = np.array([0, 1]), np.array([np.arange(9)[::-1]] * 2)
    coeffs = np.array([1, 2])
    want = summed_terms(9, types, codes, coeffs)
    assert as_terms(*expansion.split_normal_form(9, types, codes, coeffs,
                                                 9)) == want
    monkeypatch.setattr(expansion, "_WEIGHTS", {})
    monkeypatch.setattr(expansion, "_key_dtype",
                        lambda n: np.dtype(np.float32))
    assert as_terms(*expansion.split_normal_form(9, types, codes, coeffs,
                                                 9)) != want


def test_keys_leave_room_for_row_numbers(monkeypatch):
    # a packed sort needs keys below 2**(63 - b), b the bit length of the
    # row count: keys that fit in int64 but not there are renumbered (column
    # keys) or summed by _relabel_sum (position weights), exactly
    import prejordan.expansion as expansion
    comb = assoc_type_index(10, 1)[parse_word(
        "(((((((((x1*x2)*x3)*x4)*x5)*x6)*x7)*x8)*x9)*x10)")]
    expansion.type_images(5, range(len(assoc_types(5, 1))))
    assert expansion.type_images(10, [comb]).count[comb] == 13749
    packed, column = [], []
    real_sum, real_relabel = expansion._sum_equal, expansion._relabel_sum
    monkeypatch.setattr(expansion, "_sum_equal", lambda key, vals, b: (
        packed.append(int(key.max()).bit_length() + b) or
        real_sum(key, vals, b)))
    monkeypatch.setattr(expansion, "_relabel_sum", lambda *args: (
        column.append(args[4]) or real_relabel(*args)))
    # degree 5 with codes below 2**11: 42 * 2**55 < 2**63, but the 6 terms'
    # rows need b >= 7 bits
    rng = np.random.default_rng(5)
    types = np.array([3, 3, 7, 12, 13, 3])
    codes = rng.choice([0, 1, 2 ** 11 - 1], (6, 5))
    codes[5] = codes[0]
    coeffs = np.array([2, -1, 3, 1, -5, 1])
    got = expansion.split_normal_form(5, types, codes, coeffs, 2 ** 11)
    assert as_terms(*got) == summed_terms(5, types, codes, coeffs)
    assert column == [2 ** 11] and max(packed) <= 63
    # degree-10 keys take 48 bits: two left combs (13,749 rows each) leave
    # the 15 bits their rows need, a third does not
    codes = np.array([rng.permutation(10) for _ in range(3)], np.int8)
    for k in (2, 3):
        packed.clear(), column.clear()
        types, coeffs = np.full(k, comb), np.arange(1, k + 1)
        got = expansion.split_normal_form(10, types, codes[:k], coeffs, 10)
        assert as_terms(*got) == summed_terms(10, types, codes[:k], coeffs)
        if k == 2:  # position weights, at the edge of the packed sort
            assert column == [] and packed == [63]
        else:  # column keys, renumbered below 2**(63 - b)
            assert column == [10] and packed[0] <= 63


def image_dict(t):
    """The image of the association type t (leaves 1..n in reading order)
    as {(normal D-type index, 0-based leaves): coeff}."""
    from prejordan.expansion import type_images
    n = degree(t)
    i = assoc_type_index(n, 1)[t]
    store = type_images(n, [i])
    rows = slice(store.start[i], store.start[i] + store.count[i])
    assert store.weight[i] == np.abs(store.coeffs[rows]).sum()
    return terms_dict(store.shapes[rows], store.perms[rows],
                      store.coeffs[rows])


def terms_dict(shapes, perms, coeffs):
    return {(s, tuple(p)): c for s, p, c in
            zip(shapes.tolist(), perms.tolist(), coeffs.tolist())}


def reference_image(t):
    """The definition: the rewrite of all 2^(n-1) words of t's expansion,
    keyed by (normal D-type index, 0-based leaves)."""
    index = normal_dtype_index(degree(t))
    return {(index[shape(w)], tuple(v - 1 for v in leaves(w))): c
            for w, c in pj_normal_form(t).items()}


@pytest.mark.parametrize(
    "n", [*range(1, 8), pytest.param(8, marks=pytest.mark.release)])
def test_type_images_match_reference(n):
    from prejordan.expansion import type_images
    type_images(n, range(len(assoc_types(n, 1))))
    for t in assoc_types(n, 1):
        assert image_dict(t) == reference_image(t), t


def test_lone_type_builds_its_chain_only(monkeypatch):
    # a lone degree-10 word composes its own chain of factors, never every
    # type of its degree
    import prejordan.expansion as expansion
    monkeypatch.setattr(expansion, "_TYPE_IMAGES", {})
    w = parse_word("(((x1*x2)*(x3*x4))*(((x5*x6)*x7)*(x8*(x9*x10))))")
    assert poly_normal_form({w: 1}) == reference_normal_form({w: 1})
    assert {n: int((img.weight > 0).sum()) for n, img in
            expansion._TYPE_IMAGES.items()} == \
        {10: 1, 6: 1, 4: 1, 3: 2, 2: 1, 1: 1}


def test_composed_image_int64_bound():
    # leaves: N(1 > 2) and N(2 < 1) have weight 1, so composing leaf images
    # scaled by k and m is bounded by k * m * (1 + 1)
    from prejordan.expansion import _compose, type_images

    def scaled(n, k):
        img = type_images(n, range(len(assoc_types(n, 1))))
        return img._replace(coeffs=img.coeffs * k,
                            weight=img.weight * abs(k))

    def composed(a, i, x, j, y):
        (batch,) = _compose(a + a, a, x, [i], y, [j])
        return terms_dict(*batch[1:])

    xy = parse_word("(x1*x2)")
    for k, m in ((2 ** 62 - 1, 1), (2 ** 31 - 1, -(2 ** 31))):
        assert composed(1, 0, scaled(1, k), 0, scaled(1, m)) == \
            {key: k * m * c for key, c in image_dict(xy).items()}
    with pytest.raises(OverflowError):
        composed(1, 0, scaled(1, 2 ** 31), 0, scaled(1, 2 ** 31))
    with pytest.raises(OverflowError):
        composed(1, 0, scaled(1, 2 ** 62), 0, scaled(1, -1))
    # a real pair far below the bound composes exactly after scaling
    index = assoc_type_index(3, 1)
    a, b = index[parse_word("((x1*x2)*x3)")], index[parse_word("(x1*(x2*x3))")]
    t = parse_word("(((x1*x2)*x3)*(x4*(x5*x6)))")
    assert composed(3, a, scaled(3, 2 ** 40), b, scaled(3, -3)) == \
        {key: -3 * 2 ** 40 * c for key, c in image_dict(t).items()}


def check_products(sizes):
    """N(u op v) of the level-wise recursion equals the rewriting of
    u op v, for every pair of normal shapes with the given (deg u, deg v);
    its terms are distinct and its weight is the sum of |coeff|."""
    from prejordan.expansion import _product_id, _products
    for a, b in sizes:
        prods = _products(a + b)
        words = normal_dtypes(a + b)
        for iu, u in enumerate(normal_dtypes(a)):
            for iv, v in enumerate(normal_dtypes(b)):
                moved = with_leaves(v, range(a + 1, a + b + 1))
                for op, sym in enumerate('<>'):
                    k = _product_id(a + b, op, a, iu) + iv
                    rows = slice(prods.start[k],
                                 prods.start[k] + prods.count[k])
                    got = {with_leaves(words[s], [x + 1 for x in p]): c
                           for s, p, c in zip(prods.shapes[rows].tolist(),
                                              prods.perms[rows].tolist(),
                                              prods.coeffs[rows].tolist())}
                    assert len(got) == prods.count[k]
                    assert prods.weight[k] == sum(abs(c) for c in got.values())
                    assert got == dnormalize({(sym, u, moved): 1}), (sym, u, v)


def test_products_match_rewriting():
    check_products([(a, b) for a in range(1, 7) for b in range(1, 8 - a)])


@pytest.mark.release
def test_products_match_rewriting_degree8():
    check_products([(a, 8 - a) for a in range(1, 8)])


def test_product_coefficients_are_units():
    # N(u < v) and N(u > v) share no shape, so a level copies the terms of
    # lower products without summing any: every product coefficient is +1
    # or -1 and within a product no (shape, leaves) repeats.  This is why
    # the products need no int64 bound; checked through degree 9
    from prejordan.expansion import _products
    for m in range(2, 10):
        prods = _products(m)
        assert set(np.unique(prods.coeffs).tolist()) <= {-1, 1}
        assert (prods.weight == prods.count).all()
        owner = np.repeat(np.arange(len(prods.count)), prods.count)
        terms = np.column_stack([owner, prods.shapes, prods.perms])
        assert len(np.unique(terms, axis=0)) == len(terms)


def count_rewriting(monkeypatch):
    """Calls into the dendriform rewriting from here on, recorded."""
    import prejordan.dendriform as dendriform
    import prejordan.expansion as expansion
    calls = []
    for module, name in ((expansion, "dnormalize"),
                         (dendriform, "dnormalize"),
                         (dendriform, "normalize_word")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real:
                            calls.append(args) or real(*args))
    return calls


def table_and_gate(n):
    """Build expansion_table(n) and gate the degree-n liftings, over fresh
    type images; the product levels stay."""
    import prejordan.expansion as expansion
    expansion._TYPE_IMAGES.clear()
    for f in (expansion.expansion_arrays, expansion.expansion_table):
        f.cache_clear()
    expansion_table(n)
    liftings = liftings_to_degree(n)
    for f in liftings:
        f.check_kernel_membership()
    return liftings


def test_type_images_normalized_once(monkeypatch):
    # type images are composed from products of two normal shapes, which
    # the level-wise recursion builds without rewriting a word, each level
    # once per process: a second pass over fresh type images builds none
    import prejordan.expansion as expansion
    calls = count_rewriting(monkeypatch)
    expansion._products.cache_clear()
    table_and_gate(5)
    first = expansion._products.cache_info()
    assert first.currsize == first.misses > 0
    table_and_gate(5)
    assert expansion._products.cache_info().misses == first.misses
    assert calls == []


def test_degree7_table_and_gate_rewrite_no_word(monkeypatch):
    import prejordan.expansion as expansion
    calls = count_rewriting(monkeypatch)
    expansion._products.cache_clear()
    assert len(table_and_gate(7)) == 672
    # levels 0 (the unit) and 2..7, each built once: 1,608 products
    info = expansion._products.cache_info()
    assert info.currsize == info.misses == 7
    assert sum(len(expansion._products(m).count) for m in range(2, 8)) == 1608
    assert calls == []


def test_degree7_gate_keys_by_position_weights(monkeypatch):
    # the gate forms no column keys and builds each degree's weights once,
    # however often it runs
    import prejordan.expansion as expansion
    built, row_keys = [], []
    weights, keys = expansion._position_weights, expansion._row_keys
    monkeypatch.setattr(expansion, "_WEIGHTS", {})
    monkeypatch.setattr(expansion, "_position_weights", lambda n, *args: (
        built.append(n) or weights(n, *args)))
    liftings = table_and_gate(7)
    monkeypatch.setattr(expansion, "_row_keys", lambda *args: (
        row_keys.append(args) or keys(*args)))
    for f in liftings + liftings:
        f.check_kernel_membership()
    assert len(liftings) == 672 and row_keys == []
    assert 7 in built and len(built) == len(set(built))


def test_position_weights_follow_the_store(monkeypatch):
    # a store grows by appending rows at new offsets: its weights are
    # extended by the new rows only, equal the weights of the whole store
    # built afresh, and keep no superseded store alive.  A store started
    # afresh, with its rows in another order, gets weights of its own
    import gc
    import weakref
    import prejordan.expansion as expansion
    from prejordan.expansion import (_position_weights, _relabel_sum,
                                     split_normal_form, type_images)
    built = []
    monkeypatch.setattr(expansion, "_WEIGHTS", {})
    monkeypatch.setattr(expansion, "_position_weights", lambda n, perms, dtype: (
        built.append(len(perms)) or _position_weights(n, perms, dtype)))
    rng = np.random.default_rng(6)
    t = len(assoc_types(6, 1))

    def check(types):
        codes = np.array([rng.permutation(6) for _ in types], np.int8)
        coeffs = rng.integers(-9, 10, len(types))
        got = split_normal_form(6, types, codes, coeffs, 6)
        assert_same_arrays(got, _relabel_sum(expansion._TYPE_IMAGES[6], types,
                                             codes, coeffs, 6)[1:])

    for first in ([0, 3], [t - 1, 5]):
        monkeypatch.setattr(expansion, "_TYPE_IMAGES", {})
        check(np.array(first))
        old = weakref.ref(expansion._TYPE_IMAGES[6].perms)
        rows = len(old())
        store = type_images(6, range(t))
        gc.collect()
        assert old() is None
        check(rng.integers(0, t, 9))
        assert built == [rows, len(store.perms) - rows]
        lineage, P = expansion._WEIGHTS[6]
        assert lineage is store.lineage
        assert (P == _position_weights(6, store.perms, np.float32)).all()
        built.clear()


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
                raw_rows = [row for batch in xblock_transpose_rows(
                    n, lam, chunk=50, table=expansion_arrays(n))
                    for row in batch]
                from prejordan.linalg import ExactMatrix
                assert ExactMatrix(raw_rows).rank() == X.rank()

    def test_degree4_block_ranks(self):
        table = expansion_table(4)
        for lam, want in DEGREE4_X_RANKS.items():
            assert xblock_matrix(4, lam, table=table).rank() == want

    def test_block_ranks_same_mod_p(self):
        from prejordan.linalg import echelon_state
        table = expansion_arrays(4)
        for lam in partitions(4):
            d = dimension(lam)
            st = echelon_state(len(assoc_types(4, 1)) * d, 101)
            for batch in xblock_transpose_rows(4, lam, 101, chunk=50,
                                               table=table):
                st.add_rows(batch)
            assert st.rank == DEGREE4_X_RANKS[lam]

    def test_chunk_size_irrelevant(self):
        table = expansion_arrays(4)
        lam = (2, 1, 1)
        whole = [row for batch in
                 xblock_transpose_rows(4, lam, 101, chunk=999, table=table)
                 for row in batch]
        pieces = [row for batch in
                  xblock_transpose_rows(4, lam, 101, chunk=1, table=table)
                  for row in batch]
        assert [list(map(int, r)) for r in whole] == \
            [list(map(int, r)) for r in pieces]

    @pytest.mark.parametrize("field", ['Q', 101])
    def test_batches_match_dense_reference(self, field, monkeypatch):
        # X^T in batches of one D-type, also with raw-block calls cut
        # inside a batch (3 or 1 entries per call), against the dense X:
        # the raw blocks are A(id) times the genuine ones
        import prejordan.expansion as expansion
        for n in range(1, 6):
            for lam in partitions(n):
                rho = RhoCache(lam, field)
                d = rho.dim
                X = np.array(xblock_matrix(n, lam, field).rows, dtype=object)
                t = len(assoc_types(n, 1))
                want = (rho.a_id.astype(object) @ X.reshape(t, d, -1)) \
                    .reshape(t * d, -1).T
                if field != 'Q':
                    want %= field
                for entries in (expansion.XBLOCK_CALL_ENTRIES, 3 * d * d, 1):
                    monkeypatch.setattr(expansion, "XBLOCK_CALL_ENTRIES",
                                        entries)
                    batches = list(xblock_transpose_rows(n, lam, field,
                                                         chunk=1))
                    assert len(batches) == len(normal_dtypes(n))
                    assert all(b.dtype == np.int64 and b.shape == (d, t * d)
                               for b in batches)
                    got = np.concatenate(batches).astype(object)
                    if field != 'Q':
                        got %= field
                    assert (got == want).all(), (lam, entries)

    def test_object_table_gives_same_rows(self, monkeypatch):
        # past the weight bound the table keeps exact Python ints, and the
        # batches come out as object arrays of the same numbers
        import prejordan.expansion as expansion
        narrow = expansion_arrays(5)
        monkeypatch.setattr(expansion, "TABLE_INT64_WEIGHT", 1)
        wide = expansion.expansion_arrays.__wrapped__(5)
        assert narrow.coeffs.dtype == np.int64
        assert wide.coeffs.dtype == object
        for lam in partitions(5):
            for field in ('Q', 101):
                for a, b in zip(
                        xblock_transpose_rows(5, lam, field, chunk=50,
                                              table=narrow),
                        xblock_transpose_rows(5, lam, field, chunk=50,
                                              table=wide),
                        strict=True):
                    assert b.dtype == object and a.shape == b.shape
                    assert (a.astype(object) == b).all()

    def test_block_sizes_against_type_counts(self):
        # one block column per normal D-type, one block row per type
        n = 4
        lam = (3, 1)
        d = dimension(lam)
        rows = [row for batch in xblock_transpose_rows(n, lam, chunk=50)
                for row in batch]
        assert len(rows) == len(normal_dtypes(n)) * d
        assert len(rows[0]) == len(assoc_types(n, 1)) * d


def float_and_integer_rows(n, lam, p):
    """For a partition at prime p: (state row dtype, [(integer rows, float
    rows)] for the X^T batches and the lifted batch of the fed liftings)."""
    rho = RhoCache(lam, p)
    t = len(assoc_types(n, 1))
    dtype = echelon_state(t * rho.dim, p).row_dtype
    pairs = list(zip(xblock_transpose_rows(n, lam, p, chunk=50, rho=rho),
                     xblock_transpose_rows(n, lam, p, chunk=50, rho=rho,
                                           dtype=dtype)))
    liftings = liftings_to_degree(n)
    fed = [f for f, keep in zip(liftings, pipeline._fed(liftings)) if keep]
    pairs.append((pipeline._block_rows(fed, rho, t),
                  pipeline._block_rows(fed, rho, t, dtype)))
    return dtype, pairs


@pytest.mark.parametrize("p", CROSS_PRIMES)
def test_float_rows_give_the_integer_results(p):
    # every degree-6 partition: the batches built in the state's compute
    # dtype hold the integers of the int64 batches, and eliminated in
    # place they give the same flags, RCF and pivots
    for lam in partitions(6):
        dtype, pairs = float_and_integer_rows(6, lam, p)
        assert dtype == (np.float32 if p <= 509 else np.float64)
        for k in range(2):  # X^T, then the lifted rows
            results = []
            for pick in (0, 1):
                st = echelon_state(pairs[0][0].shape[1], p)
                batches = pairs[:-1] if k == 0 else pairs[-1:]
                flags = []
                for pair in batches:
                    assert pair[pick].dtype == (dtype if pick else np.int64)
                    if pick:
                        assert (pair[0] == pair[1]).all()
                    flags += st.add_rows(pair[pick])
                R, piv = st.rcf()
                results.append((flags, R.tolist(), piv.tolist()))
            assert results[0] == results[1], (lam, k)


def test_float_rows_only_within_the_significand():
    # a float32 raw block is exact while every element has sum |c| <=
    # 2**24; one past it, the block comes back in the coefficients' dtype
    lam = (2, 1, 1)
    rho = RhoCache(lam, 101)
    perms = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2]])
    a = rho._stacked(perms).astype(np.int64)
    for top, want in ((2 ** 24, np.float32), (2 ** 24 + 1, np.int64)):
        coeffs = np.array([top - 2 ** 23, -2 ** 22, 2 ** 22 - (top == 2 ** 24)],
                          dtype=np.int64)
        coeffs[2] += top - np.abs(coeffs).sum()
        assert np.abs(coeffs).sum() == top
        one = np.zeros(3, dtype=np.intp)
        raw = rho.raw_of_elements(one, 1, perms, coeffs, np.float32)
        assert raw.dtype == want
        assert (raw == np.tensordot(coeffs, a, 1)).all()
        # a second element of small weight does not lift the first's
        raw = rho.raw_of_elements(np.array([0, 0, 1]), 2, perms,
                                  np.array([3, -1, 2]), np.float32)
        assert raw.dtype == np.float32
    # the X^T builder decides once, on the largest cell of its table
    table = expansion_arrays(5)
    cuts = np.flatnonzero(np.diff(table.dtypes * 14 + table.types,
                                  prepend=-1, append=-1))
    weight = int(np.add.reduceat(np.abs(table.coeffs), cuts[:-1]).max())
    for scale, want in ((2 ** 24 // weight, np.float32),
                        (2 ** 24 // weight + 1, np.int64)):
        scaled = table._replace(coeffs=table.coeffs * scale)
        for exact, batch in zip(
                xblock_transpose_rows(5, (3, 1, 1), 101, chunk=50,
                                      table=scaled),
                xblock_transpose_rows(5, (3, 1, 1), 101, table=scaled,
                                      dtype=np.float32, chunk=50)):
            assert batch.dtype == want and (batch == exact).all()


def test_classify_consistency_with_basis():
    # expansion rows are indexed by classify; spot check the agreement
    basis = multilinear_basis(4, 1)
    for i in (0, 37, 95):
        t_idx, perm = classify(basis[i], 1)
        assert basis[i] == relabel(
            basis[t_idx * 24], perm)
