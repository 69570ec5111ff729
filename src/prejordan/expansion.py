"""Expanding one-product monomials into the normal dendriform basis.

The product under study is x*y = (x>y) + (y<x).  Expanding every '*' node
of a degree-n monomial gives a sum of 2^(n-1) dendriform words, and the
normal form of that sum is the monomial's image in the degree-n normal
basis.  A monomial is an identity component iff the image of the whole
combination vanishes.  pj_expand and pj_normal_form compute images that
way; they are kept as the reference the tests compare against.

The program builds images by composition instead, and rewrites no word.
A normal shape of degree m is numbered by its index in
dendriform.normal_dtypes(m), whose order (dendriform.normal_parts) is
x < v, x > v, then (x > u1) > u2, so each constructor is index arithmetic
on its children's indices.  The normal form respects products, so the
image of an association type t = A*B is

    img(t) = img(A) > img(B) + img(B) < img(A),

and each term pair (u, v) of the two images contributes c_u c_v times
N(u op v), the normal form of one product of two normal shapes.  The
rewrite rules of dendriform turn such a product into products of smaller
ones:

    x op v                   normal
    (x < u1) < v           = x < N(u1 < v) + x < N(u1 > v)
    (x > u1) < v           = x > N(u1 < v)
    ((x > u1) > u2) < v    = (x > u1) > N(u2 < v)
    (x < u1) > v           = -(x > u1) > v + x > N(u1 > v)
    (x > u1) > v           normal
    ((x > u1) > u2) > v    = (x > u1) > N(u2 > v)
                             - sum over terms s of N(u1 < u2) of (x > s) > v

so the products of level m (deg u + deg v = m) are built together, level
by level: each is a signed copy of one or two products of lower levels,
their shapes sent through a constructor and their leaf orders shifted
past the leaves in front, or a single normal word.  N(u < v) and
N(u > v) never share a shape, by induction on u: their shapes differ in
kind, or, for u = (x > u1) > u2, come from N(u2 < v) and N(u2 > v) or
have a left child (x > s) of another degree.  So no two copied terms
meet, and every product coefficient is +1 or -1.

Expansion and the rewrite rules never look at leaf labels, so the image
of a monomial is the image of its type with the labels moved: if the
type-i image has a term (normal shape j, leaf order pi, c), the monomial
(i, sigma) has the term (j, sigma o pi, c).  The images of all requested
types of one degree are composed in batches by one relabel-and-sum step,
the same that gives the normal form of a combination; it reads the
product terms it needs by offsets.  int64 is used only under a bound on
every partial sum (w(A) w(B) 2 max w(N) on the weights, sums of |c|,
for a composition, which raises OverflowError past 2**63), so the
expansion gate stays exact integer arithmetic.  The gate keys each term
by shape and labels with one product of the type's rows of stored
position weights and its codes, exact in float under _key_dtype's bound
(split_normal_form).  In the group algebra
picture the table cell (i, j) is an element of Z[S_n] and a tuple of
one element of QS_n per type is an identity iff
sum_i g_i * cell(i, j) = 0 for every j.

The expansion table is those images split by normal D-type, held as
arrays sorted by D-type with one offset per D-type, so a batch of X^T
rows gathers the entries of its D-types from it, in any order.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .dendriform import (dnormalize, normal_dtypes, normal_parts,
                         normal_skeletons)
from .errors import ResourceLimit
from .linalg import _SIGNIFICAND, ExactMatrix
from .monomials import (Word, all_perms, assoc_type_index, assoc_types,
                        compose, degree, format_word, perm_index, shape,
                        split, with_leaves)
from .symrep import RhoCache, sum_dtype

# Dense monomial-level matrices get big fast; above this degree the
# per-partition route is the only sane one and building the full matrix
# requires an explicit override.
MAX_DENSE_DEGREE = 5

#: products (two per term pair) read by one batch of a composition, about
#: twice as many product terms at degrees 7 and 8; a batch holds whole
#: types, so one large type may pass it.  Bounds its working arrays to a
#: few MiB
COMPOSE_PAIRS = 2 ** 11


def pj_expand(word: Word):
    """Replace every '*' by its two-term dendriform expansion.

    Returns the raw (unnormalized) polynomial as a dict of words to
    integer coefficients; 2^(n-1) terms for a degree-n input.
    """
    if isinstance(word, int):
        return {word: 1}
    op, left, right = word
    if op != '*':
        raise ValueError(f"expected a one-product word, found {op!r}")
    out: dict = {}
    for lt, lc in pj_expand(left).items():
        for rt, rc in pj_expand(right).items():
            c = lc * rc
            for t in (('>', lt, rt), ('<', rt, lt)):
                out[t] = out.get(t, 0) + c
    return out


def pj_normal_form(word: Word):
    """Normal form of the expansion of a one-product word."""
    return dnormalize(pj_expand(word))


class Images(NamedTuple):
    """Normal forms on leaves 0..m-1 (images of types, or products of two
    normal shapes), one item each, in one array of terms.

    Item k is the terms start[k]:start[k]+count[k]; term r is the normal
    shape with index shapes[r] in normal_dtypes(m) carrying leaf labels
    perms[r] + 1 in reading order, times coeffs[r].
    """

    shapes: np.ndarray   # intp
    perms: np.ndarray    # int8, terms x m, 0-based leaf labels
    coeffs: np.ndarray   # int64
    start: np.ndarray    # intp per item
    count: np.ndarray    # intp per item
    weight: np.ndarray   # int64 per item, sum of |coeffs|; 0 if not built
    #: type image stores: a token shared by a store and the stores grown
    #: from it, which keep its rows at their offsets
    lineage: object = None


def _count(m: int) -> int:
    """Number of normal shapes of degree m."""
    return len(normal_parts(m))


@cache
def _pairs(m: int) -> list[int]:
    """Where the pairs (u, v) of normal shapes with deg u + deg v = m
    start, by deg u = 1..m-1, and their number at index m: pair (u, v)
    has index _pairs(m)[deg u] + u * _count(deg v) + v."""
    return [0, *accumulate([0] + [_count(d) * _count(m - d)
                                  for d in range(1, m)])]


def _product_id(m: int, op: int, d: int, u: int, v: int = 0) -> int:
    """Index among the products of level m of N(u < v), op = 0, or
    N(u > v), op = 1, for deg u = d."""
    return op * _pairs(m)[m] + _pairs(m)[d] + u * _count(m - d) + v


def _nested(m: int, d: int, u1: int, u2: int = 0) -> int:
    """Index of (x > u1) > u2 of degree m, deg u1 = d."""
    return 2 * _count(m - 1) + _pairs(m - 1)[d] + u1 * _count(m - 1 - d) + u2


def _ragged(count: np.ndarray, start=0):
    """For items of count[k] entries each: every entry's item, and its
    position within the item plus start[k]."""
    item = np.repeat(np.arange(len(count)), count)
    return item, np.arange(len(item)) + np.repeat(
        start - (np.cumsum(count) - count), count)


def _gather(src: Images, items: np.ndarray):
    """The term rows of the given items of src, and which item each is."""
    k, rows = _ragged(src.count[items], src.start[items])
    return rows, k


@cache
def _products(m: int) -> Images:
    """The products of level m, N(u op v) as item _product_id(m, op,
    deg u, u, v), built from the levels below by the cases of the module
    docstring.

    Each product is one or two parts (product, level, lower product, head,
    alpha, beta, sign): a signed copy of a lower product whose terms'
    shapes s become alpha * s + beta and whose leaf orders come after head
    leaves, or a single normal word with shape beta, a copy of level 0
    (one term on no leaves).  Every coefficient is +1 or -1.
    """
    if m == 0:
        one = np.ones(1, dtype=np.intp)
        return Images(0 * one, np.zeros((1, 0), np.int8), one, 0 * one, one,
                      one)
    parts = []
    for a in range(1, m):
        for u, (kind, d, u1, u2) in enumerate(normal_parts(a)):
            for v in range(_count(m - a)):
                lo, hi = (_product_id(m, op, a, u, v) for op in (0, 1))
                if kind == 'x':  # x < v and x > v
                    parts += [(lo, 0, 0, 0, 0, 2 * v, 1),
                              (hi, 0, 0, 0, 0, 2 * v + 1, 1)]
                elif kind == '>>':
                    sub, nest = m - 1 - d, _nested(m, d, u1)
                    parts += [
                        (lo, sub, _product_id(sub, 0, a - 1 - d, u2, v),
                         d + 1, 1, nest, 1),
                        (hi, sub, _product_id(sub, 1, a - 1 - d, u2, v),
                         d + 1, 1, nest, 1),
                        (hi, a - 1, _product_id(a - 1, 0, d, u1, u2), 1,
                         _count(m - a), _nested(m, a - 1, 0, v), -1)]
                else:  # x op u1 with '<'(s) = 2s and '>'(s) = 2s + 1
                    gt = _product_id(m - 1, 1, d, u1, v)
                    parts += [(lo, m - 1, _product_id(m - 1, 0, d, u1, v), 1,
                               2, kind == '>', 1),
                              (hi, 0, 0, 0, 0, _nested(m, d, u1, v),
                               1 if kind == '>' else -1)]
                    if kind == '<':
                        parts += [(lo, m - 1, gt, 1, 2, 0, 1),
                                  (hi, m - 1, gt, 1, 2, 1, 1)]
    own, level, item, head, alpha, beta, sign = np.array(parts, np.intp).T
    blocks = []
    for sub in sorted(set(level.tolist())):
        src, at = _products(sub), np.flatnonzero(level == sub)
        rows, j = _gather(src, item[at])
        j = at[j]
        perms = np.tile(np.arange(m, dtype=np.int8), (len(rows), 1))
        perms[np.arange(len(rows))[:, None], head[j, None] + np.arange(sub)] \
            = np.take(src.perms, rows, axis=0) + head[j, None].astype(np.int8)
        blocks.append((own[j], alpha[j] * src.shapes[rows] + beta[j], perms,
                       sign[j] * src.coeffs[rows]))
    own, shapes, perms, coeffs = (np.concatenate(x) for x in zip(*blocks))
    order = np.argsort(own, kind='stable')
    count = np.bincount(own, minlength=2 * _pairs(m)[m])
    return Images(shapes[order], perms[order], coeffs[order],
                  np.cumsum(count) - count, count, count)


def _compose(n: int, a: int, left: Images, li, right: Images, ri):
    """img(A*B) = img(A) > img(B) + img(B) < img(A) for each k, with
    img(A) item li[k] of left (degree a) and img(B) item ri[k] of right,
    as a list of _relabel_sum results with k in front, one per batch.

    Each term pair (u, v) contributes c_u c_v N(u > v) with labels
    concat(pi_u, pi_v + a)[pi_N] and c_u c_v N(v < u) with labels
    concat(pi_v + a, pi_u)[pi_N].  The products run in int64, so
    w(A) * w(B) * 2 * (largest product weight of level n), which bounds
    every product and partial sum, must stay below 2**63; past it this
    raises OverflowError instead of wrapping.  The pairs are summed in
    batches of whole types, a new one after COMPOSE_PAIRS products.
    """
    prods = _products(n)
    most = 2 * int(prods.weight.max())
    if any(x * y * most >= 2 ** 63 for x, y in zip(left.weight[li].tolist(),
                                                  right.weight[ri].tolist())):
        raise OverflowError("composed image coefficients may exceed int64")
    cr = right.count[ri]
    pairs = 2 * left.count[li] * cr
    batch = (np.cumsum(pairs) - pairs) // COMPOSE_PAIRS
    out = []
    for t in np.split(np.arange(len(li)), np.flatnonzero(np.diff(batch)) + 1):
        # each term pair twice: N(u > v) at even entries, N(v < u) at odd
        k, pos = _ragged(pairs[t])
        k, under, pos = t[k], pos % 2 == 1, pos // 2
        i = left.start[li][k] + pos // cr[k]
        j = right.start[ri][k] + pos % cr[k]
        u, v = left.shapes[i], right.shapes[j]
        pu = np.take(left.perms, i, axis=0)
        pv = np.take(right.perms, j, axis=0) + np.int8(a)
        which, *terms = _relabel_sum(
            prods, np.where(under, _product_id(n, 0, n - a, v, u),
                            _product_id(n, 1, a, u, v)),
            np.where(under[:, None], np.concatenate([pv, pu], axis=1),
                     np.concatenate([pu, pv], axis=1)),
            left.coeffs[i] * right.coeffs[j], n, k, len(li))
        out.append((k[which], *terms))
    return out


def _row_keys(head: np.ndarray, bound: int, columns: list, radix: int,
              bits: int):
    """One int64 per row of (head < bound, label codes < radix), given
    the label columns in reading order; keys are below 2**bits, equal
    exactly when the rows are, and ordered as the rows.  They are formed in
    place, one column at a time; only when they could reach 2**bits are
    they renumbered densely before a column that would pass it, and if
    even that leaves no room this raises OverflowError."""
    key = head.astype(np.int64)
    renumber = bound * radix ** len(columns) >= 2 ** bits
    for col in columns:
        if renumber and bound * radix >= 2 ** bits:
            _, key = np.unique(key, return_inverse=True)
            key = key.reshape(-1).astype(np.int64)
            bound = int(key.max()) + 1
            if bound * radix >= 2 ** bits:
                raise OverflowError("row keys do not fit below 2**bits")
        key *= radix
        key += col
        bound *= radix
    return key


def _sum_equal(key: np.ndarray, vals: np.ndarray, b: int):
    """Sum vals over rows with equal keys (int64, below 2**(63 - b), where
    2**b exceeds the number of rows).  Returns, in the order of the keys,
    the first row of each group whose sum is nonzero and that sum.

    One sort of key << b | row orders the rows by key and then by row, so
    each group is summed in row order, with no argsort."""
    packed = key << b
    packed |= np.arange(len(key))
    packed.sort()
    row = packed & ((1 << b) - 1)
    packed >>= b
    starts = np.flatnonzero(np.concatenate(([True], packed[1:] != packed[:-1])))
    sums = np.add.reduceat(vals[row], starts)
    nonzero = np.flatnonzero(sums != 0)
    return row[starts[nonzero]], sums[nonzero]


def _relabel_sum(src: Images, items: np.ndarray, codes: np.ndarray,
                 coeffs: np.ndarray, radix: int, owner=None, owners: int = 1):
    """The sum over k of coeffs[k] times item items[k] of src relabeled by
    codes[k] (< radix), kept apart by owner[k] (< owners) when given.

    Term (s, pi, c) of the item becomes (s, codes[k][pi], coeffs[k] * c);
    terms with equal (owner, shape, labels) are summed.  Returns the
    nonzero terms sorted by (owner, shape, labels) as (k of a term that
    made it, shapes, labels, coeffs) arrays.  Coefficients keep the dtype
    of coeffs (int64 or object), so int64 callers bound the sums.
    """
    rows, k = _gather(src, items)
    b = len(rows).bit_length()
    # codes[k][pi] is read from the flat codes at start + pi: one label
    # column at a time for the keys, whole rows only for the result
    start = k * codes.shape[1]
    flat = codes.ravel()
    shapes, perms = src.shapes[rows], np.take(src.perms, rows, axis=0)
    many = _count(codes.shape[1])
    key = _row_keys(shapes if owner is None else owner[k] * many + shapes,
                    owners * many, [flat[start + col] for col in perms.T],
                    radix, 63 - b)
    first, sums = _sum_equal(
        key, coeffs[k] * src.coeffs[rows].astype(coeffs.dtype, copy=False), b)
    return (k[first], shapes[first], flat[start[first, None] + perms[first]],
            sums)


#: type images built so far, by degree: item i is association type i of
#: assoc_types(n, 1), with weight 0 until it is built
_TYPE_IMAGES: dict[int, Images] = {}


@cache
def _factors(n: int) -> np.ndarray:
    """For each association type A*B of degree n: deg A, the type index
    of A and that of shape(B)."""
    return np.array([(degree(A), assoc_type_index(degree(A), 1)[A],
                      assoc_type_index(n - degree(A), 1)[shape(B)])
                     for _, A, B in assoc_types(n, 1)], dtype=np.intp).T


def type_images(n: int, types) -> Images:
    """The degree-n type images, item i for type i, with at least the
    types given built.

    Missing images are composed from their factors' images (built first,
    the same way, down to the leaf), one _compose per degree of the left
    factor, so a lone type builds only its own chain of factors.
    """
    store = _TYPE_IMAGES.get(n)
    if store is None:
        t, leaf = len(assoc_types(n, 1)), int(n == 1)  # the leaf's image
        store = Images(np.zeros(leaf, np.intp), np.zeros((leaf, n), np.int8),
                       np.ones(leaf, np.int64), np.zeros(t, np.intp),
                       np.full(t, leaf, np.intp), np.full(t, leaf, np.int64),
                       object())
    types = np.asarray(types, dtype=np.intp)
    missing = types[store.weight[types] == 0]
    if len(missing):
        # sorted without np.unique, whose plain form imports numpy.ma
        missing = np.flatnonzero(np.bincount(missing,
                                             minlength=len(store.weight)))
        degrees, lefts, rights = _factors(n)
        start, count, weight = (x.copy() for x in store[3:6])
        parts, size = [store[:3]], len(store.coeffs)
        for a in sorted(set(degrees[missing].tolist())):
            new = missing[degrees[missing] == a]
            li, ri = lefts[new], rights[new]
            batches = _compose(n, a, type_images(a, li), li,
                               type_images(n - a, ri), ri)
            own = np.concatenate([b[0] for b in batches])
            count[new] = np.bincount(own, minlength=len(new))
            start[new] = np.cumsum(count[new]) - count[new]
            weight[new] = np.add.reduceat(
                np.abs(np.concatenate([b[3] for b in batches])), start[new])
            start[new] += size
            parts += [b[1:] for b in batches]
            size += len(own)
        # each field is copied once and its parts freed before the next:
        # a freed copy of a store of degree 7 or more stays resident memory
        fields = [list(x) for x in zip(*parts)]
        del parts
        store = Images(*(np.concatenate(fields.pop(0)) for _ in range(3)),
                       start, count, weight, store.lineage)
    _TYPE_IMAGES[n] = store
    return store


def coeff_array(n: int, types, coeffs) -> np.ndarray:
    """Coefficients of terms whose association types (degree n) have the
    indices types, in int64 when every coefficient is an int and the sum
    of |coeff| * weight of its type's image is below 2**63, which bounds
    every partial sum of their normal form (and, every weight being at
    least 1, every entry of a raw block built from them); otherwise as an
    object array of the exact numbers."""
    coeffs = list(coeffs)
    if all(isinstance(c, int) for c in coeffs) and sum(
            abs(c) * w for c, w in zip(
                coeffs, type_images(n, types).weight[types].tolist())) < 2 ** 63:
        return np.array(coeffs, dtype=np.int64)
    return np.array(coeffs, dtype=object)


def _key_dtype(n: int):
    """The float dtype that forms the label parts of degree-n keys exactly,
    or None past float64.

    A label part P[r] @ c (_position_weights, codes c < n) is a sum of the
    nonnegative integers c[v] * P[r, v], and every partial sum, in any
    order, is an integer at most sum_j (n-1) n**(n-1-j) = n**n - 1.  A
    dtype with an m-bit significand holds every integer up to 2**m, so it
    is exact while n**n - 1 <= 2**m: float32 for n <= 8, float64 for
    n <= 13.
    """
    for dtype, m in _SIGNIFICAND.items():
        if n ** n - 1 <= 2 ** m:
            return dtype
    return None


def _position_weights(n: int, perms: np.ndarray, dtype) -> np.ndarray:
    """P[r, v] = n**(n-1-j) for the position j of label v in leaf order
    perms[r], so that P[r] @ c is sum_j c[perms[r, j]] n**(n-1-j), the
    labels of row r relabeled by codes c < n as one base-n number."""
    P = np.empty(perms.shape, dtype)
    weights, rows = n ** np.arange(n - 1, -1, -1), np.arange(2 ** 12)[:, None]
    # a block of rows at a time: numpy makes intp copies of the index
    # arrays, which for the whole degree-8 store would be 22 MiB
    for lo in range(0, len(P), len(rows)):
        block = perms[lo:lo + len(rows)]
        P[lo:lo + len(block)][rows[:len(block)], block] = weights
    return P


#: position weights P by degree for the first len(P) rows of the type
#: image stores of one lineage, with that lineage's token; type_images
#: only appends rows to a store, so P is extended by the new rows, and it
#: holds no reference to a store
_WEIGHTS: dict[int, tuple[object, np.ndarray]] = {}


def split_normal_form(n: int, types: np.ndarray, codes: np.ndarray,
                      coeffs: np.ndarray, radix: int):
    """Normal form of a combination of one-product words given by arrays:
    term k is coeffs[k] times the degree-n association type types[k] with
    leaf codes codes[k] (< radix) in reading order.  Returns its nonzero
    terms as (normal shape ids, label codes, coeffs) arrays, sorted by
    (shape, labels); int64 coefficients must come from coeff_array, whose
    bound covers every partial sum.

    Each term is its type's image (type_images) relabeled by its codes.
    The image is one slice of rows of the degree's store, so with codes
    below n the term's keys are shape * n**n + P[rows] @ codes[k] on the
    store's position weights P, exact in _key_dtype(n), and its values are
    coeffs[k] times the rows' coefficients; _sum_equal sums equal keys,
    and the shapes and labels of the result are read back from its keys.
    Past that bound (n**n - 1 > 2**53, codes up to radix > n, or keys and
    row numbers together over 63 bits) the terms are summed by
    _relabel_sum, which gives the same result.
    """
    if not len(types):  # the empty combination is its own normal form
        return types, codes, coeffs
    store = type_images(n, types)
    count = store.count[types]
    b = int(count.sum()).bit_length()
    dtype = _key_dtype(n)
    if radix > n or dtype is None or \
            (_count(n) * n ** n - 1).bit_length() + b > 63:
        return _relabel_sum(store, types, codes, coeffs, radix)[1:]
    lineage, P = _WEIGHTS.get(n, (None, None))
    if lineage is not store.lineage:
        P = _position_weights(n, store.perms, dtype)
    elif len(P) < len(store.perms):
        P = np.concatenate((P, _position_weights(n, store.perms[len(P):],
                                                 dtype)))
    _WEIGHTS[n] = store.lineage, P
    rows = [slice(s, s + c)
            for s, c in zip(store.start[types].tolist(), count.tolist())]
    key = np.concatenate([store.shapes[r] for r in rows]) * n ** n
    key += np.concatenate([P[r] @ c for r, c in
                           zip(rows, codes.astype(dtype))]).astype(np.int64)
    vals = np.concatenate([store.coeffs[r] for r in rows]).astype(
        coeffs.dtype, copy=False)
    first, sums = _sum_equal(key, np.repeat(coeffs, count) * vals, b)
    shapes, labels = np.divmod(key[first], n ** n)
    labels = labels[:, None] // n ** np.arange(n - 1, -1, -1) % n
    return shapes, labels.astype(codes.dtype), sums


def poly_normal_form(poly) -> dict:
    """Normal form of a combination of one-product words.

    The words are split into the arrays of split_normal_form, per degree:
    association type index, leaf sequence sigma (any labels, repeats
    allowed, coded by rank among the labels present) and coefficient.
    Coefficients are summed in int64 only under the bound of coeff_array;
    otherwise they stay Python numbers (ints, Fractions, ...) in object
    arrays.  Words are rebuilt only for the nonzero terms of the result.
    """
    by_degree: dict[int, list] = {}
    for word, coeff in poly.items():
        s, sigma = split(word)
        by_degree.setdefault(len(sigma), []).append((s, sigma, coeff))
    out: dict = {}
    for n, terms in by_degree.items():
        index = assoc_type_index(n, 1)
        types = []
        for s, _, _ in terms:
            if s not in index:
                raise ValueError(f"expected a one-product word, found "
                                 f"{format_word(s)}")
            types.append(index[s])
        labels, codes = np.unique([sigma for _, sigma, _ in terms],
                                  return_inverse=True)
        shapes, relabeled, sums = split_normal_form(
            n, np.array(types), codes.reshape(len(terms), n),
            coeff_array(n, types, [c for _, _, c in terms]), len(labels))
        labels = labels.tolist()
        for sid, row, c in zip(shapes.tolist(), relabeled.tolist(),
                               sums.tolist()):
            out[with_leaves(normal_skeletons(n)[sid],
                            [labels[v] for v in row])] = c
    return out


# --------------------------------------------------------------- the table


#: the table keeps int64 coefficients while every type image has weight
#: (sum of |coeff|) below this, which bounds every entry and partial sum of
#: a raw block built from one cell, since |A(perm)| <= 1 entrywise
TABLE_INT64_WEIGHT = 2 ** 63


class ExpansionTable(NamedTuple):
    """The degree-n expansion table as arrays, one entry per image term,
    sorted by (D-type, type, permutation): entry k is coeffs[k] times the
    permutation perms[k] in the cell (type types[k], normal D-type
    dtypes[k]), and D-type j holds the entries offsets[j]:offsets[j+1].
    Coefficients are int64 under TABLE_INT64_WEIGHT, exact Python ints in
    an object array past it."""

    types: np.ndarray    # intp
    dtypes: np.ndarray   # intp
    perms: np.ndarray    # int8, entries x n, 0-based
    coeffs: np.ndarray   # int64 or object
    offsets: np.ndarray  # intp, one per D-type and one past the end


def _table(n: int, types, dtypes, perms, coeffs, weight: int) -> ExpansionTable:
    """The ExpansionTable of the given entries, which must come in
    (type, D-type, permutation) order, whose largest type image weight is
    weight: one stable sort by D-type gives the table's order."""
    types, dtypes = np.asarray(types, np.intp), np.asarray(dtypes, np.intp)
    perms = np.asarray(perms, np.int8).reshape(len(types), n)
    coeffs = np.asarray(coeffs, dtype=np.int64 if weight < TABLE_INT64_WEIGHT
                        else object)
    order = np.argsort(dtypes, kind='stable')
    dtypes = dtypes[order]
    return ExpansionTable(types[order], dtypes, perms[order], coeffs[order],
                          np.searchsorted(dtypes, np.arange(
                              len(normal_dtypes(n)) + 1)))


@cache
def expansion_arrays(n: int) -> ExpansionTable:
    """The degree-n table read off the type images: the image of type i,
    split by normal D-type (a term's shape index), is row i."""
    types = np.arange(len(assoc_types(n, 1)))
    store = type_images(n, types)
    rows, types = _gather(store, types)
    return _table(n, types, store.shapes[rows], store.perms[rows],
                  store.coeffs[rows], int(store.weight.max()))


@cache
def expansion_table(n: int):
    """Tuple over association types of {dtype index: {perm: coeff}}, perms
    1-based: a view of expansion_arrays(n) for the dense references
    (expansion_matrix, xblock_matrix)."""
    table = expansion_arrays(n)
    rows: list[dict] = [{} for _ in assoc_types(n, 1)]
    for i, j, perm, c in zip(table.types.tolist(), table.dtypes.tolist(),
                             (table.perms + 1).tolist(), table.coeffs.tolist()):
        rows[i].setdefault(j, {})[tuple(perm)] = c
    return tuple(rows)


# ------------------------------------------------- monomial-level matrices


def expansion_matrix(n: int, field='Q', allow_large: bool = False
                     ) -> ExactMatrix:
    """The full monomial-level expansion matrix.

    Rows run over degree-n one-product monomials (types outer, labelings
    in lexicographic order), columns over the normal basis in the same
    layout.  Entry (row, col) is the coefficient of the column monomial in
    the expansion of the row monomial.
    """
    if n > MAX_DENSE_DEGREE and not allow_large:
        raise ResourceLimit(
            f"dense expansion matrix at degree {n} "
            f"(limit {MAX_DENSE_DEGREE}); pass allow_large to force it")
    table = expansion_table(n)
    perms = all_perms(n)
    pidx = perm_index(n)
    fact = len(perms)
    s = len(normal_dtypes(n))
    rows = []
    for row_cells in table:
        terms = [(j, perm, c) for j, cell in row_cells.items()
                 for perm, c in cell.items()]
        for sigma in perms:
            row = [0] * (s * fact)
            for j, perm, c in terms:
                row[j * fact + pidx[compose(sigma, perm)]] = c
            rows.append(row)
    return ExactMatrix(rows, field)


# ----------------------------------------------- per-partition block rows


#: most terms times d*d of one raw_of_elements call of xblock_transpose_rows:
#: the cells of a batch share calls up to it, which bounds each int64
#: working array of a call to 8 MiB
XBLOCK_CALL_ENTRIES = 2 ** 20


def xblock_transpose_rows(n: int, lam, field='Q', *, chunk: int,
                          table: ExpansionTable | None = None,
                          rho: RhoCache | None = None, dtype=None,
                          order=None):
    """Rows of the transposed representation block matrix, in batches.

    The block matrix X has one d x d block per (type i, D-type j) cell,
    the image of the table cell under the irreducible representation, so X
    is (t*d) x (s*d).  A tuple of group algebra elements (g_1..g_t) is an
    identity component iff the corresponding row vector lies in the left
    nullspace of X, so ranks and nullspaces of identities come from the
    transpose.  Rows of X^T arrive D-type by D-type in the order of the
    D-type indices order (every D-type in canonical order by default), in
    batches of chunk D-types (chunk*d rows; kernel_rank takes chunk from
    its echelon state's batch_rows), as one unreduced integer
    array per batch over either field.  With dtype None the batches have
    the dtype of the table's coefficients.  A float dtype (an echelon
    state's row_dtype) is used when it holds every entry exactly: every
    cell's sum of |coeff| is at most 2**m, m its significand
    (symrep.sum_dtype; the largest is 20 at degree 7 and 35 at degree 8);
    past that the batches are integers.

    The blocks skip the change of basis by A(id)^-1; that factor
    multiplies each block on the left, so the rank and nullity are
    unchanged while the assembly drops from cubic to quadratic in the
    block size.

    A batch gathers the entries of its D-types from the table, which is
    not copied.  Its cells are summed by RhoCache.raw_of_elements in calls
    of whole cells and at most XBLOCK_CALL_ENTRIES // (d*d) entries (a
    larger cell takes a call of its own), and each call's blocks are
    written straight into the batch.
    """
    if table is None:
        table = expansion_arrays(n)
    if rho is None:
        rho = RhoCache(lam, field)
    d = rho.dim
    t = len(assoc_types(n, 1))
    offsets = table.offsets
    order = np.arange(len(offsets) - 1) if order is None else np.asarray(
        order, dtype=np.intp)
    # decided once for the whole table, so that every call agrees
    dtype = sum_dtype(dtype, table.coeffs, np.flatnonzero(np.diff(
        table.dtypes * t + table.types, prepend=-1)))
    per_call = max(1, XBLOCK_CALL_ENTRIES // (d * d))
    for start in range(0, len(order), chunk):
        batch = order[start:start + chunk]
        # entry k of the batch is table entry at[k], of D-type batch[pos[k]]
        pos, at = _ragged(offsets[batch + 1] - offsets[batch], offsets[batch])
        cell = pos * t + table.types[at]
        # cell k, one (D-type, type) pair, holds the entries cuts[k]:cuts[k+1]
        cuts = np.flatnonzero(np.diff(cell, prepend=-1, append=-1))
        rows = np.zeros((len(batch), d, t, d), dtype=dtype)
        # row a of D-type j holds M_i[b, a] at column i*d + b, so block
        # (j, i) of this view is M_i, element j*t + i of the calls
        blocks = rows.transpose(0, 2, 3, 1)
        lo, end = 0, len(cuts) - 1
        while lo < end:
            # the most whole cells from lo within per_call entries, at least one
            hi = np.searchsorted(cuts, cuts[lo] + per_call, side='right') - 1
            hi = min(max(hi, lo + 1), end)
            e0, e1 = cuts[lo], cuts[hi]
            rho.raw_of_elements(cell[e0:e1], len(batch) * t,
                                table.perms[at[e0:e1]],
                                table.coeffs[at[e0:e1]], dtype, t, blocks)
            lo = hi
        # yielded with no reference left here, so that the consumer may
        # free the batch as soon as it has read it
        out = [rows.reshape(-1, t * d)]
        del rows, blocks
        yield out.pop()


def xblock_matrix(n: int, lam, field='Q', table=None) -> ExactMatrix:
    """The untransposed block matrix X as a dense ExactMatrix (small n)."""
    if table is None:
        table = expansion_table(n)
    rho = RhoCache(lam, field)
    d = rho.dim
    t = len(table)
    s = len(normal_dtypes(n))
    rows = [[0] * (s * d) for _ in range(t * d)]
    for i, trow in enumerate(table):
        for j, cell in trow.items():
            M = rho.of_element(cell)
            for a in range(d):
                rows[i * d + a][j * d:(j + 1) * d] = list(M[a])
    return ExactMatrix(rows, field)
