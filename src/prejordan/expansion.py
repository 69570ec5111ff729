"""Expanding one-product monomials into the normal dendriform basis.

The product under study is x*y = (x>y) + (y<x).  Expanding every '*' node
of a degree-n monomial gives a sum of 2^(n-1) dendriform words, and the
normal form of that sum is the monomial's image in the degree-n normal
basis.  A monomial is an identity component iff the image of the whole
combination vanishes.  pj_expand and pj_normal_form compute images that
way; they are kept as the reference the tests compare against.

The program builds images by composition instead.  The normal form
respects products, so the image of an association type t = A*B is

    img(t) = img(A) > img(B) + img(B) < img(A),

and each term pair (u, v) of the two images contributes c_u c_v times
N(u op v), the normal form of one product of two normal shapes.  No word
is rewritten for it.  A normal shape is x, x < w, x > w or (x > u1) > w
with x a leaf and u1, w normal, and the rewrite rules of dendriform turn
a product of two normal words into products of smaller ones:

    x op v                   normal
    (x < u1) < v           = x < N(u1 < v) + x < N(u1 > v)
    (x > u1) < v           = x > N(u1 < v)
    ((x > u1) > u2) < v    = (x > u1) > N(u2 < v)
    (x < u1) > v           = -(x > u1) > v + x > N(u1 > v)
    (x > u1) > v           normal
    ((x > u1) > u2) > v    = (x > u1) > N(u2 > v)
                             - sum over terms s of N(u1 < u2) of (x > s) > v

so N is a recursion on shape ids, each term taking its sub-product's
leaf order shifted past the leaves in front of it.  Shapes are registered
by their constructor (kind, child ids); the products are memoized on
(op, u, v), so each is computed once per process, and every type image is
composed from the cached images of its two factors, down to the leaves.

Expansion and the rewrite rules never look at leaf labels, so the image
of a monomial is the image of its type with the labels moved: if the
type-i image has a term (normal shape j, leaf order pi, c), the monomial
(i, sigma) has the term (j, sigma o pi, c).  Images are kept as compact
integer arrays and composed with the same relabel-and-sum step that
gives the normal form of a combination; int64 is used only under a bound
on every partial sum (the weights w(A) w(B) w(N) for a composition,
which raises OverflowError past 2**63), so the expansion gate stays exact
integer arithmetic.  In the group algebra picture the table cell (i, j)
is an element of Z[S_n] and a tuple of one element of QS_n per type is
an identity iff sum_i g_i * cell(i, j) = 0 for every j.

The expansion table is those images split by normal D-type, held as
arrays sorted by D-type, so each batch of X^T rows is one slice of it.
Tables can be cached to disk as versioned JSON.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .dendriform import dnormalize, normal_dtype_index, normal_dtypes
from .errors import ResourceLimit
from .linalg import ExactMatrix
from .monomials import (Word, all_perms, assoc_type_index, assoc_types,
                        compose, degree, format_word, perm_index, shape,
                        split, with_leaves)
from .symrep import RhoCache

TABLE_FORMAT = "expansion-table"
TABLE_VERSION = 1

# Dense monomial-level matrices get big fast; above this degree the
# per-partition route is the only sane one and building the full matrix
# requires an explicit override.
MAX_DENSE_DEGREE = 5


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


class TypeImage(NamedTuple):
    """A normal form over normal words with leaves 1..n, as arrays: the
    image of an association type, or the product of two normal shapes.

    Term k is the normal shape with id shapes[k] carrying leaf labels
    perms[k] + 1 in reading order, times coeffs[k].
    """

    shapes: np.ndarray   # int32 ids into _normal_shapes
    perms: np.ndarray    # int8, terms x n, 0-based leaf labels
    coeffs: np.ndarray   # int64
    weight: int          # sum of |coeffs|


# Normal shapes (leaves 1..n) met in any image, numbered on first sight and
# shared by all degrees, so the registry needs no degree limit.  Shape k is
# built by _shape_parts[k] = (kind, child ids, degree): kind 'x' is the leaf,
# '<' and '>' are x < w and x > w for one child w, and '>>' is (x > u1) > w
# for children (u1, w).  Its word _normal_shapes[k] is built once, at
# registration, for printing results and finding D-types.
_normal_shapes: list[Word] = []
_shape_parts: list[tuple] = []
_shape_ids: dict[tuple, int] = {}


def _shape(kind: str, *kids: int) -> int:
    """Id of the normal shape built by kind from the shapes kids."""
    sid = _shape_ids.get((kind, *kids))
    if sid is None:
        sid = _shape_ids[(kind, *kids)] = len(_normal_shapes)
        words, n = [], 1
        for k in kids:
            d = _shape_parts[k][2]
            words.append(with_leaves(_normal_shapes[k], range(n + 1, n + d + 1)))
            n += d
        _normal_shapes.append(1 if kind == 'x' else
                              ('>', ('>', 1, words[0]), words[1])
                              if kind == '>>' else (kind, 1, words[0]))
        _shape_parts.append((kind, kids, n))
    return sid


def _image(terms) -> TypeImage:
    """The image of a list of (shape id, labels, coeff) terms on leaves
    1..n, equal terms summed exactly; the int64 conversion raises
    OverflowError rather than wrap a coefficient past 2**63."""
    sums: dict = {}
    for s, labels, c in terms:
        key = (s, tuple(labels))
        sums[key] = sums.get(key, 0) + c
    sums = {key: c for key, c in sums.items() if c}
    return TypeImage(np.array([s for s, _ in sums], dtype=np.int32),
                     np.array([labels for _, labels in sums], dtype=np.int8),
                     np.array(list(sums.values()), dtype=np.int64),
                     sum(abs(c) for c in sums.values()))


def _moved(img: TypeImage, make, head: int, tail=(), sign: int = 1):
    """The terms of img as (make(s), labels, sign c): the labels of s
    moved up by head, after 0..head-1 and before tail."""
    front, tail = list(range(head)), list(tail)
    return [(make(s), front + [k + head for k in labels] + tail, sign * c)
            for s, labels, c in zip(img.shapes.tolist(), img.perms.tolist(),
                                    img.coeffs.tolist())]


@cache
def _product(op: str, u: int, v: int) -> TypeImage:
    """N(u op v) for normal shapes u on leaves 1..a and v on a+1..n, by
    the recursion on shape ids of the module docstring: each term keeps
    the leaf order of its sub-product, shifted past the leaves in front
    of it."""
    kind, kids, a = _shape_parts[u]
    n = a + _shape_parts[v][2]
    if kind == 'x':
        return _image([(_shape(op, v), range(n), 1)])
    if kind == '>>':
        u1, u2 = kids
        terms = _moved(_product(op, u2, v), lambda s: _shape('>>', u1, s),
                       _shape_parts[u1][2] + 1)
        if op == '>':
            terms += _moved(_product('<', u1, u2),
                            lambda s: _shape('>>', s, v), 1, range(a, n), -1)
        return _image(terms)
    (u1,) = kids
    if op == '>':
        terms = [(_shape('>>', u1, v), range(n), 1 if kind == '>' else -1)]
        if kind == '<':
            terms += _moved(_product('>', u1, v), lambda s: _shape('>', s), 1)
        return _image(terms)
    terms = _moved(_product('<', u1, v), lambda s: _shape(kind, s), 1)
    if kind == '<':
        terms += _moved(_product('>', u1, v), lambda s: _shape('<', s), 1)
    return _image(terms)


@cache
def type_image(t: Word) -> TypeImage:
    """Normal form of the association type t with leaves 1..n, which
    must be in reading order (ValueError otherwise).

    The image of a leaf is the leaf; the image of t = A*B is composed from
    the cached images of shape(A) and shape(B) (see _compose) and the
    memoized products of two normal shapes (_product); no word is
    rewritten.
    """
    if t not in assoc_type_index(degree(t), 1):
        raise ValueError(f"expected an association type with leaves 1..n "
                         f"in reading order, found {t!r}")
    if t == 1:
        return _image([(_shape('x'), [0], 1)])
    _, left, right = t
    return _compose(type_image(left), type_image(shape(right)))


def _compose(left: TypeImage, right: TypeImage) -> TypeImage:
    """img(A*B) = img(A) > img(B) + img(B) < img(A) from img(A), img(B).

    With a = deg A, each term pair (u, v) contributes c_u c_v N(u > v)
    with labels concat(pi_u, pi_v + a)[pi_N] and c_u c_v N(v < u) with
    labels concat(pi_v + a, pi_u)[pi_N].  The products run in int64, so
    w(A) * w(B) * (largest w(N) of each operation, summed), which bounds
    every product and partial sum, must stay below 2**63; past it this
    raises OverflowError instead of wrapping.
    """
    a = left.perms.shape[1]
    ushapes, ugroup = np.unique(left.shapes, return_inverse=True)
    vshapes, vgroup = np.unique(right.shapes, return_inverse=True)
    pairs = [(u, v) for u in ushapes.tolist() for v in vshapes.tolist()]
    over = [_product('>', u, v) for u, v in pairs]
    under = [_product('<', v, u) for u, v in pairs]
    bound = left.weight * right.weight * (max(p.weight for p in over)
                                          + max(p.weight for p in under))
    if bound >= 2 ** 63:
        raise OverflowError("composed image coefficients may exceed int64")
    i = np.repeat(np.arange(len(left.coeffs)), len(right.coeffs))
    j = np.tile(np.arange(len(right.coeffs)), len(left.coeffs))
    group = (ugroup[i] * len(vshapes) + vgroup[j]).tolist()
    pu, pv = left.perms[i], right.perms[j] + a
    c = left.coeffs[i] * right.coeffs[j]
    shapes, perms, coeffs = _relabel_sum(
        [over[g] for g in group] + [under[g] for g in group],
        np.concatenate([np.concatenate([pu, pv], axis=1),
                        np.concatenate([pv, pu], axis=1)]),
        np.concatenate([c, c]), a + right.perms.shape[1])
    return TypeImage(shapes, perms, coeffs, int(np.abs(coeffs).sum()))


def _row_keys(shapes: np.ndarray, columns: list, radix: int):
    """One int64 per row of (shape id, label codes < radix), given the
    label columns in reading order; keys are equal exactly when the rows
    are.  They are formed in place, one column at a time; only when they
    could pass 2**63 are they renumbered densely before a column that
    would overflow them."""
    key = shapes.astype(np.int64)
    bound = len(_normal_shapes)
    renumber = bound * radix ** len(columns) >= 2 ** 63
    for col in columns:
        if renumber and bound * radix >= 2 ** 63:
            _, key = np.unique(key, return_inverse=True)
            key = key.reshape(-1).astype(np.int64)
            bound = int(key.max()) + 1
        key *= radix
        key += col
        bound *= radix
    return key


def _relabel_sum(images: list[TypeImage], codes: np.ndarray,
                 coeffs: np.ndarray, radix: int):
    """The sum over k of coeffs[k] times images[k] relabeled by codes[k],
    as (shapes, labels, coeffs) arrays of its nonzero terms.

    Term (s, pi, c) of images[k] becomes (s, codes[k][pi], coeffs[k] * c);
    terms with equal (shape, labels) are summed.  Coefficients keep the
    dtype of coeffs (int64 or object), so int64 callers bound the sums.
    """
    counts = [len(img.coeffs) for img in images]
    # codes[k][pi] is read from the flat codes at start + pi: one label
    # column at a time for the keys, whole rows only for the result
    start = np.repeat(np.arange(0, codes.size, codes.shape[1]), counts)
    flat = codes.ravel()
    shapes = np.concatenate([img.shapes for img in images])
    perms = np.concatenate([img.perms for img in images])
    vals = np.repeat(coeffs, counts) * np.concatenate(
        [img.coeffs for img in images]).astype(coeffs.dtype, copy=False)
    key = _row_keys(shapes, [flat[start + col] for col in perms.T], radix)
    # rows with equal keys are equal terms, so their order does not matter
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(vals[order], starts)
    nonzero = np.flatnonzero(sums != 0)
    rows = order[starts[nonzero]]
    return (shapes[rows], flat[start[rows, None] + perms[rows]],
            sums[nonzero])


@cache
def _type_image_at(n: int, i: int) -> TypeImage:
    """type_image of the association type with index i of degree n."""
    return type_image(assoc_types(n, 1)[i])


def coeff_array(n: int, types, coeffs) -> np.ndarray:
    """Coefficients of terms whose association types (degree n) have the
    indices types, in int64 when every coefficient is an int and the sum
    of |coeff| * weight of its type's image is below 2**63, which bounds
    every partial sum of their normal form (and, every weight being at
    least 1, every entry of a raw block built from them); otherwise as an
    object array of the exact numbers."""
    coeffs = list(coeffs)
    if all(isinstance(c, int) for c in coeffs) and sum(
            abs(c) * _type_image_at(n, i).weight
            for c, i in zip(coeffs, types)) < 2 ** 63:
        return np.array(coeffs, dtype=np.int64)
    return np.array(coeffs, dtype=object)


def split_normal_form(n: int, types: np.ndarray, codes: np.ndarray,
                      coeffs: np.ndarray, radix: int):
    """Normal form of a combination of one-product words given by arrays:
    term k is coeffs[k] times the degree-n association type types[k] with
    leaf codes codes[k] (< radix) in reading order.  Returns its nonzero
    terms as (normal shape ids, label codes, coeffs) arrays.

    Each term is its type's cached image relabeled by its codes, summed by
    _relabel_sum; int64 coefficients must come from coeff_array, whose
    bound covers every partial sum.
    """
    if not len(types):  # the empty combination is its own normal form
        return types, codes, coeffs
    return _relabel_sum([_type_image_at(n, i) for i in types.tolist()],
                        codes, coeffs, radix)


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
            out[with_leaves(_normal_shapes[sid], [labels[v] for v in row])] = c
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
    """The ExpansionTable of the given entries, in any order, whose
    largest type image weight is weight."""
    types, dtypes = np.asarray(types, np.intp), np.asarray(dtypes, np.intp)
    perms = np.asarray(perms, np.int8).reshape(len(types), n)
    coeffs = np.asarray(coeffs, dtype=np.int64 if weight < TABLE_INT64_WEIGHT
                        else object)
    order = np.lexsort((*perms.T[::-1], types, dtypes))
    dtypes = dtypes[order]
    return ExpansionTable(types[order], dtypes, perms[order], coeffs[order],
                          np.searchsorted(dtypes, np.arange(
                              len(normal_dtypes(n)) + 1)))


@cache
def expansion_arrays(n: int) -> ExpansionTable:
    """The degree-n table read off the cached type images: the image of
    type i, split by normal D-type, is row i.  Each distinct normal shape
    is looked up once for its D-type."""
    images = [type_image(t) for t in assoc_types(n, 1)]
    shapes, inverse = np.unique(np.concatenate([img.shapes for img in images]),
                                return_inverse=True)
    index = normal_dtype_index(n)
    dtype_of = np.array([index[_normal_shapes[sid]] for sid in shapes.tolist()],
                        dtype=np.intp)
    return _table(n, np.repeat(np.arange(len(images)),
                               [len(img.coeffs) for img in images]),
                  dtype_of[inverse.reshape(-1)],
                  np.concatenate([img.perms for img in images]),
                  np.concatenate([img.coeffs for img in images]),
                  max(img.weight for img in images))


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


def table_to_json(n: int, table: ExpansionTable) -> dict:
    """JSON of the table: one row per type of [dtype, perm, coeff] entries
    ordered by D-type and permutation, perms 1-based."""
    rows: list[list] = [[] for _ in assoc_types(n, 1)]
    order = np.argsort(table.types, kind="stable")
    for i, j, perm, c in zip(table.types[order].tolist(),
                             table.dtypes[order].tolist(),
                             (table.perms[order] + 1).tolist(),
                             table.coeffs[order].tolist()):
        rows[i].append([j, perm, c])
    return {"format": TABLE_FORMAT, "version": TABLE_VERSION,
            "degree": n, "rows": rows}


def table_from_json(data) -> tuple[int, ExpansionTable]:
    if data.get("format") != TABLE_FORMAT or data.get("version") != TABLE_VERSION:
        raise ValueError("not an expansion table file this version reads")
    n, rows = data["degree"], data["rows"]
    entries = [(i, j, perm, c) for i, row in enumerate(rows)
               for j, perm, c in row]
    return n, _table(n, [e[0] for e in entries], [e[1] for e in entries],
                     [[v - 1 for v in e[2]] for e in entries],
                     [e[3] for e in entries],
                     max((sum(abs(c) for _, _, c in row) for row in rows),
                         default=0))


def cached_expansion_table(n: int, cache_dir: str | None = None
                           ) -> ExpansionTable:
    """expansion_arrays with a JSON disk cache when cache_dir is given."""
    if cache_dir is None:
        return expansion_arrays(n)
    path = os.path.join(cache_dir, f"expansion-{n}.json")
    if os.path.exists(path):
        with open(path) as fh:
            deg, table = table_from_json(json.load(fh))
        if deg == n:
            return table
    table = expansion_arrays(n)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(table_to_json(n, table), fh)
    os.replace(tmp, path)
    return table


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


def identity_vector(poly, n: int) -> list:
    """Coordinates of a one-product combination in the monomial basis."""
    from .monomials import basis_index
    idx = basis_index(n, 1)
    t = len(assoc_types(n, 1))
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    vec = [Fraction(0)] * (t * fact)
    for word, coeff in poly.items():
        if degree(word) != n:
            raise ValueError("combination mixes degrees")
        vec[idx(word)] += Fraction(coeff)
    return vec


# ----------------------------------------------- per-partition block rows


#: most terms times d*d of one raw_of_elements call of xblock_transpose_rows:
#: the cells of a batch share calls up to it, which bounds each int64
#: working array of a call to 8 MiB
XBLOCK_CALL_ENTRIES = 2 ** 20


def xblock_transpose_rows(n: int, lam, field='Q', chunk: int = 50,
                          table: ExpansionTable | None = None,
                          rho: RhoCache | None = None):
    """Rows of the transposed representation block matrix, in batches.

    The block matrix X has one d x d block per (type i, D-type j) cell,
    the image of the table cell under the irreducible representation, so X
    is (t*d) x (s*d).  A tuple of group algebra elements (g_1..g_t) is an
    identity component iff the corresponding row vector lies in the left
    nullspace of X, so ranks and nullspaces of identities come from the
    transpose.  Rows of X^T arrive in batches of chunk D-types (chunk*d
    rows), as one unreduced integer array per batch over either field, in
    the dtype of the table's coefficients.

    The blocks skip the change of basis by A(id)^-1; that factor
    multiplies each block on the left, so the rank and nullity are
    unchanged while the assembly drops from cubic to quadratic in the
    block size.

    A batch is one slice of the table.  Its cells are summed by
    RhoCache.raw_of_elements in calls of whole cells and at most
    XBLOCK_CALL_ENTRIES // (d*d) entries (a larger cell takes a call of
    its own), and each call's blocks are written straight into the batch.
    """
    if table is None:
        table = expansion_arrays(n)
    if rho is None:
        rho = RhoCache(lam, field)
    d = rho.dim
    t = len(assoc_types(n, 1))
    s = len(table.offsets) - 1
    # cell k, one (D-type, type) pair, holds the entries cuts[k]:cuts[k+1]
    cuts = np.flatnonzero(np.diff(table.dtypes * t + table.types,
                                  prepend=-1, append=-1))
    owner = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    per_call = max(1, XBLOCK_CALL_ENTRIES // (d * d))
    for start in range(0, s, chunk):
        stop = min(start + chunk, s)
        rows = np.zeros((stop - start, d, t, d), dtype=table.coeffs.dtype)
        lo, end = np.searchsorted(cuts, table.offsets[[start, stop]])
        while lo < end:
            # the most whole cells from lo within per_call entries, at least one
            hi = np.searchsorted(cuts, cuts[lo] + per_call, side='right') - 1
            hi = min(max(hi, lo + 1), end)
            e0, e1 = cuts[lo], cuts[hi]
            raw = rho.raw_of_elements(owner[e0:e1] - lo, hi - lo,
                                      table.perms[e0:e1], table.coeffs[e0:e1])
            # row a of D-type j holds M_i[b, a] at column i*d + b
            first = cuts[lo:hi]
            rows[table.dtypes[first] - start, :, table.types[first]] = \
                raw.reshape(d, hi - lo, d).transpose(1, 2, 0)
            lo = hi
        yield rows.reshape(-1, t * d)


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
