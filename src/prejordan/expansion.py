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

Tables are expensive at degree 7 and 8, so they can be cached to disk as
versioned JSON.
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
from .symrep import RhoCache, dimension

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


@cache
def expansion_table(n: int):
    """Tuple over association types of {dtype index: {perm: coeff}}.

    Row i is the normal form of the type-i monomial with leaves 1..n in
    reading order, split by normal D-type; it is read off the type's
    cached image.
    """
    index = normal_dtype_index(n)
    rows = []
    for t in assoc_types(n, 1):
        img = type_image(t)
        cells: dict[int, dict] = {}
        for sid, perm, c in zip(img.shapes.tolist(), (img.perms + 1).tolist(),
                                img.coeffs.tolist()):
            cells.setdefault(index[_normal_shapes[sid]], {})[tuple(perm)] = c
        rows.append({j: c for j, c in sorted(cells.items())})
    return tuple(rows)


def table_to_json(n: int, table) -> dict:
    rows = [[[j, list(perm), c] for j, cell in row.items()
             for perm, c in sorted(cell.items())] for row in table]
    return {"format": TABLE_FORMAT, "version": TABLE_VERSION,
            "degree": n, "rows": rows}


def table_from_json(data):
    if data.get("format") != TABLE_FORMAT or data.get("version") != TABLE_VERSION:
        raise ValueError("not an expansion table file this version reads")
    table = []
    for row in data["rows"]:
        cells: dict[int, dict] = {}
        for j, perm, c in row:
            cells.setdefault(j, {})[tuple(perm)] = c
        table.append(cells)
    return data["degree"], tuple(table)


def cached_expansion_table(n: int, cache_dir: str | None = None):
    """expansion_table with a JSON disk cache when cache_dir is given."""
    if cache_dir is None:
        return expansion_table(n)
    path = os.path.join(cache_dir, f"expansion-{n}.json")
    if os.path.exists(path):
        with open(path) as fh:
            deg, table = table_from_json(json.load(fh))
        if deg == n:
            return table
    table = expansion_table(n)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(table_to_json(n, table), fh)
    os.replace(tmp, path)
    return table


# ------------------------------------------------- monomial-level matrices


def expansion_matrix(n: int, field='Q', allow_large: bool = False,
                     table=None) -> ExactMatrix:
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
    if table is None:
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
                          table=None, rho: RhoCache | None = None):
    """Rows of the transposed representation block matrix, in batches.

    The block matrix X has one d x d block per (type i, D-type j) cell,
    the image of the table cell under the irreducible representation, so X
    is (t*d) x (s*d).  A tuple of group algebra elements (g_1..g_t) is an
    identity component iff the corresponding row vector lies in the left
    nullspace of X, so ranks and nullspaces of identities come from the
    transpose.  Rows of X^T arrive in batches of roughly chunk*d, grouped
    by D-type, as one unreduced integer array per batch over either field
    (int64, or object past the bound of RhoCache.raw_of_elements).

    The blocks skip the change of basis by A(id)^-1; that factor
    multiplies each block on the left, so the rank and nullity are
    unchanged while the assembly drops from cubic to quadratic in the
    block size.
    """
    if table is None:
        table = expansion_table(n)
    if rho is None:
        rho = RhoCache(lam, field)
    d = rho.dim
    t = len(table)
    s = len(normal_dtypes(n))
    cols: list[list] = [[] for _ in range(s)]
    for i, row in enumerate(table):
        for j, cell in row.items():
            cols[j].append((i, cell))
    per_call = max(1, XBLOCK_CALL_ENTRIES // (d * d))
    for start in range(0, s, chunk):
        js = range(start, min(start + chunk, s))
        # (D-type in batch, type, cell), split into calls of <= per_call terms
        parts, size = [[]], 0
        for b, j in enumerate(js):
            for i, cell in cols[j]:
                if parts[-1] and size + len(cell) > per_call:
                    parts.append([])
                    size = 0
                parts[-1].append((b, i, cell))
                size += len(cell)
        rows = np.zeros((len(js), d, t, d), dtype=np.int64)
        for part in parts:
            wide = rho.raw_of_elements([cell for _, _, cell in part])
            if wide.dtype == object:
                rows = rows.astype(object)
            # row a of D-type j holds M_i[b, a] at column i*d + b
            rows[[b for b, _, _ in part], :, [i for _, i, _ in part]] = \
                wide.reshape(d, len(part), d).transpose(1, 2, 0)
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
