"""Expanding one-product monomials into the normal dendriform basis.

The product under study is x*y = (x>y) + (y<x).  Expanding every '*' node
of a degree-n monomial gives a sum of 2^(n-1) dendriform words, and the
normal form of that sum is the monomial's image in the degree-n normal
basis.  A monomial is an identity component iff the image of the whole
combination vanishes.

Only association types are ever expanded and normalized.  Expansion and
the rewrite rules never look at leaf labels, so the image of a monomial
is the image of its type with the labels moved: if the type-i expansion
has a term (normal shape j, leaf order pi, c), the monomial (i, sigma)
has the term (j, sigma o pi, c).  The image of each type is computed
once per process and kept as compact integer arrays; the normal form of
a combination relabels those arrays in numpy and sums coefficients
exactly, so the expansion gate stays exact integer arithmetic.  In the
group algebra picture the table cell (i, j) is an element of Z[S_n] and
a tuple of one element of QS_n per type is an identity iff
sum_i g_i * cell(i, j) = 0 for every j.

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
from .monomials import (Word, all_perms, assoc_types, compose, degree,
                        leaves, perm_index, shape, with_leaves)
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
    """Image of one association type with leaves 1..n, as arrays.

    Term k of the normal form is the normal shape with id shapes[k]
    carrying leaf labels perms[k] + 1 in reading order, times coeffs[k].
    """

    shapes: np.ndarray   # int32 ids into _normal_shapes
    perms: np.ndarray    # int8, terms x n, 0-based leaf labels
    coeffs: np.ndarray   # int64
    weight: int          # sum of |coeffs|


# normal shapes (leaves 1..n) met in any image, numbered on first sight;
# ids are shared by all degrees so the registry needs no degree limit
_normal_shapes: list[Word] = []
_normal_shape_id: dict[Word, int] = {}


@cache
def type_image(t: Word) -> TypeImage:
    """Normal form of the association type t, normalized once per process."""
    ids, perms, coeffs = [], [], []
    for word, c in pj_normal_form(t).items():
        s = shape(word)
        sid = _normal_shape_id.get(s)
        if sid is None:
            sid = _normal_shape_id[s] = len(_normal_shapes)
            _normal_shapes.append(s)
        ids.append(sid)
        perms.append([v - 1 for v in leaves(word)])
        coeffs.append(c)
    # the int64 conversion raises rather than wraps a coefficient too big
    return TypeImage(np.array(ids, dtype=np.int32),
                     np.array(perms, dtype=np.int8),
                     np.array(coeffs, dtype=np.int64),
                     sum(abs(c) for c in coeffs))


def _row_keys(shapes: np.ndarray, codes: np.ndarray, radix: int):
    """One int64 per row of (shape id, label codes < radix), equal exactly
    when the rows are; keys are renumbered densely before they could
    overflow."""
    key = shapes.astype(np.int64)
    bound = len(_normal_shapes)
    for col in codes.T:
        if bound * radix >= 2 ** 63:
            _, key = np.unique(key, return_inverse=True)
            key = key.reshape(-1).astype(np.int64)
            bound = int(key.max()) + 1
        key = key * radix + col
        bound *= radix
    return key


def poly_normal_form(poly) -> dict:
    """Normal form of a combination of one-product words.

    Each word is its association type relabeled by its leaf sequence
    sigma, so its terms are the cached type image with labels sigma o pi.
    Coefficients are summed in int64 only when every coefficient is an
    int and the sum of |coeff| * weight over all terms, which bounds
    every partial sum, fits; otherwise they stay Python numbers (ints,
    Fractions, ...) in object arrays.  Words are rebuilt only for the
    nonzero terms of the result.
    """
    by_degree: dict[int, list] = {}
    for word, coeff in poly.items():
        sigma = leaves(word)
        by_degree.setdefault(len(sigma), []).append(
            (type_image(shape(word)), sigma, coeff))
    out: dict = {}
    for n, terms in by_degree.items():
        images = [img for img, _, _ in terms]
        coeffs = [c for _, _, c in terms]
        labels, codes = np.unique([sigma for _, sigma, _ in terms],
                                  return_inverse=True)
        codes = codes.reshape(len(terms), n)
        owner = np.repeat(np.arange(len(terms)),
                          [len(img.coeffs) for img in images])
        shapes = np.concatenate([img.shapes for img in images])
        relabeled = codes[owner[:, None],
                           np.concatenate([img.perms for img in images])]
        image_coeffs = np.concatenate([img.coeffs for img in images])
        if all(isinstance(c, int) for c in coeffs) and sum(
                abs(c) * img.weight for img, _, c in terms) < 2 ** 63:
            vals = np.array(coeffs, dtype=np.int64)[owner] * image_coeffs
        else:
            vals = np.array(coeffs, dtype=object)[owner] * \
                image_coeffs.astype(object)
        key = _row_keys(shapes, relabeled, len(labels))
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        sums = np.add.reduceat(vals[order], starts)
        nonzero = np.flatnonzero(sums != 0)
        labels = labels.tolist()
        for k, c in zip(nonzero.tolist(), sums[nonzero].tolist()):
            row = order[starts[k]]
            out[with_leaves(_normal_shapes[shapes[row]],
                            [labels[v] for v in relabeled[row]])] = c
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


def xblock_transpose_rows(n: int, lam, field='Q', chunk: int = 50,
                          table=None, rho: RhoCache | None = None,
                          raw: bool = True):
    """Rows of the transposed representation block matrix, in batches.

    The block matrix X has one d x d block per (type i, D-type j) cell,
    the image of the table cell under the irreducible representation, so X
    is (t*d) x (s*d).  A tuple of group algebra elements (g_1..g_t) is an
    identity component iff the corresponding row vector lies in the left
    nullspace of X, so ranks and nullspaces of identities come from the
    transpose.  Rows of X^T arrive in batches of roughly chunk*d, grouped
    by D-type.

    With raw=True (the default) the blocks skip the change of basis by
    A(id)^-1; that factor multiplies each block on the left, so the rank
    and nullity are unchanged while the assembly drops from cubic to
    quadratic in the block size.  Pass raw=False for blocks that are
    genuine representation matrices.
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
    for start in range(0, s, chunk):
        batch = []
        for j in range(start, min(start + chunk, s)):
            if field != 'Q' and raw:
                idxs = [i for i, _ in cols[j]]
                wide = rho.raw_of_elements([cell for _, cell in cols[j]])
                blocks = [(i, wide[:, k * d:(k + 1) * d])
                          for k, i in enumerate(idxs)]
            elif raw:
                blocks = [(i, rho.raw_of_element(cell)) for i, cell in cols[j]]
            else:
                blocks = [(i, rho.of_element(cell)) for i, cell in cols[j]]
            for a in range(d):
                if field == 'Q':
                    row = [Fraction(0)] * (t * d)
                    for i, M in blocks:
                        base = i * d
                        for b in range(d):
                            row[base + b] = M[b][a] if raw is False \
                                else int(M[b, a])
                    batch.append(row)
                else:
                    row = np.zeros(t * d, dtype=np.int64)
                    for i, M in blocks:
                        row[i * d:(i + 1) * d] = M[:, a]
                    batch.append(row)
        yield batch


def xblock_matrix(n: int, lam, field='Q', table=None) -> ExactMatrix:
    """The untransposed block matrix X as a dense ExactMatrix (small n)."""
    if table is None:
        table = expansion_table(n)
    rho = RhoCache(lam, field)
    d = rho.dim
    t = len(table)
    s = len(normal_dtypes(n))
    zero = Fraction(0) if field == 'Q' else 0
    rows = [[zero] * (s * d) for _ in range(t * d)]
    for i, trow in enumerate(table):
        for j, cell in trow.items():
            M = rho.of_element(cell)
            for a in range(d):
                for b in range(d):
                    rows[i * d + a][j * d + b] = M[a][b] if field == 'Q' \
                        else int(M[a][b])
    return ExactMatrix(rows, field)
