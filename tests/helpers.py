"""Shared generators and references for the test suite, and the small
conversions only the tests use."""

from fractions import Fraction
from functools import cache

import numpy as np

from prejordan.dendriform import DPoly, normal_dtypes, poly_add
from prejordan.expansion import xblock_transpose_rows
from prejordan.linalg import echelon_state, int_det, int_rows
from prejordan.monomials import (Word, assoc_types, basis_index, coeff_str,
                                 degree, format_word, leaves, parse_word,
                                 split)
from prejordan.pipeline import Identity
from prejordan.symrep import (Partition, RhoCache, character, class_types,
                              conjugate, partitions, standard_tableaux)


def random_word(rng, n, ops=1):
    """Uniformly random multilinear word on n leaves."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    opset = "*" if ops == 1 else "<>"

    def build(lo, hi):
        if hi - lo == 1:
            return labels[lo]
        cut = rng.randrange(lo + 1, hi)
        return (rng.choice(opset), build(lo, cut), build(cut, hi))

    return build(0, n)


def random_int_matrix(rng, nrows, ncols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(ncols)]
            for _ in range(nrows)]


def random_rational_matrix(rng, nrows, ncols, bound=9):
    return [[Fraction(rng.randint(-bound, bound),
                      rng.randint(1, bound)) for _ in range(ncols)]
            for _ in range(nrows)]


def clifton_a_reference(lam, perm):
    """Clifton's A(perm), one permutation at a time: the reference for the
    batched symrep.clifton_a.  Entry (a, b) places each value x at its
    column in T_a and its row in perm T_b, is 0 when a row falls below its
    column or two values share a cell, and otherwise is the sign of the
    column-major cell ranks read in T_a's cell order (all inversions)."""
    tabs = standard_tableaux(lam)
    d, n = len(tabs), sum(lam)
    colheight = np.array(conjugate(lam), dtype=np.int64)
    cumh = np.concatenate([[0], np.cumsum(colheight)])
    row_of = np.zeros((d, n), dtype=np.int64)
    col_of = np.zeros((d, n), dtype=np.int64)
    for t, tab in enumerate(tabs):
        for r, row in enumerate(tab):
            for c, v in enumerate(row):
                row_of[t, v - 1] = r
                col_of[t, v - 1] = c
    xorder = np.argsort(cumh[col_of] + row_of, axis=1)
    mcol = colheight[col_of]
    ip = np.array(inverse_perm(perm), dtype=np.int64) - 1
    rows = row_of[:, ip]                                  # (b, x)
    ok = (rows[None, :, :] < mcol[:, None, :]).all(axis=2)
    tcell = cumh[col_of][:, None, :] + rows[None, :, :]   # (a, b, x)
    q = np.take_along_axis(
        tcell, np.broadcast_to(xorder[:, None, :], tcell.shape), axis=2)
    ok &= ~(np.diff(np.sort(q, axis=2), axis=2) == 0).any(axis=2)
    inv = np.zeros((d, d), dtype=np.int64)
    for k in range(n - 1):
        inv += (q[:, :, k, None] > q[:, :, k + 1:]).sum(axis=2)
    return np.where(ok, 1 - 2 * (inv & 1), 0).astype(np.int8)


def _substitute(word, var, replacement):
    if isinstance(word, int):
        return replacement if word == var else word
    return (word[0], _substitute(word[1], var, replacement),
            _substitute(word[2], var, replacement))


def lift_reference(ident):
    """The n+2 liftings of a degree-n identity by rewriting its words: the
    reference for the array lifting of pipeline.lift.  Order: x_v <- x_v *
    x_{n+1} for v = 1..n, then the identity times x_{n+1}, then x_{n+1}
    times the identity."""
    n = ident.degree
    new = n + 1
    polys = [{_substitute(w, var, ('*', var, new)): c for c, w in ident.terms}
             for var in range(1, n + 1)]
    polys.append({('*', w, new): c for c, w in ident.terms})
    polys.append({('*', new, w): c for c, w in ident.terms})
    return [Identity.from_poly(poly, "lifted", check=False) for poly in polys]


# ------------------------------------------------ permutations and words
# permutations are tuples in one-line notation with 1-based values


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def inverse_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for k, v in enumerate(p):
        out[v - 1] = k + 1
    return tuple(out)


def is_multilinear(word: Word) -> bool:
    seq = leaves(word)
    return sorted(seq) == list(range(1, len(seq) + 1))


def cycle_type(perm: tuple[int, ...]) -> Partition:
    n = len(perm)
    seen = [False] * n
    lengths = []
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        k = s
        while not seen[k]:
            seen[k] = True
            k = perm[k] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows over partitions(n), columns over class_types(n)."""
    return tuple(tuple(character(lam, mu) for mu in class_types(n))
                 for lam in partitions(n))


# --------------------------------------------------- normal words, polys


@cache
def normal_dtype_index(n: int) -> dict[Word, int]:
    return {t: k for k, t in enumerate(normal_dtypes(n))}


def classify_normal(word: Word) -> tuple[int, tuple[int, ...]]:
    """(normal type index, permutation) of a normal multilinear word."""
    s, perm = split(word)
    idx = normal_dtype_index(len(perm)).get(s)
    if idx is None:
        raise ValueError(f"not a normal word: {word!r}")
    return idx, perm


def poly_to_json(poly: DPoly) -> list[dict]:
    """JSON form: list of {coeff, word}, sorted by the rendered word."""
    items = sorted(poly.items(), key=lambda kv: format_word(kv[0]))
    return [{"coeff": coeff_str(c), "word": format_word(w)} for w, c in items]


def poly_from_json(data) -> DPoly:
    out: DPoly = {}
    for item in data:
        poly_add(out, parse_word(item["word"]), Fraction(item["coeff"]))
    return out


def identity_vector(poly, n: int) -> list:
    """Coordinates of a one-product combination in the monomial basis."""
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


def group_algebra(ident: Identity, t: int) -> list[dict]:
    """One group algebra element {perm: coeff} per association type, t of
    them, read off the identity's split."""
    out: list[dict] = [dict() for _ in range(t)]
    for i, perm, c in zip(ident.types.tolist(),
                          map(tuple, (ident.leaves + 1).tolist()),
                          ident.coeffs.tolist()):
        out[i][perm] = out[i].get(perm, 0) + c
    return out


def gram_det(rows) -> int:
    """Determinant of the Gram matrix of integer rows; an invariant of the
    lattice basis up to unimodular changes."""
    M = int_rows(rows)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in M] for u in M]
    return int_det(gram)


def table_to_json(n: int, table) -> dict:
    """The table in the JSON file format of earlier versions: one row per
    association type of [dtype, perm, coeff] entries ordered by D-type and
    permutation, perms 1-based.  Its bytes pin the whole table."""
    rows: list[list] = [[] for _ in assoc_types(n, 1)]
    order = np.argsort(table.types, kind="stable")
    for i, j, perm, c in zip(table.types[order].tolist(),
                             table.dtypes[order].tolist(),
                             (table.perms[order] + 1).tolist(),
                             table.coeffs[order].tolist()):
        rows[i].append([j, perm, c])
    return {"format": "expansion-table", "version": 1, "degree": n,
            "rows": rows}


def dtype_rank_profile(n: int, lam, p: int = 101) -> list[int]:
    """The D-types whose X^T rows raise the rank over F_p when every
    D-type is fed in canonical order: the rank profile of X^T at D-type
    level, read off the per-row flags of add_rows (a row raises the rank
    exactly when it is independent of the rows before it, whatever the
    batching)."""
    rho = RhoCache(lam, p)
    d = rho.dim
    state = echelon_state(len(assoc_types(n, 1)) * d, p, reduced=False)
    flags: list[bool] = []
    for batch in xblock_transpose_rows(n, lam, p, rho=rho,
                                       chunk=state.batch_rows(d) // d,
                                       dtype=state.row_dtype):
        flags.extend(state.add_rows(batch))
    return np.flatnonzero(np.reshape(flags, (-1, d)).any(axis=1)).tolist()


def prefix_runs(n: int, lams, p: int = 101) -> tuple:
    """The union of the D-type rank profiles of the partitions lams of n,
    as sorted half-open runs (start, stop) of D-type indices: the form of
    pipeline.KERNEL_PREFIX."""
    union = sorted(set().union(*(dtype_rank_profile(n, lam, p)
                                 for lam in lams)))
    runs: list[list[int]] = []
    for j in union:
        if runs and runs[-1][1] == j:
            runs[-1][1] += 1
        else:
            runs.append([j, j + 1])
    return tuple(map(tuple, runs))
