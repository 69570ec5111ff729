"""Shared generators and references for the test suite."""

from fractions import Fraction

import numpy as np

from prejordan.monomials import inverse_perm
from prejordan.pipeline import Identity
from prejordan.symrep import conjugate, standard_tableaux


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
