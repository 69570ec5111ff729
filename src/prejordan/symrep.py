"""Representation theory of the symmetric groups S_n, n small.

Partitions are tuples of weakly decreasing positive ints and are enumerated
in descending lexicographic order, so for n = 4: 4, 31, 22, 211, 1111.
Conjugacy classes are labeled by cycle types and listed in the reverse
order (identity first); the class representative for a cycle type is the
permutation whose cycles occupy consecutive blocks 1..m1, m1+1..m1+m2, ...

Irreducible representation matrices come from Clifton's construction of
Young's natural representation: for standard tableaux T_1..T_d of shape
lambda (ordered lexicographically by row-reading word) the matrix A(pi) has
entry (i, j) equal to 0 if two numbers share a row of pi T_j and a column
of T_i, and otherwise to the sign of the column permutation of T_i that
aligns it with pi T_j; then rho(pi) = A(id)^-1 A(pi).  The construction is
gated by tests for the homomorphism property and for traces matching the
character table, which is computed independently by the Murnaghan-Nakayama
rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import InvariantViolation, ResourceLimit
from .linalg import (_SIGNIFICAND, RationalEchelon, _mod_inplace,
                     express_in_rowspace, residues)

Partition = tuple


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order."""

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - k, k):
                yield (k,) + tail

    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(gen(n, n))


def format_partition(lam: Partition) -> str:
    if any(part > 9 for part in lam):
        return ",".join(str(part) for part in lam)
    return "".join(str(part) for part in lam)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    parts = tuple(int(t) for t in text.split(",")) if "," in text \
        else tuple(int(ch) for ch in text)
    if not parts or any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"not a partition: {text!r}")
    return parts


def dimension(lam: Partition) -> int:
    """Number of standard tableaux, by the hook length formula."""
    n = sum(lam)
    conj = conjugate(lam)
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    return math.factorial(n) // hooks


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > c) for c in range(lam[0]))


@cache
def standard_tableaux(lam: Partition) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard tableaux of the given shape, ordered lexicographically
    by row-reading word."""
    n = sum(lam)
    rows = [[] for _ in lam]
    out = []

    def place(v):
        if v > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i, r in enumerate(rows):
            if len(r) < lam[i] and (i == 0 or len(rows[i - 1]) > len(r)):
                r.append(v)
                place(v + 1)
                r.pop()

    place(1)
    out.sort(key=lambda t: tuple(v for row in t for v in row))
    return tuple(out)


# ------------------------------------------------------- conjugacy classes


def class_types(n: int) -> tuple[Partition, ...]:
    """Cycle types in the column order of the character table: identity
    class first."""
    return tuple(reversed(partitions(n)))


def class_size(mu: Partition) -> int:
    n = sum(mu)
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part ** m * math.factorial(m)
    return math.factorial(n) // z


def class_representative(mu: Partition) -> tuple[int, ...]:
    """Permutation with cycles on consecutive blocks, one-line notation."""
    out = []
    start = 1
    for part in mu:
        block = list(range(start, start + part))
        out.extend(block[1:] + block[:1])
        start += part
    return tuple(out)


# ------------------------------------------------- Murnaghan-Nakayama rule


@cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    m = len(lam)
    beta = [lam[i] + m - 1 - i for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        if b - k < 0 or (b - k) in bset:
            continue
        height = sum(1 for x in beta if b - k < x < b)
        nb = sorted((x for x in beta if x != b), reverse=True)
        nb.append(b - k)
        nb.sort(reverse=True)
        newlam = tuple(x - (m - 1 - i) for i, x in enumerate(nb))
        newlam = tuple(x for x in newlam if x > 0)
        total += (-1) ** height * _mn(newlam, rest)
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi_lambda evaluated on cycle type mu."""
    return _mn(lam, tuple(sorted(mu, reverse=True)))


def decompose(char_values, n: int) -> tuple[int, ...]:
    """Multiplicities of the irreducibles in a character, by orthogonality.

    char_values runs over class_types(n).  Raises InvariantViolation when a
    multiplicity comes out non-integral or negative, which means the input
    was not the character of a module.
    """
    types = class_types(n)
    if len(char_values) != len(types):
        raise ValueError("character length does not match the class count")
    order = math.factorial(n)
    out = []
    for lam in partitions(n):
        acc = sum(class_size(mu) * Fraction(v) * character(lam, mu)
                  for mu, v in zip(types, char_values))
        mult = acc / order
        if mult.denominator != 1 or mult < 0:
            raise InvariantViolation(
                f"multiplicity of {format_partition(lam)} is {mult}, "
                "input is not a character")
        out.append(int(mult))
    return tuple(out)


# ------------------------------------------------------ Clifton's matrices


#: most working-array entries of one step of clifton_a; a batch of
#: permutations is split into steps under it (2 MiB of int8 per array)
CLIFTON_BATCH_ENTRIES = 2 ** 21

#: largest n clifton_a takes: it holds row indices (< n) and column
#: heights (<= n) in int8
CLIFTON_MAX_N = 127


@cache
def _clifton_data(lam: Partition):
    """Tableau data of Clifton's rule, cells in column-major order: d, the
    value at each cell of each tableau (d, n), the row of each value in
    each tableau (n, d), the height of each cell's column (n,), the pairs
    of cells k < l in one column (2, pairs), and the working entries per
    permutation, d * d * max(n, pairs)."""
    tabs = standard_tableaux(lam)
    heights = conjugate(lam)
    cells = [(r, c) for c, h in enumerate(heights) for r in range(h)]
    entries = np.array([[tab[r][c] - 1 for r, c in cells] for tab in tabs],
                       dtype=np.intp)
    row_of = np.zeros((len(cells), len(tabs)), dtype=np.int8)
    for t, tab in enumerate(tabs):
        for r, row in enumerate(tab):
            row_of[np.array(row) - 1, t] = r
    height = np.array([heights[c] for _, c in cells], dtype=np.int8)
    pairs = np.array([(k, l) for l, (_, cl) in enumerate(cells)
                      for k, (_, ck) in enumerate(cells[:l]) if ck == cl],
                     dtype=np.intp).reshape(-1, 2).T
    work = len(tabs) ** 2 * max(len(cells), pairs.shape[1])
    return len(tabs), entries, row_of, height, pairs, work


def clifton_a(lam: Partition, perms) -> np.ndarray:
    """Clifton's d x d matrices A(perm) of a sequence of m permutations,
    shape (m, d, d), entries -1/0/1 in int8.

    Entry (a, b) of A(perm) compares T_a with perm T_b, which holds
    perm(v) where T_b holds v.  Place each value x at its column in T_a
    and its row in perm T_b.  The entry is 0 when some x falls below the
    bottom of its column (the row test) or two values land on one cell
    (the duplicate-cell test); otherwise the placement is a tableau with
    the columns of T_a, and the entry is the sign of the column
    permutation between the two.  Cells of different columns keep their
    column-major order, so only cells of one column can collide or be
    inverted, and the sign is the parity of the inversions of rows within
    columns.  All m permutations are evaluated by one broadcast over a
    leading axis, in steps of at most CLIFTON_BATCH_ENTRIES entries.
    """
    n = sum(lam)
    if n > CLIFTON_MAX_N:
        raise ValueError(f"clifton_a takes n <= {CLIFTON_MAX_N}, got {n}")
    d, entries, row_of, height, pairs, work = _clifton_data(lam)
    # inverses, 0-based: x sits in perm T_b where inv[m, x] sits in T_b
    inv = np.argsort(np.asarray(perms).reshape(-1, n), axis=1)
    out = np.empty((len(inv), d, d), dtype=np.int8)
    step = max(1, CLIFTON_BATCH_ENTRIES // work)
    for lo in range(0, len(inv), step):
        # rows[m, a, k, b]: the row in perm T_b of the value at cell k of T_a
        rows = row_of[inv[lo:lo + step, entries]]
        ok = (rows < height[:, None]).all(axis=2)
        upper, lower = rows[:, :, pairs[0]], rows[:, :, pairs[1]]
        ok &= (upper != lower).all(axis=2)
        odd = np.logical_xor.reduce(upper > lower, axis=2)
        out[lo:lo + step] = np.where(ok, np.where(odd, -1, 1), 0)
    return out


def _invert_fraction(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    d = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    state = RationalEchelon(2 * d)
    state.add_rows(aug)
    if state.rank != d or state.sorted_pivcols() != list(range(d)):
        raise InvariantViolation("matrix is singular")
    return [row[d:] for row in state.rcf_rows()]


def _invert_mod(M: np.ndarray, p: int) -> np.ndarray:
    d = M.shape[0]
    aug = np.concatenate([M.astype(np.int64) % p, np.eye(d, dtype=np.int64)],
                         axis=1)
    for c in range(d):
        piv = next((r for r in range(c, d) if aug[r, c] % p), None)
        if piv is None:
            raise InvariantViolation(f"matrix is singular mod {p}")
        if piv != c:
            aug[[c, piv]] = aug[[piv, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
        for r in range(d):
            if r != c and aug[r, c]:
                aug[r] = (aug[r] - aug[r, c] * aug[c]) % p
    return aug[:, d:]


def sum_dtype(dtype, coeffs: np.ndarray, starts: np.ndarray) -> np.dtype:
    """The dtype raw blocks are summed in when element i has the
    coefficients coeffs[starts[i]:starts[i+1]]: dtype, a float with an
    m-bit significand, when every element has sum |c| <= 2**m; otherwise,
    and for dtype None or not a float, the dtype of coeffs.

    |A(perm)| <= 1 entrywise, so every product c * A(perm) and every
    partial sum of a block, in any order, is an integer of magnitude at
    most the element's sum |c|; a float with an m-bit significand holds
    every integer up to 2**m, so the float sum is exactly the integer sum.
    """
    m = None if dtype is None else _SIGNIFICAND.get(np.dtype(dtype))
    if m is None or coeffs.dtype == object or (
            len(coeffs)
            and np.add.reduceat(np.abs(coeffs), starts).max() > 2 ** m):
        return coeffs.dtype
    return np.dtype(dtype)


#: largest n a RhoCache takes: its A-matrix store is indexed through a
#: dense table of n! int32 slots (14.5 MB at n = 10)
RHO_MAX_N = 10


def _lex_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank in S_n of each row of perms (m x n), a
    permutation in one-line notation (0- or 1-based): its Lehmer code,
    the count of smaller later entries at each position, read in the
    factorial base."""
    m, n = perms.shape
    ranks = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):  # Horner's rule in the factorial base
        ranks = ranks * (n - i) + (perms[:, i + 1:] < perms[:, i, None]).sum(1)
    return ranks


class RhoCache:
    """Representation matrices for one partition over one field.

    Raw blocks, sums of A-matrices without the change of basis, are
    integer matrices whatever the field and are built once for both, by
    raw_of_elements: in the dtype of the coefficients (int64 under the
    bound stated there, object arrays of exact Python numbers past it),
    or in a float dtype asked for where it holds them exactly.
    Only of_element applies A(id)^-1: over 'Q' as an integer matrix and
    one denominator, over a prime as a modular inverse.  The A-matrices
    met so far are kept in one int8 store, found through a table of n!
    slots indexed by the lexicographic rank of the permutation; a call
    builds the ones new to it by one batched clifton_a call and gathers
    its stack from the store.
    """

    def __init__(self, lam: Partition, field='Q'):
        n = sum(lam)
        if n > RHO_MAX_N:
            raise ResourceLimit(f"representation matrices are kept for "
                                f"n <= {RHO_MAX_N}, got {n}")
        self.lam = lam
        self.field = field
        self.dim = dimension(lam)
        # store slot of each permutation by lexicographic rank, -1 if unbuilt
        self._slot = np.full(math.factorial(n), -1, dtype=np.int32)
        self._slot[0] = 0
        self._size = 1
        self._store = clifton_a(lam, [tuple(range(n))])
        self.a_id = self._store[0]
        if field == 'Q':
            inv = _invert_fraction([[Fraction(int(e)) for e in row]
                                    for row in self.a_id])
            den = math.lcm(*(e.denominator for row in inv for e in row))
            # A(id)^-1 = num / den, num an integer matrix
            num = np.array([[int(e * den) for e in row] for row in inv],
                           dtype=object)
            self._a_id_inv = (num, den)
        else:
            self._a_id_inv = _invert_mod(self.a_id, int(field))

    def _stacked(self, perms: np.ndarray) -> np.ndarray:
        """A(perm) for each row of perms (m x n, one-line notation), shape
        (m, d, d), as one gather from the store; the permutations not met
        before are built first, by one clifton_a call."""
        ranks = _lex_ranks(perms)
        slots = self._slot[ranks]
        new = slots < 0
        if new.any():
            fresh, first = np.unique(ranks[new], return_index=True)
            size = self._size + len(fresh)
            if size > len(self._store):
                # double the store, but never past all n! matrices
                cap = min(max(size, 2 * len(self._store)), len(self._slot))
                grown = np.empty((cap, self.dim, self.dim), dtype=np.int8)
                grown[:self._size] = self._store[:self._size]
                self._store = grown
            self._store[self._size:size] = clifton_a(self.lam,
                                                     perms[new][first])
            self._slot[fresh] = np.arange(self._size, size)
            self._size = size
            slots = self._slot[ranks]
        return self._store[slots]

    def of_perm(self, perm: tuple[int, ...]):
        return self.of_element({perm: 1})

    def raw_of_elements(self, owner: np.ndarray, k: int, perms: np.ndarray,
                        coeffs: np.ndarray, dtype=None,
                        per_row: int | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Raw blocks of k group algebra elements, per_row of them side by
        side in each block row (default all k), shape
        (k // per_row * d, per_row * d): element i, at block row
        i // per_row and block column i % per_row, is the sum of
        coeffs[j] * A(perms[j]) over the terms j with owner[j] == i, perms
        holding one permutation of 0..n-1 per row (ValueError otherwise).

        With out, an array of shape (k // per_row, per_row, d, d) in the
        dtype chosen below, the block of element i is written to
        out[i // per_row, i % per_row] instead, and out is returned; the
        blocks of elements without terms are left as they are.  out may
        be any view, as the transposed one xblock_transpose_rows gives
        of its batch.

        The raw block is A(id) times the representation matrix of the
        element.  Since A(id) is invertible and multiplies every block of a
        stacked block matrix on the left, row spaces of block rows and
        ranks of the whole matrix are the same as with genuine
        representation blocks, so rank pipelines use these directly.

        The blocks are one sum over the stacked A-matrices of the terms,
        grouped by owner, formed straight in the dtype sum_dtype gives:
        the float dtype asked for while every element has sum |c| <= 2**m,
        else the dtype of coeffs.  int64 is exact when each element has
        sum |c| < 2**63, which bounds every partial sum since |A| <= 1, and
        the caller must keep to that bound; an object array of exact
        Python numbers is summed exactly whatever its size.
        """
        n, d = sum(self.lam), self.dim
        per_row = per_row or max(k, 1)
        if (np.sort(perms, axis=1) != np.arange(n)).any():
            raise ValueError(f"not a permutation of {n} leaves")
        order = np.argsort(owner, kind="stable")
        owner, coeffs = owner[order], coeffs[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                owner[1:] != owner[:-1])))
        dtype = sum_dtype(dtype, coeffs, starts)
        raw = None
        if out is None:
            raw = np.zeros((k // per_row, d, per_row, d), dtype=dtype)
            out = raw.transpose(0, 2, 1, 3)
        if len(coeffs):
            products = np.multiply(coeffs[:, None, None],
                                   self._stacked(perms[order]), dtype=dtype)
            i = owner[starts]
            out[i // per_row, i % per_row] = np.add.reduceat(products, starts)
        return out if raw is None else raw.reshape(-1, per_row * d)

    def lifted_coordinates(self, rows: np.ndarray) -> np.ndarray:
        """rows, integer arrays of k*d columns, with each block of d
        columns times A(id)**-T.  A raw block row l of an identity is
        A(id) times the identity's representation blocks, so l with each
        block times A(id)**-1 is annihilated by the rows of X^T, and
        x . (l A(id)**-1) = (x A(id)**-T) . l blockwise: the rows returned
        annihilate the raw blocks of identities.

        Over 'Q' the factor is num**T, the integer numerator of
        A(id)**-1 = num / den (den changes no kernel and no rank), applied
        in exact arithmetic; the result is an object array.  Over a prime
        rows must be a float array of integers (a batch of
        xblock_transpose_rows in an echelon state's row dtype), and its
        product, reduced into [0, p) in place, comes back.  Each entry
        sums d products of an entry of rows, at most top in magnitude,
        and a residue, so it is exact while d*top*(p-1) + p <= 2**m, m
        the significand: at degree 8 top is 35, the largest sum |c| of a
        table cell, and d = 90 at p = 509 gives 1.6e6 against 2**24.
        ValueError past the bound.
        """
        d = self.dim
        if self.field == 'Q':
            out = rows.astype(object).reshape(-1, d) @ self._a_id_inv[0].T
            return out.reshape(rows.shape)
        p = int(self.field)
        top = int(np.abs(rows).max())
        if d * top * (p - 1) + p > 2 ** _SIGNIFICAND.get(rows.dtype, 0):
            raise ValueError(f"entries up to {top} times A(id)**-T mod {p}"
                             f" are past the exact bound of {rows.dtype}")
        out = rows.reshape(-1, d) @ self._a_id_inv.T.astype(rows.dtype)
        _mod_inplace(out, p)
        return out.reshape(rows.shape)

    def raw_of_element(self, terms: dict) -> np.ndarray:
        """The raw d x d block of one element {perm: coeff}, perms
        permutations of 1..n (ValueError otherwise): raw_of_elements over
        its terms, int64 when every coefficient is an int and
        sum |c| < 2**63, an object array of exact numbers otherwise."""
        n = sum(self.lam)
        coeffs = list(terms.values())
        fits = all(isinstance(c, int) for c in coeffs) \
            and sum(map(abs, coeffs)) < 2 ** 63
        return self.raw_of_elements(
            np.zeros(len(coeffs), dtype=np.intp), 1,
            np.array(list(terms), dtype=np.intp).reshape(len(coeffs), n) - 1,
            np.array(coeffs, dtype=np.int64 if fits else object))

    def of_element(self, terms: dict):
        """rho applied to a group algebra element {perm: coeff}: A(id)^-1
        times its raw block, as Fraction rows over 'Q' and an int64 array
        of residues over a prime."""
        raw = self.raw_of_element(terms)
        if self.field == 'Q':
            num, den = self._a_id_inv
            return [[Fraction(e, den) for e in row]
                    for row in (num @ raw.astype(object)).tolist()]
        p = int(self.field)
        return self._a_id_inv @ residues(raw, p) % p


def clifton_matrix(lam: Partition, perm: tuple[int, ...], field='Q'):
    """Natural irreducible representation matrix rho_lambda(perm)."""
    return RhoCache(lam, field).of_perm(perm)


# ------------------------------------------------------- module characters


def module_character(vectors, n: int, act) -> tuple[Fraction, ...]:
    """Character of the S_n-module spanned by the given vectors.

    act(perm, vector) must return the action of the permutation on a
    vector of the ambient space.  The vectors must span an invariant
    subspace and be independent; InvariantViolation otherwise.
    """
    vectors = [list(v) for v in vectors]
    out = []
    for mu in class_types(n):
        if not vectors:
            out.append(Fraction(0))
            continue
        sigma = class_representative(mu)
        images = [act(sigma, v) for v in vectors]
        try:
            coords = express_in_rowspace(vectors, images)
        except ValueError as exc:
            raise InvariantViolation(
                f"subspace is not invariant under class {format_partition(mu)}"
            ) from exc
        out.append(sum(coords[k][k] for k in range(len(vectors))))
    return tuple(out)
