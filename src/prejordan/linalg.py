"""Exact dense linear algebra over Q and over prime fields.

Everything here is exact.  Rational computations use fractions.Fraction;
modular computations keep integer residues, and the numpy fast paths only
ever hold integer values in floats: float32 where the prime is small
enough (p <= 509 with the default 64-row mini block), float64 otherwise.
Every intermediate sum stays at most 2**m - p in magnitude, m = 24 or 53
the significand of the compute type (_inner_bound, guarded by
ModularEchelon), and is therefore computed and reduced exactly.

Conventions fixed across the package:

* RCF is the reduced row echelon form: unit pivots, zeros above and below
  each pivot, pivot columns strictly increasing, zero rows dropped.  The
  RCF of a matrix is unique, so batch and chunked runs agree entry for
  entry.
* Pivot selection is first-nonzero in arrival order; over a field any
  nonzero pivot serves.
* The canonical nullspace basis solves for the free columns of the RCF and
  then takes the RCF of the resulting stack, making the construction
  idempotent.
* Hermite normal form is row-style: H = U A with U unimodular, positive
  pivots, entries above a pivot reduced into [0, pivot), zero rows last.
  The rows of U matching zero rows of H span the left integer nullspace of
  A; that block of U is itself put in Hermite form so the output is
  canonical.
* LLL reduction defaults to delta = 3/4 with exact rational Gram-Schmidt
  data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Field = Union[str, int]  # 'Q' or a prime


def check_field(field: Field) -> Field:
    """'Q', or the modulus as an int; ValueError unless it is a prime below
    2**32 (checked by trial division)."""
    if field == 'Q':
        return field
    p = int(field)
    if not 2 <= p < 2 ** 32 or any(p % k == 0
                                   for k in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"not a usable prime: {field!r}")
    return p


class RationalEchelon:
    """Running RCF over Q; rows arrive in any order, singly or in chunks.

    With reduced=False the state keeps primitive integer rows without unit
    pivots (content cleared after every elimination), which is much faster
    when the rank or the nullspace is wanted; rcf_rows requires
    reduced=True.
    """

    #: dtype the row builders make their batches in: None, exact integers
    row_dtype = None

    def __init__(self, ncols: int, reduced: bool = True):
        self.ncols = ncols
        self.reduced = reduced
        self.rows: list[list] = []
        self.pivcols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def batch_rows(self, d: int) -> int:
        """Rows of one add_rows call fed in whole groups of d rows: the
        largest multiple of d at most ncols // 4, and at least d.  Exact
        Python numbers have no byte ratio to a store; the width cap is
        ModularEchelon's at F_101 (see there)."""
        return max(d, self.ncols // 4 // d * d)

    def add_rows(self, rows: Iterable[Sequence]) -> list[bool]:
        """Reduce rows into the state in order; returns the rank increase
        as one flag per row, True where that row raised the rank.  An
        ndarray is read through tolist, so its entries arrive as exact
        Python numbers."""
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        return [self.add_row(r) for r in rows]

    def add_row(self, row: Sequence) -> bool:
        """Reduce one row into the state; True if the rank grew."""
        if len(row) != self.ncols:
            raise ValueError("row length does not match")
        return (self._add_reduced if self.reduced else self._add_primitive)(row)

    def _add_reduced(self, row) -> bool:
        row = [Fraction(e) for e in row]
        for pc, prow in zip(self.pivcols, self.rows):
            c = row[pc]
            if c:
                row = [a - c * b for a, b in zip(row, prow)]
        piv = next((j for j, e in enumerate(row) if e), None)
        if piv is None:
            return False
        inv = 1 / row[piv]
        row = [e * inv for e in row]
        for i, prow in enumerate(self.rows):
            c = prow[piv]
            if c:
                self.rows[i] = [a - c * b for a, b in zip(prow, row)]
        self.rows.append(row)
        self.pivcols.append(piv)
        return True

    def _add_primitive(self, row) -> bool:
        den = math.lcm(*(Fraction(e).denominator for e in row)) if row else 1
        row = [int(Fraction(e) * den) for e in row]
        for pc, prow in zip(self.pivcols, self.rows):
            c = row[pc]
            if c:
                d = prow[pc]
                row = [a * d - c * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
        piv = next((j for j, e in enumerate(row) if e), None)
        if piv is None:
            return False
        if row[piv] < 0:
            row = [-a for a in row]
        self.rows.append(row)
        self.pivcols.append(piv)
        return True

    def free_columns(self) -> np.ndarray:
        """The columns without a pivot, sorted."""
        free = np.ones(self.ncols, dtype=bool)
        free[self.pivcols] = False
        return np.flatnonzero(free)

    def random_combinations(self, count: int, rng) -> np.ndarray:
        """count random combinations of the stored rows, which span the
        rows fed, as an object array of exact numbers, shape
        (count, ncols); the coefficients are integers drawn uniformly
        from [0, 2**32) by rng (a random.Random)."""
        Z = np.array([[rng.getrandbits(32) for _ in self.rows]
                      for _ in range(count)], dtype=object)
        return Z.reshape(count, -1) @ np.array(
            self.rows, dtype=object).reshape(-1, self.ncols)

    def rcf_rows(self) -> list[list[Fraction]]:
        if not self.reduced:
            raise ValueError("state built with reduced=False has no RCF")
        order = sorted(range(len(self.rows)), key=lambda i: self.pivcols[i])
        return [self.rows[i][:] for i in order]

    def sorted_pivcols(self) -> list[int]:
        return sorted(self.pivcols)

    def rcf(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, pivcols) sorted by pivot column; rows hold Fractions."""
        return (np.array(self.rcf_rows(), dtype=object).reshape(-1, self.ncols),
                np.array(self.sorted_pivcols(), dtype=np.intp))

    def nullspace_basis(self) -> list[list[Fraction]]:
        """The canonical nullspace basis, in either mode: for each free
        column f the kernel vector with a 1 at f and 0 at the other free
        columns, its pivot entries solved from the last stored row to the
        first (a stored row is zero at the pivot of every row stored
        before it, in both modes, so it meets only free entries and
        pivots already solved), then the RCF of their stack."""
        vecs = []
        for f in self.free_columns().tolist():
            z = [Fraction(0)] * self.ncols
            z[f] = Fraction(1)
            for row, pc in zip(reversed(self.rows), reversed(self.pivcols)):
                z[pc] = -sum(a * b for a, b in zip(row, z) if a) / row[pc]
            vecs.append(z)
        canon = RationalEchelon(self.ncols)
        canon.add_rows(vecs)
        return canon.rcf_rows()


_MOD_CHUNK = 2 ** 13  # entries per pass of _mod_inplace: a 32-64 KiB scratch
#: least rows of the float chunk of the store that ModularEchelon converts
#: at a time; a chunk has at least the batch's rows too, and at most a
#: segment's
_STORE_CHUNK = 128

#: significand bits m of each compute dtype; it holds every integer of
#: magnitude at most 2**m exactly
_SIGNIFICAND = {np.dtype(np.float32): 24, np.dtype(np.float64): 53}
#: default mini block of ModularEchelon; float32 is used where its inner
#: bound covers one (p <= 509).  Near that edge the bound also clamps the
#: segments and outer blocks (to 65 rows at p = 509), and float32 was
#: timed no slower than float64 there (README, "Runtime and memory")
_MINI_ROWS = 64


def _inner_bound(p: int, dtype) -> int:
    """Longest inner dimension k of a product mod p that dtype computes
    exactly: the largest k with k*(p-1)**2 + p <= 2**m.

    Both factors of every product hold residues in [0, p), so every partial
    sum of k terms, in any order and any blocking, is an integer in
    [0, k*(p-1)**2] and is held exactly.  Subtracting the sum from a
    residue leaves an integer x with -(2**m - p) <= x < p, which
    _mod_inplace reduces exactly.  This is the bound of finite-field BLAS
    (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008); for p = 101 it gives
    k = 1,677 in float32.
    """
    return (2 ** _SIGNIFICAND[np.dtype(dtype)] - p) // (p - 1) ** 2


def _mod_inplace(A: np.ndarray, p: int, check: bool = False) -> None:
    """Reduce the integer values of A into [0, p), in place.

    A must be a C-contiguous float32 or float64 array whose every entry is
    an integer x with |x| <= 2**m - p, where m = 24 or 53 is the
    significand of its dtype.  Then q = floor(x / p), with one correctly
    rounded division, is exact.  If p divides x, x / p is an integer below
    2**m and is computed exactly.  If not, x / p lies at least 1/p below
    the next integer k, and |k| < 2**m / p (from |x| + p <= 2**m); the
    division can round x / p up to k only if that gap is at most half an
    ulp of k, at most |k| * 2**-m < 1/p.  So q*p is an exact integer and
    x - q*p is the residue in [0, p), with no correction pass.  The
    quotients go through a scratch buffer of at most _MOD_CHUNK entries,
    so reducing a large array adds no copy of it; an array that fits in
    one, as most rows the elimination reduces do, takes one pass.

    With check, each chunk is first tested for integers (floor(x) == x in
    the scratch) and ValueError is raised at the first chunk that holds
    another value, leaving the chunks before it reduced.
    """
    if A.dtype not in _SIGNIFICAND or not A.flags.c_contiguous:
        raise TypeError("_mod_inplace needs a C-contiguous float32 or "
                        "float64 array")
    if A.size <= _MOD_CHUNK and not check:
        _sub_multiple(A, np.divide(A, p), p)
        return
    flat = A.reshape(-1)
    q = np.empty(min(flat.size, _MOD_CHUNK), dtype=A.dtype)
    for s in range(0, flat.size, _MOD_CHUNK):
        x = flat[s:s + _MOD_CHUNK]
        qx = q[:x.size]
        if check and not np.array_equal(np.floor(x, out=qx), x):
            raise ValueError("integer matrix expected")
        _sub_multiple(x, np.divide(x, p, out=qx), p)


def _sub_multiple(x: np.ndarray, q: np.ndarray, p: int) -> None:
    """x -= floor(q) * p in place, with q = x / p as scratch."""
    np.floor(q, out=q)
    q *= p
    x -= q


class ModularEchelon:
    """Running RCF over F_p backed by numpy.

    Reduced rows are stored as small integers; new rows are eliminated
    against them with float matrix products.  The compute dtype follows
    from p: float32 when _inner_bound(p, float32) is at least the default
    mini block of _MINI_ROWS rows (p <= 509), float64 otherwise.  Every
    product is cut to an inner dimension of at most
    k = _inner_bound(p, dtype): seg_rows, block_rows (which bounds the new
    pivots of one block) and mini_rows are clamped to k.  So every value
    the elimination forms is an integer of magnitude at most 2**m - p,
    m = 24 or 53, computed exactly and reduced back to [0, p) by
    _mod_inplace's exact floor division.  __init__ also requires
    ncols*(p-1)**2 + p <= 2**53.  Rows are processed in outer blocks and
    inner mini blocks (one back-substitution product per mini block), so
    the arithmetic cost is dominated by BLAS calls.

    An outer block B of R rows sweeps the stored rows once.  _forward
    converts them to the compute dtype a chunk of
    H = min(seg_rows, max(_STORE_CHUNK, R)) rows at a time and subtracts
    each chunk's product, B[:, chunk pivots] times the chunk, from B; B
    is reduced once per segment.  Between two reductions B takes the
    products of one segment's chunks, whose inner dimensions add up to
    the segment's rows, at most seg_rows <= k; B enters the segment in
    [0, p), so it stays within [-k*(p-1)**2, p) and _mod_inplace reduces
    it exactly.  A stored row is zero at the pivots of the others, so a
    chunk's product leaves the coefficients of the chunks after it as
    they were.  _back_eliminate clears the block's new pivot columns
    from the stored rows a chunk at a time.  Beside the batch, add_rows thus holds
    one product the size of the batch (of a chunk in _back_eliminate),
    one float chunk of the store and the chunk's coefficients, next to
    the int8 store.  A chunk has at least the batch's rows, so a large
    batch still makes about one product per segment.

    Callers size their batches by batch_rows, so a batch has at most
    ncols * store itemsize // compute itemsize rows and at most
    block_rows: it holds no more bytes than the store at full rank
    (ncols rows) and is one outer block.  Its product has its shape and
    the store chunk its rows or _STORE_CHUNK, whichever is more.  So
    where batches reach _STORE_CHUNK rows (ncols >= 512 at F_101),
    add_rows holds at most about four times the full-rank store, and no
    more than three block-sized float arrays beside the store.

    Inside a mini block the search is left-looking.  Its j new pivot rows
    E stay unnormalized, and T**-1, the inverse of their pivot submatrix
    T = E[:, pv], is kept; T is upper triangular in arrival order, since
    each row of E is zero at the pivots before its own.  A row r is
    reduced by c = r[pv] T**-1, then r - c E, which is zero at pv and
    equals r minus r[pv] times the normalized rows.  A new pivot row
    with entry delta at column pc adds to T**-1 the column
    -(T**-1 u) * delta**-1, u = E[:, pc], and the diagonal entry
    delta**-1.  The mini block ends with one normalization E <- T**-1 E.
    Every factor holds residues in [0, p) and every inner dimension is
    j <= mini_rows <= k, so each product is within the bound:

    * c = r[pv] T**-1 and T**-1 u sum at most j*(p-1)**2 and are reduced
      before use.  T**-1 u is reduced *before* it is scaled by
      p - delta**-1; the scaled entries are then at most (p-1)**2.
      Scaling first would reach j*(p-1)**3, past 2**24 at p = 509.
    * r - c E lies in [-j*(p-1)**2, p) and T**-1 E in [0, j*(p-1)**2];
      _mod_inplace reduces both.

    The block's P new pivot rows so far, G, are kept in groups, one per
    mini block, written into rows of B already consumed.  A group is
    normalized at its own pivots and zero at the pivots of the groups
    before it, so U = G[:, npv] is upper triangular with identity
    diagonal blocks.  A mini block Bm is first reduced by Bm - c G, with
    c U = Bm[:, npv] solved a group at a time on those P columns only: a
    group's columns are reduced into c's, then c's times the group's
    entries at the later pivots leave the later columns.  Those columns
    take at most P*(p-1)**2 before they are reduced, and Bm - c G lies
    in [-P*(p-1)**2, p).  When the block is done the groups are
    back-substituted once, last to first: a group less its entries at
    the later pivots times the later groups, already reduced, which
    lies in [-P*(p-1)**2, p) too.  P <= block_rows <= k, so all of it
    is exact.  Kept reduced after every mini block instead, the rows
    before it would take a rank-j product and a reduction each time.

    Vectors of at most mini_rows entries (c and the new column) are
    reduced with np.remainder, one call in place of _mod_inplace's four.
    It is exact on the same range: numpy takes the IEEE fmod, which is
    exact, and adds p once to a negative result, an exact integer sum.
    """

    def __init__(self, ncols: int, p: int, block_rows: int = 2048,
                 mini_rows: int = _MINI_ROWS, seg_rows: int = 4096):
        self.ncols = ncols
        self.p = int(p)
        if self.p < 2:
            raise ValueError("modulus must be at least 2")
        if ncols * (self.p - 1) ** 2 + self.p > 2 ** 53:
            raise ValueError("modulus too large for exact float64 products")
        self.compute_dtype = np.dtype(
            np.float32 if _inner_bound(self.p, np.float32) >= _MINI_ROWS
            else np.float64)
        #: dtype the row builders make their batches in for this state
        self.row_dtype = self.compute_dtype
        k = _inner_bound(self.p, self.compute_dtype)
        self.block_rows = min(block_rows, k)
        self.mini_rows = min(mini_rows, k)
        self.seg_rows = min(seg_rows, k)
        if self.p < 128:
            self._dtype = np.int8
        elif self.p < 2 ** 15:
            self._dtype = np.int16
        else:
            self._dtype = np.int32
        self._R = np.empty((0, ncols), dtype=self._dtype)
        self._n = 0
        self._piv = np.empty(0, dtype=np.intp)  # arrival order

    @property
    def rank(self) -> int:
        return self._n

    def batch_rows(self, d: int) -> int:
        """Rows of one add_rows call fed in whole groups of d rows: the
        largest multiple of d at most block_rows and at most
        ncols * store itemsize // compute itemsize, the rows of a float
        batch with the bytes of the store at full rank; at least d.  At
        F_101 (int8 store, float32) the width cap is ncols // 4."""
        width = self.ncols * self._R.itemsize // self.compute_dtype.itemsize
        return max(d, min(self.block_rows, width) // d * d)

    def add_rows(self, rows) -> list[bool]:
        """Reduce a batch of integer rows into the state; returns the rank
        increase as one flag per row, True where that row raised the rank.

        A row raises the rank exactly when it is independent of every row
        before it, so the flags do not depend on how rows are batched.
        An array that already has the compute dtype (row_dtype), is
        C-contiguous and lies within +-(2**m - p) is reduced and eliminated
        in place, with no copy: it is checked for integers a chunk at a
        time as it is reduced (ValueError otherwise), and its content is
        consumed.  Integer rows within +-(2**m - p) are converted once,
        straight to the compute dtype; any other input goes through
        residues first.
        """
        M = np.asarray(rows)
        if M.size == 0:
            return []
        if M.ndim == 1:
            M = M.reshape(1, -1)
        if M.shape[1] != self.ncols:
            raise ValueError("row length does not match")
        top = 2 ** _SIGNIFICAND[self.compute_dtype] - self.p
        # NaN fails both comparisons, so it goes to residues, which raises
        in_range = M.dtype.kind in 'iuf' and -top <= M.min() \
            and M.max() <= top
        if in_range and M.dtype == self.compute_dtype \
                and M.flags.c_contiguous:
            _mod_inplace(M, self.p, check=True)
        else:
            if not (in_range and M.dtype.kind in 'iu'):
                M = residues(M, self.p)
            M = M.astype(self.compute_dtype, order='C')
            _mod_inplace(M, self.p)
        grew = np.zeros(M.shape[0], dtype=bool)
        for s in range(0, M.shape[0], self.block_rows):
            self._add_block(M[s:s + self.block_rows],
                            grew[s:s + self.block_rows])
        return grew.tolist()

    def _chunk_rows(self, rows: int) -> int:
        # store rows converted at a time beside a batch or new pivot rows
        # of that many rows
        return min(self.seg_rows, max(_STORE_CHUNK, rows))

    def _forward(self, B: np.ndarray) -> None:
        # eliminate B against the stored rows, a chunk at a time, reducing
        # B once per segment; see the class docstring
        p, n = self.p, self._n
        h = self._chunk_rows(B.shape[0])
        chunk = prod = None
        for a in range(0, n, self.seg_rows):
            b = min(a + self.seg_rows, n)
            dirty = False
            for c in range(a, b, h):
                e = min(c + h, b)
                coef = B[:, self._piv[c:e]]
                if not coef.any():
                    continue
                if prod is None:
                    chunk = np.empty((min(h, n), self.ncols), dtype=B.dtype)
                    prod = np.empty_like(B)
                Rc = chunk[:e - c]
                Rc[:] = self._R[c:e]
                B -= np.matmul(coef, Rc, out=prod)
                dirty = True
            if dirty:
                _mod_inplace(B, p)

    def _add_block(self, B: np.ndarray, grew: np.ndarray) -> None:
        # grew[k] is set when row k of B adds a pivot.  Within a mini
        # block Bm the new pivot rows E are gathered unnormalized at the
        # front of Bm, with T**-1 the inverse of their pivot submatrix
        # T = E[:, pv].  The block's pivot rows so far are B[:len(npv)],
        # one group B[a:b] per mini block, back-substituted at the end;
        # see the class docstring
        p = self.p
        self._forward(B)
        npv: list[int] = []
        groups: list[tuple[int, int]] = []
        mini = self.mini_rows
        Tinv = np.zeros((mini, mini), dtype=B.dtype)
        pv = np.empty(mini, dtype=np.intp)
        q = np.empty(B.shape[1], dtype=B.dtype)
        for s in range(0, B.shape[0], mini):
            Bm = B[s:s + mini]
            if npv:
                # solve c U = Bm[:, npv] a group at a time, in place
                coef = Bm[:, npv]
                for a, b in groups:
                    c = coef[:, a:b]
                    np.remainder(c, p, out=c)
                    if b < len(npv) and c.any():
                        coef[:, b:] -= c @ B[a:b, npv[b:]]
                if coef.any():
                    Bm -= coef @ B[:len(npv)]
                    _mod_inplace(Bm, p)
            j = 0
            Tj, Ej, pvj = Tinv[:0, :0], Bm[:0], pv[:0]
            # a row that is zero now stays zero and cannot raise the rank;
            # row i only overwrites Bm[j], j <= i, a row already visited
            for i in np.flatnonzero(Bm.any(axis=1)).tolist():
                row, e = Bm[i], Bm[j]
                g = row[pvj]
                if np.count_nonzero(g):
                    c = g @ Tj
                    np.remainder(c, p, out=c)
                    np.subtract(row, c @ Ej, out=e)
                    _sub_multiple(e, np.divide(e, p, out=q), p)
                elif i != j:
                    # nothing to reduce: row is nonzero, so it is a pivot
                    e[:] = row
                pc = int((e != 0).argmax())
                delta = int(e[pc])
                if not delta:
                    continue
                inv = pow(delta, -1, p)
                if j:
                    # reduced before the scaling, which alone keeps the
                    # column's entries within (p-1)**2
                    col = Tj @ Ej[:, pc]
                    np.remainder(col, p, out=col)
                    col *= p - inv
                    np.remainder(col, p, out=Tinv[:j, j])
                Tinv[j, j] = inv
                pv[j] = pc
                j += 1
                Tj, Ej, pvj = Tinv[:j, :j], Bm[:j], pv[:j]
                grew[s + i] = True
            if not j:
                continue
            # fresh <= s; where fresh + j > s the output overlaps Ej, and
            # matmul buffers its input
            fresh = len(npv)
            new = B[fresh:fresh + j]
            np.matmul(Tj, Ej, out=new)
            _mod_inplace(new, p)
            npv.extend(pvj.tolist())
            groups.append((fresh, fresh + j))
        if not npv:
            return
        new = B[:len(npv)]
        for a, b in reversed(groups[:-1]):
            coef = B[a:b, npv[b:]]
            if coef.any():
                B[a:b] -= coef @ new[b:]
                _mod_inplace(B[a:b], p)
        self._back_eliminate(new, npv)
        self._append(new, npv)

    def _back_eliminate(self, new: np.ndarray, npv: list[int]) -> None:
        # clear the new pivot columns from the stored rows a chunk at a
        # time; only chunks with an entry in those columns are converted
        arr = np.asarray(npv, dtype=np.intp)
        h = self._chunk_rows(new.shape[0])
        chunk = prod = None
        for a in range(0, self._n, h):
            b = min(a + h, self._n)
            coef = self._R[a:b, arr]
            if not coef.any():
                continue
            if chunk is None:
                chunk = np.empty((min(h, self._n), self.ncols),
                                 dtype=new.dtype)
                prod = np.empty_like(chunk)
            Rc = chunk[:b - a]
            Rc[:] = self._R[a:b]
            Rc -= np.matmul(coef.astype(new.dtype), new, out=prod[:b - a])
            _mod_inplace(Rc, self.p)
            self._R[a:b] = Rc

    def _append(self, new: np.ndarray, npv: list[int]) -> None:
        need = self._n + len(npv)
        if need > self._R.shape[0]:
            cap = max(need, self._n + (self._n >> 1), 256)
            grown = np.empty((cap, self.ncols), dtype=self._dtype)
            grown[:self._n] = self._R[:self._n]
            self._R = grown
        self._R[self._n:need] = new
        self._piv = np.concatenate([self._piv, np.asarray(npv, dtype=np.intp)])
        self._n = need

    def free_columns(self) -> np.ndarray:
        """The columns without a pivot, sorted."""
        free = np.ones(self.ncols, dtype=bool)
        free[self._piv[:self._n]] = False
        return np.flatnonzero(free)

    def random_combinations(self, count: int, rng) -> np.ndarray:
        """count uniform random vectors of the row space of the rows fed,
        as int64 residues, shape (count, ncols): combinations of the
        stored rows with residues drawn uniformly by rng (a
        random.Random).  The store is converted a chunk of at most
        seg_rows <= _inner_bound rows at a time, as add_rows converts it,
        and each chunk's product is subtracted from residues, so every
        sum lies in [-k*(p-1)**2, p) and is reduced exactly."""
        p, n, dtype = self.p, self._n, self.compute_dtype
        Z = np.reshape(rng.choices(range(p), k=count * n),
                       (count, n)).astype(dtype)
        U = np.zeros((count, self.ncols), dtype=dtype)
        h = self._chunk_rows(count)
        for a in range(0, n, h):
            b = min(a + h, n)
            U -= Z[:, a:b] @ self._R[a:b].astype(dtype)
            _mod_inplace(U, p)
        return U.astype(np.int64)

    def rcf(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, pivcols) sorted by pivot column; rows have int entries."""
        order = np.argsort(self._piv[:self._n], kind='stable')
        return (self._R[:self._n][order].astype(np.int64),
                self._piv[:self._n][order].copy())

    def nullspace_basis(self) -> np.ndarray:
        """The canonical nullspace basis as int64 residues: for each free
        column f the kernel vector with a 1 at f and 0 at the other free
        columns (a stored row has a unit at its pivot and zeros at the
        other pivots, so its pivot entry is minus the row's entry at f),
        then the RCF of their stack.  Only the stored rows' free columns
        are read, so the store is not copied."""
        free = self.free_columns()
        N = np.zeros((free.size, self.ncols), dtype=np.int64)
        N[np.arange(free.size), free] = 1
        N[:, self._piv[:self._n]] = \
            -self._R[:self._n, free].T.astype(np.int64) % self.p
        canon = ModularEchelon(self.ncols, self.p, block_rows=self.block_rows,
                               mini_rows=self.mini_rows, seg_rows=self.seg_rows)
        canon.add_rows(N)
        return canon.rcf()[0]


def residues(M: np.ndarray, p: int) -> np.ndarray:
    """Entries of an integer array mod p, as int64.  Object arrays (exact
    Python numbers of any size) and unsigned arrays are reduced before the
    cast, so no entry overflows; a non-integral entry raises ValueError.
    A float array may hold only integers of magnitude below 2**53, where
    float64 is exact; any other entry, inf and nan included, raises
    ValueError."""
    if M.dtype == object:
        return np.array([_as_int(e) % p for e in M.flat],
                        dtype=np.int64).reshape(M.shape)
    if M.dtype.kind == 'u':
        return (M % p).astype(np.int64)
    if M.dtype.kind == 'f' and not (np.all(np.abs(M) < 2 ** 53)
                                    and np.all(M == np.floor(M))):
        raise ValueError("integer matrix expected")
    return M.astype(np.int64) % p


def annihilates(A: np.ndarray, B: np.ndarray, field: Field) -> bool:
    """Whether A @ B is zero: over 'Q' in exact arithmetic; over a prime
    p mod p, for A a float array of residues in [0, p) and B integer
    residues.  The inner dimension is cut at _inner_bound(p, A.dtype)
    and each part's product is subtracted from residues and reduced, so
    every sum lies in [-k*(p-1)**2, p) and is exact, as in
    ModularEchelon."""
    if field == 'Q':
        return not (A @ B).any()
    k = _inner_bound(field, A.dtype)
    B = B.astype(A.dtype)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=A.dtype)
    for c in range(0, A.shape[1], k):
        out -= A[:, c:c + k] @ B[c:c + k]
        _mod_inplace(out, field)
    return not out.any()


def echelon_state(ncols: int, field: Field, reduced: bool = True):
    """Fresh chunked-RCF state for the given field; feed it add_rows calls.
    reduced is RationalEchelon's (a ModularEchelon always keeps its
    RCF)."""
    field = check_field(field)
    if field == 'Q':
        return RationalEchelon(ncols, reduced=reduced)
    return ModularEchelon(ncols, field)


class ExactMatrix:
    """Dense exact matrix with an explicit field tag, 'Q' or a prime.

    Over F_p the entries must be integers; a non-integral entry raises
    ValueError rather than being truncated."""

    def __init__(self, rows, field: Field = 'Q'):
        self.field = check_field(field)
        rows = [r.tolist() if isinstance(r, np.ndarray) else r for r in rows]
        if self.field == 'Q':
            self.rows = [[Fraction(e) for e in row] for row in rows]
        else:
            self.rows = [[_as_int(e) % self.field for e in row]
                         for row in rows]
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        self._ncols = widths.pop() if widths else 0

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self._ncols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field})"

    def transpose(self) -> 'ExactMatrix':
        return ExactMatrix([list(col) for col in zip(*self.rows)] if self.rows
                           else [], self.field)

    def _state(self) -> Union[RationalEchelon, ModularEchelon]:
        state = echelon_state(self.ncols, self.field)
        state.add_rows(self.rows)
        return state

    def rank(self) -> int:
        if self.field != 'Q':
            return self._state().rank
        state = RationalEchelon(self.ncols, reduced=False)
        state.add_rows(self.rows)
        return state.rank

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def rcf(self) -> 'ExactMatrix':
        return ExactMatrix(self._state().rcf()[0], self.field)

    def nullspace_basis(self) -> 'ExactMatrix':
        return ExactMatrix(self._state().nullspace_basis(), self.field)


def rcf(matrix: ExactMatrix) -> tuple[ExactMatrix, int]:
    """(reduced row echelon form without zero rows, rank)."""
    form = matrix.rcf()
    return form, form.nrows


def nullspace_basis(matrix: ExactMatrix) -> ExactMatrix:
    return matrix.nullspace_basis()


def express_in_rowspace(rows, targets) -> list[list[Fraction]]:
    """Coordinates of each target vector in the basis given by rows.

    Returns C with targets[i] == sum_j C[i][j] * rows[j].  Raises ValueError
    when the rows are dependent or a target falls outside their span.
    """
    rows = [[Fraction(e) for e in r] for r in rows]
    m = len(rows)
    store = []  # (pivot col, echelon row, expression in the input rows)
    for i, row in enumerate(rows):
        v = row[:]
        expr = [Fraction(0)] * m
        expr[i] = Fraction(1)
        for pc, w, u in store:
            c = v[pc]
            if c:
                v = [a - c * b for a, b in zip(v, w)]
                expr = [a - c * b for a, b in zip(expr, u)]
        piv = next((j for j, e in enumerate(v) if e), None)
        if piv is None:
            raise ValueError("rows are linearly dependent")
        inv = 1 / v[piv]
        store.append((piv, [e * inv for e in v], [e * inv for e in expr]))
    out = []
    for t in targets:
        v = [Fraction(e) for e in t]
        coords = [Fraction(0)] * m
        for pc, w, u in store:
            c = v[pc]
            if c:
                v = [a - c * b for a, b in zip(v, w)]
                coords = [a + c * b for a, b in zip(coords, u)]
        if any(v):
            raise ValueError("target lies outside the row space")
        out.append(coords)
    return out


# ---------------------------------------------------------------- integers


def _as_int(e) -> int:
    if isinstance(e, int):
        return e
    f = Fraction(e)
    if f.denominator != 1:
        raise ValueError("integer matrix expected")
    return int(f.numerator)


def int_rows(rows) -> list[list[int]]:
    return [[_as_int(e) for e in row] for row in rows]


def hermite_with_transform(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form with transform: returns (H, U) with
    U A = H, U unimodular.  Pivots positive, entries above a pivot lie in
    [0, pivot), zero rows come last.  H is unique; U is not when A is
    rank-deficient.  The k rows of U beside the zero rows of H are a
    Z-basis of the integer left kernel of A, unique only up to GL_k(Z):
    which basis, and so its lengths, depends on the pivot path.  They
    are left as the elimination leaves them; LLL is the tool for making
    that basis short, so no cleanup happens here."""
    H = [row[:] for row in int_rows(rows)]
    m = len(H)
    n = len(H[0]) if H else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]

    def rowop(i, q, r):
        # row_i -= q * row_r
        H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        U[i] = [a - q * b for a, b in zip(U[i], U[r])]

    r = 0
    for c in range(n):
        while True:
            live = [i for i in range(r, m) if H[i][c]]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[i0], H[r] = H[r], H[i0]
                U[i0], U[r] = U[r], U[i0]
            done = True
            for i in range(r + 1, m):
                if H[i][c]:
                    rowop(i, H[i][c] // H[r][c], r)
                    if H[i][c]:
                        done = False
            if done:
                break
        if r < m and H[r][c]:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    rowop(i, q, r)
            r += 1
            if r == m:
                break
    return H, U


def int_det(rows) -> int:
    """Determinant of a square integer matrix, Bareiss elimination."""
    M = [row[:] for row in int_rows(rows)]
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("square matrix expected")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


# --------------------------------------------------------------------- LLL


def _gram_schmidt(basis: list[list[int]]):
    k = len(basis)
    mu = [[Fraction(0)] * k for _ in range(k)]
    norms: list[Fraction] = []
    star: list[list[Fraction]] = []
    for i in range(k):
        v = [Fraction(e) for e in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                raise ValueError("basis is linearly dependent")
            mu[i][j] = Fraction(sum(a * b for a, b in zip(basis[i], star[j]))) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(a * a for a in v))
    return mu, norms


def lll_reduce(rows, delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """LLL-reduced basis of the lattice spanned by the given independent
    integer rows; exact arithmetic throughout."""
    basis = [row[:] for row in int_rows(rows)]
    k = len(basis)
    if k <= 1:
        return basis
    mu, norms = _gram_schmidt(basis)
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
                for j2 in range(j):
                    mu[i][j2] -= q * mu[j][j2]
                mu[i][j] -= q
        if norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            basis[i - 1], basis[i] = basis[i], basis[i - 1]
            mu, norms = _gram_schmidt(basis)
            i = max(i - 1, 1)
    return basis


# ---------------------------------------------------------------- file I/O


def write_matrix(f, rows, field: Field) -> None:
    """Matrix interchange format: header 'rows cols field', then one line of
    entries per row (rationals as p or p/q, residues as integers; over F_p
    a non-integral entry raises ValueError)."""
    from .monomials import coeff_str
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    field = check_field(field)
    f.write(f"{len(rows)} {ncols} {field}\n")
    for row in rows:
        if field == 'Q':
            f.write(" ".join(coeff_str(Fraction(e)) for e in row) + "\n")
        else:
            f.write(" ".join(str(_as_int(e) % field) for e in row) + "\n")


def read_matrix(f) -> tuple[list[list], Field]:
    tokens = f.read().split()
    if len(tokens) < 3:
        raise ValueError("truncated matrix file")
    nrows, ncols = int(tokens[0]), int(tokens[1])
    field = check_field(tokens[2] if tokens[2] == 'Q' else int(tokens[2]))
    body = tokens[3:]
    if len(body) != nrows * ncols:
        raise ValueError("matrix body does not match header")
    conv = Fraction if field == 'Q' else int
    rows = [[conv(body[i * ncols + j]) for j in range(ncols)]
            for i in range(nrows)]
    return rows, field
