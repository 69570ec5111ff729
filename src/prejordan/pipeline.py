"""Identities of the product x*y = x>y + y<x, degree by degree.

The two defining identities live in degree 4.  Lifting an identity of
degree n gives n+2 identities of degree n+1 (one substitution per
variable and the two multiplications by a new variable), and the
liftings generate every consequence in degree n+1 as a module over the
symmetric group.  A degree has new identities when, for some partition,
the lifted identities span less than the kernel of the expansion map;
the per-partition comparison is rank of the lifted blocks against the
nullity of the transposed expansion block matrix.

Every identity admitted through Identity.from_poly with check=True is
expanded and normalized in exact integer arithmetic; anything that does
not come out as the zero polynomial is rejected.  That check is the hard
gate separating identities from everything else.  It normalizes each
association type once and reaches every monomial by relabeling that
type's image (expansion is equivariant), so the arithmetic stays exact
while the cost per identity is a few array operations.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import InvariantViolation
from .expansion import (cached_expansion_table, expansion_matrix,
                        poly_normal_form, xblock_transpose_rows)
from .linalg import echelon_state, hermite_with_transform, lll_reduce
from .monomials import (Word, all_perms, assoc_types, classify, coeff_str,
                        degree, format_word, leaves, relabel, with_leaves)
from .symrep import RhoCache, dimension, format_partition, partitions

IDENTITY_FORMAT = "identity-list"
IDENTITY_VERSION = 1

#: per-partition memory gate in bytes, roughly two copies of the reduced
#: row store at full width; degree 8 with block dimension 90 goes past it
MEMORY_BUDGET = 2_500_000_000


# ---------------------------------------------------------------- identity


@dataclass(frozen=True)
class Identity:
    """A multilinear identity, stored as exact monomial terms.

    Terms are (coeff, word) pairs in canonical order: association type
    index first, then lexicographic order of the leaf labels.  provenance
    records where the identity came from: 'defining', 'lifted',
    'nullspace' or 'reduced'.
    """

    degree: int
    terms: tuple
    provenance: str = "defining"

    @staticmethod
    def from_poly(poly: dict, provenance: str, check: bool = True) -> 'Identity':
        words = [w for w, c in poly.items() if c]
        if not words:
            raise ValueError("the zero polynomial is not an identity")
        degs = {degree(w) for w in words}
        if len(degs) != 1:
            raise ValueError("terms of mixed degree")
        n = degs.pop()
        keyed = sorted(((classify(w, 1), w) for w in words))
        coeffs = [Fraction(poly[w]) for _, w in keyed]
        den = math.lcm(*(c.denominator for c in coeffs))
        terms = tuple((int(c * den), w) for c, (_, w) in zip(coeffs, keyed))
        ident = Identity(n, terms, provenance)
        if check:
            ident.check_kernel_membership()
        return ident

    def poly(self) -> dict:
        return {w: c for c, w in self.terms}

    def check_kernel_membership(self) -> None:
        """Exact expansion; raises unless the result is zero.

        The expansion is poly_normal_form: the cached image of each
        term's association type, relabeled by the term's leaves, summed
        with exact integer (or rational) coefficients.
        """
        residue = poly_normal_form(self.poly())
        if residue:
            raise InvariantViolation(
                f"claimed identity does not expand to zero; "
                f"{len(residue)} residual terms, first "
                f"{format_word(next(iter(residue)))}")

    def group_algebra(self, t: int) -> list[dict]:
        """One group algebra element per association type."""
        out: list[dict] = [dict() for _ in range(t)]
        for c, w in self.terms:
            i, perm = classify(w, 1)
            out[i][perm] = out[i].get(perm, 0) + c
        return out

    def vector(self, length: int, index) -> list:
        vec = [0] * length
        for c, w in self.terms:
            vec[index(w)] += c
        return vec

    def relabeled(self, perm) -> 'Identity':
        poly = {relabel(w, perm): c for c, w in self.terms}
        return Identity.from_poly(poly, self.provenance, check=False)

    def __str__(self) -> str:
        bits = []
        for c, w in self.terms:
            sign = "- " if c < 0 else "+ "
            mag = coeff_str(Fraction(abs(c)))
            bits.append(sign + ("" if mag == "1" else mag) + format_word(w))
        return " ".join(bits)


def mul(a: Word, b: Word) -> Word:
    return ('*', a, b)


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = mul(wa, wb)
            out[w] = out.get(w, 0) + ca * cb
    return out


def _circ(a: dict, b: dict) -> dict:
    # x o y = x*y + y*x
    out = _pmul(a, b)
    for w, c in _pmul(b, a).items():
        out[w] = out.get(w, 0) + c
    return out


def _padd(acc: dict, other: dict, sign=1) -> dict:
    for w, c in other.items():
        v = acc.get(w, 0) + sign * c
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)
    return acc


def defining_identities() -> tuple[Identity, Identity]:
    """The two degree-4 identities that define the variety under study."""
    x, y, z, u = ({1: 1}, {2: 1}, {3: 1}, {4: 1})
    common: dict = {}
    _padd(common, _pmul(z, _pmul(_circ(x, y), u)), -1)
    _padd(common, _pmul(x, _pmul(_circ(y, z), u)), -1)
    _padd(common, _pmul(y, _pmul(_circ(z, x), u)), -1)

    first: dict = {}
    _padd(first, _pmul(_circ(x, y), _pmul(z, u)))
    _padd(first, _pmul(_circ(y, z), _pmul(x, u)))
    _padd(first, _pmul(_circ(z, x), _pmul(y, u)))
    _padd(first, common)

    second: dict = {}
    _padd(second, _pmul(x, _pmul(y, _pmul(z, u))))
    _padd(second, _pmul(z, _pmul(y, _pmul(x, u))))
    _padd(second, _pmul(_circ(_circ(x, z), y), u))
    _padd(second, common)

    return (Identity.from_poly(first, "defining"),
            Identity.from_poly(second, "defining"))


# ---------------------------------------------------------------- liftings


def _substitute(word: Word, var: int, replacement: Word) -> Word:
    if isinstance(word, int):
        return replacement if word == var else word
    return (word[0], _substitute(word[1], var, replacement),
            _substitute(word[2], var, replacement))


def lift(ident: Identity) -> list[Identity]:
    """The n+2 liftings of a degree-n identity to degree n+1.

    Order: substitutions x_1 <- x_1 * x_{n+1} through x_n <- x_n * x_{n+1},
    then the identity times x_{n+1}, then x_{n+1} times the identity.
    Each lifting keeps the term count of the original because every
    substitution sends distinct monomials to distinct monomials.
    """
    n = ident.degree
    new = n + 1
    out = []
    for var in range(1, n + 1):
        poly: dict = {}
        for c, w in ident.terms:
            _padd(poly, {_substitute(w, var, mul(var, new)): c})
        out.append(Identity.from_poly(poly, "lifted", check=False))
    out.append(Identity.from_poly(
        {mul(w, new): c for c, w in ident.terms}, "lifted", check=False))
    out.append(Identity.from_poly(
        {mul(new, w): c for c, w in ident.terms}, "lifted", check=False))
    return out


def liftings_to_degree(n: int, retained: dict[int, list[int]] | None = None,
                       verify: bool = False) -> list[Identity]:
    """All iterated liftings of the defining identities at degree n.

    retained maps a degree to the indices kept after pruning at that
    degree; lifting continues from the kept subset only.  Without
    pruning the counts are 2, 12, 84, 672, 6048 for degrees 4 through 8.
    """
    current: list[Identity] = list(defining_identities())
    for k in range(4, n):
        if retained and k in retained:
            current = [current[i] for i in retained[k]]
        current = [g for f in current for g in lift(f)]
    if verify:
        for f in current:
            f.check_kernel_membership()
    return current


# ------------------------------------------------- per-partition matrices


def identity_block(ident: Identity, lam, rho: RhoCache, t: int):
    """Block row of an identity: one raw d x d block per association type.

    Blocks are sums of A-matrices without the change of basis, which
    multiplies the whole block row by an invertible matrix on the left
    and so changes neither its row space nor any rank computed from it.
    Over 'Q' the result is a list of integer rows; over a prime, an
    int64 array of residues, shape (d, t*d).
    """
    d = rho.dim
    elems = ident.group_algebra(t)
    if rho.field == 'Q':
        rows = [[0] * (t * d) for _ in range(d)]
        for i, el in enumerate(elems):
            if not el:
                continue
            M = rho.raw_of_element(el)
            for a in range(d):
                rows[a][i * d:(i + 1) * d] = [int(v) for v in M[a]]
        return rows
    out = np.zeros((d, t * d), dtype=np.int64)
    for i, el in enumerate(elems):
        if el:
            out[:, i * d:(i + 1) * d] = rho.raw_of_element(el)
    return out


def lifted_rank(n: int, lam, liftings, field='Q',
                rho: RhoCache | None = None) -> tuple[int, list[bool]]:
    """Rank of the stacked lifted-identity blocks, fed one block at a time.

    Also reports, per identity, whether its block increased the rank; the
    union of those flags across partitions drives pruning.
    """
    if rho is None:
        rho = RhoCache(lam, field)
    t = len(assoc_types(n, 1))
    state = echelon_state(t * rho.dim, field)
    grew = []
    for ident in liftings:
        if ident.degree != n:
            raise ValueError("identity of the wrong degree")
        before = state.rank
        state.add_rows(identity_block(ident, lam, rho, t))
        grew.append(state.rank > before)
    return state.rank, grew


def kernel_rank(n: int, lam, field='Q', chunk: int = 50, table=None,
                rho: RhoCache | None = None, keep_state: bool = False):
    """(rank, nullity) of the transposed block matrix for one partition.

    nullity counts irreducible summands of the identity space: the block
    matrix has t*d columns and its left null vectors are the identities.
    With keep_state the echelon state comes back as a third element so
    the nullspace can be extracted.
    """
    if rho is None:
        rho = RhoCache(lam, field)
    t = len(assoc_types(n, 1))
    d = rho.dim
    state = echelon_state(t * d, field)
    for batch in xblock_transpose_rows(n, lam, field=field, chunk=chunk,
                                       table=table, rho=rho):
        state.add_rows(batch)
    rank = state.rank
    if keep_state:
        return rank, t * d - rank, state
    return rank, t * d - rank


def new_identity_vectors(n: int, lam, liftings, field='Q', chunk: int = 50,
                         table=None) -> list:
    """Canonical coset representatives of new identities for one partition.

    The left nullspace of the raw block matrix is converted to genuine
    representation coordinates by multiplying each type block on the
    right by the A-matrix of the identity permutation, then reduced
    against the row space of the lifted identities (which raw blocks
    span verbatim).  The representatives are the rows of the combined
    reduced form whose pivot columns the lifted rows do not have.
    """
    rho = RhoCache(lam, field)
    t = len(assoc_types(n, 1))
    d = rho.dim
    state = echelon_state(t * d, field)
    for ident in liftings:
        state.add_rows(identity_block(ident, lam, rho, t))
    if field == 'Q':
        lifted_pivots = set(state.sorted_pivcols())
    else:
        lifted_pivots = set(state.rcf()[1].tolist())

    _, _, xstate = kernel_rank(n, lam, field, chunk, table, rho,
                               keep_state=True)
    a_id = rho.a(tuple(range(1, n + 1))).astype(np.int64)
    if field == 'Q':
        for v in xstate.nullspace_basis():
            shifted = []
            for i in range(t):
                seg = v[i * d:(i + 1) * d]
                shifted.extend(
                    sum(seg[k] * int(a_id[k][j]) for k in range(d))
                    for j in range(d))
            state.add_rows([shifted])
        final = state.rcf_rows()
        pivs = state.sorted_pivcols()
    else:
        p = int(field)
        null = xstate.nullspace_basis()
        if null.size:
            shifted = np.zeros_like(null)
            for i in range(t):
                blk = null[:, i * d:(i + 1) * d].astype(np.float64)
                shifted[:, i * d:(i + 1) * d] = \
                    (blk @ a_id.astype(np.float64)) % p
            state.add_rows(shifted)
        rows_arr, piv_arr = state.rcf()
        final = [r.tolist() for r in rows_arr]
        pivs = piv_arr.tolist()
    return [row for row, pc in zip(final, pivs) if pc not in lifted_pivots]


# -------------------------------------------------------------- reporting


@dataclass(frozen=True)
class ReportConfig:
    degree: int
    field: str = "auto"          # "Q", "F" or "auto": Q through degree 5
    prime: int = 101
    chunk: int = 50
    partitions: tuple | None = None
    #: degree 8 only: lift just the degree-7 identities that grew a rank
    prune: bool = True
    allow_large: bool = False
    cache_dir: str | None = None
    verify_liftings: bool = False
    emit_new: bool = False
    memory_budget: int = MEMORY_BUDGET

    def resolved_field(self):
        if self.field == "Q":
            return 'Q'
        if self.field == "auto" and self.degree <= 5:
            return 'Q'
        return self.prime


@dataclass
class PartitionRow:
    partition: tuple
    d: int
    lifted_rows: int
    lifted_cols: int
    lifted_rank: int | None
    all_rows: int
    all_cols: int
    all_rank: int | None
    nullity: int | None
    new: int | None
    skipped: bool = False
    new_vectors: list | None = None


@dataclass
class DegreeReport:
    degree: int
    field: str
    prime: int | None
    chunk: int
    lifting_count: int
    retained: tuple = ()
    rows: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "degree": self.degree,
            "field": self.field,
            "prime": self.prime,
            "chunk": self.chunk,
            "liftings": self.lifting_count,
            "retained": len(self.retained),
            "rows": [],
        }
        for r in self.rows:
            row = {"partition": format_partition(r.partition), "d": r.d,
                   "skipped": r.skipped,
                   "lifted": {"rows": r.lifted_rows, "cols": r.lifted_cols,
                              "rank": r.lifted_rank},
                   "all": {"rows": r.all_rows, "cols": r.all_cols,
                           "rank": r.all_rank, "nullity": r.nullity},
                   "new": r.new}
            if r.new_vectors is not None:
                row["new_vectors"] = [[str(e) for e in v]
                                      for v in r.new_vectors]
            out["rows"].append(row)
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["partition", "d", "lifted_rows", "lifted_cols",
                    "lifted_rank", "all_rows", "all_cols", "all_rank",
                    "nullity", "new", "skipped"])
        for r in self.rows:
            w.writerow([format_partition(r.partition), r.d, r.lifted_rows,
                        r.lifted_cols, r.lifted_rank, r.all_rows, r.all_cols,
                        r.all_rank, r.nullity, r.new, int(r.skipped)])
        return buf.getvalue()

    def to_text(self) -> str:
        head = (f"degree {self.degree}  field "
                f"{self.field if self.field == 'Q' else 'F_%d' % self.prime}"
                f"  chunk {self.chunk}  liftings {self.lifting_count}"
                f" ({len(self.retained)} grew a rank)")
        cols = ("partition", "d", "L rows", "L cols", "L rank",
                "X^t rows", "X^t cols", "X^t rank", "nullity", "new")
        table = [cols]
        for r in self.rows:
            if r.skipped:
                table.append((format_partition(r.partition), str(r.d),
                              "-", "-", "-", "-", "-", "-", "-", "skipped"))
            else:
                table.append(tuple(str(v) for v in (
                    format_partition(r.partition), r.d, r.lifted_rows,
                    r.lifted_cols, r.lifted_rank, r.all_rows, r.all_cols,
                    r.all_rank, r.nullity, r.new)))
        widths = [max(len(row[c]) for row in table) for c in range(len(cols))]
        lines = [head, ""]
        for row in table:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines) + "\n"


def _estimated_bytes(n: int, d: int) -> int:
    t = len(assoc_types(n, 1))
    return 2 * (t * d) * (t * d)


def _retained_indices(k: int, lifts, config: 'ReportConfig') -> list[int]:
    field = 'Q' if k <= 5 else config.prime
    grew_any = [False] * len(lifts)
    for lam in partitions(k):
        _, grew = lifted_rank(k, lam, lifts, field)
        for i, g in enumerate(grew):
            grew_any[i] = grew_any[i] or g
    return [i for i, g in enumerate(grew_any) if g]


def degree_report(config: ReportConfig, progress=None) -> DegreeReport:
    """Per-partition ranks and new-identity counts for one degree.

    Liftings are carried up from degree 4 in full through degree 7; a
    cut happens in exactly one place.  Most liftings of degree 7 are
    redundant as module generators, so a degree-8 report with
    config.prune set first keeps only the degree-7 identities whose
    block grew the lifted rank for at least one partition, and lifts
    those.  Partitions whose working set would exceed the memory budget
    are reported as skipped unless allow_large is set.
    """
    n = config.degree
    if not 4 <= n <= 8:
        raise ValueError("reports cover degrees 4 through 8")
    field = config.resolved_field()
    table = cached_expansion_table(n, config.cache_dir)
    t = len(assoc_types(n, 1))
    s = len(_dtypes(n))

    if n == 4:
        liftings = list(defining_identities())
    else:
        retained = None
        if config.prune and n == 8:
            pool = liftings_to_degree(7)
            kept = _retained_indices(7, pool, config)
            retained = {7: kept}
            if progress:
                progress(f"degree-7 pruning: kept {len(kept)} of {len(pool)}")
        liftings = liftings_to_degree(n, retained,
                                      verify=config.verify_liftings)

    lam_list = [tuple(p) for p in (config.partitions or partitions(n))]
    for lam in lam_list:
        if sum(lam) != n:
            raise ValueError(f"{lam} is not a partition of {n}")

    report = DegreeReport(
        degree=n, field='Q' if field == 'Q' else 'F',
        prime=None if field == 'Q' else int(field),
        chunk=config.chunk, lifting_count=len(liftings))
    grew_any = [False] * len(liftings)
    for lam in lam_list:
        d = dimension(lam)
        if _estimated_bytes(n, d) > config.memory_budget \
                and not config.allow_large:
            report.rows.append(PartitionRow(
                partition=lam, d=d, lifted_rows=len(liftings) * d,
                lifted_cols=t * d, lifted_rank=None, all_rows=s * d,
                all_cols=t * d, all_rank=None, nullity=None, new=None,
                skipped=True))
            if progress:
                progress(f"partition {format_partition(lam)} (d={d}):"
                         f" skipped, memory gate")
            continue
        if progress:
            progress(f"partition {format_partition(lam)} (d={d})")
        rho = RhoCache(lam, field)
        lrank, grew = lifted_rank(n, lam, liftings, field, rho)
        for k, g in enumerate(grew):
            grew_any[k] = grew_any[k] or g
        xrank, nullity = kernel_rank(n, lam, field, config.chunk, table, rho)
        new = nullity - lrank
        if new < 0:
            raise InvariantViolation(
                f"lifted rank {lrank} exceeds nullity {nullity} "
                f"for partition {format_partition(lam)}")
        vectors = None
        if config.emit_new and new > 0:
            vectors = new_identity_vectors(n, lam, liftings, field,
                                           config.chunk, table)
            if len(vectors) != new:
                raise InvariantViolation(
                    f"extracted {len(vectors)} new identity vectors, "
                    f"expected {new}")
        report.rows.append(PartitionRow(
            partition=lam, d=d, lifted_rows=len(liftings) * d,
            lifted_cols=t * d, lifted_rank=lrank, all_rows=s * d,
            all_cols=t * d, all_rank=xrank, nullity=nullity, new=new,
            new_vectors=vectors))
    report.retained = tuple(k for k, g in enumerate(grew_any) if g)
    return report


def _dtypes(n: int):
    from .dendriform import normal_dtypes
    return normal_dtypes(n)


# ------------------------------------------------------- module comparison


def permuted_stack_rank(idents, n: int, state=None, field='Q'):
    """Feed every permuted copy of every identity into an echelon state.

    Returns (state, rank).  The rank saturates at the number of monomial
    dimensions the identities span as a module, so feeding a second set
    into the same state detects whether it adds anything.
    """
    from .monomials import basis_index
    t = len(assoc_types(n, 1))
    width = t * math.factorial(n)
    if state is None:
        state = echelon_state(width, field)
    index = basis_index(n, 1)
    for ident in idents:
        state.add_rows(ident.relabeled(sigma).vector(width, index)
                       for sigma in all_perms(n))
    return state, state.rank


def compare_modules(a, b, n: int, method: str = "monomial",
                    field='Q') -> dict:
    """Do two sets of identities generate the same module?

    method 'monomial' stacks all permuted copies in the monomial basis
    (fine through degree 5); 'partition' compares block row spaces one
    partition at a time.  The verdict reports rank saturation in both
    directions.
    """
    if method == "monomial":
        state_a, rank_a = permuted_stack_rank(a, n, field=field)
        _, rank_ab = permuted_stack_rank(b, n, state=state_a, field=field)
        state_b, rank_b = permuted_stack_rank(b, n, field=field)
        _, rank_ba = permuted_stack_rank(a, n, state=state_b, field=field)
        return {"method": method, "rank_a": rank_a, "rank_b": rank_b,
                "rank_a_then_b": rank_ab, "rank_b_then_a": rank_ba,
                "equivalent": rank_ab == rank_a and rank_ba == rank_b}
    if method != "partition":
        raise ValueError("method must be 'monomial' or 'partition'")
    t = len(assoc_types(n, 1))
    per = {}
    equivalent = True
    for lam in partitions(n):
        rho = RhoCache(lam, field)
        ranks = {}
        for first, second, key in ((a, b, "a"), (b, a, "b")):
            state = echelon_state(t * rho.dim, field)
            for ident in first:
                state.add_rows(identity_block(ident, lam, rho, t))
            ranks[f"rank_{key}"] = state.rank
            for ident in second:
                state.add_rows(identity_block(ident, lam, rho, t))
            ranks[f"rank_{key}_then_other"] = state.rank
        ok = (ranks["rank_a_then_other"] == ranks["rank_a"]
              and ranks["rank_b_then_other"] == ranks["rank_b"])
        per[format_partition(lam)] = {**ranks, "equivalent": ok}
        equivalent = equivalent and ok
    return {"method": method, "per_partition": per, "equivalent": equivalent}


# ------------------------------------------------ degree-4 nullspace bases


def nullspace_identities(n: int = 4, method: str = "lll") -> list[Identity]:
    """Identity basis of the expansion kernel from integer linear algebra.

    method 'hnf' returns the kernel rows of the unimodular transform U
    with U E = H (E the monomial-level expansion matrix, H its Hermite
    form); 'lll' lattice-reduces that basis; 'rcf' takes the canonical
    rational nullspace scaled to integers.  Every returned row is
    admitted as an Identity through the expansion gate.
    """
    from .monomials import multilinear_basis
    E = expansion_matrix(n)
    if method == "rcf":
        rows = E.transpose().nullspace_basis().rows
    elif method in ("hnf", "lll"):
        _, U = hermite_with_transform(E.rows)
        rows = [list(map(int, r)) for r in U[E.rank():]]
        if method == "lll":
            rows = lll_reduce(rows)
    else:
        raise ValueError("method must be hnf, lll or rcf")
    basis = multilinear_basis(n, 1)
    prov = "reduced" if method == "lll" else "nullspace"
    out = []
    for row in rows:
        poly = {basis[i]: c for i, c in enumerate(row) if c}
        out.append(Identity.from_poly(poly, prov))
    return out


def squared_lengths(idents) -> list[int]:
    return sorted(sum(int(c) * int(c) for c, _ in f.terms) for f in idents)


def kernel_character(n: int = 4):
    """(character, multiplicities) of the expansion kernel module.

    Character values are listed per conjugacy class in class_types order;
    multiplicities per partition in partitions(n) order.
    """
    from .monomials import basis_index, multilinear_basis
    from .symrep import decompose, module_character
    basis = multilinear_basis(n, 1)
    index = basis_index(n, 1)
    vectors = [f.vector(len(basis), index)
               for f in nullspace_identities(n, "lll")]

    def act(sigma, vec):
        out = [0] * len(vec)
        for k, c in enumerate(vec):
            if c:
                out[index(relabel(basis[k], sigma))] += c
        return out

    char = module_character(vectors, n, act)
    return tuple(char), decompose(char, n)


# -------------------------------------------------------------- file forms


def identities_to_json(idents) -> dict:
    degs = {f.degree for f in idents}
    if len(degs) != 1:
        raise ValueError("identity files hold a single degree")
    items = []
    for f in idents:
        items.append({
            "provenance": f.provenance,
            "terms": [[int(c), classify(w, 1)[0], list(leaves(w))]
                      for c, w in f.terms]})
    return {"format": IDENTITY_FORMAT, "version": IDENTITY_VERSION,
            "degree": degs.pop(), "identities": items}


def identities_from_json(data) -> list[Identity]:
    if data.get("format") != IDENTITY_FORMAT \
            or data.get("version") != IDENTITY_VERSION:
        raise ValueError("not an identity file this reader understands")
    n = data["degree"]
    types = assoc_types(n, 1)
    out = []
    for item in data["identities"]:
        poly: dict = {}
        for c, i, perm in item["terms"]:
            word = with_leaves(types[i], tuple(perm))
            poly[word] = poly.get(word, 0) + c
        out.append(Identity.from_poly(poly, item.get("provenance", "lifted")))
    return out


def save_identities(idents, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(identities_to_json(idents), fh, indent=1)
        fh.write("\n")


def load_identities(path: str) -> list[Identity]:
    with open(path) as fh:
        return identities_from_json(json.load(fh))
