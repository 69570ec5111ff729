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
gate separating identities from everything else.  It builds the image
of each association type once (composed from memoized products of normal
shapes) and reaches every monomial by relabeling that type's image
(expansion is equivariant), so the arithmetic stays exact while the cost
per identity is a few array operations.

An identity is held as one split of its terms into arrays: association
type index, leaf labels and coefficient per term.  Words are classified
once, when an identity is made from words (the two defining identities,
a file, a nullspace basis).  Lifting maps types through per-degree
tables and inserts the new leaf label, relabeling permutes the labels,
and the gate and the block rows read the arrays; (coeff, word) terms
are built only when something reads them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from itertools import chain

import numpy as np

from .errors import InvariantViolation
from .expansion import (coeff_array, expansion_arrays, expansion_matrix,
                        poly_normal_form, split_normal_form, type_images,
                        xblock_transpose_rows)
from .linalg import (check_field, echelon_state, hermite_with_transform,
                     lll_reduce)
from .monomials import (Word, all_perms, assoc_type_index, assoc_types,
                        classify, coeff_str, degree, format_word, relabel,
                        with_leaves)
from .symrep import RhoCache, dimension, format_partition, partitions

IDENTITY_FORMAT = "identity-list"
IDENTITY_VERSION = 1

#: per-partition memory gate in bytes for _estimated_bytes, which is
#: 2*(t*d)**2: twice the int8 row store of an echelon state at full rank
#: (t*d rows of t*d columns).  It is a size class, not the working set,
#: which add_rows bounds by about twice the estimate (four full-rank
#: stores; ModularEchelon docstring): one-partition degree-8 reports (two
#: BLAS threads) peaked at 244 MiB for 44 (d = 14, estimate 72 MB),
#: 323 MiB for 62 (d = 20, estimate 147 MB) and 615 MiB for 332 (d = 42,
#: estimate 649 MB).  Only 4211 (d = 90, estimate 2.98 GB) goes past it
MEMORY_BUDGET = 2_500_000_000


# ---------------------------------------------------------------- identity


@dataclass(frozen=True)
class Identity:
    """A multilinear identity: exact terms coeff * word.

    Every identity holds one canonical split of its terms, computed once:
    types (association type index of each term), leaves (int8, the
    term's leaf labels in reading order, 0-based, a permutation of
    0..n-1) and coeffs (int64 under the bound of expansion.coeff_array,
    an object array of exact numbers past it).  Lifting, relabeling, the
    expansion gate and the block rows work on these arrays alone.  The
    split is in canonical order, association type first and then the
    lexicographic order of the leaves, for identities made by from_poly,
    lifting or relabeling.

    terms, the (coeff, word) pairs in the split's order, are built from
    the split when they are first read (printing, poly(), equality,
    dataclasses.replace).  An identity constructed from terms, as
    Identity(degree, terms, provenance) or by dataclasses.replace, gets
    its split from its own words by classify, never from another
    identity.  provenance records where the identity came from:
    'defining', 'lifted', 'nullspace' or 'reduced'.
    """

    degree: int
    terms: tuple
    provenance: str = "defining"

    def __post_init__(self):
        types, leaves = _split_words([w for _, w in self.terms], self.degree)
        for name, value in (("types", types), ("leaves", leaves), (
                "coeffs", coeff_array(self.degree, types.tolist(),
                                      (c for c, _ in self.terms)))):
            object.__setattr__(self, name, value)

    @staticmethod
    def _of_split(n: int, types, leaves, coeffs,
                  provenance: str) -> 'Identity':
        """A degree-n identity from its split; terms are built when first
        read."""
        ident = object.__new__(Identity)
        for name, value in (("degree", n), ("provenance", provenance),
                            ("types", types), ("leaves", leaves),
                            ("coeffs", coeffs)):
            object.__setattr__(ident, name, value)
        return ident

    @staticmethod
    def _canonical(n: int, types, leaves, coeffs,
                   provenance: str) -> 'Identity':
        """_of_split with the terms sorted into canonical order."""
        order = np.lexsort((*leaves.T[::-1], types))
        return Identity._of_split(n, types[order], leaves[order],
                                  coeffs[order], provenance)

    def __getattr__(self, name):
        # only reached while terms is not yet in the instance dict
        if name != "terms":
            raise AttributeError(name)
        shapes = assoc_types(self.degree, 1)
        terms = tuple((c, with_leaves(shapes[i], perm)) for i, perm, c in zip(
            self.types.tolist(), (self.leaves + 1).tolist(),
            self.coeffs.tolist()))
        object.__setattr__(self, "terms", terms)
        return terms

    @staticmethod
    def from_poly(poly: dict, provenance: str, check: bool = True) -> 'Identity':
        """The identity of a polynomial {word: coeff} in canonical order,
        denominators cleared; ValueError unless every word is multilinear
        of one degree, and with check, InvariantViolation unless it
        expands to zero."""
        words = [w for w, c in poly.items() if c]
        if not words:
            raise ValueError("the zero polynomial is not an identity")
        n = degree(words[0])
        types, leaves = _split_words(words, n)
        coeffs = [Fraction(poly[w]) for w in words]
        den = math.lcm(*(c.denominator for c in coeffs))
        ident = Identity._canonical(
            n, types, leaves,
            coeff_array(n, types.tolist(), (int(c * den) for c in coeffs)),
            provenance)
        if check:
            ident.check_kernel_membership()
        return ident

    def poly(self) -> dict:
        return {w: c for c, w in self.terms}

    def check_kernel_membership(self) -> None:
        """Exact expansion; raises unless the result is zero.

        The split goes straight to expansion.split_normal_form: the cached
        image of each term's association type, relabeled by the term's
        leaves, summed with exact integer (or rational) coefficients.
        """
        n = self.degree
        if len(split_normal_form(n, self.types, self.leaves, self.coeffs,
                                 n)[2]):
            residue = poly_normal_form(self.poly())
            raise InvariantViolation(
                f"claimed identity does not expand to zero; "
                f"{len(residue)} residual terms, first "
                f"{format_word(next(iter(residue)))}")

    def vector(self, length: int, index) -> list:
        vec = [0] * length
        for c, w in self.terms:
            vec[index(w)] += c
        return vec

    def relabeled(self, perm) -> 'Identity':
        """The identity with leaf v renamed perm[v-1], in canonical order;
        ValueError unless perm is a permutation of 1..degree."""
        if sorted(perm) != list(range(1, self.degree + 1)):
            raise ValueError(f"{tuple(perm)} is not a permutation of "
                             f"1..{self.degree}")
        sigma = np.array(perm, dtype=np.int8) - 1
        return Identity._canonical(self.degree, self.types,
                                   sigma[self.leaves], self.coeffs,
                                   self.provenance)

    def __str__(self) -> str:
        bits = []
        for c, w in self.terms:
            sign = "- " if c < 0 else "+ "
            mag = coeff_str(Fraction(abs(c)))
            bits.append(sign + ("" if mag == "1" else mag) + format_word(w))
        return " ".join(bits)


def _split_words(words, n: int):
    """Association type indices (intp) and 0-based leaves (int8) of
    multilinear words of degree n, by classify; ValueError otherwise."""
    split = [classify(w, 1) for w in words]
    if any(len(perm) != n for _, perm in split):
        raise ValueError(f"terms not all of degree {n}")
    leaves = np.array([perm for _, perm in split], dtype=np.int8)
    return (np.array([i for i, _ in split], dtype=np.intp),
            leaves.reshape(len(split), n) - 1)


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


@cache
def _lift_maps(n: int):
    """Where lifting sends each association type of degree n, as type
    indices of degree n+1: sub[t, k] when the leaf at reading position k
    becomes the product of itself and a new last leaf, right[t] for t
    times a new leaf, left[t] for a new leaf times t.  Built from the
    type words once per degree."""
    index = assoc_type_index(n + 1, 1)
    labels = range(1, n + 2)

    def grow(word, k):
        if isinstance(word, int):
            return ('*', word, 0) if word == k else word
        return (word[0], grow(word[1], k), grow(word[2], k))

    types = assoc_types(n, 1)
    sub = [[index[with_leaves(grow(t, k), labels)] for k in range(1, n + 1)]
           for t in types]
    right = [index[mul(t, n + 1)] for t in types]
    left = [index[with_leaves(mul(0, t), labels)] for t in types]
    return (np.array(sub, dtype=np.intp), np.array(right, dtype=np.intp),
            np.array(left, dtype=np.intp))


def _liftings(idents: list[Identity]) -> list[Identity]:
    """The n+2 liftings of each of idents (all of degree n), in order.

    For a term with leaves L, the substitution x_v <- x_v * x_{n+1} sends
    type t to sub[t, k], k the position of v in L, and inserts the new
    label after position k; the multiplications by x_{n+1} use right and
    left and put the new label last or first.  Substitution sends
    distinct monomials to distinct monomials, so each lifting keeps its
    source's coefficients and term count; one lexsort puts the terms of
    every lifting in canonical order.
    """
    if not idents:
        return []
    n = idents[0].degree
    if any(f.degree != n for f in idents):
        raise ValueError("identities of mixed degree")
    sub, right, left = _lift_maps(n)
    sizes = [len(f.types) for f in idents]
    types = np.concatenate([f.types for f in idents])
    leaves = np.concatenate([f.leaves for f in idents])
    coeffs = np.concatenate([f.coeffs for f in idents])
    # at[v, k]: the position of label v in term k; substituting for v puts
    # the new label n right after it
    at = np.argsort(leaves, axis=1).T[:, :, None]
    j = np.arange(n + 1)
    grown = leaves[np.arange(len(types))[:, None], np.where(j <= at, j, j - 1)]
    grown[j == at + 1] = n
    new = np.full((len(types), 1), n, dtype=np.int8)
    # axis 0: which lifting; axis 1: which source term
    lifted_types = np.concatenate([sub[types, at[:, :, 0]],
                                   right[types][None], left[types][None]])
    lifted_leaves = np.concatenate([
        grown, np.concatenate([leaves, new], axis=1)[None],
        np.concatenate([new, leaves], axis=1)[None]]).reshape(-1, n + 1)
    # the index of each term's lifting in the output
    owner = (np.repeat(np.arange(len(idents)), sizes)[None] * (n + 2)
             + np.arange(n + 2)[:, None]).reshape(-1)
    order = np.lexsort((*lifted_leaves.T[::-1], lifted_types.reshape(-1),
                        owner))
    types, leaves = lifted_types.reshape(-1)[order], lifted_leaves[order]
    coeffs = np.tile(coeffs, n + 2)[order]
    sizes = np.repeat(sizes, n + 2)
    stops = np.cumsum(sizes)
    weight = type_images(n + 1, types).weight  # one batch for every lifting
    # coeff_array's bound, sum |c| * weight < 2**63, for every lifting at
    # once in float64: the m terms are nonnegative, so the estimate is
    # within a factor 1 + (m + 1) * 2**-53 of the sum, and one under
    # 2**62 proves the sum under 2**63.  The other liftings, and object
    # coefficients, take coeff_array's exact check
    small = np.zeros(len(sizes), dtype=bool)
    if coeffs.dtype != object:
        small = np.add.reduceat(np.abs(coeffs.astype(np.float64))
                                * weight[types], stops - sizes) < 2 ** 62
    out = []
    for start, stop, ok in zip((stops - sizes).tolist(), stops.tolist(),
                               small.tolist()):
        c = coeffs[start:stop]
        if not ok:
            c = coeff_array(n + 1, types[start:stop].tolist(), c.tolist())
        out.append(Identity._of_split(n + 1, types[start:stop],
                                      leaves[start:stop], c, "lifted"))
    return out


def lift(ident: Identity) -> list[Identity]:
    """The n+2 liftings of a degree-n identity to degree n+1.

    Order: substitutions x_1 <- x_1 * x_{n+1} through x_n <- x_n * x_{n+1},
    then the identity times x_{n+1}, then x_{n+1} times the identity.
    Each lifting keeps the term count of the original because every
    substitution sends distinct monomials to distinct monomials.
    """
    return _liftings([ident])


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
        current = _liftings(current)
    if verify:
        for f in current:
            f.check_kernel_membership()
    return current


# ------------------------------------------------- per-partition matrices


def identity_block(ident: Identity, lam, rho: RhoCache, t: int) -> np.ndarray:
    """Block row of an identity: one raw d x d block per association type,
    shape (d, t*d).

    Blocks are sums of A-matrices without the change of basis, which
    multiplies the whole block row by an invertible matrix on the left
    and so changes neither its row space nor any rank computed from it.
    They are unreduced integer arrays over either field, from
    RhoCache.raw_of_elements; the echelon state reduces them.
    """
    return _block_rows([ident], rho, t)


def _block_rows(idents, rho: RhoCache, t: int, dtype=None) -> np.ndarray:
    """The block rows of idents stacked, shape (len(idents)*d, t*d), from
    one RhoCache.raw_of_elements call on their splits that lays them out
    in place, t blocks to a block row: type i of identity b is element
    b*t + i.

    With dtype None they are unreduced integers in the dtype of the
    coefficients.  A float dtype (an echelon state's row_dtype) is used
    when every (identity, type) element has sum |c| <= 2**m, m its
    significand, which holds every entry exactly (symrep.sum_dtype; at
    degree 7 the largest sum is 12); past that the rows are integers.
    """
    return rho.raw_of_elements(
        np.concatenate([f.types + b * t for b, f in enumerate(idents)]),
        len(idents) * t, np.concatenate([f.leaves for f in idents]),
        np.concatenate([f.coeffs for f in idents]), dtype, t)


def relabeling_classes(idents) -> np.ndarray:
    """For each identity (all of one degree n), the index of the first
    identity in input order of its relabeling class: f and g share a
    class exactly when g = c * sigma f for a relabeling sigma and a
    number c != 0.  An identity left unkeyed (see below) is a class of
    its own.

    The class key of f: each term (type, leaves L, coeff) has the code
    type * n**n + L read as a base-n number.  The candidates are the
    terms of f's smallest type index.  For a candidate with leaves L_k,
    f_k is f relabeled by L_k**-1 (the candidate becomes (type,
    identity)), its terms sorted by code, its coefficients divided by
    their gcd and multiplied by the sign of the first.  The key is the
    lexicographically least of the candidates' rows (codes of f_k,
    coefficients of f_k), and a class is a run of equal keys.

    Proof.  Relabeling by sigma sends (type, L, c) to (type, sigma L, c),
    so g = c * sigma f has the same types as f, and its candidate for
    f's candidate k is g's term with leaves sigma L_k; relabeling g by
    (sigma L_k)**-1 gives c * L_k**-1 f = c * f_k.  Dividing by the gcd
    and fixing the sign of the first term maps f_k and c * f_k to the
    same primitive integer row, so g has the same candidate rows as f
    and the same least one.  Conversely, equal keys mean f_k = c' g_j as
    sums of terms for some candidates k, j and a rational c' != 0, so
    g = (1/c') (M_j L_k**-1) f with M_j the leaves of g's candidate j.
    Only this second direction is needed to skip an identity, and it
    holds whatever the order of equal codes.

    Every code is below t * n**n (t association types), so keys are
    formed in int64 only while t * n**n < 2**63, which holds through
    degree 12.  Past it, and for identities with object coefficients
    (past the int64 bound of coeff_array), identities are unkeyed.
    """
    idents = list(idents)
    lead = np.arange(len(idents))
    keyed = np.array([i for i, f in enumerate(idents)
                      if f.coeffs.dtype != object], dtype=np.intp)
    if not len(keyed):
        return lead
    n = idents[0].degree
    if any(f.degree != n for f in idents):
        raise ValueError("identities of mixed degree")
    # t is the Catalan number C(n-1), without building the types
    if math.comb(2 * n - 2, n - 1) // n * n ** n >= 2 ** 63:
        return lead
    sizes = np.array([len(idents[i].types) for i in keyed])
    starts = np.cumsum(sizes) - sizes
    types = np.concatenate([idents[i].types for i in keyed])
    leaves = np.concatenate([idents[i].leaves for i in keyed])
    coeffs = np.concatenate([idents[i].coeffs for i in keyed])
    owner = np.repeat(np.arange(len(keyed)), sizes)
    cand = np.flatnonzero(types == np.minimum.reduceat(types, starts)[owner])
    # inv[k] is the inverse of candidate k's leaf order
    inv = np.empty((len(cand), n), np.int8)
    inv[np.arange(len(cand))[:, None], leaves[cand]] = np.arange(n)
    # every term of every candidate's identity, candidate by candidate
    csize = sizes[owner[cand]]
    first = np.cumsum(csize) - csize
    seg = np.repeat(np.arange(len(cand)), csize)
    term = np.arange(len(seg)) + np.repeat(starts[owner[cand]] - first, csize)
    codes = types[term] * n ** n + inv[seg[:, None], leaves[term]].astype(
        np.int64) @ n ** np.arange(n - 1, -1, -1)
    order = np.lexsort((codes, seg))
    codes, vals = codes[order], coeffs[term[order]]
    vals //= np.repeat(np.gcd.reduceat(np.abs(coeffs), starts)[owner[cand]]
                       * np.sign(vals[first]), csize)
    for m in sorted(set(sizes.tolist())):
        # the rows of the candidates of the identities with m terms
        at = np.flatnonzero(csize == m)
        own = owner[cand[at]]
        at = first[at, None] + np.arange(m)
        rows = np.concatenate((codes[at], vals[at]), axis=1)
        # the least row of each identity: rows sorted by identity, then row
        order = np.lexsort((*rows.T[::-1], own))
        order = order[np.diff(own[order], prepend=-1) != 0]
        rows, who = rows[order], keyed[own[order]]
        # equal keys side by side, each run in input order
        order = np.lexsort((who, *rows.T[::-1]))
        new = np.concatenate(
            ([True], (rows[order[1:]] != rows[order[:-1]]).any(axis=1)))
        run = np.maximum.accumulate(np.where(new, np.arange(len(order)), 0))
        lead[who[order]] = who[order[run]]
    return lead


def _fed(idents) -> list[bool]:
    """Per identity whether it is the first of its relabeling class
    (relabeling_classes) in input order; unkeyed identities are all
    fed."""
    lead = relabeling_classes(idents)
    return (lead == np.arange(len(lead))).tolist()


def _feed_identities(state, n: int, rho: RhoCache, idents) -> list[bool]:
    """Feed the blocks of idents into state, whole blocks batched into few
    add_rows calls; returns per identity whether its block raised the rank.

    Only the first identity of each relabeling class is fed; the flag of
    every other one is False.  g = c * sigma f has the raw block row of f
    times the invertible matrix A(id) rho(sigma) A(id)**-1 on the left,
    so g spans the rows of f and never raises the rank after it: rank
    and flags are those of feeding every identity.  A row raises the
    rank exactly when it is independent of every row fed before it, so
    batching changes neither the rank nor the flags either.

    A call takes state.batch_rows(d) // d blocks of d rows.  In
    ModularEchelon that batch holds at most the bytes of the store at
    full rank, and so do its product and, once batches reach 128 rows,
    the store chunk add_rows converts: the call holds at most about four
    times the full-rank store, and at most three block-sized float
    arrays beside the store (ModularEchelon docstring).
    """
    t = len(assoc_types(n, 1))
    d = rho.dim
    per_call = state.batch_rows(d) // d
    idents = list(idents)
    if any(ident.degree != n for ident in idents):
        raise ValueError("identity of the wrong degree")
    fed = _fed(idents)
    batch = [f for f, feed in zip(idents, fed) if feed]
    raised = []
    for start in range(0, len(batch), per_call):
        # built in the state's row dtype, which add_rows reduces in place
        flags = state.add_rows(
            _block_rows(batch[start:start + per_call], rho, t,
                        state.row_dtype))
        raised.extend(any(flags[k:k + d]) for k in range(0, len(flags), d))
    raised = iter(raised)
    return [feed and next(raised) for feed in fed]


def lifted_rank(n: int, lam, liftings, field='Q',
                rho: RhoCache | None = None, certify: bool = False):
    """(rank, grew): rank of the stacked lifted-identity blocks, fed by
    _feed_identities: one lifting per relabeling class (152 of the 672
    at degree 7), one batch of whole blocks at a time.

    grew tells, per identity, whether its block increased the rank
    (False for every lifting not fed, as it would be if it were); the
    union of those flags across partitions drives pruning.

    With certify a third element W holds CERTIFICATE_VECTORS random
    vectors orthogonal to every lifted row in kernel coordinates (L',
    see kernel_rank): each is a random kernel vector w0 of the stored
    rows, L w0 = 0, with each type block multiplied by A(id), so that
    L' w = L diag(A(id)**-1) diag(A(id)) w0 = 0.  They are formed while
    the echelon state is alive and cost a product with it; kernel_rank
    takes (rank, W) as its lifted argument.
    """
    if rho is None:
        rho = RhoCache(lam, field)
    t = len(assoc_types(n, 1))
    state = echelon_state(t * rho.dim, field, reduced=False)
    grew = _feed_identities(state, n, rho, liftings)
    if not certify:
        return state.rank, grew
    W = state.random_kernel_vectors(CERTIFICATE_VECTORS, random.Random())
    W = W.reshape(len(W), t, rho.dim) @ rho.a_id.T.astype(W.dtype)
    if field != 'Q':
        W %= int(field)
    return state.rank, grew, W.reshape(len(W), -1)


#: the D-types kernel_rank feeds first, as half-open runs of indices into
#: normal_dtypes(n): the union of the canonical rank profiles over F_101
#: (the D-types whose X^T rows raise the rank when every D-type is fed in
#: canonical order) of 7, 1111111, 52, 43, 2221, 22111, 511 and 31111 at
#: degree 7, which equals the union over all 15 partitions, and of 8, 71,
#: 2111111 and 11111111 at degree 8; tests/helpers.prefix_runs derives
#: both.  118 of 429 and 320 of 1,430 D-types
KERNEL_PREFIX = {
    7: ((0, 64), (76, 83), (84, 88), (94, 96), (100, 104), (112, 121),
        (122, 123), (124, 125), (126, 128), (131, 135), (139, 140),
        (150, 152), (168, 175), (176, 179), (192, 193), (196, 199),
        (264, 265), (268, 269), (308, 309)),
    8: ((0, 128), (152, 167), (168, 176), (188, 192), (200, 208), (224, 247),
        (248, 251), (252, 256), (262, 272), (278, 280), (300, 304),
        (310, 312), (336, 359), (360, 361), (362, 363), (364, 365),
        (366, 368), (374, 377), (378, 379), (380, 381), (383, 389),
        (391, 399), (402, 403), (406, 408), (411, 412), (432, 435),
        (439, 441), (442, 443), (474, 476), (478, 480), (482, 484),
        (528, 543), (544, 551), (552, 553), (554, 555), (556, 557),
        (578, 580), (586, 587), (594, 595), (602, 603), (612, 619),
        (669, 670), (861, 863), (866, 868), (869, 870), (990, 991),
        (992, 993), (994, 995)),
}


def _kernel_order(n: int, s: int) -> list[np.ndarray]:
    """The parts of the s degree-n D-types that kernel_rank feeds in
    turn: KERNEL_PREFIX[n], then the other D-types in canonical order, or
    every D-type in canonical order where no prefix is pinned."""
    if n not in KERNEL_PREFIX:
        return [np.arange(s)]
    first = np.concatenate([np.arange(a, b) for a, b in KERNEL_PREFIX[n]])
    # a mask, not np.setdiff1d, which imports numpy.ma
    rest = np.ones(s, dtype=bool)
    rest[first] = False
    return [first, np.flatnonzero(rest)]


#: random vectors on each side of the kernel_rank certificate; a wrong
#: stop passes it with probability below 2 / p**3
CERTIFICATE_VECTORS = 3


def kernel_rank(n: int, lam, field='Q', table=None,
                rho: RhoCache | None = None, keep_state: bool = False,
                lifted=None):
    """(rank, nullity) of the transposed block matrix for one partition.

    nullity counts irreducible summands of the identity space: the block
    matrix has t*d columns and its left null vectors are the identities.
    With keep_state the echelon state comes back as a third element so
    the nullspace can be extracted; every row is fed.

    lifted = (r_L, W) from lifted_rank(..., certify=True) lets the feed
    stop early; then the D-types fed, the add_rows calls made and the
    rows of one call (the state's batch_rows(d)) come back after rank
    and nullity.  Write
    L' for the lifted rows with each type block times A(id)**-1, the
    coordinates of X^T's kernel (new_identity_vectors converts back):
    rank L' = r_L, and L' lies in ker(X^T) when the liftings are
    identities, so that rank(X^T) <= t*d - r_L.  After each batch the
    rank r of the rows fed so far is compared with t*d - r_L:

    * r > t*d - r_L raises InvariantViolation: ker(X^T) is smaller than
      span(L'), so a lifting is no identity (or r_L is wrong);
    * r = t*d - r_L stops the feed after a check.  K, the kernel of the
      rows fed, has dimension r_L.  The check draws k = len(W) uniform
      vectors z of K from the echelon state and needs w . z = 0 for
      every w of W, which are uniform in the annihilator of span(L').
      If K is not inside span(L'), all k vectors z lie in span(L') with
      probability at most p**-k, and a z outside it is orthogonal to
      all k vectors w with probability p**-k: the check passes with
      probability below 2/p**k (2/N**k over Q, entries drawn from N
      integers).  Passing shows K inside span(L'), so K = span(L') by
      dimension, and ker(X^T), inside K, is inside span(L'): every
      identity of this component is a combination of lifted ones, so
      new = 0 is proven whether or not the liftings are identities.
      As they are, span(L') lies in ker(X^T) too, so ker(X^T) = K and
      rank and nullity are those of the full feed.

    The stop is exact in any order of D-types; the order only sets how
    soon it comes.  While new > 0 the rank stays below t*d - r_L and
    every row is fed.  The D-types come in batches of
    state.batch_rows(d) // d, in the order of _kernel_order: at degrees
    7 and 8 the pinned prefix KERNEL_PREFIX[n] first, its last batch
    ending at the prefix's end, then the others in canonical order;
    elsewhere canonical order.  Every D-type is fed once before the rank
    is read unstopped, the rank of a set of rows does not depend on their
    order, and the stop and the certificate hold in any order, so the
    prefix sets only the time: a wrong, scrambled or truncated prefix, or one
    learned mod 101 and used over Q or at another prime, gives the same
    rank, nullity and checks, and moves only the batch at which the
    feed stops.  At degree 7 every partition reaches t*d - r_L at the
    prefix's end (118 of 429 D-types).
    """
    field = check_field(field)
    if keep_state and lifted is not None:
        raise ValueError("keep_state feeds every row; lifted stops early")
    if rho is None:
        rho = RhoCache(lam, field)
    t = len(assoc_types(n, 1))
    d = rho.dim
    if table is None:
        table = expansion_arrays(n)
    state = echelon_state(t * d, field, reduced=keep_state)
    bound = None if lifted is None else t * d - lifted[0]
    fed = calls = 0
    for batch in chain.from_iterable(xblock_transpose_rows(
            n, lam, field, chunk=state.batch_rows(d) // d, table=table,
            rho=rho, dtype=state.row_dtype, order=part)
            for part in _kernel_order(n, len(table.offsets) - 1)):
        state.add_rows(batch)
        fed += len(batch) // d
        calls += 1
        del batch  # freed before the next batch is built
        if bound is not None and state.rank >= bound:
            break
    rank = state.rank
    if keep_state:
        return rank, t * d - rank, state
    if bound is None:
        return rank, t * d - rank
    where = f"for partition {format_partition(lam)} after {fed} D-types"
    blame = "some lifting is not an identity or r_L is not its rank"
    if rank > bound:
        raise InvariantViolation(
            f"X^T rank {rank} exceeds t*d - lifted rank = {bound} {where}:"
            f" {blame}")
    if rank == bound:
        W = lifted[1]
        Z = state.random_kernel_vectors(len(W), random.Random())
        # exact in int64: ModularEchelon needs ncols*(p-1)**2 + p <= 2**53
        pairs = W @ Z.T
        if field != 'Q':
            pairs %= int(field)
        if np.count_nonzero(pairs):
            raise InvariantViolation(
                f"the kernel of the X^T rows fed is not the lifted span "
                f"{where}: {blame}")
    return rank, t * d - rank, fed, calls, state.batch_rows(d)


def new_identity_vectors(n: int, lam, liftings, field='Q',
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
    _feed_identities(state, n, rho, liftings)
    lifted_pivots = set(state.rcf()[1].tolist())

    _, _, xstate = kernel_rank(n, lam, field, table, rho, keep_state=True)
    N = np.asarray(xstate.nullspace_basis())
    state.add_rows((N.reshape(-1, t, d) @ rho.a_id).reshape(-1, t * d))
    final, pivs = state.rcf()
    return [row for row, pc in zip(final.tolist(), pivs.tolist())
            if pc not in lifted_pivots]


# -------------------------------------------------------------- reporting


@dataclass(frozen=True)
class ReportConfig:
    degree: int
    field: str = "auto"          # "Q", "F" or "auto": Q through degree 5
    prime: int = 101
    partitions: tuple | None = None
    #: degree 8 only: lift just the degree-7 identities that grew a rank
    prune: bool = True
    allow_large: bool = False
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
    #: seconds of the lifted and the kernel rank, and the peak RSS of the
    #: process in MiB after the lifted rank and after both; None for a
    #: skipped row
    lifted_s: float | None = None
    kernel_s: float | None = None
    lifted_peak_rss_mib: float | None = None
    peak_rss_mib: float | None = None
    #: the D-types whose X^T rows the kernel rank fed before it stopped
    #: (all s when it did not stop); None for a skipped row
    kernel_dtypes_fed: int | None = None
    #: rows of one add_rows call (the echelon state's batch_rows(d)) and
    #: the calls of the lifted and the kernel rank; None for a skipped row
    batch_rows: int | None = None
    lifted_calls: int | None = None
    kernel_calls: int | None = None


#: PartitionRow fields a JSON row carries as they are, after "new"
_MEASURED = ("lifted_s", "kernel_s", "lifted_peak_rss_mib", "peak_rss_mib",
             "kernel_dtypes_fed", "batch_rows", "lifted_calls", "kernel_calls")
#: PartitionRow fields of a CSV row, after the partition
_CSV = ("d", "lifted_rows", "lifted_cols", "lifted_rank", "all_rows",
        "all_cols", "all_rank", "nullity", "new", "skipped",
        "kernel_dtypes_fed", "lifted_peak_rss_mib", *_MEASURED[5:])


@dataclass
class DegreeReport:
    degree: int
    field: str
    prime: int | None
    lifting_count: int
    retained: tuple = ()
    rows: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "degree": self.degree,
            "field": self.field,
            "prime": self.prime,
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
                   "new": r.new, **{k: getattr(r, k) for k in _MEASURED}}
            if r.new_vectors is not None:
                row["new_vectors"] = [[str(e) for e in v]
                                      for v in r.new_vectors]
            out["rows"].append(row)
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["partition", *_CSV])
        for r in self.rows:
            w.writerow([format_partition(r.partition), *(
                int(v) if isinstance(v, bool) else v
                for v in (getattr(r, k) for k in _CSV))])
        return buf.getvalue()

    def to_text(self) -> str:
        head = (f"degree {self.degree}  field "
                f"{self.field if self.field == 'Q' else 'F_%d' % self.prime}"
                f"  liftings {self.lifting_count}"
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
    """2*(t*d)**2, the size class MEMORY_BUDGET gates (see there)."""
    t = len(assoc_types(n, 1))
    return 2 * (t * d) * (t * d)


def _grew_somewhere(grews) -> list[int]:
    """Indices of the identities whose block raised the lifted rank for at
    least one partition, from one grew list per partition."""
    return [i for i, flags in enumerate(zip(*grews)) if any(flags)]


def _retained_indices(k: int, lifts, config: 'ReportConfig') -> list[int]:
    field = 'Q' if k <= 5 else config.prime
    return _grew_somewhere(lifted_rank(k, lam, lifts, field)[1]
                           for lam in partitions(k))


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
    field = check_field(config.resolved_field())
    table = expansion_arrays(n)
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
        lifting_count=len(liftings))
    # lifted_rank feeds the first lifting of each relabeling class and
    # no other (_feed_identities), so the classes are found once here
    # and it is given those; grews index into them, retained into
    # liftings
    leads = np.flatnonzero(_fed(liftings))
    fed = [liftings[i] for i in leads]
    grews = []
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
        start = time.perf_counter()
        rho = RhoCache(lam, field)
        lrank, grew, orth = lifted_rank(n, lam, fed, field, rho,
                                        certify=True)
        lifted_s = time.perf_counter() - start
        lifted_peak = _peak_rss_mib()
        grews.append(grew)
        xrank, nullity, fed_dtypes, kernel_calls, batch_rows = kernel_rank(
            n, lam, field, table, rho, lifted=(lrank, orth))
        kernel_s = time.perf_counter() - start - lifted_s
        # _feed_identities feeds batch_rows // d liftings a call
        lifted_calls = -(-len(fed) // (batch_rows // d))
        new = nullity - lrank
        vectors = None
        if config.emit_new and new > 0:
            vectors = new_identity_vectors(n, lam, liftings, field, table)
            if len(vectors) != new:
                raise InvariantViolation(
                    f"extracted {len(vectors)} new identity vectors, "
                    f"expected {new}")
        peak = _peak_rss_mib()
        report.rows.append(PartitionRow(
            partition=lam, d=d, lifted_rows=len(liftings) * d,
            lifted_cols=t * d, lifted_rank=lrank, all_rows=s * d,
            all_cols=t * d, all_rank=xrank, nullity=nullity, new=new,
            new_vectors=vectors, lifted_s=lifted_s, kernel_s=kernel_s,
            lifted_peak_rss_mib=lifted_peak, peak_rss_mib=peak,
            kernel_dtypes_fed=fed_dtypes, batch_rows=batch_rows,
            lifted_calls=lifted_calls, kernel_calls=kernel_calls))
        if progress:
            progress(f"partition {format_partition(lam)} (d={d}): done in "
                     f"{time.perf_counter() - start:.2f} s (lifted rank "
                     f"{lifted_s:.2f} s, kernel rank {kernel_s:.2f} s), "
                     f"lifted rank {lrank}, fed {len(fed)} of {len(liftings)}"
                     f" liftings in {lifted_calls} calls, X^T rank {xrank}, "
                     f"X^T fed {fed_dtypes} of {s} D-types in {kernel_calls} "
                     f"calls, at most {batch_rows} rows a call"
                     + ("" if peak is None else
                        f", peak RSS {peak:.0f} MiB ({lifted_peak:.0f} MiB "
                        f"after the lifted rank)"))
    report.retained = tuple(leads[_grew_somewhere(grews)].tolist())
    return report


def _peak_rss_mib() -> float | None:
    """Peak resident memory of this process so far in MiB, or None where
    the resource module is missing (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB on Linux and the BSDs
    return peak / 2 ** (20 if sys.platform == 'darwin' else 10)


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
        state.add_rows([ident.relabeled(sigma).vector(width, index)
                        for sigma in all_perms(n)])
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
            _feed_identities(state, n, rho, first)
            ranks[f"rank_{key}"] = state.rank
            _feed_identities(state, n, rho, second)
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
    form): a Z-basis of the integer identities, unique only up to
    GL_k(Z) since E is rank-deficient, so their lengths depend on the
    elimination's pivot path; 'lll' lattice-reduces that basis; 'rcf'
    takes the canonical rational nullspace scaled to integers.  Every
    returned row is admitted as an Identity through the expansion gate.
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
            "terms": [[c, i, perm] for c, i, perm in zip(
                f.coeffs.tolist(), f.types.tolist(),
                (f.leaves + 1).tolist())]})
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
