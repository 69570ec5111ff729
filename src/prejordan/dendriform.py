"""Free dendriform algebra on multilinear words: normal forms and rewriting.

Words use the tuple encoding of :mod:`prejordan.monomials` with the two
operations ``'<'`` and ``'>'``.  A word is normal when it matches the grammar

    u ::= x  |  x < u  |  x > u  |  (x > u) > u          (x a variable)

Every word is a linear combination of normal words modulo the defining
relations of a dendriform algebra; ``dnormalize`` computes that combination
by orienting the relations into rewrite rules and applying them to
completion.  The four rules, written on root patterns with arbitrary
subwords x, y, z, v, are

    (x > y) < z  ->  x > (y < z)
    (x < y) < z  ->  x < (y < z) + x < (y > z)
    (x < y) > z  ->  - (x > y) > z + x > (y > z)
    ((x > y) > z) > v  ->  (x > y) > (z > v) - (x > (y < z)) > v

The system is terminating and confluent, so the normal form does not depend
on the order rules are applied in; ``rewrite_random_strategy`` applies them
at randomly chosen positions and exists so tests can witness that claim.

Applied at the root of a product of two normal words, the rules leave
products of smaller normal words, with N the normal form:

    x op v                   normal
    (x < u1) < v           = x < N(u1 < v) + x < N(u1 > v)
    (x > u1) < v           = x > N(u1 < v)
    ((x > u1) > u2) < v    = (x > u1) > N(u2 < v)
    (x < u1) > v           = -(x > u1) > v + x > N(u1 > v)
    (x > u1) > v           normal
    ((x > u1) > u2) > v    = (x > u1) > N(u2 > v)
                             - sum over terms s of N(u1 < u2) of (x > s) > v

The expansion gate and tables get every normal form they need from this
recursion, run on the indices of normal word types (``normal_parts``)
one level deg u + deg v at a time (``expansion._products``); it rewrites
no word, and ``dnormalize`` stays the definition the tests compare it
with.

A DPolynomial is a plain dict mapping words to nonzero Fraction
coefficients; the empty dict is zero.
"""

from __future__ import annotations

from functools import cache

from .monomials import MAX_BASIS_DEGREE, Word, relabel, split, with_leaves

DPoly = dict  # Word -> Fraction, zero coefficients never stored


def is_normal(word: Word) -> bool:
    if isinstance(word, int):
        return True
    op, left, right = word
    if op == '<':
        return isinstance(left, int) and is_normal(right)
    if isinstance(left, int):
        return is_normal(right)
    return (left[0] == '>' and isinstance(left[1], int)
            and is_normal(left[2]) and is_normal(right))


def root_reduction(word: Word):
    """Rewrite rule applicable at the root, or None.

    Returns a tuple of (sign, word) replacements.  Subwords are matched as
    they stand; redexes inside children are not this function's business.
    """
    if isinstance(word, int):
        return None
    op, left, right = word
    if isinstance(left, int):
        return None
    lop = left[0]
    if op == '<':
        x, y, z = left[1], left[2], right
        if lop == '>':
            return ((1, ('>', x, ('<', y, z))),)
        return ((1, ('<', x, ('<', y, z))), (1, ('<', x, ('>', y, z))))
    if lop == '<':
        x, y, z = left[1], left[2], right
        return ((-1, ('>', ('>', x, y), z)), (1, ('>', x, ('>', y, z))))
    ll = left[1]
    if not isinstance(ll, int) and ll[0] == '>':
        x, y, z, v = ll[1], ll[2], left[2], right
        return ((1, ('>', ll, ('>', z, v))), (-1, ('>', ('>', x, ('<', y, z)), v)))
    return None


_normal_cache: dict[Word, tuple] = {}


def normalize_word(word: Word):
    """Normal form of a single word as a tuple of (word, int coeff) terms.

    The rewrite rules never look at leaf labels, so normalization commutes
    with relabeling; results are computed and cached for the underlying
    shape and the labels are put back afterwards.
    """
    if isinstance(word, int):
        return ((word, 1),)
    s, lv = split(word)
    if lv == tuple(range(1, len(lv) + 1)):
        return _normalize_shape(word)
    return tuple((relabel(t, lv), c) for t, c in _normalize_shape(s))


def _normalize_shape(word: Word):
    hit = _normal_cache.get(word)
    if hit is not None:
        return hit
    op = word[0]
    acc: dict[Word, int] = {}
    for lt, lc in normalize_word(word[1]):
        for rt, rc in normalize_word(word[2]):
            c = lc * rc
            combined = (op, lt, rt)
            red = root_reduction(combined)
            if red is None:
                acc[combined] = acc.get(combined, 0) + c
            else:
                for sign, produced in red:
                    for t, c2 in normalize_word(produced):
                        acc[t] = acc.get(t, 0) + sign * c * c2
    out = tuple((t, c) for t, c in acc.items() if c)
    _normal_cache[word] = out
    return out


def dnormalize(poly: DPoly) -> DPoly:
    """Normal form of a polynomial, exact coefficients."""
    acc: DPoly = {}
    for word, coeff in poly.items():
        for t, c in normalize_word(word):
            v = acc.get(t, 0) + coeff * c
            if v:
                acc[t] = v
            else:
                acc.pop(t, None)
    return acc


def poly_add(target: DPoly, word: Word, coeff) -> None:
    v = target.get(word, 0) + coeff
    if v:
        target[word] = v
    else:
        target.pop(word, None)


def redex_paths(word: Word, _prefix=()) -> list[tuple[int, ...]]:
    """Positions (paths of 1=left, 2=right) where a rewrite rule applies."""
    if isinstance(word, int):
        return []
    out = [_prefix] if root_reduction(word) is not None else []
    out += redex_paths(word[1], _prefix + (1,))
    out += redex_paths(word[2], _prefix + (2,))
    return out


def replace_at(word: Word, path: tuple[int, ...], new: Word) -> Word:
    if not path:
        return new
    op, left, right = word
    if path[0] == 1:
        return (op, replace_at(left, path[1:], new), right)
    return (op, left, replace_at(right, path[1:], new))


def subword_at(word: Word, path: tuple[int, ...]) -> Word:
    for step in path:
        word = word[step]
    return word


def rewrite_random_strategy(poly: DPoly, rng) -> DPoly:
    """Normalize by applying rules at positions chosen by rng.

    Same result as dnormalize by confluence, reached the slow way.  rng is
    anything with a randrange method.
    """
    work: DPoly = {}
    for w, c in poly.items():
        poly_add(work, w, c)
    while True:
        candidates = []
        for w in work:
            paths = redex_paths(w)
            if paths:
                candidates.append((w, paths))
        if not candidates:
            return work
        w, paths = candidates[rng.randrange(len(candidates))]
        path = paths[rng.randrange(len(paths))]
        coeff = work.pop(w)
        for sign, produced in root_reduction(subword_at(w, path)):
            poly_add(work, replace_at(w, path, produced), sign * coeff)


@cache
def normal_parts(n: int) -> tuple:
    """How each normal word type of degree n is built, in canonical order.

    Type k is ('x', 0, 0, 0), the leaf, for n = 1; (op, n-1, w, 0) for
    x op w; and ('>>', d, u1, u2) for (x > u1) > u2 with deg u1 = d.  The
    children w, u1, u2 are indices into the types of their degree.  The
    order is x < v, x > v as v runs over the types of degree n-1, then
    (x > u1) > u2 with d increasing and u1, u2 each in canonical order,
    so a type's index is arithmetic in its children's.
    """
    if n == 1:
        return (('x', 0, 0, 0),)
    out = [(op, n - 1, w, 0) for w in range(len(normal_parts(n - 1)))
           for op in '<>']
    out += [('>>', d, u1, u2) for d in range(1, n - 1)
            for u1 in range(len(normal_parts(d)))
            for u2 in range(len(normal_parts(n - 1 - d)))]
    return tuple(out)


@cache
def normal_skeletons(n: int) -> tuple[Word, ...]:
    """The normal word types of degree n in canonical order, 0 on every
    leaf."""
    low = normal_skeletons
    return tuple(0 if kind == 'x' else
                 ('>', ('>', 0, low(d)[u1]), low(n - 1 - d)[u2])
                 if kind == '>>' else (kind, 0, low(d)[u1])
                 for kind, d, u1, u2 in normal_parts(n))


@cache
def normal_dtypes(n: int) -> tuple[Word, ...]:
    """Normal word types of degree n in canonical order (normal_parts),
    leaves 1..n."""
    if not 1 <= n <= MAX_BASIS_DEGREE:
        raise ValueError(f"degree {n} out of supported range 1..{MAX_BASIS_DEGREE}")
    return tuple(with_leaves(s, range(1, n + 1)) for s in normal_skeletons(n))
