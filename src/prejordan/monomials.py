"""Multilinear words in free binary algebras.

A word is a nested tuple: a leaf is a positive int (the variable index, so
``3`` stands for x3) and an internal node is ``(op, left, right)`` where op
is ``'*'`` for the single product or ``'<'``, ``'>'`` for the two dendriform
operations.  A word of degree n is multilinear when its leaf labels, read
left to right, are a permutation of 1..n; that leaf sequence is the one-line
notation of the permutation attached to the word's association type.

Association types of each degree are enumerated once in a fixed canonical
order and all matrix row/column indexing downstream relies on it:

* one operation: sort by degree of the left subtree, largest first, then
  recursively by the left subtree, then by the right subtree;
* two operations: enumerate the one-operation shapes in the order above and,
  within a shape, enumerate operation labelings with the left subtree's
  labels varying slowest, then the right subtree's, then the root operation
  (``<`` before ``>``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Iterator, Union

Word = Union[int, tuple]

ONE_OP = ('*',)
TWO_OPS = ('<', '>')

MAX_TYPE_DEGREE = 10
MAX_BASIS_DEGREE = 8


def degree(word: Word) -> int:
    if isinstance(word, int):
        return 1
    return degree(word[1]) + degree(word[2])


def leaves(word: Word) -> tuple[int, ...]:
    """Leaf labels left to right; for a multilinear word, its permutation."""
    if isinstance(word, int):
        return (word,)
    return leaves(word[1]) + leaves(word[2])


def relabel(word: Word, perm: tuple[int, ...]) -> Word:
    """Apply a permutation to variables: leaf v becomes perm[v-1]."""
    if isinstance(word, int):
        return perm[word - 1]
    return (word[0], relabel(word[1], perm), relabel(word[2], perm))


def with_leaves(word: Word, labels) -> Word:
    """Rebuild word with the given labels placed on leaves left to right."""
    it = iter(labels)

    def go(w):
        if isinstance(w, int):
            return next(it)
        return (w[0], go(w[1]), go(w[2]))

    out = go(word)
    if next(it, None) is not None:
        raise ValueError("too many labels for word")
    return out


def shape(word: Word) -> Word:
    """The association type of a word: same tree, leaves relabeled 1,2,..."""
    return split(word)[0]


def split(word: Word) -> tuple[Word, tuple[int, ...]]:
    """(shape(word), leaves(word)) from one walk of the word."""
    labels: list[int] = []

    def go(w):
        if isinstance(w, int):
            labels.append(w)
            return len(labels)
        return (w[0], go(w[1]), go(w[2]))

    return go(word), tuple(labels)


# permutations are tuples in one-line notation with 1-based values


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(k) = p(q(k))."""
    return tuple(p[q[k] - 1] for k in range(len(q)))


def all_perms(n: int) -> list[tuple[int, ...]]:
    """All of S_n in lexicographic order of one-line notation."""
    return list(itertools.permutations(range(1, n + 1)))


@cache
def perm_index(n: int) -> dict[tuple[int, ...], int]:
    return {p: k for k, p in enumerate(all_perms(n))}


def _shapes(n: int) -> Iterator[Word]:
    # plain binary trees carrying op '*', leaves unlabeled (0 placeholder)
    if n == 1:
        yield 0
        return
    for left_deg in range(n - 1, 0, -1):
        for left in _shapes(left_deg):
            for right in _shapes(n - left_deg):
                yield ('*', left, right)


def _labelings(shape_word: Word) -> Iterator[Word]:
    if isinstance(shape_word, int):
        yield shape_word
        return
    for left in _labelings(shape_word[1]):
        for right in _labelings(shape_word[2]):
            for op in TWO_OPS:
                yield (op, left, right)


@cache
def assoc_types(n: int, ops: int = 1) -> tuple[Word, ...]:
    """Association types of degree n in canonical order, leaves labeled 1..n.

    ops=1 gives plain binary products, ops=2 gives all words in the two
    dendriform operations (normal or not).
    """
    if not 1 <= n <= MAX_TYPE_DEGREE:
        raise ValueError(f"degree {n} out of supported range 1..{MAX_TYPE_DEGREE}")
    if ops == 1:
        out = [with_leaves(s, range(1, n + 1)) if not isinstance(s, int) else 1
               for s in _shapes(n)]
    elif ops == 2:
        out = []
        for s in _shapes(n):
            for lab in _labelings(s):
                out.append(with_leaves(lab, range(1, n + 1)) if not isinstance(lab, int) else 1)
    else:
        raise ValueError("ops must be 1 or 2")
    return tuple(out)


@cache
def assoc_type_index(n: int, ops: int = 1) -> dict[Word, int]:
    return {t: k for k, t in enumerate(assoc_types(n, ops))}


def classify(word: Word, ops: int = 1) -> tuple[int, tuple[int, ...]]:
    """Split a multilinear word into (association type index, permutation);
    ValueError unless its leaves are a permutation of 1..n."""
    s, perm = split(word)
    idx = assoc_type_index(len(perm), ops).get(s)
    if idx is None:
        raise ValueError(f"word not an association type of its degree: {word!r}")
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"word is not multilinear: {format_word(word)}")
    return idx, perm


def multilinear_basis(n: int, ops: int = 1) -> list[Word]:
    """All multilinear words of degree n: types in canonical order, and
    within a type the permutations in lexicographic order."""
    if not 1 <= n <= MAX_BASIS_DEGREE:
        raise ValueError(f"degree {n} out of supported range 1..{MAX_BASIS_DEGREE}")
    return [with_leaves(t, p) for t in assoc_types(n, ops)
            for p in itertools.permutations(range(1, n + 1))]


def basis_index(n: int, ops: int = 1):
    """Index of a multilinear word in multilinear_basis(n, ops) without
    materializing the basis."""
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    pidx = perm_index(n)
    tidx = assoc_type_index(n, ops)

    def go(word: Word) -> int:
        s, perm = split(word)
        return tidx[s] * fact + pidx[perm]

    return go


def format_word(word: Word) -> str:
    """Render a word in the fully parenthesized text format, e.g.
    ``((x1*x2)*x3)`` or ``(x1>(x2<x3))``."""
    if isinstance(word, int):
        return f"x{word}"
    return f"({format_word(word[1])}{word[0]}{format_word(word[2])})"


def parse_word(text: str) -> Word:
    """Inverse of format_word.  Requires full parenthesization; spaces are
    ignored."""
    s = text.replace(" ", "")
    pos = 0

    def fail(msg):
        raise ValueError(f"bad word {text!r} at position {pos}: {msg}")

    def term():
        nonlocal pos
        if pos >= len(s):
            fail("unexpected end")
        if s[pos] == 'x':
            pos += 1
            start = pos
            while pos < len(s) and s[pos].isdigit():
                pos += 1
            if start == pos:
                fail("variable index expected")
            return int(s[start:pos])
        if s[pos] != '(':
            fail("expected 'x' or '('")
        pos += 1
        left = term()
        if pos >= len(s) or s[pos] not in '*<>':
            fail("operation expected")
        op = s[pos]
        pos += 1
        right = term()
        if pos >= len(s) or s[pos] != ')':
            fail("expected ')'")
        pos += 1
        return (op, left, right)

    out = term()
    if pos != len(s):
        fail("trailing input")
    return out


def coeff_str(c: Fraction) -> str:
    """Exact decimal-free rendering of a rational, 'p' or 'p/q'."""
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
