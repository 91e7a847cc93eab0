"""
Permutations in one-line notation, pattern containment, and descent structure.

A permutation of length n is a tuple of the integers 1..n.  Positions and
values are both 1-based throughout, so the plot of ``pi`` is the point set
{(i, pi[i-1]) : i in 1..n}.  The empty tuple is the (unique) permutation of
length 0.

Text form: space-separated values ("3 2 1 5 6 4 7").  For n <= 9 a compact
digit string ("3215647") is also accepted.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidInput

Permutation = tuple[int, ...]


def normalize(seq: Sequence[int]) -> Permutation:
    """
    Order-isomorphic permutation of [n]: the i-th smallest entry becomes i.

    >>> normalize((3, 7, 5, 9))
    (1, 3, 2, 4)
    """
    if len(set(seq)) != len(seq):
        raise InvalidInput(f"entries are not distinct: {seq!r}")
    rank = {v: i for i, v in enumerate(sorted(seq), start=1)}
    return tuple(rank[v] for v in seq)


def is_permutation(seq: Sequence[int]) -> bool:
    return sorted(seq) == list(range(1, len(seq) + 1))


def check_permutation(seq: Sequence[int]) -> Permutation:
    """seq as a tuple, if it holds the ints 1..n (not bools or floats)."""
    try:
        pi = tuple(seq)
    except TypeError as exc:
        raise InvalidInput(f"not a permutation of [n]: {seq!r}") from exc
    if any(type(v) is not int for v in pi) or not is_permutation(pi):
        raise InvalidInput(f"not a permutation of [n]: {seq!r}")
    return pi


def parse_permutation(text: str) -> Permutation:
    """Parse space-separated one-line notation, or a digit string for n <= 9."""
    text = text.strip()
    try:
        entries = [int(tok) for tok in (text.split() if " " in text else text)]
    except ValueError as exc:
        raise InvalidInput(f"bad permutation text: {text!r}") from exc
    return check_permutation(entries)


def format_permutation(pi: Permutation) -> str:
    return " ".join(str(v) for v in pi)


@dataclass(frozen=True)
class DescentTable:
    """Descents of a permutation, in increasing position order.

    descents[j] is the (top_index, bottom_index) pair of the (j+1)-st descent;
    top_heights and bottom_heights are the corresponding values, and
    bottom_height_set is BH, the set of all descent-bottom values.
    """

    descents: tuple[tuple[int, int], ...]
    top_heights: tuple[int, ...]
    bottom_heights: tuple[int, ...]
    bottom_height_set: frozenset[int]


def descent_table(pi: Permutation) -> DescentTable:
    descents = tuple(
        (i, i + 1) for i in range(1, len(pi)) if pi[i - 1] > pi[i]
    )
    tops = tuple(pi[i - 1] for i, _ in descents)
    bottoms = tuple(pi[j - 1] for _, j in descents)
    return DescentTable(descents, tops, bottoms, frozenset(bottoms))


def left_to_right_maxima(pi: Permutation) -> set[int]:
    """Positions i such that pi[i-1] exceeds every earlier entry."""
    out: set[int] = set()
    best = 0
    for i, v in enumerate(pi, start=1):
        if v > best:
            out.add(i)
            best = v
    return out


def contains_pattern(pi: Permutation, sigma: Permutation) -> bool:
    """
    True iff some subsequence of pi is order-isomorphic to sigma.

    Backtracking over positions, pruning with the relative-order constraints
    of the prefix chosen so far.

    >>> contains_pattern((3, 4, 1, 5, 2), (3, 1, 2))
    True
    >>> contains_pattern((2, 1, 3, 5, 6, 4, 7), (3, 1, 2))
    False
    """
    k = len(sigma)
    if k == 0:
        return True
    n = len(pi)
    if k > n:
        return False

    def extend(chosen: list[int], start: int) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for pos in range(start, n - (k - j) + 1):
            v = pi[pos]
            ok = all(
                (v > w) == (sigma[j] > sigma[t])
                for t, w in enumerate(chosen)
            )
            if ok:
                chosen.append(v)
                if extend(chosen, pos + 1):
                    return True
                chosen.pop()
        return False

    return extend([], 0)


def avoids(pi: Permutation, sigma: Permutation) -> bool:
    return not contains_pattern(pi, sigma)


def avoids_312(pi: Permutation) -> bool:
    """
    Linear-time 312-avoidance test.

    pi avoids 312 iff its inverse avoids 231, i.e. iff the inverse is
    stack-sortable (Knuth), so we run one pass of stack sorting on the
    inverse and check that it comes out sorted.

    >>> avoids_312((3, 4, 1, 5, 2))
    False
    >>> avoids_312((2, 1, 3, 5, 6, 4, 7))
    True
    """
    n = len(pi)
    inv = [0] * n
    for i, v in enumerate(pi, start=1):
        inv[v - 1] = i
    stack: list[int] = []
    expect = 1
    for v in inv:
        while stack and stack[-1] < v:
            if stack.pop() != expect:
                return False
            expect += 1
        stack.append(v)
    while stack:
        if stack.pop() != expect:
            return False
        expect += 1
    return True


def enumerate_av312(n: int) -> Iterator[Permutation]:
    """
    All 312-avoiding permutations of [n], in lexicographic one-line order.

    Builds prefixes left to right; a value c may extend a prefix unless it
    would play the "2" of a 312, i.e. unless some earlier entry b < c has a
    still-earlier entry a > c.  |result| is the n-th Catalan number.

    >>> [format_permutation(p) for p in enumerate_av312(3)]
    ['1 2 3', '1 3 2', '2 1 3', '2 3 1', '3 2 1']
    """
    if n < 0:
        raise InvalidInput("n must be nonnegative")

    prefix: list[int] = []
    prefmax: list[int] = [0]  # prefmax[j] = max of prefix[:j]

    def completes_312(c: int) -> bool:
        return any(b < c < prefmax[j] for j, b in enumerate(prefix))

    def walk() -> Iterator[Permutation]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        used = set(prefix)
        for c in range(1, n + 1):
            if c in used or completes_312(c):
                continue
            prefix.append(c)
            prefmax.append(max(prefmax[-1], c))
            yield from walk()
            prefix.pop()
            prefmax.pop()

    yield from walk()
