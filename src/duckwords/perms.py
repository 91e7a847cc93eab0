"""
Permutations in one-line notation, 312-avoidance, and descent structure.

A permutation of length n is a tuple of the integers 1..n.  Positions and
values are both 1-based throughout, so the plot of ``pi`` is the point set
{(i, pi[i-1]) : i in 1..n}.  The empty tuple is the (unique) permutation of
length 0.

Text form: space-separated values ("3 2 1 5 6 4 7").  For n <= 9 a compact
digit string ("3215647") is also accepted.

312-avoidance is read off one stack: pi avoids 312 iff a stack fed 1..n in
order can output pi, and its pushes and pops then spell a Dyck word (Knuth,
TAOCP vol. 1, section 2.2.1, exercise 5).  _stack_walk walks that stack's
moves; enumerate_av312 takes the outputs from it, words.enumerate_dyck the
moves, and avoids_312 replays pi on the same stack.  The brute-force counts
in `hooks` walk it again with cuts of their own.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from .errors import InvalidInput, check_size

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


def check_permutation(seq: Sequence[int]) -> Permutation:
    """seq as a tuple, if it holds the ints 1..n (not bools or floats)."""
    try:
        pi = tuple(seq)
    except TypeError as exc:
        raise InvalidInput(f"not a permutation of [n]: {seq!r}") from exc
    # the types first: a float or bool equal to an int passes the set test
    if list(map(type, pi)).count(int) != len(pi) or set(pi) != set(range(1, len(pi) + 1)):
        raise InvalidInput(f"not a permutation of [n]: {seq!r}")
    return pi


def parse_permutation(text: str) -> Permutation:
    """Parse space-separated one-line notation, or a digit string for n <= 9."""
    if not isinstance(text, str):
        raise InvalidInput(f"bad permutation text: {text!r}")
    text = text.strip()
    try:
        entries = [int(tok) for tok in (text.split() if " " in text else text)]
    except ValueError as exc:
        raise InvalidInput(f"bad permutation text: {text!r}") from exc
    return check_permutation(entries)


def format_permutation(pi: Permutation) -> str:
    return " ".join(str(v) for v in pi)


def descent_table(pi: Permutation) -> tuple[tuple[int, int], ...]:
    """The (top, bottom) position pairs of the descents of pi, left to right.

    >>> descent_table((3, 2, 4, 1, 5))
    ((1, 2), (3, 4))
    """
    return tuple((i, i + 1) for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def avoids_312(pi: Permutation) -> bool:
    """
    Linear-time 312-avoidance test, for a permutation of [n].

    pi avoids 312 iff one stack fed 1..n can output it (see
    enumerate_av312), so this replays pi on that stack: for each value v it
    pushes until v has been fed, and then v must be on top.  Anything but a
    permutation raises InvalidInput.

    >>> avoids_312((3, 4, 1, 5, 2))
    False
    >>> avoids_312((2, 1, 3, 5, 6, 4, 7))
    True
    """
    stack: list[int] = []
    fed = 0  # how many of 1..n have been pushed
    for v in check_permutation(pi):
        if v > fed:  # push fed + 1..v, and pop v at once
            stack += range(fed + 1, v)
            fed = v
        elif stack.pop() != v:
            return False
    return True


def enumerate_av312(n: int) -> Iterator[Permutation]:
    """
    All 312-avoiding permutations of [n], in lexicographic one-line order.

    A permutation avoids 312 iff one stack, fed 1..n in order, can output
    it (Knuth, TAOCP vol. 1, section 2.2.1, exercise 5), and each output
    comes from one sequence of pushes and pops, a Dyck word; _stack_walk
    walks those sequences.  |result| is the n-th Catalan number.

    >>> [format_permutation(p) for p in enumerate_av312(3)]
    ['1 2 3', '1 3 2', '2 1 3', '2 3 1', '3 2 1']
    """
    check_size(n, "n")
    for out, _ in _stack_walk(n):
        yield tuple(out)


def _stack_walk(n: int) -> Iterator[tuple[list[int], list[bool]]]:
    # Every way one stack fed 1..n can output all n values, in one loop that
    # keeps the moves made so far.  After each fill it yields the output and
    # the moves (True for a push, False for a pop) as they stand, in lists
    # that the next step changes.  A pop is tried before a push: every value
    # output after a push exceeds the current stack top, so the outputs come
    # in lexicographic order, and the moves in pop-first order.
    out: list[int] = []
    stack: list[int] = []
    pushed: list[bool] = []
    state = (out, pushed)  # yielded as is: one pair, not a new one per fill
    fed = 0  # how many of 1..n have been pushed
    while True:
        while len(out) < n:  # first moves: pop if the stack holds anything
            if stack:
                out.append(stack.pop())
                pushed.append(False)
            else:
                fed += 1
                stack.append(fed)
                pushed.append(True)
        yield state
        # undo moves back to the last pop that a push can replace
        while pushed:
            if pushed.pop():
                stack.pop()
                fed -= 1
            else:
                stack.append(out.pop())
                if fed < n:
                    fed += 1
                    stack.append(fed)
                    pushed.append(True)
                    break
        else:
            return
