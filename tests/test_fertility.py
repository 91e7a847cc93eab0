"""
`enumerate_vhcs` on all of S_n, against West's stack-sorting map.

Defant's Fertility Formula (C. Defant, "Stack-sorting preimages of
permutation classes"; "Counting 3-stack-sortable permutations", JCTA 2020):
for pi in S_n,

    |s^-1(pi)| = sum over H in VHC(pi) of prod_j C_{q_j},

where H colours the points of pi.  NE endpoints stay uncoloured.  Any other
point p takes the colour of the hook (a, b) with a < p < b and the smallest
pi_b, or the sky's if there is none; q_0 counts the sky's points and q_j those
of hook j.  A SW endpoint does not see its own hook (p = a does not count).
Preimages are counted by applying s to every permutation, so this is an
oracle independent of the paper's bijections and of the drawing in
`test_hooks`.
"""
from collections import Counter
from functools import cache
from itertools import permutations
from math import prod

from duckwords.counts import catalan
from duckwords.hooks import enumerate_vhcs


def stack_sort(pi: tuple[int, ...]) -> tuple[int, ...]:
    """West's map: s(L n R) = s(L) s(R) n."""
    if not pi:
        return pi
    top = pi.index(max(pi))
    return stack_sort(pi[:top]) + stack_sort(pi[top + 1:]) + (pi[top],)


@cache
def preimage_counts(n: int) -> Counter:
    return Counter(stack_sort(sigma) for sigma in permutations(range(1, n + 1)))


def fertility(pi: tuple[int, ...], sw_sees_own_hook: bool = False) -> int:
    """The right side of the formula; with `sw_sees_own_hook`, a point also
    takes the colour of a hook whose SW endpoint it is (a <= p < b)."""
    total = 0
    for config in enumerate_vhcs(pi):
        ne = config.ne_positions()
        colours = Counter()
        for p in range(1, len(pi) + 1):
            if p in ne:
                continue
            over = [(pi[b - 1], a) for a, b in config.hooks
                    if a < p < b or (sw_sees_own_hook and a == p)]
            colours[min(over, default=None)] += 1
        total += prod(catalan(q) for q in colours.values())
    return total


def test_fertility_formula_on_all_of_s_n():
    for n in range(9):
        preimages = preimage_counts(n)
        for pi in permutations(range(1, n + 1)):
            assert fertility(pi) == preimages[pi], pi


def test_fertility_formula_needs_the_strict_colouring():
    # letting a SW endpoint see its own hook breaks the formula, so the check
    # above tells the two colourings apart
    wrong = [sum(fertility(pi, sw_sees_own_hook=True) != preimage_counts(n)[pi]
                 for pi in permutations(range(1, n + 1)))
             for n in range(3, 8)]
    assert wrong == [1, 2, 14, 44, 262]
