"""
Hooks, valid hook configurations, the reduced predicate, and exhaustive
enumeration over 312-avoiding permutations.  The enumeration backtracks in
one loop; the NE ends a descent top t may take are its next-greater chain
ng[t], ng[ng[t]], ..., where ng[p] is the nearest position right of p with a
larger value, found for every p by one right-to-left stack pass.

Every VHC on Av_n(312) sits on a pi = sigma + (n,) with sigma in
Av_{n-1}(312): on any other pi, n is a descent top that no hook can leave.
The brute-force counts list those pi by a recursion over the moves of one
stack fed 1..n-1, a pop tried before a push, that passes down the descent
tops and the bare points (neither descent tops nor bottoms) as tuples, so a
return has nothing to restore.  It cuts a branch at top k + 1 when k hooks
are asked for, so no other permutation is built.  A reduced VHC ends a hook
on every bare point, so when only reduced ones are counted the walk also
cuts a branch once a push fixes the bare points so far and they cannot all
be NE ends: the first lies left of every top, or they and n (always bare)
outnumber the k hooks.  It is a walk of its own, not the perms stack walk
that enumerate_av312 and enumerate_dyck read: that bookkeeping makes a walk
over all of Av_n(312) almost three times as slow.  The hook search on each
pi lists all its VHCs.  The reduced count skips a pi whose bare points
outnumber its tops or start left of every top, and keeps a VHC when every
bare point is one of its NE ends.

A hook on pi is a pair (a, b) of positions with a < b and pi[a-1] < pi[b-1].
Geometrically it is the L-shaped polyline running from the plot point
(a, pi_a) straight up to (a, pi_b) and then right to (b, pi_b).  A valid
hook configuration (VHC) places exactly one hook on every descent top (i)
such that no plot point lies above a hook (ii) and hooks meet only at shared
endpoint plot points (iii).

Condition (iii) is decided on positions alone.  Take two hooks that satisfy
(ii), (a1, b1) and (a2, b2) with a1 < a2; they violate (iii) exactly when
a2 < b1 <= b2.  If b1 <= a2 the second hook lies right of the first and can
meet it only at the plot point b1 = a2.  Otherwise a2 is inside the first
hook, so (ii) puts pi_a2 below its horizontal at height pi_b1, and:
b2 < b1 nests the second hook under that horizontal (also by (ii)); b2 = b1
makes the two horizontals overlap; and b1 < b2 puts b1 inside the second
hook, so (ii) gives pi_b2 > pi_b1 and the second vertical crosses the first
horizontal at (a2, pi_b1), which is not a plot point.

JSON form of a configuration: {"perm": [ints], "hooks": [[sw, ne], ...]}.

A HookConfig checks itself when it is built, as the word and count records
do: the permutation (as `parse_permutation` does) and that every hook is an
int pair (a, b) with 1 <= a < b <= n, pi_a < pi_b and a SW position of its
own; it raises InvalidInput otherwise and lists the hooks in SW order.
`from_json` reads the JSON form through it.  `HookConfig._unchecked` skips the
checks, for the producers whose output is valid by construction:
enumerate_vhcs, enumerate_red_vhcs_av312, reduce_config and the builder in
`maps`.  Validity, conditions (i)-(iii), is a separate question for
`check_valid`, which the maps do not call.
"""
from __future__ import annotations

import json
from math import comb
from typing import Iterable, Iterator, Sequence

from ._record import Record, set_field
from .errors import DEFAULT_BRUTE_BOUND, InvalidInput, ResourceLimit, check_brute_bound, check_size
from .perms import (
    Permutation,
    check_permutation,
    descent_table,
    normalize,
)

Hook = tuple[int, int]


class HookConfig(Record):
    """A permutation and hooks on it, each a pair (a, b) of positions.  The
    constructor checks the permutation (as `parse_permutation` does) and that
    every hook is an int pair with 1 <= a < b <= n, pi_a < pi_b and a SW
    position of its own, and raises InvalidInput otherwise; it stores the
    hooks as a tuple of pairs in SW order."""

    __slots__ = ("perm", "hooks")

    def __init__(self, perm: Sequence[int], hooks: Iterable[Hook]):
        pi = check_permutation(perm)
        try:
            pairs = [(a, b) for a, b in hooks]
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"hooks are not a list of pairs: {hooks!r}") from exc
        for a, b in pairs:
            if type(a) is not int or type(b) is not int or not 1 <= a < b <= len(pi):
                raise InvalidInput(f"hook {(a, b)!r} is not an int pair with 1 <= a < b <= {len(pi)}")
            if pi[a - 1] >= pi[b - 1]:
                raise InvalidInput(f"hook {(a, b)} has SW endpoint above NE endpoint")
        if len({a for a, _ in pairs}) != len(pairs):
            raise InvalidInput("two hooks share a SW position")
        set_field(self, "perm", pi)
        set_field(self, "hooks", tuple(sorted(pairs)))

    @classmethod
    def _unchecked(cls, perm: Permutation, hooks: tuple[Hook, ...]) -> "HookConfig":
        """The configuration with these fields, without the constructor's checks."""
        c = object.__new__(cls)
        set_field(c, "perm", perm)
        set_field(c, "hooks", hooks)
        return c

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def k(self) -> int:
        return len(self.hooks)

    def endpoint_positions(self) -> set[int]:
        return {a for a, _ in self.hooks} | {b for _, b in self.hooks}

    def sw_positions(self) -> set[int]:
        return {a for a, _ in self.hooks}

    def ne_positions(self) -> set[int]:
        return {b for _, b in self.hooks}

    def value_at(self, pos: int) -> int:
        return self.perm[pos - 1]

    def to_json(self) -> str:
        return json.dumps(
            {"perm": list(self.perm), "hooks": [list(h) for h in self.hooks]},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "HookConfig":
        if not isinstance(text, str):
            raise InvalidInput(f"bad hook configuration: {text!r}")
        try:
            obj = json.loads(text)
            perm, hooks = obj["perm"], obj["hooks"]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise InvalidInput(f"bad hook configuration: {text!r}") from exc
        return cls(perm, hooks)


class ValidityReport(Record):
    __slots__ = ("valid", "failed_condition", "witness")

    def __init__(self, valid: bool, failed_condition: str, witness: tuple | None = None):
        # failed_condition is "i", "ii", "iii", or "none"
        set_field(self, "valid", valid)
        set_field(self, "failed_condition", failed_condition)
        set_field(self, "witness", witness)


def check_valid(c: HookConfig) -> ValidityReport:
    """Check conditions (i)-(iii) of the valid hook configuration definition.

    A condition (iii) witness is the crossing pair of hooks, in SW order.
    """
    tops = {i for i, _ in descent_table(c.perm)}
    sw = c.sw_positions()
    if sw != tops:
        return ValidityReport(False, "i", (tuple(sorted(sw)), tuple(sorted(tops))))
    for a, b in c.hooks:
        yb = c.value_at(b)
        for l in range(a + 1, b):
            if c.value_at(l) > yb:
                return ValidityReport(False, "ii", ((a, b), (l, c.value_at(l))))
    for idx, (a1, b1) in enumerate(c.hooks):
        for a2, b2 in c.hooks[idx + 1:]:
            if a2 < b1 <= b2:
                return ValidityReport(False, "iii", ((a1, b1), (a2, b2)))
    return ValidityReport(True, "none")


def require_valid(c: HookConfig) -> None:
    """Raise InvalidInput unless c satisfies conditions (i)-(iii)."""
    report = check_valid(c)
    if not report.valid:
        raise InvalidInput(f"configuration is not valid (condition {report.failed_condition})")


def is_reduced(c: HookConfig) -> bool:
    """True iff every plot point is a hook endpoint or a descent bottom."""
    require_valid(c)
    keep = c.endpoint_positions() | {j for _, j in descent_table(c.perm)}
    return len(keep) == c.n


def enumerate_vhcs(pi: Permutation) -> Iterator[HookConfig]:
    """
    All valid hook configurations on pi, ordered lexicographically by the
    vector of NE positions.

    Backtracks over the descent tops, left to right, in one loop that keeps
    per depth the NE end tried and the crossing limit.  The NE ends a top
    may take, condition (ii), are its next-greater chain, cut short by the
    crossing rule, condition (iii), at the ends of the hooks over it.
    """
    pi = check_permutation(pi)
    tops = [i for i, _ in descent_table(pi)]
    for ends in _walk_vhcs(pi, tops):
        yield HookConfig._unchecked(pi, tuple(zip(tops, ends)))


def _walk_vhcs(pi: Permutation, tops: Sequence[int]) -> Iterator[tuple[int, ...]]:
    # The NE ends, one per top, of the VHCs on pi in enumerate_vhcs order.
    n, m = len(pi), len(tops)
    if not m:
        yield ()
        return
    # ng[p] as in the module docstring; position n + 1, valued n + 1, is none
    value, ng, stack = (0, *pi, n + 1), [0] * (n + 1), [n + 1]
    for p in range(n, 0, -1):
        while value[stack[-1]] < value[p]:
            stack.pop()
        ng[p] = stack[-1]
        stack.append(p)
    # ends: the NE end tried at each depth; above[b]: the crossing limit of
    # the depth whose hook ends at b.  By a2 < b1 <= b2 the hook from a2 ends
    # before the nearest end right of a2 among the hooks chosen: the latest
    # end or, in turn, the limits above it.
    ends, above = [], [0] * (n + 1)
    b, limit = ng[tops[0]], n + 1
    while True:
        if b < limit:
            ends.append(b)
            d = len(ends)
            if d == m:
                yield tuple(ends)
            else:
                above[b], a, limit = limit, tops[d], b
                while limit <= a:
                    limit = above[limit]
                b = ng[a]
                continue
            b = ng[ends.pop()]
        elif ends:
            limit = above[ends[-1]]
            b = ng[ends.pop()]
        else:
            return


def reduce_config(c: HookConfig) -> tuple[HookConfig, frozenset[int]]:
    """
    Remove every point that is neither a descent bottom nor a hook endpoint,
    then renormalize values and reindex hooks.

    Returns the reduced configuration and the set of removed positions
    (positions in the input).  312-avoidance is preserved.
    """
    require_valid(c)
    keep = sorted(c.endpoint_positions() | {j for _, j in descent_table(c.perm)})
    removed = frozenset(range(1, c.n + 1)) - frozenset(keep)
    newpos = {old: i for i, old in enumerate(keep, start=1)}
    perm = normalize([c.value_at(p) for p in keep])
    # newpos is increasing, so the hooks stay in SW order
    hooks = tuple((newpos[a], newpos[b]) for a, b in c.hooks)
    return HookConfig._unchecked(perm, hooks), removed


def count_vhcs(pi: Permutation) -> int:
    return sum(1 for _ in _walk_vhcs(pi, [i for i, _ in descent_table(pi)]))


def _av312_ending_in_n(n: int, k: int | None = None,
                       reduced: bool = False) -> list[tuple[Permutation, tuple, tuple]]:
    # (pi, tops, bare) as in the module docstring, in lexicographic order,
    # with k descents if k is given; step makes one move per frame and undoes
    # it in the shared out and stack.  With `reduced` a push, which fixes the
    # bare points so far, is not taken once no VHC can end a hook on each of
    # them: with n they outnumber k, or the first has no top left of it.
    if n == 0:
        return [((), (), ())] if not k else []
    m, cap = n - 1, n if k is None else k
    out, stack, found = [], [], []

    def step(fed, after_push, tops, bare):
        p = len(out)  # the position of the latest output
        if p == m:
            if k is None or len(tops) == k:
                found.append(((*out, n), tops, bare + (n,)))
            return
        if stack and (after_push or len(tops) < cap):
            out.append(stack.pop())
            if after_push:
                step(fed, False, tops, bare + (p + 1,))
            else:  # p becomes a top, so it is no longer bare
                step(fed, False, tops + (p,), bare[:-1] if bare and bare[-1] == p else bare)
            stack.append(out.pop())
        if fed < m and not (reduced and (
                len(bare) >= cap or bare and not (tops and tops[0] < bare[0]))):
            stack.append(fed + 1)
            step(fed + 1, True, tops, bare)
            stack.pop()

    try:
        step(0, False, (), ())
    except RecursionError as exc:  # 2(n - 1) moves deep on an uncut walk
        raise ResourceLimit(f"n={n} is too deep for the stack walk") from exc
    return found


def enumerate_red_vhcs_av312(n: int, k: int | None = None) -> Iterator[HookConfig]:
    """Reduced VHCs over all of Av_n(312), optionally restricted to k hooks.

    Only permutations that end in n carry a VHC, and a VHC has one hook per
    descent, so with k no permutation with another number of descents is
    built: the recursion over stack moves that lists Av_{n-1}(312) here cuts
    a branch at descent k + 1.  It is not the walk enumerate_av312 reads,
    which that bookkeeping would slow (see the module docstring).  A
    configuration is reduced iff every point that is neither a descent top
    nor a descent bottom is a NE end.  The recursion cuts a branch once such a point is
    fixed left of every top or, with k, once those points and n outnumber k.
    A permutation left whose bare points outnumber its tops, or whose first
    bare point lies left of every top, is skipped; on the others every VHC
    is listed and kept when each bare point is one of its NE ends, the cover
    test verify_eq1 also applies.  A recursion deeper than Python allows
    raises ResourceLimit.
    """
    check_size(n, "n")
    if k is not None:
        check_size(k, "k")
    for pi, tops, bare in _av312_ending_in_n(n, k, reduced=True):
        if len(bare) > len(tops) or bare and bare[0] < tops[0]:
            continue  # NE ends are distinct, and none lies left of every top
        for ends in _walk_vhcs(pi, tops):
            if all(p in ends for p in bare):
                yield HookConfig._unchecked(pi, tuple(zip(tops, ends)))


def red_vhc_count_brute(k: int, n: int, bound: int = DEFAULT_BRUTE_BOUND) -> int:
    """|RedVHC_k(Av_n(312))| by exhaustive enumeration."""
    check_size(k, "k")
    check_brute_bound(n, bound)
    return sum(1 for _ in enumerate_red_vhcs_av312(n, k))


def verify_eq1(n: int, bound: int = DEFAULT_BRUTE_BOUND) -> dict:
    """
    Check the reduction counting identity at size n:

        sum over pi in Av_n(312) of #VHC(pi)
            = sum over r of |RedVHC(Av_r(312))| * C(n, r)

    Both sides are computed exhaustively.  Returns a report dict with the
    two totals and the per-r reduced counts.  One walk over the VHCs on n
    points gives both the left side and the reduced ones, the r = n term.
    """
    check_brute_bound(n, bound)
    lhs = reduced_n = 0
    for pi, tops, bare in _av312_ending_in_n(n):
        for ends in _walk_vhcs(pi, tops):
            lhs += 1
            reduced_n += all(p in ends for p in bare)
    reduced_counts = [sum(1 for _ in enumerate_red_vhcs_av312(r)) for r in range(n)] + [reduced_n]
    rhs = sum(reduced_counts[r] * comb(n, r) for r in range(n + 1))
    return {
        "n": n,
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "reduced_counts": reduced_counts,
    }
