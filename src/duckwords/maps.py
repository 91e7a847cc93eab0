"""
Constructive bijections between reduced 312-avoiding hook configurations
and 3D-Dyck / underlined duck words, plus the tennis-ball process, whose map
psi is in `words`.

Heights (values) drive everything here: in a reduced maximal configuration
every height 1..3k belongs to exactly one of descent bottom, SW endpoint,
NE endpoint, and the word read off by increasing height (X/Y/Z
respectively) is a 3D-Dyck word.

A reduced configuration with fewer points has SW endpoints with a second
role; phi_prime splits each off onto a new point one column to the right,
applies phi and underlines the new heights.  Each direction is one pass over
the positions.  The builder fills positions left to right; each Y is followed
by its descent bottom, the top of a stack of the X heights scanned so far (the
largest unused X below it).  A y adds no point: its hook starts at the point
before it.  The builder lists hooks in SW order as it places SW ends, each in
a slot that its Z fills with the NE end, so it never sorts them.  It checks
its text as it goes and returns None on any invalid one, so it is the one
check of a word.

The reader replays the builder on c's points in position order.  A point
above the height so far is an endpoint, after an X for each height it skips:
a Z when it is the NE end of the innermost open hook, as no later Z could
close that hook, else a Y, whose bottom must come next.  A point below is the
bottom of a y.  It compares every value and both ends of every hook with what
the builder would place there, so it accepts c exactly when some text builds
c, and returns that text; it is the one check that c lies in the domain.

A HookConfig checks itself when it is built, so the reader trusts its
types, its ranges and the SW order of its hooks; only `HookConfig._unchecked`,
which the builder uses, skips those checks.  An UnderlinedDuckWord checks
itself in the same way, so phi_prime_inverse trusts its word.  phi and
phi_prime accept c exactly when some text builds c: c is then reduced, valid
and 312-avoiding, as phi_prime is a bijection onto the valid words (a theorem
of the paper, checked on every roundtrip output in the tests).  phi_prime
wraps that text unchecked; phi_inverse builds its word.  hooks_projection is
phi's word with the X's dropped and Y, Z written U, D.

The paper's expansion of c, the configuration with 3k points and the heights
inserted into it, is `u = phi_prime(c)` then `(phi_inverse(u.word),
u.underlines)`; its contraction is `phi_prime_inverse` of the underlined word.
"""
from __future__ import annotations

from .errors import InvalidInput, ResourceLimit, check_size
from .hooks import HookConfig
from .words import _TO_DYCK, UnderlinedDuckWord


def phi(c: HookConfig) -> str:
    """The 3D-Dyck word of a reduced maximal 312-avoiding configuration."""
    word, _ = _read(c)
    if c.n != 3 * c.k:
        raise InvalidInput(f"expected 3k points, got n={c.n} with k={c.k} hooks")
    return word


def hooks_projection(c: HookConfig) -> str:
    """
    Dyck word of a reduced maximal configuration: scanning positions left to
    right, each SW endpoint contributes U and each NE endpoint contributes D;
    matched U/D pairs are the hooks.  InvalidInput outside phi's domain.

    The endpoints of such a configuration are left-to-right maxima, so their
    order by position is their order by height, the order in which phi's
    word lists them as Y's and Z's; dropping its X's gives the projection.
    """
    return phi(c).translate(_TO_DYCK)


def _read(c: HookConfig) -> tuple[str, list[int]]:
    # The text that builds c, as its upper-case word and the text positions of
    # its y's, found by replaying _build on c's points (see above).
    perm, hooks = c.perm, c.hooks
    underlines: list[int] = []
    bottoms: list[int] = []  # unused X heights, largest on top
    open_ne = [0]  # NE positions of the open hooks, innermost last, on a 0 matching none
    slot = h = p = t = 0  # hooks opened, height, points read, letters read
    n = len(perm)
    letters = ["X"] * (3 * len(hooks))
    try:
        while p < n:
            v = perm[p]
            p += 1
            if h < v <= n:
                # an endpoint after an X for each height it skips: a Z when it
                # closes the innermost open hook, as no later Z could, else a
                # Y that opens the next hook and is followed by its bottom
                if v > h + 1:
                    bottoms += range(h + 1, v)
                t += v - h
                h = v
                if open_ne[-1] == p:
                    open_ne.pop()
                    letters[t - 1] = "Z"
                    continue
                v = perm[p]
                p += 1
            else:  # the bottom of a y
                t += 1
                underlines.append(t)
            # either way v is the bottom of the hook just opened, which starts
            # at the point before it
            a, b = hooks[slot]
            if v != bottoms.pop() or a != p - 1:
                break
            letters[t - 1] = "Y"
            open_ne.append(b)
            slot += 1
        else:
            # the n points took n heights up to n, so no bottom is left
            if open_ne == [0] and slot == len(hooks):
                return "".join(letters), underlines
    except IndexError:  # past the end of perm, hooks or the unused X heights
        pass
    raise InvalidInput("not a reduced 312-avoiding VHC with hooks in SW order")


def phi_inverse(w: str) -> HookConfig:
    """
    The unique reduced maximal configuration mapping to w.

    X heights are the descent-bottom heights, Y/Z heights the SW/NE
    endpoint heights.  Endpoints appear left to right in increasing height
    (they are left-to-right maxima), each SW endpoint immediately followed
    by its descent bottom, whose height is the largest unused X height
    below the top.  Hooks pair Y's with Z's like matched parentheses.
    """
    c = _build(w) if isinstance(w, str) and "y" not in w else None
    if c is None:
        raise InvalidInput(f"not a 3D-Dyck word: {w!r}")
    return c


def _build(text: str) -> HookConfig | None:
    # underlined Y's written y; a pop from an empty stack is a prefix with more
    # Y's than X's or Z's than Y's, a stack left over means unequal counts
    values: list[int] = []
    bottoms: list[int] = []  # unused X heights, largest on top
    open_sw: list[int] = []  # slots in hooks of unmatched SW endpoints
    hooks: list = []  # per slot a SW position, made its hook at the NE end
    h = 0  # height in the contracted configuration
    try:
        for ch in text:
            if ch == "X":
                h += 1
                bottoms.append(h)
            elif ch == "Y":
                h += 1
                values.append(h)
                open_sw.append(len(hooks))
                hooks.append(len(values))
                values.append(bottoms.pop())
            elif ch == "Z":
                h += 1
                values.append(h)
                slot = open_sw.pop()
                hooks[slot] = (hooks[slot], len(values))
            elif ch == "y":
                bottom = bottoms.pop()
                if bottom == h:  # only an X right before the y has height h
                    return None
                open_sw.append(len(hooks))
                hooks.append(len(values))
                values.append(bottom)
            else:
                return None
    except IndexError:
        return None
    if bottoms or open_sw:
        return None
    return HookConfig._unchecked(tuple(values), tuple(hooks))


def phi_prime(c: HookConfig) -> UnderlinedDuckWord:
    """Underlined duck word of any reduced 312-avoiding configuration:
    phi of the expansion, with the inserted heights underlined."""
    word, underlines = _read(c)
    return UnderlinedDuckWord._unchecked(word, frozenset(underlines))


def phi_prime_inverse(u: UnderlinedDuckWord) -> HookConfig:
    """Two-sided inverse of phi_prime."""
    return _build(u.to_text())


# --- tennis-ball process ---------------------------------------------------

# tennis_lawns refuses m beyond this: each round holds about 3.5 times as
# many lawns as the one before, and m = 11 takes 4 s and over 300 MB.
SIMULATE_ROUNDS_LIMIT = 8


def tennis_lawns(m: int) -> frozenset[frozenset[int]]:
    """
    All reachable lawn configurations after m rounds of the two-in/one-out
    process with balls labelled 1..2m, by breadth-first simulation over
    room states (the lawn is the complement of the room).  An m above
    SIMULATE_ROUNDS_LIMIT raises ResourceLimit.
    """
    check_size(m, "m")
    if m > SIMULATE_ROUNDS_LIMIT:
        raise ResourceLimit(f"m={m} exceeds simulation limit {SIMULATE_ROUNDS_LIMIT}")
    rooms: set[frozenset[int]] = {frozenset()}
    for t in range(1, m + 1):
        nxt: set[frozenset[int]] = set()
        for room in rooms:
            pool = room | {2 * t - 1, 2 * t}
            for ball in pool:
                nxt.add(pool - {ball})
        rooms = nxt
    all_balls = frozenset(range(1, 2 * m + 1))
    return frozenset(all_balls - room for room in rooms)
