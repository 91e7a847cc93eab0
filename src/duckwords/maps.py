"""
Constructive bijections between reduced 312-avoiding hook configurations
and 3D-Dyck / underlined duck words, plus the tennis-ball map.

Heights (values) drive everything here: in a reduced maximal configuration
every height 1..3k belongs to exactly one of descent bottom, SW endpoint,
NE endpoint, and the word read off by increasing height (X/Y/Z
respectively) is a 3D-Dyck word.

Configurations come from `make_config`/`from_json` and words from the
`words` parsers; a bare HookConfig is trusted to be well formed.  Each public
map checks its precondition once, then runs a private core that trusts it;
phi_prime and phi_prime_inverse chain the cores.  Outputs are not re-checked:
phi's image is a 3D-Dyck word and phi_prime's a valid underlined word by
theorems of the paper, which the inverse maps' input checks assert in every
roundtrip test.
"""
from __future__ import annotations

import bisect

from .errors import InvalidInput
from .hooks import HookConfig, require_reduced_312, require_valid
from .perms import descent_table, normalize
from .words import UnderlinedDuckWord, is_3d_dyck, is_dyck, validate_underlined


def phi(c: HookConfig) -> str:
    """The 3D-Dyck word of a reduced maximal 312-avoiding configuration."""
    if c.n != 3 * c.k:
        raise InvalidInput(f"expected 3k points, got n={c.n} with k={c.k} hooks")
    require_reduced_312(c)
    return _phi(c)


def _phi(c: HookConfig) -> str:
    # X for a descent bottom, Y for a SW and Z for a NE endpoint; a reduced
    # configuration on 3k points gives each point exactly one of these roles.
    labels = [""] * c.n
    for _, j in descent_table(c.perm):
        labels[c.value_at(j) - 1] = "X"
    for a, b in c.hooks:
        labels[c.value_at(a) - 1] = "Y"
        labels[c.value_at(b) - 1] = "Z"
    return "".join(labels)


def phi_inverse(w: str) -> HookConfig:
    """
    The unique reduced maximal configuration mapping to w.

    X heights are the descent-bottom heights, Y/Z heights the SW/NE
    endpoint heights.  Endpoints appear left to right in increasing height
    (they are left-to-right maxima), each SW endpoint immediately followed
    by its descent bottom, whose height is the largest unused X height
    below the top.  Hooks pair Y's with Z's like matched parentheses.
    """
    if not is_3d_dyck(w):
        raise InvalidInput(f"not a 3D-Dyck word: {w!r}")
    return _phi_inverse(w)


def _phi_inverse(w: str) -> HookConfig:
    # Every prefix of w has at least as many X's as Y's, so an unused X
    # height is always left below a Y.
    unused_x = [h for h, ch in enumerate(w, start=1) if ch == "X"]
    values: list[int] = []
    stack: list[int] = []  # heights of unmatched SW endpoints
    hook_heights: list[tuple[int, int]] = []
    for h, ch in enumerate(w, start=1):
        if ch == "X":
            continue
        values.append(h)
        if ch == "Y":
            stack.append(h)
            values.append(unused_x.pop(bisect.bisect_left(unused_x, h) - 1))
        else:
            hook_heights.append((stack.pop(), h))
    pos = {v: i for i, v in enumerate(values, start=1)}
    hooks = tuple(sorted((pos[y], pos[z]) for y, z in hook_heights))
    return HookConfig(tuple(values), hooks)


def expand(c: HookConfig) -> tuple[HookConfig, frozenset[int]]:
    """
    Grow a reduced 312-avoiding configuration to one with 3k points by
    splitting every point that is both a SW endpoint and something else: a
    new pure SW endpoint is inserted one column to the right, one height
    above the previous hook endpoint, and the hook moves onto it.

    Returns the maximal configuration and the set of inserted heights.
    """
    require_reduced_312(c)
    return _expand(c)


def _expand(c: HookConfig) -> tuple[HookConfig, frozenset[int]]:
    # Each step gives one hook a pure SW endpoint and leaves the others'
    # roles alone, so the loop ends after at most k steps.
    vals = list(c.perm)
    hooks = [(a - 1, b - 1) for a, b in c.hooks]
    inserted: list[int] = []  # indices into vals, updated as we insert
    while True:
        ne = {b for _, b in hooks}
        bottoms = {q for q in range(1, len(vals)) if vals[q - 1] > vals[q]}
        doubly = [a for a, _ in hooks if a in ne or a in bottoms]
        if not doubly:
            break
        p = min(doubly)
        ref = vals[p] if p in ne else vals[p - 1]
        # make room for the new height ref + 1 just above ref
        vals = [v + 1 if v > ref else v for v in vals]
        vals.insert(p + 1, ref + 1)
        inserted = [q + (q > p) for q in inserted] + [p + 1]
        # shift the positions right of p; the hook on p moves onto p + 1
        hooks = [(a + (a >= p), b + (b > p)) for a, b in hooks]
    out = HookConfig(tuple(vals), tuple(sorted((a + 1, b + 1) for a, b in hooks)))
    return out, frozenset(vals[q] for q in inserted)


def contract(cp: HookConfig, inserted: frozenset[int] | set[int]) -> HookConfig:
    """
    Inverse of expand: delete the points at the inserted heights and move
    each orphaned hook's SW end onto the point one column to the left.
    """
    require_valid(cp)
    return _contract(cp, inserted)


def _contract(cp: HookConfig, inserted: frozenset[int] | set[int]) -> HookConfig:
    pos_of = {cp.value_at(p): p for p in range(1, cp.n + 1)}
    if not set(inserted) <= pos_of.keys():
        raise InvalidInput(f"no point at heights {sorted(set(inserted) - pos_of.keys())}")
    removed = {pos_of[h] for h in inserted}
    new_sw = {}
    for a, b in cp.hooks:
        if b in removed:
            raise InvalidInput("cannot remove a NE endpoint")
        if a in removed:
            if a - 1 in removed or a == 1:
                raise InvalidInput("removal leaves no valid reattachment")
            new_sw[(a, b)] = a - 1
    keep = [p for p in range(1, cp.n + 1) if p not in removed]
    newpos = {old: i for i, old in enumerate(keep, start=1)}
    perm = normalize([cp.value_at(p) for p in keep])
    hooks = tuple(sorted(
        (newpos[new_sw.get((a, b), a)], newpos[b]) for a, b in cp.hooks
    ))
    return HookConfig(perm, hooks)


def phi_prime(c: HookConfig) -> UnderlinedDuckWord:
    """Underlined duck word of any reduced 312-avoiding configuration:
    phi of the expansion, with the inserted heights underlined."""
    require_reduced_312(c)
    cp, heights = _expand(c)
    return UnderlinedDuckWord(_phi(cp), heights)


def phi_prime_inverse(u: UnderlinedDuckWord) -> HookConfig:
    """Two-sided inverse of phi_prime."""
    if not validate_underlined(u):
        raise InvalidInput("not a valid underlined duck word")
    return _contract(_phi_inverse(u.word), u.underlines)


# --- tennis-ball process ---------------------------------------------------


def tennis_lawns(m: int) -> frozenset[frozenset[int]]:
    """
    All reachable lawn configurations after m rounds of the two-in/one-out
    process with balls labelled 1..2m, by breadth-first simulation over
    room states (the lawn is the complement of the room).
    """
    if m < 0:
        raise InvalidInput("m must be nonnegative")
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


def psi(lawn: frozenset[int] | set[int], m: int) -> str:
    """
    Dyck word of a lawn configuration: a leading U, then one letter per
    ball label (U when the ball is on the lawn, D when it is not), then a
    trailing D.

    A set of balls from 1..2m is a lawn reachable after m rounds exactly
    when this word is a Dyck word; tests check that against `tennis_lawns`.
    """
    if m < 0:
        raise InvalidInput("m must be nonnegative")
    lawn = frozenset(lawn)
    if not all(1 <= ball <= 2 * m for ball in lawn):
        raise InvalidInput(f"balls must lie in 1..{2 * m}: {sorted(lawn)}")
    body = "".join("U" if ball in lawn else "D" for ball in range(1, 2 * m + 1))
    word = "U" + body + "D"
    if not is_dyck(word):
        raise InvalidInput(f"unreachable lawn configuration for m={m}: {sorted(lawn)}")
    return word
