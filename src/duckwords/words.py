"""
Dyck words, 3D-Dyck words, duck classification, underlined duck words, and
the circle/underline rewriting codec.

Text formats:
  * Dyck words: "UUDD".
  * 3D-Dyck words: "XYZXYZ"; an underlined Y is written as lowercase "y",
    so "XYXXZyYZXZyZ" carries underlines at positions 6 and 11.
  * Rewritten duck words: letters U/D, an underlined U written "u", and
    circles written as parentheses around the letter, nested for
    multiplicity: "UUD(U)DuD", "((U))DUD".

Positions are 1-based everywhere.

Text becomes a word through the `parse` methods.  As the word classes can also
be built directly, `rewrite` and `decode` check their input, not their output.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from ._record import Record, set_field
from .errors import InvalidInput


def is_dyck(w: str) -> bool:
    height = 0
    for ch in w:
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


def is_3d_dyck(w: str) -> bool:
    x = y = z = 0
    for ch in w:
        if ch == "X":
            x += 1
        elif ch == "Y":
            y += 1
        elif ch == "Z":
            z += 1
        else:
            return False
        if not (x >= y >= z):
            return False
    return x == y == z


def non_x_preceded_ys(w: str) -> tuple[int, ...]:
    """Positions of Y's whose immediately preceding letter is not an X."""
    return tuple(
        p for p in range(1, len(w) + 1)
        if w[p - 1] == "Y" and (p == 1 or w[p - 2] != "X")
    )


def duck_index(w: str) -> int:
    """The i for which w is a (k, i)-duck word.

    >>> duck_index("XXYYXXZYZZYZ")
    3
    >>> duck_index("XYZXYZ")
    0
    """
    if not is_3d_dyck(w):
        raise InvalidInput(f"not a 3D-Dyck word: {w!r}")
    return len(non_x_preceded_ys(w))


def enumerate_dyck(k: int) -> Iterator[str]:
    """Dyck words of length 2k in lexicographic order (D < U)."""
    def walk(prefix: list[str], ups: int, height: int) -> Iterator[str]:
        if len(prefix) == 2 * k:
            yield "".join(prefix)
            return
        if height > 0:
            prefix.append("D")
            yield from walk(prefix, ups, height - 1)
            prefix.pop()
        if ups < k:
            prefix.append("U")
            yield from walk(prefix, ups + 1, height + 1)
            prefix.pop()

    if k < 0:
        raise InvalidInput("k must be nonnegative")
    yield from walk([], 0, 0)


def enumerate_3d_dyck(k: int) -> Iterator[str]:
    """3D-Dyck words of length 3k in lexicographic order (X < Y < Z)."""
    if k < 0:
        raise InvalidInput("k must be nonnegative")

    def walk(prefix: list[str], x: int, y: int, z: int) -> Iterator[str]:
        if len(prefix) == 3 * k:
            yield "".join(prefix)
            return
        if x < k:
            prefix.append("X")
            yield from walk(prefix, x + 1, y, z)
            prefix.pop()
        if y < x:
            prefix.append("Y")
            yield from walk(prefix, x, y + 1, z)
            prefix.pop()
        if z < y:
            prefix.append("Z")
            yield from walk(prefix, x, y, z + 1)
            prefix.pop()

    yield from walk([], 0, 0, 0)


class UnderlinedDuckWord(Record):
    __slots__ = ("word", "underlines")

    def __init__(self, word: str, underlines: frozenset[int]):
        set_field(self, "word", word)
        set_field(self, "underlines", underlines)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word and self.underlines == other.underlines

    def __hash__(self):
        return hash((self.word, self.underlines))

    def to_text(self) -> str:
        return "".join(
            "y" if (p in self.underlines) else ch
            for p, ch in enumerate(self.word, start=1)
        )

    @classmethod
    def parse(cls, text: str) -> "UnderlinedDuckWord":
        if not set(text) <= set("XYZy"):
            raise InvalidInput(f"not an underlined duck word: {text!r}")
        word = text.upper()
        underlines = frozenset(p for p, ch in enumerate(text, start=1) if ch == "y")
        u = cls(word, underlines)
        if not validate_underlined(u):
            raise InvalidInput(f"not an underlined duck word: {text!r}")
        return u

    @property
    def k(self) -> int:
        return len(self.word) // 3

    @property
    def i(self) -> int:
        return len(self.underlines)


def validate_underlined(u: UnderlinedDuckWord) -> bool:
    """Both invariants: underlines sit on Y's that are not preceded by an X."""
    if not is_3d_dyck(u.word):
        return False
    eligible = set(non_x_preceded_ys(u.word))
    return set(u.underlines) <= eligible


def underline_all(w: str) -> UnderlinedDuckWord:
    """The canonical underlined form of a duck word: every non-X-preceded
    Y underlined."""
    if not is_3d_dyck(w):
        raise InvalidInput(f"not a 3D-Dyck word: {w!r}")
    return UnderlinedDuckWord(w, frozenset(non_x_preceded_ys(w)))


def check_duck_range(k: int, i: int) -> None:
    """Raise InvalidInput unless 0 <= i <= k-1 (or i = 0 when k = 0)."""
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    if not 0 <= i <= max(k - 1, 0):
        raise InvalidInput(f"need 0 <= i <= k-1, got k={k}, i={i}")


def enumerate_underlined(k: int, i: int) -> Iterator[UnderlinedDuckWord]:
    """All (k, i)-underlined duck words, ordered by word then underline set."""
    check_duck_range(k, i)
    for w in enumerate_3d_dyck(k):
        eligible = non_x_preceded_ys(w)
        for combo in itertools.combinations(eligible, i):
            yield UnderlinedDuckWord(w, frozenset(combo))


class RewrittenDuckWord(Record):
    __slots__ = ("letters", "circle_counts", "underline_flags")

    def __init__(self, letters: str, circle_counts: tuple[int, ...],
                 underline_flags: tuple[bool, ...]):
        set_field(self, "letters", letters)
        set_field(self, "circle_counts", circle_counts)
        set_field(self, "underline_flags", underline_flags)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letters == other.letters and self.circle_counts == other.circle_counts
                and self.underline_flags == other.underline_flags)

    def __hash__(self):
        return hash((self.letters, self.circle_counts, self.underline_flags))

    def to_text(self) -> str:
        out = []
        for ch, c, under in zip(self.letters, self.circle_counts, self.underline_flags):
            out.append("(" * c + ("u" if under else ch) + ")" * c)
        return "".join(out)

    @classmethod
    def parse(cls, text: str) -> "RewrittenDuckWord":
        letters, circles, flags = [], [], []
        depth = 0
        expect_close = 0
        for ch in text:
            if expect_close:
                if ch != ")":
                    raise InvalidInput(f"bad rewritten word: {text!r}")
                expect_close -= 1
            elif ch == "(":
                depth += 1
            elif ch in "UDu":
                letters.append("U" if ch == "u" else ch)
                circles.append(depth)
                flags.append(ch == "u")
                expect_close = depth
                depth = 0
            else:
                raise InvalidInput(f"bad rewritten word: {text!r}")
        if depth or expect_close:
            raise InvalidInput(f"bad rewritten word: {text!r}")
        r = cls("".join(letters), tuple(circles), tuple(flags))
        check_rewritten(r)
        return r

    @property
    def i(self) -> int:
        return sum(self.underline_flags)


def check_rewritten(r: RewrittenDuckWord) -> None:
    """Raise InvalidInput unless r satisfies the rewritten-word invariants:
    Dyck letters, underlines only on circle-free U's, equal circle and
    underline totals, and prefix #circles >= #underlines."""
    if not is_dyck(r.letters):
        raise InvalidInput(f"letters are not a Dyck word: {r.letters!r}")
    if not (len(r.letters) == len(r.circle_counts) == len(r.underline_flags)):
        raise InvalidInput("mismatched rewritten-word component lengths")
    circles = underlines = 0
    for ch, c, under in zip(r.letters, r.circle_counts, r.underline_flags):
        if c < 0:
            raise InvalidInput("negative circle count")
        if under and ch != "U":
            raise InvalidInput("underline on a D")
        if under and c:
            raise InvalidInput("circle on an underlined letter")
        circles += c
        underlines += int(under)
        if circles < underlines:
            raise InvalidInput("prefix has more underlines than circles")
    if circles != underlines:
        raise InvalidInput("circle total differs from underline total")


def rewrite(u: UnderlinedDuckWord) -> RewrittenDuckWord:
    """
    Encode a duck word in its canonical underlined form: delete the X in
    front of each non-underlined Y, turn every leftover X into a circle on
    the first following non-X letter, and map Y -> U, Z -> D.

    The encoding is only information-preserving when every non-X-preceded Y
    is underlined, so that is required of the input.
    """
    if not is_3d_dyck(u.word) or set(u.underlines) != set(non_x_preceded_ys(u.word)):
        raise InvalidInput(
            "rewrite needs a duck word in canonical underlined form "
            "(every non-X-preceded Y underlined)"
        )
    consumed = set()
    for p in range(1, len(u.word) + 1):
        if u.word[p - 1] == "Y" and p not in u.underlines:
            consumed.add(p - 1)  # the X at position p-1
    letters, circles, flags = [], [], []
    pending = 0
    for p, ch in enumerate(u.word, start=1):
        if p in consumed:
            continue
        if ch == "X":
            pending += 1
            continue
        letters.append("U" if ch == "Y" else "D")
        circles.append(pending)
        flags.append(p in u.underlines)
        pending = 0
    return RewrittenDuckWord("".join(letters), tuple(circles), tuple(flags))


def decode(r: RewrittenDuckWord) -> UnderlinedDuckWord:
    """
    Inverse of rewrite: emit the circled X's immediately before their
    letter, an X in front of every non-underlined U, and map U -> Y,
    D -> Z.  Underlines stay where they were.
    """
    check_rewritten(r)
    out: list[str] = []
    underlines = []
    for ch, c, under in zip(r.letters, r.circle_counts, r.underline_flags):
        out.extend("X" * c)
        if ch == "U" and not under:
            out.append("X")
        out.append("Y" if ch == "U" else "Z")
        if under:
            underlines.append(len(out))
    return UnderlinedDuckWord("".join(out), frozenset(underlines))


def enumerate_rewritten(k: int, i: int) -> Iterator[RewrittenDuckWord]:
    """
    All rewritten (k, i)-duck words directly from the characterization:
    Dyck words of length 2k carrying i underlines on U's and i circles on
    non-underlined letters, with every prefix having at least as many
    circles as underlines.
    """
    check_duck_range(k, i)
    for word in enumerate_dyck(k):
        u_positions = [p for p, ch in enumerate(word) if ch == "U"]
        for under_combo in itertools.combinations(u_positions, i):
            under_set = set(under_combo)
            flags = tuple(p in under_set for p in range(2 * k))
            slots = [p for p in range(2 * k) if p not in under_set]
            for counts in _circle_placements(len(word), slots, flags, i):
                yield RewrittenDuckWord(word, counts, flags)


def _circle_placements(length, slots, flags, total) -> Iterator[tuple[int, ...]]:
    # Distribute `total` circles over `slots` (circles may stack) such that
    # every prefix has #circles >= #underlines.
    slot_set = set(slots)

    def walk(pos: int, placed: int, counts: list[int], under_seen: int):
        if pos == length:
            if placed == total:
                yield tuple(counts)
            return
        under_here = under_seen + int(flags[pos])
        if pos in slot_set:
            for c in range(total - placed + 1):
                if placed + c < under_here:
                    continue
                counts.append(c)
                yield from walk(pos + 1, placed + c, counts, under_here)
                counts.pop()
        else:
            if placed < under_here:
                return
            counts.append(0)
            yield from walk(pos + 1, placed, counts, under_here)
            counts.pop()

    yield from walk(0, 0, [], 0)
