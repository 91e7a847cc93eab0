"""
Dyck words and the tennis-ball map psi, 3D-Dyck words, duck classification,
underlined duck words, and the circle/underline rewriting codec.

Text formats:
  * Dyck words: "UUDD".
  * 3D-Dyck words: "XYZXYZ"; an underlined Y is written as lowercase "y",
    so "XYXXZyYZXZyZ" carries underlines at positions 6 and 11.
  * Rewritten duck words: letters U/D, an underlined U written "u", and
    circles written as parentheses around the letter, nested for
    multiplicity: "UUD(U)DuD", "((U))DUD".

Positions are 1-based everywhere.

The word classes check their fields when built, from text through `parse` or
directly, and raise InvalidInput on an invalid word, so `rewrite`, `decode`
and the maps trust their words.  Each class also has a `_unchecked`
classmethod that fills the same fields without the checks.  The generators,
`rewrite`, `decode` and `maps.phi_prime` build their output with it: that
output is valid by construction, or has passed the validating builder in
`maps`.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from ._record import Record, set_field
from .errors import InvalidInput, check_size


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


def psi(lawn: frozenset[int] | set[int], m: int) -> str:
    """
    Dyck word of a lawn configuration: a leading U, then one letter per
    ball label (U when the ball is on the lawn, D when it is not), then a
    trailing D.

    A set of balls from 1..2m is a lawn reachable after m rounds exactly
    when this word is a Dyck word; tests check that against
    `maps.tennis_lawns`.  Balls are ints, not bools or floats.
    """
    check_size(m, "m")
    try:
        lawn = frozenset(lawn)
    except TypeError as exc:
        raise InvalidInput(f"a lawn is a set of balls, not {lawn!r}") from exc
    if not all(type(ball) is int and 1 <= ball <= 2 * m for ball in lawn):
        raise InvalidInput(f"balls must be ints in 1..{2 * m}: {set(lawn)}")
    # a Dyck word of 2m + 2 letters has m + 1 U's, so a reachable lawn has m
    # balls: checked first, as building the word takes time linear in m
    if len(lawn) == m:
        word = "U" + "".join("U" if ball in lawn else "D" for ball in range(1, 2 * m + 1)) + "D"
        if is_dyck(word):
            return word
    raise InvalidInput(f"unreachable lawn configuration for m={m}: {sorted(lawn)}")


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
    out = []
    p = w.find("Y")
    while p >= 0:
        if p == 0 or w[p - 1] != "X":
            out.append(p + 1)
        p = w.find("Y", p + 1)
    return tuple(out)


def duck_index(w: str) -> int:
    """The i for which w is a (k, i)-duck word.

    >>> duck_index("XXYYXXZYZZYZ")
    3
    >>> duck_index("XYZXYZ")
    0
    """
    if not isinstance(w, str) or not is_3d_dyck(w):
        raise InvalidInput(f"not a 3D-Dyck word: {w!r}")
    return w.count("Y") - w.count("XY")


# a logged stack move, False (a pop) or True (a push), as a byte -> D or U
_MOVE_LETTERS = bytes.maketrans(b"\0\1", b"DU")


def enumerate_dyck(k: int) -> Iterator[str]:
    """Dyck words of length 2k in lexicographic order (D < U).

    Each is read off the moves of perms' stack walk over Av_k(312), a push
    as U and a pop as D; the walk tries a pop first, so the words come with
    D before U.
    """
    from .perms import _stack_walk  # not at the top: `map psi` loads no perms

    check_size(k, "k")
    for _, pushed in _stack_walk(k):
        yield bytes(pushed).translate(_MOVE_LETTERS).decode()


def enumerate_3d_dyck(k: int) -> Iterator[str]:
    """3D-Dyck words of length 3k in lexicographic order (X < Y < Z): fill with
    the smallest letters that fit, back up to the last X or Y that can grow."""
    check_size(k, "k")
    word: list[str] = []
    x = y = z = 0  # the X's, Y's and Z's in word
    while True:
        word += "X" * (k - x) + "Y" * (k - y) + "Z" * (k - z)
        x = y = z = k
        yield "".join(word)
        while word:
            ch = word.pop()
            if ch == "X":
                x -= 1
                if y < x:  # an X becomes a Y if one fits, else a Z
                    word.append("Y")
                    y += 1
                    break
            elif ch == "Y":
                y -= 1
            else:
                z -= 1
                continue
            if z < y:
                word.append("Z")
                z += 1
                break
        else:
            return


class UnderlinedDuckWord(Record):
    """A 3D-Dyck word with underlines on some of its Y's that are not preceded
    by an X, given by their 1-based positions.  The constructor checks both
    and raises InvalidInput otherwise; it stores the underlines as a frozenset
    of ints."""

    __slots__ = ("word", "underlines")

    def __init__(self, word: str, underlines: Iterable[int]):
        if not isinstance(word, str) or not is_3d_dyck(word):
            raise InvalidInput(f"not a 3D-Dyck word: {word!r}")
        try:
            marks = tuple(underlines)
        except TypeError as exc:
            raise InvalidInput(f"underlines are not a set of positions: {underlines!r}") from exc
        # check every given position before the frozenset merges 4.0 or True
        # into an equal int
        for p in marks:
            # position 1 holds an X, so word[p - 2] is the letter before p
            if (type(p) is not int or not 0 < p <= len(word)
                    or word[p - 1] != "Y" or word[p - 2] == "X"):
                raise InvalidInput(
                    f"cannot underline position {p!r} of {word!r}: "
                    "not a Y that follows a letter other than X")
        set_field(self, "word", word)
        set_field(self, "underlines", frozenset(marks))

    @classmethod
    def _unchecked(cls, word: str, underlines: frozenset[int]) -> "UnderlinedDuckWord":
        """The word with these underlines, without the constructor's checks."""
        u = object.__new__(cls)
        set_field(u, "word", word)
        set_field(u, "underlines", underlines)
        return u

    def to_text(self) -> str:
        if not self.underlines:
            return self.word
        letters = list(self.word)
        for p in self.underlines:
            letters[p - 1] = "y"
        return "".join(letters)

    @classmethod
    def parse(cls, text: str) -> "UnderlinedDuckWord":
        if not isinstance(text, str) or not set(text) <= set("XYZy"):
            raise InvalidInput(f"not an underlined duck word: {text!r}")
        return cls(text.upper(), (p for p, ch in enumerate(text, start=1) if ch == "y"))

    @property
    def k(self) -> int:
        return len(self.word) // 3

    @property
    def i(self) -> int:
        return len(self.underlines)


def underline_all(w: str) -> UnderlinedDuckWord:
    """The canonical underlined form of a duck word: every non-X-preceded
    Y underlined."""
    if not isinstance(w, str):
        raise InvalidInput(f"not a 3D-Dyck word: {w!r}")
    return UnderlinedDuckWord(w, non_x_preceded_ys(w))


def check_duck_range(k: int, i: int) -> None:
    """Raise InvalidInput unless k and i are ints with 0 <= i <= k-1 (or i = 0
    when k = 0)."""
    check_size(k, "k")
    if type(i) is not int or not 0 <= i <= max(k - 1, 0):
        raise InvalidInput(f"need 0 <= i <= k-1, got k={k}, i={i}")


def enumerate_underlined(k: int, i: int) -> Iterator[UnderlinedDuckWord]:
    """All (k, i)-underlined duck words, ordered by word then underline set.

    >>> [u.to_text() for u in enumerate_underlined(2, 1)]
    ['XXYyZZ', 'XXYZyZ', 'XYXZyZ']

    It runs enumerate_3d_dyck's walk itself, so that it can keep the Y's not
    preceded by an X as letters come and go instead of rescanning each word.
    """
    check_duck_range(k, i)
    unchecked = UnderlinedDuckWord._unchecked
    word: list[str] = []
    ys: list[int] = []  # the positions of the Y's in word not preceded by an X
    x = y = z = 0
    while True:
        n, fill_x = len(word), k - x
        # the filled Y's, but for a first one right after a filled X; with no
        # X filled, word ends in the Y or Z that the last back-up put there
        ys += range(n + fill_x + 1 + (fill_x > 0), n + fill_x + k - y + 1)
        word += "X" * fill_x + "Y" * (k - y) + "Z" * (k - z)
        x = y = z = k
        if len(ys) >= i:
            w = "".join(word)
            for combo in itertools.combinations(ys, i):
                yield unchecked(w, frozenset(combo))
        while word:
            ch = word.pop()
            if ch == "X":
                x -= 1
                if y < x:
                    # the first X can never become a Y, so word is not empty
                    if word[-1] != "X":
                        ys.append(len(word) + 1)
                    word.append("Y")
                    y += 1
                    break
            elif ch == "Y":
                y -= 1
                if ys and ys[-1] > len(word):
                    ys.pop()
            else:
                z -= 1
                continue
            if z < y:
                word.append("Z")
                z += 1
                break
        else:
            return


class RewrittenDuckWord(Record):
    """Dyck letters, each with a circle count (a nonnegative int) and an
    underline flag (a bool), stored as tuples.  The constructor raises
    InvalidInput unless underlines sit only on circle-free U's and every prefix
    has at least as many circles as underlines, the whole word as many."""

    __slots__ = ("letters", "circle_counts", "underline_flags")

    def __init__(self, letters: str, circle_counts: Iterable[int],
                 underline_flags: Iterable[bool]):
        if not isinstance(letters, str) or not is_dyck(letters):
            raise InvalidInput(f"letters are not a Dyck word: {letters!r}")
        try:
            circle_counts, underline_flags = tuple(circle_counts), tuple(underline_flags)
        except TypeError as exc:
            raise InvalidInput("circle counts and underline flags must be sequences") from exc
        if not (len(letters) == len(circle_counts) == len(underline_flags)):
            raise InvalidInput("mismatched rewritten-word component lengths")
        circles = underlines = 0
        for ch, c, under in zip(letters, circle_counts, underline_flags):
            if type(c) is not int or c < 0:
                raise InvalidInput(f"circle count is not a nonnegative int: {c!r}")
            if type(under) is not bool:
                raise InvalidInput(f"underline flag is not a bool: {under!r}")
            if under and ch != "U":
                raise InvalidInput("underline on a D")
            if under and c:
                raise InvalidInput("circle on an underlined letter")
            circles += c
            underlines += under
            if circles < underlines:
                raise InvalidInput("prefix has more underlines than circles")
        if circles != underlines:
            raise InvalidInput("circle total differs from underline total")
        set_field(self, "letters", letters)
        set_field(self, "circle_counts", circle_counts)
        set_field(self, "underline_flags", underline_flags)

    @classmethod
    def _unchecked(cls, letters: str, circle_counts: tuple[int, ...],
                   underline_flags: tuple[bool, ...]) -> "RewrittenDuckWord":
        """The word with these fields, without the constructor's checks."""
        r = object.__new__(cls)
        set_field(r, "letters", letters)
        set_field(r, "circle_counts", circle_counts)
        set_field(r, "underline_flags", underline_flags)
        return r

    def to_text(self) -> str:
        out = []
        for ch, c, under in zip(self.letters, self.circle_counts, self.underline_flags):
            out.append("(" * c + ("u" if under else ch) + ")" * c)
        return "".join(out)

    @classmethod
    def parse(cls, text: str) -> "RewrittenDuckWord":
        if not isinstance(text, str):
            raise InvalidInput(f"bad rewritten word: {text!r}")
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
        return cls("".join(letters), circles, flags)

    @property
    def i(self) -> int:
        return sum(self.underline_flags)


# rewrite's letters: drop the X's, map Y -> U and Z -> D
_TO_DYCK = str.maketrans("YZ", "UD", "X")


def rewrite(u: UnderlinedDuckWord) -> RewrittenDuckWord:
    """
    Encode a duck word in its canonical underlined form: delete the X in
    front of each non-underlined Y, turn every leftover X into a circle on
    the first following non-X letter, and map Y -> U, Z -> D.

    The encoding is only information-preserving when every non-X-preceded Y
    is underlined, so that is required of the input.
    """
    # the underlines are a subset of those Y's, so equal sizes mean equal sets
    if len(u.underlines) != u.word.count("Y") - u.word.count("XY"):
        raise InvalidInput(
            "rewrite needs a duck word in canonical underlined form "
            "(every non-X-preceded Y underlined)"
        )
    # in canonical form, then, a Y is underlined exactly when the letter
    # before it is not an X, and the underlines need not be looked up
    circles, flags = [], []
    pending = 0  # the X's since the last Y or Z
    for ch in u.word:
        if ch == "X":
            pending += 1
        elif ch == "Y" and pending:
            # the X right before a non-underlined Y goes with it
            circles.append(pending - 1)
            flags.append(False)
            pending = 0
        else:
            circles.append(pending)
            flags.append(ch == "Y")
            pending = 0
    return RewrittenDuckWord._unchecked(
        u.word.translate(_TO_DYCK), tuple(circles), tuple(flags))


def decode(r: RewrittenDuckWord) -> UnderlinedDuckWord:
    """
    Inverse of rewrite: emit the circled X's immediately before their
    letter, an X in front of every non-underlined U, and map U -> Y,
    D -> Z.  Underlines stay where they were.
    """
    out: list[str] = []
    underlines = []
    length = 0  # of the word so far
    for ch, c, under in zip(r.letters, r.circle_counts, r.underline_flags):
        if under:  # a circle-free U
            length += 1
            out.append("Y")
            underlines.append(length)
        elif ch == "U":
            length += c + 2
            out.append("X" * (c + 1) + "Y")
        else:
            length += c + 1
            out.append("X" * c + "Z")
    return UnderlinedDuckWord._unchecked("".join(out), frozenset(underlines))


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
            for counts in _circle_placements(flags, i):
                yield RewrittenDuckWord._unchecked(word, counts, flags)


def _circle_placements(flags, total) -> Iterator[tuple[int, ...]]:
    # Distribute `total` circles over the letters not flagged as underlined
    # (circles may stack) such that every prefix has #circles >= #underlines,
    # in lexicographic order: give each letter the fewest circles it allows,
    # then back up to the last letter not underlined that can take one more.
    # A loop, not a recursion 2k calls deep.
    length = len(flags)
    counts: list[int] = []
    placed = under = 0  # circles and underlines on the letters in counts
    while True:
        while len(counts) < length:
            if not flags[len(counts)]:
                c = max(under - placed, 0)
                counts.append(c)
                placed += c
            elif placed > under:
                under += 1
                counts.append(0)
            else:
                break
        else:
            if placed == total:
                yield tuple(counts)
        while counts:
            c = counts.pop()
            if flags[len(counts)]:
                under -= 1
            elif placed < total:
                counts.append(c + 1)
                placed += 1
                break
            else:
                placed -= c
        else:
            return
