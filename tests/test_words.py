import itertools
import random

import pytest
from conftest import dyck3_letters

from duckwords.counts import catalan, catalan3d, duck_triangle
from duckwords.errors import InvalidInput
from duckwords.hooks import HookConfig
from duckwords.perms import parse_permutation
from duckwords.words import (
    RewrittenDuckWord,
    UnderlinedDuckWord,
    decode,
    duck_index,
    enumerate_3d_dyck,
    enumerate_dyck,
    enumerate_rewritten,
    enumerate_underlined,
    is_3d_dyck,
    is_dyck,
    non_x_preceded_ys,
    rewrite,
    underline_all,
)

DUCK_ROWS = {1: (1,), 2: (2, 3), 3: (5, 23, 14), 4: (14, 131, 233, 84)}


def test_is_dyck():
    assert is_dyck("")
    assert is_dyck("UUDD")
    assert not is_dyck("UDDU")
    assert not is_dyck("UUD")


def test_is_3d_dyck():
    assert is_3d_dyck("XYZ")
    assert is_3d_dyck("XXYYXXZYZZYZ")
    assert not is_3d_dyck("XYZZ")
    assert not is_3d_dyck("YXZ")


def test_duck_index():
    assert duck_index("XYZ") == 0
    assert duck_index("XXYYZZ") == 1
    assert non_x_preceded_ys("XXYYZZ") == (4,)
    assert duck_index("XXYYXXZYZZYZ") == 3
    assert non_x_preceded_ys("XXYYXXZYZZYZ") == (4, 8, 11)


def test_non_x_preceded_ys_matches_its_definition():
    # a Y at a position p >= 2 whose letter before it is not an X
    for k in range(6):
        for w in enumerate_3d_dyck(k):
            assert non_x_preceded_ys(w) == tuple(
                p for p in range(2, len(w) + 1) if w[p - 1] == "Y" and w[p - 2] != "X"), w


def test_yz_projection():
    # drop the X's and map Y -> U, Z -> D: every 3D-Dyck word gives a Dyck word
    def project(w):
        return w.replace("X", "").replace("Y", "U").replace("Z", "D")

    assert project("XXYYXXZYZZYZ") == "UUDUDDUD"
    assert project("XYZ") == "UD"
    for k in range(5):
        assert all(is_dyck(project(w)) for w in enumerate_3d_dyck(k))


def test_enumerate_dyck_counts():
    for k in range(7):
        assert sum(1 for _ in enumerate_dyck(k)) == catalan(k)
    # far deeper than a recursion over letters could go
    assert next(enumerate_dyck(600)) == "UD" * 600


def test_enumerate_3d_dyck_counts():
    for k in range(6):
        words = list(enumerate_3d_dyck(k))
        assert len(words) == catalan3d(k)
        assert len(set(words)) == len(words)
        assert all(is_3d_dyck(w) for w in words)
        assert words == sorted(words)


def reference_enumerate_3d_dyck(k):
    """The recursive generator that the one-loop enumerate_3d_dyck replaced:
    at each position try X, then Y, then Z, wherever it fits."""
    def walk(prefix, x, y, z):
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


def test_enumerate_3d_dyck_matches_the_recursive_walk():
    # the same words in the same order for k <= 6, 87,516 of them at k = 6
    seen = 0
    for k in range(7):
        words = list(enumerate_3d_dyck(k))
        assert words == list(reference_enumerate_3d_dyck(k))
        seen += len(words)
    assert seen == 94033


def test_enumerate_underlined_matches_its_definition():
    # every i-set of a word's Y's not preceded by an X, word by word in
    # lexicographic order, for k <= 6 and every i
    seen = 0
    for k in range(7):
        words = list(enumerate_3d_dyck(k))
        for i in range(max(k, 1)):
            listed = list(enumerate_underlined(k, i))
            assert listed == [UnderlinedDuckWord(w, c) for w in words
                              for c in itertools.combinations(non_x_preceded_ys(w), i)]
            seen += len(listed)
    # a (k, j)-duck word carries 2**j underline sets, over all i together
    rows = [duck_triangle(6).row(k) for k in range(1, 7)]
    assert seen == 1 + sum(n * 2**j for row in rows for j, n in enumerate(row))
    assert seen == 958259


def test_duck_census():
    # the recurrence in duck_triangle against classifying every word
    recurrence = duck_triangle(6)
    for k in range(1, 7):
        census = [0] * k
        for w in enumerate_3d_dyck(k):
            census[duck_index(w)] += 1
        assert tuple(census) == recurrence.row(k)
        if k in DUCK_ROWS:
            assert tuple(census) == DUCK_ROWS[k]


def test_underlined_text_roundtrip():
    u = UnderlinedDuckWord("XXYYXZYXZZYZ", frozenset({4, 11}))
    assert u.to_text() == "XXYyXZYXZZyZ"
    assert UnderlinedDuckWord.parse("XXYyXZYXZZyZ") == u
    assert u.k == 4 and u.i == 2
    for bad in ("xYZ", "XYz", "XXYyZz", "XY Z"):
        with pytest.raises(InvalidInput):
            UnderlinedDuckWord.parse(bad)


TEXT_READERS = {
    "UnderlinedDuckWord.parse": UnderlinedDuckWord.parse,
    "RewrittenDuckWord.parse": RewrittenDuckWord.parse,
    "parse_permutation": parse_permutation,
    "HookConfig.from_json": HookConfig.from_json,
    "duck_index": duck_index,
    "underline_all": underline_all,
}


@pytest.mark.parametrize("value", [None, 123, ["X", "Y", "Z"], b'{"perm":[1],"hooks":[]}'], ids=repr)
@pytest.mark.parametrize("reader", TEXT_READERS.values(), ids=TEXT_READERS.keys())
def test_text_readers_reject_non_strings(reader, value):
    with pytest.raises(InvalidInput):
        reader(value)


def test_validate_underlined():
    # the constructor checks its fields; underlines become a frozenset
    u = UnderlinedDuckWord("XXYYZZ", [4])
    assert u.underlines == frozenset({4}) and type(u.underlines) is frozenset
    assert hash(u) == hash(UnderlinedDuckWord("XXYYZZ", frozenset({4})))
    for word, underlines in (
        ("XXYYZZ", {3}),        # an X-preceded Y, not eligible
        ("XYZ", [2]),
        ("XXYYZZ", {4.0}), ("XXYYZZ", {True}),
        ("XXYYZZ", [4, 4.0]), ("XXYYZZ", (4, 4.0)),  # 4.0 == 4 in a set
        ("XXYYZZ", {0}), ("XXYYZZ", {7}),
        ("XXYYZZ", {-2}),       # word[-3] is a Y after a Y
        ("XYZZ", ()), ("XyZ", ()), (["X", "Y", "Z"], ()), (None, ()),
        ("XXYYZZ", 4), ("XXYYZZ", [[4]]),
    ):
        with pytest.raises(InvalidInput):
            UnderlinedDuckWord(word, underlines)


def test_rewritten_word_checks_its_fields():
    r = RewrittenDuckWord("UUDD", [1, 0, 0, 0], [False, True, False, False])
    assert r.to_text() == "(U)uDD" and type(r.circle_counts) is tuple
    assert hash(r) == hash(RewrittenDuckWord.parse("(U)uDD"))
    for fields in (
        ("UD", ("a", 0), (False, False)),
        ("UUDD", (True, 0, 0, 0), (False, True, False, False)),
        ("UUDD", (1.0, 0, 0, 0), (False, True, False, False)),
        ("UUDD", (1, 0, 0, 0), (False, 1, False, False)),
        ("UUDD", (0, 1, 0, 0), (True, False, False, False)),  # underline before its circle
        ("UUDD", (1, 0, 0, 0), (False, False, False, False)),  # unequal totals
        ("UUDD", (1, 0, 0, 0), (False, False, True, False)),   # underline on a D
        ("UUDD", (0, 1, 0, 0), (False, True, False, False)),   # circle on an underline
        ("UUDD", (0, 0, 0, -1), (False,) * 4),
        ("UDDU", (0,) * 4, (False,) * 4),
        ("UD", (0,), (False, False)),
        (["U", "D"], (0, 0), (False, False)),
        ("UD", 0, (False, False)),
    ):
        with pytest.raises(InvalidInput):
            RewrittenDuckWord(*fields)


def test_unchecked_producers_build_valid_words():
    # what the generators, rewrite and decode build without checks passes them
    for k in range(5):
        for i in range(max(k, 1)):
            for u in enumerate_underlined(k, i):
                assert UnderlinedDuckWord(u.word, u.underlines) == u
            for r in enumerate_rewritten(k, i):
                assert RewrittenDuckWord(r.letters, r.circle_counts, r.underline_flags) == r
        for w in enumerate_3d_dyck(k):
            r = rewrite(underline_all(w))
            assert RewrittenDuckWord(r.letters, r.circle_counts, r.underline_flags) == r
            u = decode(r)
            assert UnderlinedDuckWord(u.word, u.underlines) == u


def test_underline_all():
    u = underline_all("XXYYXXZYZZYZ")
    assert u.underlines == frozenset(non_x_preceded_ys("XXYYXXZYZZYZ"))


def test_enumerate_underlined_counts():
    # number of underlined words with i marks equals sum_j C(j,i) Duck_{k,j}
    from math import comb
    for k, row in DUCK_ROWS.items():
        for i in range(k):
            expected = sum(comb(j, i) * row[j] for j in range(i, k))
            assert sum(1 for _ in enumerate_underlined(k, i)) == expected


def test_rewrite_known_value():
    r = rewrite(underline_all("XXYYXZYXZZYZ"))
    assert r.to_text() == "(U)u(D)u(D)DuD"
    assert decode(r) == underline_all("XXYYXZYXZZYZ")


def test_rewrite_requires_canonical_form():
    partial = UnderlinedDuckWord("XXYYXZYXZZYZ", frozenset({4}))
    with pytest.raises(InvalidInput):
        rewrite(partial)


def test_rewritten_text_roundtrip():
    for w in enumerate_3d_dyck(3):
        r = rewrite(underline_all(w))
        assert RewrittenDuckWord.parse(r.to_text()) == r


def reference_rewrite(u):
    """The letter-by-letter rewrite that the one-pass codec replaced: an X goes
    with a Y right after it, and the underlines are looked up in the set."""
    letters, circles, flags = [], [], []
    pending = 0
    for p, ch in enumerate(u.word, start=1):
        if ch == "X":
            pending += u.word[p:p + 1] != "Y"
            continue
        letters.append("U" if ch == "Y" else "D")
        circles.append(pending)
        flags.append(p in u.underlines)
        pending = 0
    return "".join(letters), tuple(circles), tuple(flags)


def reference_decode(r):
    """The letter-by-letter decode that the one-pass codec replaced."""
    out, underlines = [], []
    for ch, c, under in zip(r.letters, r.circle_counts, r.underline_flags):
        out.extend("X" * c)
        if ch == "U" and not under:
            out.append("X")
        out.append("Y" if ch == "U" else "Z")
        if under:
            underlines.append(len(out))
    return "".join(out), frozenset(underlines)


def test_codec_matches_the_letter_by_letter_reference():
    # every canonical word with k <= 6, and seeded words at k = 32 and 200;
    # the fields are compared with their types: tuples of ints and of bools,
    # and a frozenset of ints
    rng = random.Random(21)
    words = [w for k in range(7) for w in enumerate_3d_dyck(k)]
    words += [dyck3_letters(k, rng.choice) for k in (32, 200) for _ in range(50)]
    for w in words:
        u = underline_all(w)
        r = rewrite(u)
        assert (r.letters, r.circle_counts, r.underline_flags) == reference_rewrite(u), w
        assert type(r.letters) is str and type(r.circle_counts) is type(r.underline_flags) is tuple
        assert all(type(c) is int for c in r.circle_counts)
        assert all(type(f) is bool for f in r.underline_flags)
        d = decode(r)
        assert (d.word, d.underlines) == reference_decode(r) == (w, u.underlines)
        assert type(d.word) is str and type(d.underlines) is frozenset
        assert all(type(p) is int for p in d.underlines)


def test_rewrite_decode_roundtrip_exhaustive():
    for k in range(1, 5):
        for w in enumerate_3d_dyck(k):
            u = underline_all(w)
            assert decode(rewrite(u)) == u


def test_rewrite_injective_on_canonical_forms():
    for k in range(1, 5):
        images = {rewrite(underline_all(w)).to_text() for w in enumerate_3d_dyck(k)}
        assert len(images) == catalan3d(k)


def test_rewritten_census_matches_duck_counts():
    # the rewritten words with k U's and i underlines are counted by
    # Duck_{k,i}: rewriting canonical forms is a bijection onto them
    for k, row in DUCK_ROWS.items():
        for i in range(k):
            words = list(enumerate_rewritten(k, i))
            assert len(words) == row[i]
            assert len(set(w.to_text() for w in words)) == len(words)
    by_class = {}
    for k in range(1, 5):
        for w in enumerate_3d_dyck(k):
            r = rewrite(underline_all(w))
            by_class.setdefault((k, duck_index(w)), set()).add(r.to_text())
    for (k, i), image in by_class.items():
        assert image == {r.to_text() for r in enumerate_rewritten(k, i)}
