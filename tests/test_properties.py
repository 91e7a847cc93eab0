"""
Property and fuzz tests: the bijections on random words, the boundary
checks of make_config and of the word constructors on random malformed input,
and the CLI on random JSON.
"""
import contextlib
import io
import json
import random

import pytest
from conftest import dyck3_letters, in_domain
from hypothesis import given, settings
from hypothesis import strategies as st

from duckwords.cli import main
from duckwords.errors import InvalidInput
from duckwords.hooks import make_config
from duckwords.maps import phi, phi_inverse, phi_prime, phi_prime_inverse
from duckwords.words import (
    RewrittenDuckWord,
    UnderlinedDuckWord,
    decode,
    non_x_preceded_ys,
    rewrite,
    underline_all,
)

KMAX = 30
ROUNDTRIPS = settings(max_examples=60, deadline=None)


@st.composite
def dyck3_words(draw, kmax=KMAX):
    """A 3D-Dyck word of length 3k, k <= kmax, one legal letter at a time."""
    k = draw(st.integers(0, kmax))
    return dyck3_letters(k, lambda legal: draw(st.sampled_from(legal)))


@st.composite
def underlined_words(draw):
    w = draw(dyck3_words())
    eligible = non_x_preceded_ys(w)
    marks = draw(st.sets(st.sampled_from(eligible))) if eligible else set()
    return UnderlinedDuckWord(w, frozenset(marks))


@ROUNDTRIPS
@given(dyck3_words())
def test_phi_roundtrip_random(w):
    c = phi_inverse(w)
    assert in_domain(c) and c.n == 3 * c.k
    assert phi(c) == w
    assert phi_inverse(phi(c)) == c


@ROUNDTRIPS
@given(underlined_words())
def test_phi_prime_roundtrip_random(u):
    c = phi_prime_inverse(u)
    assert in_domain(c) and c.n == 3 * u.k - u.i
    assert phi_prime(c) == u
    assert phi_prime_inverse(phi_prime(c)) == c


@ROUNDTRIPS
@given(dyck3_words())
def test_rewrite_decode_roundtrip_random(w):
    u = underline_all(w)
    r = rewrite(u)
    assert r.i == u.i
    assert decode(r) == u


def test_roundtrips_at_large_k():
    # ten seeded words at k = 200 and ten at k = 400
    rng = random.Random(2020)
    for k in [200] * 10 + [400] * 10:
        w = dyck3_letters(k, rng.choice)
        c = phi_inverse(w)
        assert in_domain(c) and c.n == 3 * k and phi(c) == w
        u = UnderlinedDuckWord(w, frozenset(p for p in non_x_preceded_ys(w) if rng.random() < 0.5))
        c = phi_prime_inverse(u)
        assert in_domain(c) and c.n == 3 * k - u.i and phi_prime(c) == u
        u = underline_all(w)
        assert decode(rewrite(u)) == u


# --- make_config on random malformed input ----------------------------------

entries = st.one_of(st.integers(-2, 8), st.booleans(), st.floats(-2, 8), st.text(max_size=1))


def well_formed_hooks(perm, hooks) -> bool:
    """Reference predicate: int pairs 1 <= a < b <= n, pi_a < pi_b, distinct SW."""
    n = len(perm)
    for h in hooks:
        if not (isinstance(h, list) and len(h) == 2 and all(type(e) is int for e in h)):
            return False
        a, b = h
        if not (1 <= a < b <= n and perm[a - 1] < perm[b - 1]):
            return False
    return len({h[0] for h in hooks}) == len(hooks)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, max_size=7))
def test_make_config_rejects_malformed_perms(perm):
    is_perm = all(type(v) is int for v in perm) and sorted(perm) == list(range(1, len(perm) + 1))
    if is_perm:
        assert make_config(perm, []).perm == tuple(perm)
    else:
        with pytest.raises(InvalidInput):
            make_config(perm, [])


@settings(max_examples=300, deadline=None)
@given(st.permutations(range(1, 7)), st.lists(st.lists(entries, min_size=1, max_size=3), max_size=4))
def test_make_config_rejects_malformed_hooks(perm, hooks):
    if well_formed_hooks(perm, hooks):
        c = make_config(perm, hooks)
        assert sorted(c.hooks) == sorted(tuple(h) for h in hooks)
    else:
        with pytest.raises(InvalidInput):
            make_config(perm, hooks)


# --- the word constructors on random fields ---------------------------------


def is_3d_dyck_reference(word: str) -> bool:
    """Every prefix has #X >= #Y >= #Z, and the whole word equal counts."""
    prefixes = [word[:j] for j in range(len(word) + 1)]
    return (set(word) <= set("XYZ")
            and all(p.count("X") >= p.count("Y") >= p.count("Z") for p in prefixes)
            and word.count("X") == word.count("Z"))


def underlined_reference(word, underlines) -> bool:
    """A 3D-Dyck word, each underline the int position of a Y whose
    previous letter is not an X."""
    eligible = {j + 1 for j in range(1, len(word))
                if word[j] == "Y" and word[j - 1] != "X"}
    return (isinstance(word, str) and is_3d_dyck_reference(word)
            and all(type(p) is int and p in eligible for p in underlines))


@st.composite
def underlined_fields(draw):
    """Mostly random XYZ strings, some 3D-Dyck words; positions in and
    around the word, or its eligible Y's, some as floats or bools; in a set,
    frozenset, list or tuple."""
    word = draw(st.text("XYZ", max_size=9) | dyck3_words(kmax=4))
    positions = st.integers(-2, len(word) + 1)
    eligible = non_x_preceded_ys(word)
    if eligible:
        positions = positions | st.sampled_from(eligible)
    odd = st.sampled_from([2.0, 4.0, True, False])
    marks = draw(st.lists(positions | odd, max_size=4))
    container = draw(st.sampled_from([set, frozenset, list, tuple]))
    return draw(st.sampled_from([word, list(word)])), container(marks)


@settings(max_examples=400, deadline=None)
@given(underlined_fields())
def test_underlined_constructor_accepts_exactly_valid_words(fields):
    word, underlines = fields
    if underlined_reference(word, underlines):
        u = UnderlinedDuckWord(word, underlines)
        assert u.underlines == frozenset(underlines) and type(u.underlines) is frozenset
        assert hash(u) == hash(UnderlinedDuckWord.parse(u.to_text()))
    else:
        with pytest.raises(InvalidInput):
            UnderlinedDuckWord(word, underlines)


def rewritten_reference(letters, counts, flags) -> bool:
    """Dyck letters; a nonnegative int circle count and a bool flag per
    letter; flags only on circle-free U's; every prefix with at least as many
    circles as flags, the whole word with as many."""
    n = len(letters)
    if not (isinstance(letters, str) and set(letters) <= set("UD")
            and n == len(counts) == len(flags)):
        return False
    if not (all(type(c) is int and c >= 0 for c in counts)
            and all(type(f) is bool for f in flags)):
        return False
    prefixes = range(n + 1)
    return (all(letters[:j].count("U") >= letters[:j].count("D") for j in prefixes)
            and letters.count("U") == letters.count("D")
            and all(not f or (ch == "U" and c == 0) for ch, c, f in zip(letters, counts, flags))
            and all(sum(counts[:j]) >= sum(flags[:j]) for j in prefixes)
            and sum(counts) == sum(flags))


COUNTS = [0, 0, 0, 0, 1, 1, 2, -1, True, "a", 1.0]
FLAGS = [False, False, False, True, True, 0, 1]


@st.composite
def rewritten_fields(draw):
    """Either random U/D letters with circle counts and flags, mostly one per
    letter, or a rewritten word with one field perhaps changed; counts and
    flags mostly small ints and bools, some of the wrong type."""
    if draw(st.booleans()):
        letters = draw(st.text("UD", max_size=8))
        sizes = [len(letters)] * 4 + [len(letters) + 1]
        n, m = draw(st.sampled_from(sizes)), draw(st.sampled_from(sizes))
        counts = draw(st.lists(st.sampled_from(COUNTS), min_size=n, max_size=n))
        flags = draw(st.lists(st.sampled_from(FLAGS), min_size=m, max_size=m))
    else:
        r = rewrite(underline_all(draw(dyck3_words(kmax=5))))
        letters, counts, flags = r.letters, list(r.circle_counts), list(r.underline_flags)
        if letters and draw(st.booleans()):
            j = draw(st.integers(0, len(letters) - 1))
            if draw(st.booleans()):
                counts[j] = draw(st.sampled_from(COUNTS))
            else:
                flags[j] = draw(st.sampled_from(FLAGS))
    container = draw(st.sampled_from([list, tuple]))
    return draw(st.sampled_from([letters, list(letters)])), container(counts), container(flags)


@settings(max_examples=600, deadline=None)
@given(rewritten_fields())
def test_rewritten_constructor_accepts_exactly_valid_words(fields):
    if rewritten_reference(*fields):
        r = RewrittenDuckWord(*fields)
        assert (r.circle_counts, r.underline_flags) == tuple(map(tuple, fields[1:]))
        assert hash(r) == hash(RewrittenDuckWord.parse(r.to_text()))
        assert rewrite(decode(r)) == r
    else:
        with pytest.raises(InvalidInput):
            RewrittenDuckWord(*fields)


# --- CLI fuzz ---------------------------------------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False), st.text(max_size=3)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=12,
)
hook_pairs = st.lists(st.lists(st.integers(-1, 8), min_size=2, max_size=2), max_size=4)
configs = st.one_of(
    json_values,
    st.fixed_dictionaries({"perm": st.permutations(range(1, 8)) | json_values,
                           "hooks": hook_pairs | json_values}),
)


COMMANDS = [
    (["render"], []),
    (["render"], ["--format", "tikz", "--labels"]),
    (["map", "phi"], ["--roundtrip"]),
    (["map", "phi-prime"], ["--roundtrip"]),
]


@settings(max_examples=150, deadline=None)
@given(configs, st.sampled_from(COMMANDS))
def test_cli_json_fuzz(obj, command):
    head, tail = command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(head + [json.dumps(obj)] + tail)
        except SystemExit as exc:  # argparse takes text such as "-1" for an option
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
