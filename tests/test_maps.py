import itertools
import random

import pytest
from conftest import accepts, dyck3_letters, in_domain

from duckwords.counts import catalan
from duckwords.errors import InvalidInput
from duckwords.hooks import (
    HookConfig,
    enumerate_red_vhcs_av312,
    is_reduced,
    reduce_config,
)
from duckwords.maps import (
    _build,
    hooks_projection,
    phi,
    phi_inverse,
    phi_prime,
    phi_prime_inverse,
    tennis_lawns,
)
from duckwords.perms import enumerate_av312
from duckwords.words import (
    UnderlinedDuckWord,
    enumerate_3d_dyck,
    enumerate_underlined,
    non_x_preceded_ys,
    psi,
)

FIG5_CONFIG = HookConfig(
    (3, 2, 4, 1, 7, 8, 6, 9, 10, 11, 5, 12),
    [(1, 9), (3, 5), (6, 8), (10, 12)],
)
FIG5_WORD = "XXYYXXZYZZYZ"

FIG7_CONFIG = HookConfig(
    (3, 2, 1, 5, 6, 4, 8, 9, 7, 10),
    [(1, 8), (2, 4), (5, 7), (8, 10)],
)
FIG7_UNDERLINED = "XXYyXZYXZZyZ"


def test_phi_known_value():
    assert phi(FIG5_CONFIG) == FIG5_WORD


def test_phi_inverse_known_value():
    assert phi_inverse(FIG5_WORD) == FIG5_CONFIG


def test_phi_unique_k1():
    assert phi(HookConfig((2, 1, 3), [(1, 3)])) == "XYZ"
    assert phi_inverse("XYZ") == HookConfig((2, 1, 3), [(1, 3)])


def test_height_classification_partitions():
    # phi labels each height X, Y or Z by the role of its point
    word = phi(FIG5_CONFIG)
    assert sorted(word) == sorted(FIG5_WORD)


def test_phi_roundtrip_exhaustive(maximal_configs):
    for k in range(1, 5):
        configs = maximal_configs[k - 1]
        words = list(enumerate_3d_dyck(k))
        assert len(configs) == len(words)
        assert {phi(c) for c in configs} == set(words)
        for w in words:
            c = phi_inverse(w)
            assert in_domain(c) and c.n == 3 * k
            assert phi(c) == w
        for c in configs:
            assert phi_inverse(phi(c)) == c


def test_phi_rejects_unreduced():
    with pytest.raises(InvalidInput):
        phi(HookConfig((3, 1, 4, 5, 2, 6, 7), [(1, 3), (4, 7)]))


INVALID_CONFIG = HookConfig((2, 1, 4, 3, 5), [(1, 4), (3, 5)])       # point above a hook
UNREDUCED_CONFIG = HookConfig((3, 1, 4, 5, 2, 6, 7), [(1, 3), (4, 7)])
CONTAINS_312_CONFIG = HookConfig((3, 1, 4, 2, 5, 6), [(1, 6), (3, 5)])  # reduced, 3k points


def test_maps_decide_the_domain_on_every_hook_subset():
    # every set of hooks with distinct SW positions on every permutation with
    # n <= 5 and every 312-avoider with n = 6, most of them failing (i)
    perms = itertools.chain(
        (pi for n in range(6) for pi in itertools.permutations(range(1, n + 1))),
        enumerate_av312(6),
    )
    seen = 0
    for pi in perms:
        n = len(pi)
        choices = [[None] + [b for b in range(a + 1, n + 1) if pi[b - 1] > pi[a - 1]]
                   for a in range(1, n + 1)]
        for ne in itertools.product(*choices):
            c = HookConfig(pi, [(a, b) for a, b in enumerate(ne, start=1) if b])
            inside = in_domain(c)
            maximal = inside and c.n == 3 * c.k
            assert (accepts(phi_prime, c), accepts(phi, c)) == (inside, maximal), c
            seen += 1
    assert seen == 21531


def reference_build(text):
    """The builder before it checked its text: it trusts text to be a valid
    underlined word, underlined Y's written y."""
    values, bottoms, open_sw, hooks = [], [], [], []
    h = 0
    for ch in text:
        if ch == "y":
            open_sw.append(len(values))
            values.append(bottoms.pop())
            continue
        h += 1
        if ch == "X":
            bottoms.append(h)
        elif ch == "Y":
            values.append(h)
            open_sw.append(len(values))
            values.append(bottoms.pop())
        else:
            values.append(h)
            hooks.append((open_sw.pop(), len(values)))
    return HookConfig(tuple(values), tuple(sorted(hooks)))


def test_builder_checks_exactly_what_the_parser_checks():
    # every string of X, Y, Z and y up to length 8: the builder returns None
    # exactly when the word's parser raises, and else what it always built
    seen = 0
    for n in range(9):
        for letters in itertools.product("XYZy", repeat=n):
            text = "".join(letters)
            built = _build(text)
            try:
                UnderlinedDuckWord.parse(text)
            except InvalidInput:
                assert built is None, text
            else:
                assert built == reference_build(text), text
            if "y" in text:
                with pytest.raises(InvalidInput):
                    phi_inverse(text)
            seen += 1
    assert seen == 87381


def test_builder_lists_deeply_nested_hooks_as_the_reference_sorts_them():
    # seeded words at large k, where hooks nest deeply, with and without a
    # random half of their eligible Y's underlined
    rng = random.Random(16)
    for k in [32] * 10 + [200] * 5 + [400] * 5:
        w = dyck3_letters(k, rng.choice)
        letters = list(w)
        for p in non_x_preceded_ys(w):
            if rng.random() < 0.5:
                letters[p - 1] = "y"
        for text in (w, "".join(letters)):
            assert _build(text) == reference_build(text), text


def test_maps_reject_configs_outside_their_domain():
    # a HookConfig built unchecked with its hooks out of SW order is not well
    # formed, and the maps reject it
    unordered = HookConfig._unchecked(FIG5_CONFIG.perm, FIG5_CONFIG.hooks[::-1])
    for c in (INVALID_CONFIG, UNREDUCED_CONFIG, CONTAINS_312_CONFIG, unordered):
        for f in (phi, phi_prime, hooks_projection):
            with pytest.raises(InvalidInput):
                f(c)
    for f in (is_reduced, reduce_config):
        with pytest.raises(InvalidInput):
            f(INVALID_CONFIG)
    # the contraction takes phi's word of a maximal configuration, with the
    # inserted heights underlined; phi and the word's constructor reject the rest
    u = phi_prime(FIG7_CONFIG)
    expanded, inserted = phi_inverse(u.word), u.underlines
    for c, heights in ((INVALID_CONFIG, frozenset()),
                       (FIG7_CONFIG, frozenset()),    # valid but not maximal
                       (expanded, inserted | {1}),    # an X height
                       (expanded, inserted | {13})):  # no such height
        with pytest.raises(InvalidInput):
            phi_prime_inverse(UnderlinedDuckWord(phi(c), heights))
    assert is_reduced(CONTAINS_312_CONFIG) and not is_reduced(UNREDUCED_CONFIG)


def reference_read(c):
    """The reader before it checked as it read: label each height by the role
    of its point, then build the text again and compare the result with c.
    Returns the word and its underlines; a position or value out of range
    may raise IndexError."""
    perm = c.perm
    n = len(perm)
    labels = [""] * n
    prev = 0
    for v in perm:
        if v < prev:
            labels[v - 1] = "X"
        prev = v
    sw_slot = [0] * (n + 1)  # sw_slot[a]: index of the label holding a's SW end
    for a, b in c.hooks:
        h = perm[a - 1] - 1
        label = labels[h]
        if label == "X":
            h = sw_slot[a - 1]
            labels[h] += "y"
        elif label:
            labels[h] = label + "y"
        else:
            labels[h] = "Y"
        sw_slot[a] = h
        labels[perm[b - 1] - 1] = "Z"
    text = "".join(labels)
    if _build(text) != c:
        raise InvalidInput("not a reduced 312-avoiding VHC with hooks in SW order")
    return text.upper(), frozenset(p for p, ch in enumerate(text, start=1) if ch == "y")


def assert_reads_as_the_reference(c):
    # phi_prime gives the reference's word and underlines, or both reject;
    # phi gives the same word on 3k points, and rejects the rest
    try:
        expected = reference_read(c)
    except InvalidInput:
        expected = None
    try:
        u = phi_prime(c)
    except InvalidInput:
        u = None
    assert (None if u is None else (u.word, u.underlines)) == expected, c
    maximal = expected is not None and c.n == 3 * c.k
    assert accepts(phi, c) == maximal, c
    if maximal:
        assert phi(c) == expected[0], c


def test_reader_matches_read_and_rebuild_on_every_small_config():
    # every set of hooks with distinct SW positions a < b on every
    # permutation with n <= 5, in SW order and reversed, built unchecked so
    # the reader also sees those the constructor refuses
    seen = 0
    for n in range(6):
        for pi in itertools.permutations(range(1, n + 1)):
            choices = [[None] + list(range(a + 1, n + 1)) for a in range(1, n + 1)]
            for ne in itertools.product(*choices):
                hooks = tuple((a, b) for a, b in enumerate(ne, start=1) if b)
                for order in {hooks, hooks[::-1]}:
                    assert_reads_as_the_reference(HookConfig._unchecked(pi, order))
                    seen += 1
    assert seen == 28518


def mutate(c, rng):
    """c with one of four seeded changes: two values swapped, a hook end
    moved by one within 1..n, two hooks swapped, or a hook dropped.  It is
    built unchecked, as the constructor refuses some of these."""
    perm, hooks = list(c.perm), list(c.hooks)
    kind = rng.randrange(4)
    if kind == 0:
        i, j = rng.sample(range(len(perm)), 2)
        perm[i], perm[j] = perm[j], perm[i]
    elif kind == 1:
        h = rng.randrange(len(hooks))
        ends = list(hooks[h])
        e = rng.randrange(2)
        ends[e] = min(max(ends[e] + rng.choice((-1, 1)), 1), len(perm))
        hooks[h] = tuple(ends)
    elif kind == 2:
        i, j = rng.sample(range(len(hooks)), 2)
        hooks[i], hooks[j] = hooks[j], hooks[i]
    else:
        del hooks[rng.randrange(len(hooks))]
    return HookConfig._unchecked(tuple(perm), tuple(hooks))


def test_reader_matches_read_and_rebuild_on_mutated_configs():
    # seeded configurations at k = 8 and k = 32, a random half of their
    # eligible Y's underlined, each read as it is and after 20 mutations
    rng = random.Random(26)
    accepted = rejected = 0
    for k in [8] * 60 + [32] * 60:
        w = dyck3_letters(k, rng.choice)
        letters = list(w)
        for p in non_x_preceded_ys(w):
            if rng.random() < 0.5:
                letters[p - 1] = "y"
        c = phi_prime_inverse(UnderlinedDuckWord.parse("".join(letters)))
        assert_reads_as_the_reference(c)
        for _ in range(20):
            m = mutate(c, rng)
            assert_reads_as_the_reference(m)
            if accepts(phi_prime, m):
                accepted += 1
            else:
                rejected += 1
    assert accepted + rejected == 2400 and accepted and rejected


ILL_FORMED = [
    ((1, 2, 3), ((1, 5),)),            # NE position past the end
    ((2, 1, 3), ((4, 5),)),            # SW position past the end
    ((2, 1, 3), ((1, 3), (2, 9))),
    ((), ((1, 2),)),
    ((2, 1, 7), ((1, 3),)),            # a value above n
    ((4, 1, 3), ((1, 3),)),
    ((2, 1, 0), ((1, 3),)),            # a value below 1
    ((2, 1, 3), ((0, 3),)),            # a position below 1
    ((2, 1, 3), ((1, 3, 4),)),         # a hook that is not a pair
    (("a",), ()),                      # a value that is not a number
    ((2, 1, 3), (5,)),                 # a hook that is not a sequence
    ((2.0, 1, 3), ((1, 3),)),          # a float value
    ((2, 1.0, 3), ((1, 3),)),          # a float bottom
    ((2, True, 3), ((1, 3),)),         # a bool bottom
    ((2, 1, 3), ((1.0, 3.0),)),        # float hook ends
    ((2, 1, 3), ((True, 3),)),         # a bool hook end
    (None, ()),                        # perm without a length
    ((2, 1, 3), None),                 # hooks without a length
]


def test_maps_reject_ill_formed_bare_configs():
    # no ill-formed configuration reaches phi or phi_prime: HookConfig refuses
    # one whose positions or values are out of range or of the wrong type
    for perm, hooks in ILL_FORMED:
        with pytest.raises(InvalidInput):
            HookConfig(perm, hooks)
    # seeded configurations with at least one value or position outside 1..n
    rng = random.Random(2601)
    for _ in range(2000):
        n = rng.randrange(7)
        perm = rng.sample(range(1, n + 1), n)
        hooks = [tuple(rng.randint(1, n) if n else 1 for _ in range(2))
                 for _ in range(rng.randrange(1, 4))]
        out = rng.choice((-1, 0, n + 1, n + 3))
        if n and rng.random() < 0.5:
            perm[rng.randrange(n)] = out
        else:
            h = rng.randrange(len(hooks))
            hooks[h] = (out, hooks[h][1]) if rng.random() < 0.5 else (hooks[h][0], out)
        with pytest.raises(InvalidInput):
            HookConfig(tuple(perm), tuple(hooks))


def test_expand_known_value():
    # the expansion is phi_inverse of phi_prime's word, with the underlined
    # heights inserted; the contraction is phi_prime_inverse
    u = phi_prime(FIG7_CONFIG)
    expanded = phi_inverse(u.word)
    assert expanded == HookConfig(
        (3, 2, 4, 1, 6, 7, 5, 9, 10, 11, 8, 12),
        [(1, 9), (3, 5), (6, 8), (10, 12)],
    )
    assert u.underlines == frozenset({4, 11})
    assert phi_prime_inverse(UnderlinedDuckWord(phi(expanded), u.underlines)) == FIG7_CONFIG


def test_expand_fixed_point_on_max_configs():
    u = phi_prime(FIG5_CONFIG)
    assert phi_inverse(u.word) == FIG5_CONFIG and u.underlines == frozenset()


def test_phi_prime_known_value():
    assert phi_prime(FIG7_CONFIG).to_text() == FIG7_UNDERLINED


def test_phi_prime_inverse_known_value():
    assert phi_prime_inverse(UnderlinedDuckWord.parse(FIG7_UNDERLINED)) == FIG7_CONFIG


def reference_expand(c):
    """The paper's expansion, one split at a time: take the leftmost hook
    whose SW endpoint is also a NE end or a descent bottom, insert a point
    one column to its right, one height above the point itself (a NE end) or
    its left neighbour (a descent bottom), and move the hook onto it."""
    vals = list(c.perm)
    hooks = [(a - 1, b - 1) for a, b in c.hooks]
    inserted = []  # indices into vals, updated as points are inserted
    while True:
        ne = {b for _, b in hooks}
        bottoms = {q for q in range(1, len(vals)) if vals[q - 1] > vals[q]}
        doubly = [a for a, _ in hooks if a in ne or a in bottoms]
        if not doubly:
            break
        p = min(doubly)
        ref = vals[p] if p in ne else vals[p - 1]
        vals = [v + 1 if v > ref else v for v in vals]
        vals.insert(p + 1, ref + 1)
        inserted = [q + (q > p) for q in inserted] + [p + 1]
        hooks = [(a + (a >= p), b + (b > p)) for a, b in hooks]
    out = HookConfig(tuple(vals), tuple(sorted((a + 1, b + 1) for a, b in hooks)))
    return out, frozenset(vals[q] for q in inserted)


def test_phi_prime_follows_the_papers_expansion():
    # every reduced 312-avoiding configuration with n <= 10
    images = {}
    for n in range(11):
        for c in enumerate_red_vhcs_av312(n):
            cp, inserted = reference_expand(c)
            u = phi_prime(c)
            assert u == UnderlinedDuckWord(phi(cp), inserted)
            assert phi_inverse(u.word) == cp
            assert phi_prime_inverse(u) == c
            images.setdefault((c.k, n), set()).add(u)
    cells = {(k, 3 * k - i) for k in range(1, 11) for i in range(k) if 3 * k - i <= 10}
    assert set(images) == cells | {(0, 0)}
    for (k, n), found in images.items():
        assert found == set(enumerate_underlined(k, 3 * k - n))


def test_phi_prime_roundtrip_exhaustive():
    for k in range(1, 5):
        for i in range(k):
            for u in enumerate_underlined(k, i):
                c = phi_prime_inverse(u)
                assert in_domain(c)
                assert c.n == 3 * k - i
                assert phi_prime(c) == u


def test_tennis_lawn_census_is_catalan():
    for m in range(7):
        assert len(tennis_lawns(m)) == catalan(m + 1)


def test_psi_known_shape():
    for m in range(1, 5):
        for lawn in tennis_lawns(m):
            word = psi(lawn, m)
            assert word[0] == "U" and word[-1] == "D"
            assert len(word) == 2 * m + 2


def test_psi_injective():
    for m in range(1, 6):
        lawns = tennis_lawns(m)
        assert len({psi(lawn, m) for lawn in lawns}) == len(lawns)


def test_psi_accepts_exactly_the_reachable_lawns():
    # psi's Dyck-word test against the simulated process, over every set of
    # m balls from 1..2m
    for m in range(9):
        accepted = set()
        for lawn in itertools.combinations(range(1, 2 * m + 1), m):
            try:
                psi(lawn, m)
            except InvalidInput:
                continue
            accepted.add(frozenset(lawn))
        assert accepted == tennis_lawns(m)


def test_psi_rejects_balls_out_of_range():
    # balls are ints, as in check_permutation: not bools or floats
    for lawn, m in (({0}, 1), ({3}, 1), ({1, 5}, 1), ({1}, -1), ({1.0}, 1), ({True}, 1),
                    ({1, 2.0}, 2)):
        with pytest.raises(InvalidInput):
            psi(lawn, m)


def test_psi_rejects_a_lawn_of_the_wrong_size_before_building_the_word():
    # a reachable lawn after m rounds holds m balls; the word would have
    # 2 * 10**12 + 2 letters
    for lawn, m in ((frozenset({1}), 10**12), (frozenset(), 10**12), ({1, 2}, 1)):
        with pytest.raises(InvalidInput, match=f"unreachable lawn configuration for m={m}"):
            psi(lawn, m)
