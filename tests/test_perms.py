import pytest

from duckwords.errors import InvalidInput
from duckwords.perms import (
    avoids_312,
    check_permutation,
    descent_table,
    enumerate_av312,
    format_permutation,
    normalize,
    parse_permutation,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def left_to_right_maxima(pi):
    """Positions i such that pi[i-1] exceeds every earlier entry."""
    out = set()
    best = 0
    for i, v in enumerate(pi, start=1):
        if v > best:
            out.add(i)
            best = v
    return out


def contains_pattern(pi, sigma):
    """True iff some subsequence of pi is order-isomorphic to sigma: the
    generic pattern search that avoids_312 is checked against.

    Backtracking over positions, pruning with the relative-order constraints
    of the prefix chosen so far.
    """
    k = len(sigma)
    if k == 0:
        return True
    n = len(pi)
    if k > n:
        return False

    def extend(chosen, start):
        j = len(chosen)
        if j == k:
            return True
        for pos in range(start, n - (k - j) + 1):
            v = pi[pos]
            if all((v > w) == (sigma[j] > sigma[t]) for t, w in enumerate(chosen)):
                chosen.append(v)
                if extend(chosen, pos + 1):
                    return True
                chosen.pop()
        return False

    return extend([], 0)


def test_normalize():
    assert normalize([3, 1, 7]) == (2, 1, 3)
    assert normalize([]) == ()
    assert normalize([10, 20, 15]) == (1, 3, 2)


def test_normalize_rejects_ties():
    with pytest.raises(InvalidInput):
        normalize([1, 1, 2])


def test_check_permutation():
    assert check_permutation([2, 1, 3]) == (2, 1, 3)
    for bad in ([0, 1], [1, 3], [1, 1], [True, 2], [2.0, 1], ["1"], 5):
        with pytest.raises(InvalidInput):
            check_permutation(bad)


def test_parse_and_format():
    assert parse_permutation("3 2 4 1") == (3, 2, 4, 1)
    assert parse_permutation("3241") == (3, 2, 4, 1)
    assert format_permutation((3, 2, 4, 1)) == "3 2 4 1"
    assert parse_permutation(format_permutation((10, 2, 1, 3, 4, 5, 6, 7, 8, 9))) == (
        10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    for bad in ("1 2 x", "\u00b2", "1 2 3.0"):
        with pytest.raises(InvalidInput):
            parse_permutation(bad)


def test_descent_table():
    pi = (3, 2, 4, 1, 7, 8, 6, 9, 10, 11, 5, 12)
    t = descent_table(pi)
    assert t == ((1, 2), (3, 4), (6, 7), (10, 11))
    assert tuple(pi[i - 1] for i, _ in t) == (3, 4, 8, 11)
    assert {pi[j - 1] for _, j in t} == {2, 1, 6, 5}


def test_left_to_right_maxima():
    assert left_to_right_maxima((3, 2, 4, 1, 7)) == {1, 3, 5}
    assert left_to_right_maxima(()) == set()


def test_contains_pattern():
    assert contains_pattern((3, 1, 2), (3, 1, 2))
    assert contains_pattern((4, 1, 3, 2), (3, 1, 2))
    assert not contains_pattern((1, 2, 3), (2, 1))
    assert contains_pattern((1, 2, 3), ())
    assert contains_pattern((3, 4, 1, 5, 2), (3, 1, 2))
    assert not contains_pattern((2, 1, 3, 5, 6, 4, 7), (3, 1, 2))


def test_avoids_312_matches_pattern_search():
    import itertools
    for n in range(8):
        for pi in itertools.permutations(range(1, n + 1)):
            assert avoids_312(pi) == (not contains_pattern(pi, (3, 1, 2)))


def test_enumerate_av312_counts_catalan():
    for n in range(11):
        perms = list(enumerate_av312(n))
        assert len(perms) == CATALAN[n]
        assert perms == sorted(perms)  # lexicographic, duplicate-free
        assert all(avoids_312(p) for p in perms)
