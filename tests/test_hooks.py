import itertools
from math import comb

import pytest
from conftest import accepts, in_domain

from duckwords.errors import InvalidInput, ResourceLimit
from duckwords.hooks import (
    HookConfig,
    _av312_ending_in_n,
    _walk_vhcs,
    check_valid,
    count_vhcs,
    enumerate_red_vhcs_av312,
    enumerate_vhcs,
    hooks_projection,
    is_reduced,
    make_config,
    red_vhc_count_brute,
    reduce_config,
    verify_eq1,
)
from duckwords.maps import phi, phi_prime
from duckwords.perms import avoids_312, enumerate_av312
from duckwords.words import enumerate_dyck

# known valid configurations (perm, hooks)
VALID = [
    ((3, 2, 1, 5, 6, 4, 7), [(1, 5), (2, 4), (5, 7)]),
    ((3, 1, 4, 5, 2, 6, 7), [(1, 3), (4, 7)]),
]

# configurations failing condition (ii) or (iii), or ill-formed
INVALID = [
    ((3, 2, 1, 4), [(1, 4), (2, 4)]),          # horizontal overlap
    ((2, 1, 3, 4), [(1, 3), (1, 4)]),          # two hooks on one descent top
    ((3, 2, 1, 4, 5), [(1, 4), (2, 5)]),       # crossing at a non-plot point
    ((2, 1, 4, 3, 5), [(1, 4), (3, 5)]),       # point above a hook
]


def rejected(perm, hooks) -> bool:
    try:
        return not check_valid(make_config(perm, hooks)).valid
    except InvalidInput:
        return True


def test_known_valid_configs():
    for perm, hooks in VALID:
        report = check_valid(make_config(perm, hooks))
        assert report.valid and report.failed_condition == "none"


def test_known_invalid_configs():
    for perm, hooks in INVALID:
        assert rejected(perm, hooks)


def test_make_config_rejects_ill_formed_hooks():
    for hooks in (
        [(1, 5)],          # NE beyond n
        [(0, 3)],          # SW before position 1
        [(3, 1)],          # SW right of NE
        [(2, 3), (2, 3)],  # shared SW
        [(1, 2)],          # SW above NE
        [(1.0, 3)],        # not ints
        [(True, 3)],
        [(1, 2, 3)],       # not a pair
        [5],
    ):
        with pytest.raises(InvalidInput):
            make_config((2, 1, 3), hooks)
    for text in ('{"perm":[2,1,3],"hooks":[[1,5]]}', '{"perm":[2,1,3],"hooks":7}',
                 '{"perm":[2,1,3]}', "[" * 100000):
        with pytest.raises(InvalidInput):
            HookConfig.from_json(text)


def test_condition_iii_witness_is_the_crossing_pair():
    report = check_valid(make_config((3, 2, 1, 4, 5), [(1, 4), (2, 5)]))
    assert (report.failed_condition, report.witness) == ("iii", ((1, 4), (2, 5)))


def _drawn(pi, hook) -> set:
    # the lattice points of the L-shaped path: up from (a, pi_a), then right
    a, b = hook
    ya, yb = pi[a - 1], pi[b - 1]
    return {(a, y) for y in range(ya, yb + 1)} | {(x, yb) for x in range(a, b + 1)}


def _valid_by_drawing(pi, hooks) -> bool:
    """Conditions (i)-(iii) as the paper states them, on drawn point sets.

    Axis-aligned integer segments that meet do so at a lattice point, and
    an overlap holds at least two, so comparing lattice points is exact.
    """
    if {a for a, _ in hooks} != {i for i in range(1, len(pi)) if pi[i - 1] > pi[i]}:
        return False
    if any(pi[l - 1] > pi[b - 1] for a, b in hooks for l in range(a + 1, b)):
        return False
    for h1, h2 in itertools.combinations(hooks, 2):
        shared_ends = {(p, pi[p - 1]) for p in h1} & {(p, pi[p - 1]) for p in h2}
        if not _drawn(pi, h1) & _drawn(pi, h2) <= shared_ends:
            return False
    return True


def test_validity_matches_the_drawing():
    # every permutation with n <= 8 and every 312-avoider with n = 9; each
    # choice of one NE position j with pi_j > pi_top per descent top.  The
    # maps decide their domain as they read, replaying the builder, without
    # check_valid: each accepts exactly the configurations the direct checks
    # put in it.
    perms = itertools.chain(
        (pi for n in range(9) for pi in itertools.permutations(range(1, n + 1))),
        enumerate_av312(9),
    )
    accepted = [0, 0]  # by phi_prime, by phi
    for pi in perms:
        tops = [i for i in range(1, len(pi)) if pi[i - 1] > pi[i]]
        choices = [[j for j in range(t + 1, len(pi) + 1) if pi[j - 1] > pi[t - 1]]
                   for t in tops]
        valid = []
        for ne in itertools.product(*choices):
            hooks = list(zip(tops, ne))
            c = make_config(pi, hooks)
            expected = _valid_by_drawing(pi, hooks)
            assert check_valid(c).valid == expected, (pi, hooks)
            if expected:
                valid.append(tuple(hooks))
            inside = in_domain(c)
            maximal = inside and c.n == 3 * c.k
            assert (accepts(phi_prime, c), accepts(phi, c)) == (inside, maximal), (pi, hooks)
            accepted[0] += inside
            accepted[1] += maximal
        assert [c.hooks for c in enumerate_vhcs(pi)] == valid, pi
    assert accepted == [201, 49]


def test_condition_i_wrong_sw():
    report = check_valid(make_config((2, 1, 3), [(2, 3)]))
    assert not report.valid and report.failed_condition == "i"


def test_reduced_predicate():
    assert is_reduced(make_config(*VALID[0]))
    assert not is_reduced(make_config(*VALID[1]))  # (6,6) is a free point


def test_json_roundtrip():
    c = make_config(*VALID[0])
    assert HookConfig.from_json(c.to_json()) == c


def test_reduce_example():
    c = make_config((2, 1, 3, 5, 6, 4, 7), [(1, 4), (5, 7)])
    reduced, removed = reduce_config(c)
    assert reduced == make_config((2, 1, 4, 5, 3, 6), [(1, 3), (4, 6)])
    assert removed == frozenset({3})


def test_reduce_fixed_point():
    c = make_config(*VALID[0])
    assert reduce_config(c) == (c, frozenset())


def test_reduce_preserves_validity_and_avoidance():
    for n in range(8):
        for pi in enumerate_av312(n):
            for c in enumerate_vhcs(pi):
                reduced, _ = reduce_config(c)
                assert is_reduced(reduced)
                assert avoids_312(reduced.perm)


def test_enumerate_vhcs_yields_valid():
    for pi in enumerate_av312(6):
        for c in enumerate_vhcs(pi):
            assert check_valid(c).valid


def test_point_count_range():
    # every reduced k-hook configuration has between 2k+1 and 3k points
    for k in range(1, 4):
        for n in range(0, 3 * k + 1):
            count = red_vhc_count_brute(k, n)
            if count and k > 0:
                assert 3 * k - (k - 1) <= n <= 3 * k


def test_max_reduced_endpoints_are_ltr_maxima():
    for k in range(1, 4):
        for c in enumerate_red_vhcs_av312(3 * k, k):
            maxima = {i for i in range(1, c.n + 1) if c.perm[i - 1] == max(c.perm[:i])}
            assert c.endpoint_positions() <= maxima


def test_hooks_projection_unique_k1():
    c = make_config((2, 1, 3), [(1, 3)])
    assert hooks_projection(c) == "UD"


def test_hooks_projection_surjects_onto_dyck(maximal_configs):
    for k in range(1, 5):
        images = set()
        for c in maximal_configs[k - 1]:
            # the projection by its definition: U at a SW end, D at a NE end,
            # scanning positions left to right
            sw, ne = c.sw_positions(), c.ne_positions()
            scan = "".join("U" if p in sw else "D" for p in range(1, c.n + 1) if p in sw or p in ne)
            assert hooks_projection(c) == scan
            images.add(scan)
        assert images == set(enumerate_dyck(k))


def test_count_vhcs_identity_permutation():
    assert count_vhcs((1, 2, 3, 4)) == 1  # no descents, no hooks


def test_verify_eq1_small():
    for n in range(7):
        assert verify_eq1(n)["equal"]


def test_reduced_walk_matches_filtering_every_vhc():
    # the pruned search against the plain one: every VHC on every pi, kept
    # when reduced, grouped by hook count, in the same order
    for n in range(11):
        kept = [c for pi in enumerate_av312(n) for c in enumerate_vhcs(pi) if is_reduced(c)]
        assert list(enumerate_red_vhcs_av312(n)) == kept
        for k in range(n + 1):
            assert list(enumerate_red_vhcs_av312(n, k)) == [c for c in kept if c.k == k]


def test_only_permutations_ending_in_n_carry_vhcs():
    for n in range(1, 11):
        for pi in enumerate_av312(n):
            if pi[-1] != n:
                assert count_vhcs(pi) == 0


def test_verify_eq1_lhs_counts_every_permutation():
    for n in range(10):
        assert verify_eq1(n)["lhs"] == sum(count_vhcs(pi) for pi in enumerate_av312(n))


def test_single_point_has_no_reduced_config():
    assert red_vhc_count_brute(0, 1) == 0
    for call in (lambda: red_vhc_count_brute(-1, 3), lambda: red_vhc_count_brute(0, True),
                 lambda: list(enumerate_red_vhcs_av312(True)),
                 lambda: list(enumerate_red_vhcs_av312(3, -1)),
                 lambda: list(enumerate_red_vhcs_av312(3, 1.0))):
        with pytest.raises(InvalidInput):
            call()
    with pytest.raises(InvalidInput, match="got 2.5"):
        red_vhc_count_brute(1, 2.5)
    assert sum(1 for _ in enumerate_red_vhcs_av312(0)) == 1  # empty config


def test_enumerate_vhcs_lists_a_tuple_permutation():
    configs = list(enumerate_vhcs([2, 1, 3]))
    assert configs == [make_config((2, 1, 3), [(1, 3)])]
    hash(configs[0])


def test_descent_walk_lists_av312_by_descents():
    # the walk that records tops against enumerate_av312 and the definitions;
    # with k descents there are C(n-1, k) C(n-1, k+1) / (n-1), for n >= 2
    for n in range(11):
        pis = [sigma + (n,) for sigma in enumerate_av312(n - 1)] if n else [()]
        listed = []
        for pi in pis:
            tops = tuple(i for i in range(1, n) if pi[i - 1] > pi[i])
            bare = tuple(p for p in range(1, n + 1) if p not in tops and p - 1 not in tops)
            listed.append((pi, tops, bare))
        for k in [None, *range(n + 1)]:
            walked = list(_av312_ending_in_n(n, k))
            assert walked == [t for t in listed if k is None or len(t[1]) == k], (n, k)
            if n >= 2 and k is not None:
                assert len(walked) == comb(n - 1, k) * comb(n - 1, k + 1) // (n - 1)


def test_reduced_descent_walk_drops_only_permutations_without_reduced_vhcs():
    # the walk that cuts doomed prefixes lists, in order, a part of the plain
    # walk, and every permutation it leaves out carries no reduced VHC
    for n in range(11):
        for k in [None, *range(n + 1)]:
            walked = list(_av312_ending_in_n(n, k))
            cut = list(_av312_ending_in_n(n, k, reduced=True))
            rest = iter(walked)
            assert all(t in rest for t in cut), (n, k)
            kept = set(cut)
            for pi, tops, bare in walked:
                if (pi, tops, bare) not in kept:
                    assert not any(all(p in ends for p in bare)
                                   for ends in _walk_vhcs(pi, tops)), (pi, k)
    assert len(list(_av312_ending_in_n(8, 3))) == 175
    assert len(list(_av312_ending_in_n(8, 3, reduced=True))) == 50


def test_descent_walk_counts_past_ten_points():
    # Narayana's 13,860 at (12, 4) and Catalan's 4,862 at n = 10, then the cut walk
    for args, plain, cut in (((12, 4), 13860, 1500), ((10,), 4862, 1430)):
        assert len(_av312_ending_in_n(*args)) == plain, args
        assert len(_av312_ending_in_n(*args, reduced=True)) == cut, args


def test_deep_brute_force_walk_is_a_resource_limit():
    # the walk recurses once per stack move: a cut walk stays shallow, and an
    # uncut one deeper than Python allows is refused, not left to crash
    assert red_vhc_count_brute(1, 600, bound=600) == 0
    with pytest.raises(ResourceLimit, match="n=2000"):
        red_vhc_count_brute(2, 2000, bound=2000)


def _ne_candidates(pi, top) -> list[int]:
    # The reference list of legal NE ends for the descent top at `top`:
    # j iff pi_j > pi_top and no interior point exceeds pi_j (condition ii
    # for this hook alone).  enumerate_vhcs walks next-greater chains instead.
    out = []
    interior_max = 0
    for j in range(top + 1, len(pi) + 1):
        vj = pi[j - 1]
        if vj > pi[top - 1] and vj > interior_max:
            out.append(j)
        interior_max = max(interior_max, vj)
    return out


def test_ne_ends_come_from_the_candidate_lists():
    for n in range(8):
        for pi in itertools.permutations(range(1, n + 1)):
            for c in enumerate_vhcs(pi):
                assert all(b in _ne_candidates(pi, a) for a, b in c.hooks), c


def _lifo_count(pi) -> int:
    # Scan positions left to right: an ascent top may close the most recent
    # open hook or skip, then a descent top opens one; count the paths that
    # end with no hook open.  Only the number of open hooks matters.
    paths = {0: 1}
    for p in range(1, len(pi) + 1):
        if p > 1 and pi[p - 2] < pi[p - 1]:
            closed = {h - 1: c for h, c in paths.items() if h}
            paths = {h: paths.get(h, 0) + closed.get(h, 0) for h in paths.keys() | closed}
        if p < len(pi) and pi[p - 1] > pi[p]:
            paths = {h + 1: c for h, c in paths.items()}
    return paths.get(0, 0)


def test_count_vhcs_is_the_lifo_matching_count():
    for n in range(11):
        for pi in enumerate_av312(n):
            assert count_vhcs(pi) == _lifo_count(pi), pi


def test_count_vhcs_counts_enumerate_vhcs():
    for n in range(8):
        for pi in itertools.permutations(range(1, n + 1)):
            assert count_vhcs(pi) == sum(1 for _ in enumerate_vhcs(pi)), pi


def test_eq1_top_term_matches_the_pruned_walk():
    # verify_eq1 takes its r = n term from the walk over every VHC
    for n in range(10):
        assert verify_eq1(n)["reduced_counts"][n] == sum(1 for _ in enumerate_red_vhcs_av312(n))
