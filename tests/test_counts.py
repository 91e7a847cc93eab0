import random
from math import comb

import pytest

from duckwords.counts import (
    TRANSFER_KMAX,
    CountTriangle,
    IntPolynomial,
    catalan,
    catalan3d,
    duck_k1_oracle,
    duck_triangle,
    f_poly,
    h_poly,
    load_golden_triangle,
    tennis_ball_weighted,
    underlined_triangle,
    verify_identities,
)
from duckwords.errors import InvalidInput, ResourceLimit
from duckwords.hooks import red_vhc_count_brute
from duckwords.maps import SIMULATE_ROUNDS_LIMIT, tennis_lawns
from duckwords.words import enumerate_dyck, enumerate_underlined


def test_catalan():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan3d():
    assert [catalan3d(k) for k in range(5)] == [1, 1, 5, 42, 462]
    assert catalan3d(7) == 1385670


def test_count_triangle_csv_roundtrip():
    tri = duck_triangle(4)
    assert CountTriangle.from_csv(tri.to_csv()) == tri


def test_duck_triangle_known_rows():
    tri = duck_triangle(5)
    assert tri.row(1) == (1,)
    assert tri.row(2) == (2, 3)
    assert tri.row(3) == (5, 23, 14)
    assert tri.row(4) == (14, 131, 233, 84)
    assert tri.row(5) == (42, 664, 2339, 2367, 594)


def test_binomial_transform():
    assert IntPolynomial((14, 131, 233, 84)).shift(1).coefficients == (462, 849, 485, 84)


def reference_duck_triangle(kmax: int) -> CountTriangle:
    """The duck recurrence with a list indexed by i at each (x, y, z,
    last-was-X) state, kept as a reference for the packed one."""
    zero = [0] * kmax
    rows = []
    prev = []
    for x in range(kmax + 1):
        # cur[y][z] = (counts of prefixes ending in X, counts of the others)
        cur = []
        for y in range(x + 1):
            line = []
            for z in range(y + 1):
                # append X to (x-1, y, z); the empty prefix starts the count
                after_x = [a + b for a, b in zip(*prev[y][z])] if y < x else zero
                other = [1] + zero[1:] if x == 0 else zero
                if z < y:  # append Y to (x, y-1, z)
                    a, b = cur[y - 1][z]
                    other = [o + p + q for o, p, q in zip(other, a, [0] + b)]
                if z:  # append Z to (x, y, z-1)
                    a, b = line[z - 1]
                    other = [o + p + q for o, p, q in zip(other, a, b)]
                line.append((after_x, other))
            cur.append(line)
        if x:
            rows.append(tuple(cur[x][x][1][:x]))
        prev = cur
    return CountTriangle(tuple(rows))


def test_duck_triangle_matches_the_list_recurrence():
    assert duck_triangle(50) == reference_duck_triangle(50)


def test_underlined_triangle_methods_agree():
    # the binomial transform against listing the words and searching the
    # configurations
    transform = underlined_triangle(3)
    for k in range(1, 4):
        assert transform.row(k) == tuple(
            sum(1 for _ in enumerate_underlined(k, i)) for i in range(k))
        assert transform.row(k) == tuple(red_vhc_count_brute(k, 3 * k - i) for i in range(k))
    assert transform.row(3) == (42, 51, 14)


def test_brute_force_matches_the_triangle_at_twelve_points():
    # the two cells with 3k - i = 12, past the default brute-force bound
    transform = underlined_triangle(5)
    for k, i, count in ((4, 0, 462), (5, 3, 4743)):
        assert red_vhc_count_brute(k, 3 * k - i, bound=12) == transform.row(k)[i] == count


def test_enum_limit_raises():
    with pytest.raises(ResourceLimit):
        duck_triangle(TRANSFER_KMAX + 1)
    with pytest.raises(ResourceLimit, match="n=12 exceeds brute-force bound 10"):
        red_vhc_count_brute(4, 12)


def test_triangle_negative_kmax_raises():
    for triangle in (duck_triangle, underlined_triangle):
        with pytest.raises(InvalidInput):
            triangle(-1)
    assert duck_triangle(0).rows == underlined_triangle(0).rows == ()


def test_duck_triangle_closed_forms():
    tri = duck_triangle(TRANSFER_KMAX)
    assert tri.kmax == TRANSFER_KMAX >= 25
    for k in range(1, TRANSFER_KMAX + 1):
        row = tri.row(k)
        assert sum(row) == catalan3d(k)
        assert row[0] == catalan(k)
        assert row[k - 1] == catalan(k) * catalan(k + 2) - catalan(k + 1) ** 2
        if k >= 2:
            assert row[1] == tennis_ball_weighted(k - 1)


def test_int_polynomial():
    p = IntPolynomial((1, 2, 3))  # 1 + 2x + 3x^2
    assert p(0) == 1 and p(1) == 6 and p(-1) == 2
    assert p.shift(1)(0) == p(1)  # shift composes with translation


def reference_shift(coefficients, delta):
    # p(x + delta) by the binomial expansion of each (x + delta)^i
    out = [0] * len(coefficients)
    for i, c in enumerate(coefficients):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * delta ** (i - j)
    return tuple(out)


def test_shift_matches_the_binomial_expansion():
    rng = random.Random(2701)
    for _ in range(400):
        coefficients = tuple(rng.randint(-10**6, 10**6) for _ in range(rng.randrange(13)))
        p = IntPolynomial(coefficients)
        for delta in (-3, -1, 0, 1, 2, rng.randint(-50, 50)):
            assert p.shift(delta).coefficients == reference_shift(coefficients, delta)


def test_f_and_h_polynomials():
    for k in range(1, 5):
        f = f_poly(k)
        h = h_poly(k)
        assert f(0) == catalan3d(k)
        assert f(-1) == catalan(k)
        for x in range(-3, 4):
            assert h(x) == f(x - 1)
        assert all(c > 0 for c in h.coefficients)


def test_row_outside_the_triangle_raises():
    tri = duck_triangle(3)
    for k in (0, -1, 4, True, "1"):
        with pytest.raises(InvalidInput):
            tri.row(k)
    with pytest.raises(InvalidInput):
        duck_triangle(0).row(0)


def test_polynomials_at_k_zero():
    # the empty configuration, as `count underlined --k 0 --i 0` prints 1
    assert f_poly(0) == h_poly(0) == IntPolynomial((1,))
    for poly in (f_poly, h_poly):
        with pytest.raises(InvalidInput, match="^k must be nonnegative$"):
            poly(-1)


def test_tennis_ball_weighted():
    assert tennis_ball_weighted(2) == 23
    assert tennis_ball_weighted(3) == 131
    # closed form: (2n^2+5n+4) C(2n+1,n)/(n+2) - 2^(2n+1) at n=2
    assert (2 * 4 + 10 + 4) * 10 // 4 - 2 ** 5 == 23
    for n in range(SIMULATE_ROUNDS_LIMIT + 1):
        assert sum(map(sum, tennis_lawns(n))) == tennis_ball_weighted(n)


def test_tennis_ball_count():
    # the lawn count is catalan(m + 1), checked against the simulated process
    assert [catalan(n + 1) for n in range(6)] == [1, 2, 5, 14, 42, 132]
    for n in range(SIMULATE_ROUNDS_LIMIT + 1):
        assert len(tennis_lawns(n)) == catalan(n + 1)
    with pytest.raises(ResourceLimit):
        tennis_lawns(SIMULATE_ROUNDS_LIMIT + 1)


def test_duck_k1_oracle():
    assert duck_k1_oracle(1) == 0
    assert duck_k1_oracle(2) == 3
    assert duck_k1_oracle(5) == 664
    for k in range(2, 7):
        assert duck_k1_oracle(k) == duck_triangle(k).row(k)[1]
    # the recurrence against its definition, summed over every Dyck word
    for k in range(11):
        total = 0
        for w in enumerate_dyck(k):
            u_positions = [p for p, ch in enumerate(w) if ch == "U"]
            total += sum(u_positions[1:])
        assert duck_k1_oracle(k) == total
    for k in range(2, TRANSFER_KMAX + 1):
        assert duck_k1_oracle(k) == tennis_ball_weighted(k - 1)


def test_golden_files_load():
    duck = load_golden_triangle("duck")
    red = load_golden_triangle("redvhc")
    assert duck.kmax == red.kmax == 7
    assert duck.row(2) == (2, 3)
    assert red.row(2) == (5, 3)
    assert red.row(k=7)[0] == 1385670


def test_golden_dir_override(tmp_path):
    (tmp_path / "duck_triangle.csv").write_text("1\n2,3\n")
    assert load_golden_triangle("duck", tmp_path).row(2) == (2, 3)
    with pytest.raises(InvalidInput):
        load_golden_triangle("redvhc", tmp_path)
    # a cell that is not an integer, bytes that are not UTF-8, and no rows
    for content in (b"1\n2,x\n", b"1\n2,\xff\n", b"", b"\n\n"):
        (tmp_path / "duck_triangle.csv").write_bytes(content)
        with pytest.raises(InvalidInput):
            load_golden_triangle("duck", tmp_path)


def test_golden_triangle_names_are_checked_before_any_path(tmp_path):
    (tmp_path / "x_triangle.csv").write_text("1\n")
    for name in ("nope", None, "../x", "duck/../redvhc", 1):
        for directory in (None, tmp_path / "sub"):
            with pytest.raises(InvalidInput, match="'duck' and 'redvhc'"):
                load_golden_triangle(name, directory)


def test_verify_identities_small():
    report = verify_identities(4)
    assert report["all_pass"]
    ids = {entry["id"] for entry in report["identities"]}
    assert {
        "row_sum_3d_catalan", "duck_i0_catalan", "duck_top_hankel",
        "underline_transform", "total_power_sum", "alternating_sum_catalan",
        "f_at_zero_3d_catalan", "duck_k1_tennis_ball", "h_poly_positive",
    } <= ids


def test_verify_reports_the_simulated_range():
    # the tennis-ball process is simulated for n <= kmax - 1, capped at 6
    for kmax, simulated in ((1, 0), (2, 1), (7, 6)):
        entry = {e["id"]: e for e in verify_identities(kmax)["identities"]}["duck_k1_tennis_ball"]
        assert entry["simulated_up_to"] == simulated


@pytest.mark.parametrize("kmax", [0, 1, 4, TRANSFER_KMAX])
def test_verify_report_shape(kmax):
    report = verify_identities(kmax)
    entries = report["identities"]
    assert report["kmax"] == kmax
    assert len({e["id"] for e in entries}) == len(entries)
    assert all({"id", "description", "pass"} <= e.keys() for e in entries)
    assert report["all_pass"] is all(e["pass"] for e in entries) is True
    by_id = {e["id"]: e for e in entries}
    roundtrips = by_id["roundtrips"]
    assert roundtrips["checked_up_to"] == min(kmax, 4)
    if kmax == 4:
        assert roundtrips["checked"] == 3016
    eq1 = by_id["eq1"]["values"]
    assert [r["n"] for r in eq1] == list(range(7))
    assert [(r["lhs"], r["rhs"]) for r in eq1] == [(v, v) for v in (1, 1, 1, 2, 5, 14, 44)]


def test_identity_values_spot_checks():
    # Hankel-style corner: Duck_{3,2} = C_3 C_5 - C_4^2
    assert duck_triangle(3).row(3)[2] == 5 * 42 - 14 ** 2 == 14
    # alternating sum of underlined row 3 returns the Catalan number
    assert 42 - 51 + 14 == catalan(3)
    # doubling identity on row 4
    assert 14 + 2 * 131 + 4 * 233 + 8 * 84 == sum((462, 849, 485, 84)) == 1880
