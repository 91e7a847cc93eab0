"""
End-to-end acceptance checks.

Each test covers one acceptance criterion and reports a single PASS/FAIL
line.  All comparisons are exact integer equality; there are no tolerances.
"""
import json

from duckwords.cli import main
from duckwords.counts import (
    catalan,
    catalan3d,
    duck_triangle,
    load_golden_triangle,
    tennis_ball_weighted,
    underlined_triangle,
    verify_identities,
)
from duckwords.hooks import red_vhc_count_brute, verify_eq1
from duckwords.maps import phi, phi_inverse, phi_prime, phi_prime_inverse, tennis_lawns
from duckwords.words import (
    decode,
    duck_index,
    enumerate_3d_dyck,
    enumerate_rewritten,
    enumerate_underlined,
    rewrite,
    underline_all,
)

FIG5_JSON = '{"perm":[3,2,4,1,7,8,6,9,10,11,5,12],"hooks":[[1,9],[3,5],[6,8],[10,12]]}'
FIG7_JSON = '{"perm":[3,2,1,5,6,4,8,9,7,10],"hooks":[[1,8],[2,4],[5,7],[8,10]]}'


def report(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_reduced_count_triangle(capsys):
    code, out = run_cli(capsys, "triangle", "redvhc", "--kmax", "7")
    rows = [tuple(int(e) for e in line.split(",")) for line in out.strip().splitlines()]
    golden = load_golden_triangle("redvhc")
    expected = [tuple(reversed(golden.row(k))) for k in range(1, 8)]
    ok = code == 0 and rows == expected
    ok = ok and rows[6] == (40898, 511607, 2472322, 5999489, 7794646, 5182011, 1385670)
    report(1, "reduced-count triangle kmax=7", ok)


def test_criterion_2_duck_count_triangle(capsys):
    code, out = run_cli(capsys, "triangle", "duck", "--kmax", "7")
    rows = [tuple(int(e) for e in line.split(",")) for line in out.strip().splitlines()]
    golden = load_golden_triangle("duck")
    ok = code == 0 and rows == [golden.row(k) for k in range(1, 8)]
    ok = ok and rows[6] == (429, 14545, 127511, 408311, 527757, 266219, 40898)
    report(2, "duck-count triangle kmax=7", ok)


def test_criterion_3_brute_force_cross_validation():
    transform = underlined_triangle(5)
    ok = True
    for k in range(1, 6):
        for i in range(k):
            n = 3 * k - i
            if n > 11:
                continue
            ok = ok and red_vhc_count_brute(k, n, bound=11) == transform.row(k)[i]
    # and against listing the underlined words
    for k in range(1, 6):
        ok = ok and transform.row(k) == tuple(
            sum(1 for _ in enumerate_underlined(k, i)) for i in range(k))
    # spot values among the checked cells
    ok = ok and red_vhc_count_brute(1, 3) == 1
    ok = ok and red_vhc_count_brute(2, 5) == 3
    ok = ok and red_vhc_count_brute(2, 6) == 5
    ok = ok and red_vhc_count_brute(3, 7) == 14
    ok = ok and red_vhc_count_brute(4, 9) == 84
    ok = ok and red_vhc_count_brute(4, 10) == 485
    ok = ok and red_vhc_count_brute(4, 11, bound=11) == 849
    ok = ok and red_vhc_count_brute(5, 11, bound=11) == 594
    report(3, "brute-force cross-validation n<=11", ok)


def test_criterion_4_bijection_roundtrips(maximal_configs):
    ok = True
    for k in range(1, 5):
        words = set(enumerate_3d_dyck(k))
        configs = maximal_configs[k - 1]
        ok = ok and len(configs) == len(words)
        ok = ok and all(phi_inverse(phi(c)) == c for c in configs)
        ok = ok and all(phi(phi_inverse(w)) == w for w in words)
        for i in range(k):
            for u in enumerate_underlined(k, i):
                ok = ok and phi_prime(phi_prime_inverse(u)) == u
    report(4, "bijection roundtrips k<=4", ok)


def test_criterion_5_counting_equation():
    ok = all(verify_eq1(n)["equal"] for n in range(11))
    report(5, "hook-count equation n<=10", ok)


def test_criterion_6_identity_suite():
    rep = verify_identities(7)
    ok = rep["all_pass"]
    report(6, "identity suite kmax=7", ok)


def test_criterion_7_rewriting_codec():
    ok = True
    census: dict[tuple[int, int], set[str]] = {}
    for k in range(1, 5):
        for w in enumerate_3d_dyck(k):
            u = underline_all(w)
            r = rewrite(u)
            ok = ok and decode(r) == u
            census.setdefault((k, duck_index(w)), set()).add(r.to_text())
    # the rewriting is a bijection from duck words with index i onto the
    # rewritten words with i underlines, so the census matches the duck
    # counts cell by cell
    duck = duck_triangle(4)
    for k in range(1, 5):
        for i in range(k):
            generated = {r.to_text() for r in enumerate_rewritten(k, i)}
            ok = ok and census.get((k, i), set()) == generated
            ok = ok and len(generated) == duck.row(k)[i]
    report(7, "rewriting codec k<=4", ok)


def test_criterion_8_tennis_ball_process():
    ok = all(len(tennis_lawns(k - 1)) == catalan(k) for k in range(1, 7))
    for n in range(1, 7):
        ok = ok and sum(map(sum, tennis_lawns(n))) == tennis_ball_weighted(n)
    ok = ok and sum(map(sum, tennis_lawns(2))) == 23
    ok = ok and sum(map(sum, tennis_lawns(3))) == 131
    report(8, "tennis-ball process", ok)


def test_criterion_9_figure_fidelity(capsys):
    code1, out1 = run_cli(capsys, "map", "phi-inv", "XXYYXXZYZZYZ")
    ok = code1 == 0 and json.loads(out1) == json.loads(FIG5_JSON)
    code2, out2 = run_cli(capsys, "map", "phi-prime", FIG7_JSON)
    word = out2.strip()
    ok = ok and code2 == 0
    ok = ok and word.upper() == "XXYYXZYXZZYZ"
    underlined_at = {p + 1 for p, ch in enumerate(word) if ch.islower()}
    ok = ok and underlined_at == {4, 11}
    report(9, "figure fidelity", ok)
