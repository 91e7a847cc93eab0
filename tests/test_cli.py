import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from duckwords import cli
from duckwords.cli import main
from duckwords.counts import CATALAN_KMAX, TRANSFER_KMAX
from duckwords.hooks import red_vhc_count_brute, verify_eq1
from duckwords.maps import SIMULATE_ROUNDS_LIMIT, tennis_lawns
from duckwords.words import enumerate_3d_dyck

FIG5_JSON = '{"perm":[3,2,4,1,7,8,6,9,10,11,5,12],"hooks":[[1,9],[3,5],[6,8],[10,12]]}'
FIG7_JSON = '{"perm":[3,2,1,5,6,4,8,9,7,10],"hooks":[[1,8],[2,4],[5,7],[8,10]]}'
ROOT = Path(__file__).resolve().parents[1]

# the option dests of each command: only what the command reads
OPTIONS = {
    "triangle": {"kind", "kmax", "format", "out"},
    "verify": {"kmax", "golden_dir", "out"},
    "map": {"direction", "input", "roundtrip"},
    "render": {"input", "format", "labels", "out"},
    "enumerate": {"kind", "n", "k", "i", "perm", "brute_bound", "format", "out"},
    "count": {"kind", "n", "k", "i", "m", "perm", "brute_bound"},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_triangle_duck_csv(capsys):
    code, out = run(capsys, "triangle", "duck", "--kmax", "3")
    assert code == 0
    assert out.strip().splitlines() == ["1", "2,3", "5,23,14"]


def test_triangle_redvhc_display_order(capsys):
    code, out = run(capsys, "triangle", "redvhc", "--kmax", "2")
    assert code == 0
    assert out.strip().splitlines() == ["1", "3,5"]


def test_triangle_kmax_zero(capsys):
    code, out = run(capsys, "triangle", "duck", "--kmax", "0")
    assert code == 0
    assert out.strip() == ""


def test_triangle_json(capsys):
    code, out = run(capsys, "triangle", "underlined", "--kmax", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"kind": "underlined", "rows": [[1], [5, 3]]}


def test_map_phi_inverse(capsys):
    code, out = run(capsys, "map", "phi-inv", "XXYYXXZYZZYZ")
    assert code == 0
    assert json.loads(out) == json.loads(FIG5_JSON)


def test_map_phi_roundtrip_flag(capsys):
    code, out = run(capsys, "map", "phi", FIG5_JSON, "--roundtrip")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "XXYYXXZYZZYZ"
    assert json.loads(lines[1]) == json.loads(FIG5_JSON)


def test_map_phi_prime(capsys):
    code, out = run(capsys, "map", "phi-prime", FIG7_JSON)
    assert code == 0
    assert out.strip() == "XXYyXZYXZZyZ"


def test_map_phi_prime_inverse(capsys):
    code, out = run(capsys, "map", "phi-prime-inv", "XXYyXZYXZZyZ")
    assert code == 0
    assert json.loads(out) == json.loads(FIG7_JSON)


def test_map_malformed_input_exit_2(capsys):
    assert main(["map", "phi-inv", "XZY"]) == 2
    assert main(["map", "phi", "not json"]) == 2


def test_malformed_config_exit_2(capsys):
    # hooks out of range and non-int entries are usage errors, not crashes or
    # drawings off the canvas
    for argv in (
        ["render", '{"perm":[2,1,3],"hooks":[[1,5]]}'],
        ["render", '{"perm":[2,1,3],"hooks":[[0,3]]}'],
        ["render", '{"perm":[true,2],"hooks":[]}'],
        ["map", "phi-prime", '{"perm":[2.0,1,3],"hooks":[[1,3]]}'],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_render_svg_structure(capsys):
    config = '{"perm":[3,2,1,5,6,4,7],"hooks":[[1,5],[2,4],[5,7]]}'
    code, out = run(capsys, "render", config)
    assert code == 0
    assert out.count("<circle") == 7
    assert out.count("<polyline") == 3


def test_render_tikz_deterministic(capsys):
    _, first = run(capsys, "render", FIG5_JSON, "--format", "tikz", "--labels")
    _, second = run(capsys, "render", FIG5_JSON, "--format", "tikz", "--labels")
    assert first == second
    assert "\\begin{tikzpicture}" in first


def test_render_empty_config(capsys):
    code, out = run(capsys, "render", '{"perm":[],"hooks":[]}')
    assert code == 0
    assert out.startswith("<svg")


def test_enumerate_and_count(capsys):
    code, out = run(capsys, "enumerate", "dyck", "--k", "2")
    assert code == 0
    assert out.strip().splitlines() == ["UDUD", "UUDD"]
    code, out = run(capsys, "count", "av312", "--n", "5")
    assert (code, out.strip()) == (0, "42")
    code, out = run(capsys, "count", "redvhc", "--k", "2", "--n", "5")
    assert (code, out.strip()) == (0, "3")


def test_count_redvhc_reads_the_triangle(capsys):
    # every cell against the brute force, those off the triangle included
    for k in range(5):
        for n in range(11):
            code, out = run(capsys, "count", "redvhc", "--k", str(k), "--n", str(n))
            assert (code, out) == (0, f"{red_vhc_count_brute(k, n)}\n"), (k, n)
    # beyond the brute-force bound
    code, out = run(capsys, "count", "redvhc", "--k", "4", "--n", "12")
    assert (code, out) == (0, "462\n")
    code, out = run(capsys, "count", "redvhc", "--k", str(TRANSFER_KMAX + 1),
                    "--n", str(3 * TRANSFER_KMAX + 3))
    assert (code, out) == (3, "")
    for k, n in (("-1", "3"), ("1", "-3")):
        code, out = run(capsys, "count", "redvhc", "--k", k, "--n", n)
        assert (code, out) == (2, "")


def test_enumerate_output(capsys, tmp_path):
    # more words than one block of output; k = 0 has one word, the empty one
    for k in (5, 0):
        words = list(enumerate_3d_dyck(k))
        for fmt, text in (("lines", "\n".join(words)), ("json", json.dumps(words))):
            code, out = run(capsys, "enumerate", "3d-dyck", "--k", str(k), "--format", fmt)
            assert (code, out) == (0, text + "\n")
            target = tmp_path / f"{k}.{fmt}"
            code, out = run(capsys, "enumerate", "3d-dyck", "--k", str(k), "--format", fmt,
                            "--out", str(target))
            assert (code, out) == (0, "")
            assert target.read_text() == text


def test_enumerate_checks_arguments_before_writing(capsys, tmp_path):
    # enumerate_underlined checks i only when it is first advanced
    target = tmp_path / "kept.txt"
    target.write_text("kept")
    for fmt in ("lines", "json"):
        code, out = run(capsys, "enumerate", "underlined", "--k", "3", "--i", "7",
                        "--format", fmt)
        assert (code, out) == (2, "")
        assert main(["enumerate", "underlined", "--k", "3", "--i", "7", "--format", fmt,
                     "--out", str(target)]) == 2
        assert target.read_text() == "kept"


def test_enumerate_writes_as_it_goes(capsys, monkeypatch):
    def items(args):
        yield from (str(n) for n in range(cli.ENUM_BLOCK))
        raise RuntimeError("stopped")

    monkeypatch.setattr(cli, "_enumerated_items", items)
    code, out = run(capsys, "enumerate", "dyck", "--k", "1")
    assert code == 4
    assert out == "\n".join(str(n) for n in range(cli.ENUM_BLOCK))


def test_vhc_perm_bounded(capsys):
    # 2 1 4 3 ... 8 7 9 10 11 12: the configurations of this family grow
    # about fourfold every three points
    perm = " ".join(map(str, [2, 1, 4, 3, 6, 5, 8, 7, 9, 10, 11, 12]))
    for command in ("count", "enumerate"):
        code, out = run(capsys, command, "vhc", "--perm", perm)
        assert (code, out) == (3, "")
    code, out = run(capsys, "count", "vhc", "--perm", perm, "--brute-bound", "12")
    assert code == 0
    code, listed = run(capsys, "enumerate", "vhc", "--perm", perm, "--brute-bound", "12")
    assert code == 0 and len(listed.splitlines()) == int(out) > 1


def test_unexpected_exception_exit_4(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_count", broken)
    assert main(["count", "catalan", "--k", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_count_missing_flag_exit_2(capsys):
    assert main(["count", "dyck"]) == 2


def test_enumerate_offers_only_listable_kinds(capsys):
    for kind in ("catalan", "catalan3d", "redvhc", "tennis-lawns", "tennis-weighted"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", kind, "--k", "3"])
        assert exc.value.code == 2
    code, out = run(capsys, "count", "catalan", "--k", "3")
    assert (code, out.strip()) == (0, "5")


def test_duck_index_out_of_range_exit_2(capsys):
    for command in ("enumerate", "count"):
        for i in ("-1", "3"):
            code, out = run(capsys, command, "duck", "--k", "3", "--i", i)
            assert (code, out) == (2, "")
    code, out = run(capsys, "count", "duck", "--k", "3", "--i", "2")
    assert (code, out.strip()) == (0, "14")
    code, out = run(capsys, "count", "redvhc", "--k", "-1", "--n", "3")
    assert (code, out) == (2, "")
    for kind in ("duck", "underlined", "rewritten"):
        for command in ("enumerate", "count"):
            assert main([command, kind, "--k", "-1", "--i", "0"]) == 2
            assert capsys.readouterr().err == "error: k must be nonnegative\n"


def test_tennis_lawns_count_bounded(capsys):
    # the closed form against the simulated process
    for m in range(SIMULATE_ROUNDS_LIMIT + 1):
        code, out = run(capsys, "count", "tennis-lawns", "--m", str(m))
        assert (code, out) == (0, f"{len(tennis_lawns(m))}\n")
    code, out = run(capsys, "count", "tennis-lawns", "--m", "9")
    assert (code, out.strip()) == (0, "16796")
    code, out = run(capsys, "count", "tennis-lawns", "--m", str(CATALAN_KMAX - 1))
    assert code == 0 and out.strip().isdigit()
    for m in (CATALAN_KMAX, 99999999999):
        assert main(["count", "tennis-lawns", "--m", str(m)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: m={m} exceeds limit {CATALAN_KMAX - 1}\n"
    assert main(["count", "tennis-lawns", "--m", "-1"]) == 2
    assert capsys.readouterr().err == "error: m must be nonnegative\n"


def test_map_psi(capsys):
    # twelve rounds: far too many lawns to list them all
    lawn = ",".join(str(b) for b in range(1, 13))
    code, out = run(capsys, "map", "psi", lawn)
    assert (code, out.strip()) == (0, "U" + "U" * 12 + "D" * 12 + "D")
    assert main(["map", "psi", "13,14"]) == 2
    assert main(["map", "psi", "3,4"]) == 2
    # two listed balls are not a one-ball lawn
    assert main(["map", "psi", "1,1"]) == 2


def test_resource_limit_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "underlined", "--method", "enumerate", "--kmax", "9"])
    assert exc.value.code == 2
    assert main(["triangle", "duck", "--kmax", str(TRANSFER_KMAX + 1)]) == 3
    # past the recurrence's limit, refused before any other check runs
    code, out = run(capsys, "verify", "--kmax", str(TRANSFER_KMAX + 1))
    assert (code, out) == (3, "")
    for kind in ("duck", "underlined"):
        assert main(["count", kind, "--k", str(TRANSFER_KMAX + 1), "--i", "0"]) == 3
        code, out = run(capsys, "count", kind, "--k", str(TRANSFER_KMAX), "--i", "1")
        assert code == 0 and out.strip().isdigit()
    # each command names its own flag: count --k, triangle and verify --kmax
    k = TRANSFER_KMAX + 1
    cases = [("count", kind, "--k", k, "--i", 0) for kind in ("duck", "rewritten", "underlined")]
    cases += [("count", "redvhc", "--k", k, "--n", 3 * k), ("triangle", "duck", "--kmax", k),
              ("verify", "--kmax", k)]
    for argv in cases:
        assert main([str(a) for a in argv]) == 3
        name = "kmax" if "--kmax" in argv else "k"
        err = capsys.readouterr().err
        assert err == f"error: {name}={k} exceeds recurrence limit {TRANSFER_KMAX}\n", argv


def test_count_reads_what_enumerate_lists(capsys):
    cases = [("av312", "--n", n) for n in range(9)]
    cases += [(kind, "--k", k) for kind in ("dyck", "3d-dyck") for k in range(6)]
    for kind in ("duck", "underlined", "rewritten"):
        cases += [(kind, "--k", k, "--i", i) for k in range(6) for i in range(max(k, 1))]
    for case in cases:
        argv = [str(a) for a in case]
        code, listed = run(capsys, "enumerate", *argv, "--format", "json")
        assert code == 0
        code, out = run(capsys, "count", *argv)
        assert (code, out) == (0, f"{len(json.loads(listed))}\n"), argv


def test_count_catalan_bounded(capsys):
    for kind, flag in (("catalan", "--k"), ("catalan3d", "--k"), ("tennis-weighted", "--m"),
                       ("dyck", "--k"), ("3d-dyck", "--k"), ("av312", "--n")):
        code, out = run(capsys, "count", kind, flag, str(CATALAN_KMAX))
        assert code == 0 and out.strip().isdigit()
        for k in (CATALAN_KMAX + 1, 8000, 99999999999):
            assert main(["count", kind, flag, str(k)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {flag[2:]}={k} exceeds limit {CATALAN_KMAX}\n"


def test_unwritable_out_exit_2(capsys, tmp_path):
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        for argv in (("triangle", "duck", "--kmax", "3"),
                     ("render", FIG5_JSON),
                     ("enumerate", "dyck", "--k", "2")):
            assert main([*argv, "--out", str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")


def test_triangle_negative_kmax_exit_2(capsys):
    code, out = run(capsys, "triangle", "duck", "--kmax", "-2")
    assert (code, out) == (2, "")


def test_triangle_duck_method_exit_2(capsys):
    # the triangles have one method each, so there is no option to choose one
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "duck", "--kmax", "3", "--method", "enumerate"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_small(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--kmax", "2", "--out", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["all_pass"]


def test_verify_negative_range_exit_2(capsys):
    code, out = run(capsys, "verify", "--kmax", "-1")
    assert (code, out) == (2, "")
    # a negative brute-force bound is bad input, not a resource limit
    for argv in (["count", "vhc", "--perm", "213"],
                 ["enumerate", "vhc", "--perm", "213"]):
        code, out = run(capsys, *argv, "--brute-bound", "-1")
        assert (code, out) == (2, "")


def test_verify_to_transfer_kmax(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--kmax", str(TRANSFER_KMAX), "--out", str(out_file)])
    assert code == 0
    assert json.loads(out_file.read_text())["all_pass"]


def test_verify_corrupted_golden_exit_1(capsys, tmp_path):
    from duckwords.counts import load_golden_triangle
    good_duck = load_golden_triangle("duck").to_csv()
    good_red = load_golden_triangle("redvhc").to_csv()
    (tmp_path / "duck_triangle.csv").write_text(good_duck)
    corrupted = good_red.replace("5,3", "5,4")
    assert corrupted != good_red
    (tmp_path / "redvhc_triangle.csv").write_text(corrupted)
    code = main(["verify", "--kmax", "2", "--golden-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "golden" in captured.err
    # an empty golden file would check nothing: bad input, not a pass
    (tmp_path / "duck_triangle.csv").write_text("")
    (tmp_path / "redvhc_triangle.csv").write_text(good_red)
    code, out = run(capsys, "verify", "--kmax", "7", "--golden-dir", str(tmp_path))
    assert (code, out) == (2, "")


def _corrupt_golden(monkeypatch, tmp_path):
    from duckwords.counts import load_golden_triangle
    (tmp_path / "duck_triangle.csv").write_text(load_golden_triangle("duck").to_csv())
    red = load_golden_triangle("redvhc").to_csv()
    (tmp_path / "redvhc_triangle.csv").write_text(red.replace("5,3", "5,4"))
    return ["--golden-dir", str(tmp_path)]


def _patch(target, fake):
    def setup(monkeypatch, tmp_path):
        monkeypatch.setattr(target, fake)
        return []
    return setup


# one check of each kind, each made to fail on its own
BROKEN_CHECKS = {
    "duck_k1_tennis_ball": _patch("duckwords.counts.duck_k1_oracle", lambda k: 0),
    "eq1": _patch("duckwords.hooks.verify_eq1",
                  lambda n: {**verify_eq1(n), "rhs": -1, "equal": False}),
    "roundtrips": _patch("duckwords.maps.phi", lambda c: "XYZ"),
    "golden_triangles": _corrupt_golden,
}


@pytest.mark.parametrize("failed_id", sorted(BROKEN_CHECKS))
def test_verify_names_each_failed_check(capsys, monkeypatch, tmp_path, failed_id):
    extra = BROKEN_CHECKS[failed_id](monkeypatch, tmp_path)
    code = main(["verify", "--kmax", "2", *extra])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1 and report["all_pass"] is False
    failed = [e for e in report["identities"] if not e["pass"]]
    assert [e["id"] for e in failed] == [failed_id]
    assert captured.err.splitlines() == [f"FAILED {failed_id}: {failed[0]['description']}"]


def test_usage_error_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "duck", "--bogus"])
    assert exc.value.code == 2


def test_each_command_has_only_the_options_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
               for name, p in sub.choices.items()}
    assert options == OPTIONS
    assert sum(len(dests) for dests in options.values()) == 29


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_a_command_builds_only_its_own_parser():
    full = _subparsers(cli.build_parser())
    for name in OPTIONS:
        alone = _subparsers(cli.build_parser([name, "--help"]))
        assert list(alone) == [name]
        assert alone[name].prog == full[name].prog == f"duckwords {name}"
        assert ([(a.dest, a.option_strings, a.default, a.choices, a.required)
                 for a in alone[name]._actions]
                == [(a.dest, a.option_strings, a.default, a.choices, a.required)
                    for a in full[name]._actions])


def test_a_lone_command_parser_reads_and_reports_as_the_full_one(capsys, monkeypatch):
    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cases = [["--help"], ["--version"], ["bogus"], ["bogus", "--help"], ["tri"],
             ["triangle", "--kmax", "3"], ["triangle", "bogus", "--kmax", "3"],
             ["map", "phi"], ["map", "nope", "1"], ["render"],
             ["enumerate", "nope"], ["count", "nope"], ["verify", "--kmax", "x"],
             ["count", "catalan", "--k", "3"]]
    cases += [[name, "--help"] for name in OPTIONS]
    alone = [outcome(argv) for argv in cases]
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full_parser())
    for argv, got in zip(cases, alone):
        assert got == outcome(argv), argv


def test_removed_flags_exit_2(capsys, tmp_path):
    for argv in (
        ["count", "catalan", "--k", "3", "--out", str(tmp_path / "f.txt")],
        ["count", "catalan", "--k", "3", "--format", "json"],
        ["count", "tennis-weighted", "--m", "3", "--method", "simulate"],
        ["enumerate", "dyck", "--k", "2", "--m", "3"],
        ["enumerate", "dyck", "--k", "2", "--method", "simulate"],
        ["triangle", "underlined", "--kmax", "3", "--limit", "7"],
        ["verify", "--kmax", "2", "--limit", "7"],
        ["verify", "--eq1-max", "6"],
        ["verify", "--roundtrip-max", "4"],
        ["verify", "--brute-bound", "10"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    assert not (tmp_path / "f.txt").exists()


def test_readme_commands_run(capsys):
    lines = [line for block in (ROOT / "README.md").read_text().split("```sh\n")[1:]
             for line in block.split("```")[0].splitlines() if line.startswith("duckwords ")]
    assert len(lines) >= 8
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


def test_closed_pipe_exit_0():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (
        # the 3D-Dyck words at k = 6 are 1.6 MB of output, more than a pipe holds
        ("3d-dyck", "--k", "6"),
        # words of 1,200 letters, deeper than a recursion over letters could go
        ("dyck", "--k", "600"),
        ("rewritten", "--k", "600", "--i", "1"),
    ):
        with subprocess.Popen(
                [sys.executable, "-m", "duckwords.cli", "enumerate", *argv],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0, argv
            assert proc.stderr.read() == b"", argv
