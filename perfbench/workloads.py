"""
The four benchmark workloads: seeded inputs, the timed job, and the output
checks.

Every check compares the program's output with a reference computed in this
file or stored under golden/, never with a value the code under test
produced in the same run.  Every op that is checked counts once into
`attempted`; a wrong output, a non-zero exit or an exception counts once
into `failed`.

A job talks to the program through one of two handles, so the same job runs
untraced and traced:
  * `cli(argv) -> (exit_code, stdout)` runs one `duckwords` command;
  * `lib` is a namespace holding the `duckwords` modules the job calls.
Jobs look functions up on the module at call time, so the tracer's wrappers
are the ones that run in a traced pass.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import factorial
from pathlib import Path
from time import perf_counter

GOLDEN = Path(__file__).resolve().parent / "golden"

# Not k = 7, the largest golden row: a k = 7 pass took 15-22 s on a 2-vCPU
# machine, so a run of two passes took 33-44 s.  At k = 6 nearly all the
# time is still spent enumerating 3D-Dyck words and classifying them.
COUNT_KMAX = 6
# Golden redvhc cells (k, i) whose brute force runs on 3k - i <= 8 points.
# Not 10: verify_eq1(10) alone took about 5 s, so a run held only two or
# three passes, and the best of so few moved with the machine's slow spells.
# At 8 each step takes at most 0.2 s and a run holds dozens of passes.
ORACLE_MAX_N = 8
# Sum over Av_8(312) of #VHC, recorded at the seed commit; both sides of
# verify_eq1(8) must equal it.
EQ1_TOTAL = 528
EXHAUSTIVE_KMAX = 4
LARGE_K = 32
# 100 words, not 200, so that a pass takes under 2 s and a run holds a dozen
# passes: the slowest roundtrips need many passes to run once at full speed.
LARGE_SAMPLE = 100
MAP_K = 8
LAWN_ROUNDS = 8
CATALAN3D_KMAX = 30
# `verify --kmax 4` calls the same functions as `--kmax 6` in 0.8 s, not 2.6 s,
# and the 40 short requests take about 3.5 s, so a run holds several passes.
VERIFY_KMAX = 4
# Short CLI requests per pass, by kind.
CLI_MIX = {"phi-inv": 12, "phi-prime-inv": 12, "psi": 6, "render": 6,
           "catalan3d": 2, "enumerate": 2}


class Tally:
    """Checked ops of one pass, and the time of each timed step.

    `times` holds every timed step in the order it ran, and `ops` marks the
    steps that are ops, whose latencies the percentiles are taken over.
    Every pass of a workload runs the same steps in the same order.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: list[float] = []
        self.ops: list[bool] = []

    @property
    def latencies(self) -> list[float]:
        return [t for t, op in zip(self.times, self.ops) if op]

    def record(self, elapsed: float, op: bool) -> None:
        self.times.append(elapsed)
        self.ops.append(op)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def timed(self, what: str, op, check, is_op: bool = True):
        """Time op(), then check its result outside the timed region.
        Returns the result, or None if op() raised."""
        start = perf_counter()
        try:
            out = op()
        except Exception as exc:  # a crash of the program is a failed op
            # still timed, so that step j of every pass is the same step
            self.record(perf_counter() - start, is_op)
            self.check(False, f"{what}: {exc!r}")
            return None
        self.record(perf_counter() - start, is_op)
        try:
            ok = bool(check(out))
        except Exception as exc:  # unparsable output
            ok, what = False, f"{what}: {exc!r}"
        self.check(ok, what)
        return out


# --- independent references ------------------------------------------------


def catalan3d(k: int) -> int:
    return 2 * factorial(3 * k) // (factorial(k) * factorial(k + 1) * factorial(k + 2))


def load_triangle(name: str) -> list[tuple[int, ...]]:
    text = (GOLDEN / f"{name}_triangle.csv").read_text()
    return [tuple(int(t) for t in line.split(",")) for line in text.split()]


def all_3d_dyck(k: int) -> list[str]:
    """Every 3D-Dyck word of length 3k, in lexicographic order (X < Y < Z)."""
    def ballot(w):
        x = y = z = 0
        for ch in w:
            x, y, z = x + (ch == "X"), y + (ch == "Y"), z + (ch == "Z")
            if not x >= y >= z:
                return False
        return x == y == z
    return ["".join(w) for w in itertools.product("XYZ", repeat=3 * k) if ballot(w)]


def eligible_ys(w: str) -> frozenset[int]:
    """1-based positions of the Y's not immediately preceded by an X."""
    return frozenset(p for p in range(2, len(w) + 1) if w[p - 1] == "Y" and w[p - 2] != "X")


def underlined_text(w: str, underlines) -> str:
    return "".join("y" if p in underlines else ch for p, ch in enumerate(w, start=1))


def psi_reference(lawn: frozenset[int]) -> str:
    body = "".join("U" if ball in lawn else "D" for ball in range(1, 2 * len(lawn) + 1))
    return "U" + body + "D"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- seeded inputs -------------------------------------------------------------


def random_3d_dyck(rng: random.Random, k: int) -> str:
    """Each letter is drawn uniformly among the letters legal after the prefix."""
    x = y = z = 0
    out = []
    while z < k:
        legal = [ch for ch, ok in (("X", x < k), ("Y", y < x), ("Z", z < y)) if ok]
        ch = rng.choice(legal)
        x, y, z = x + (ch == "X"), y + (ch == "Y"), z + (ch == "Z")
        out.append(ch)
    return "".join(out)


def random_underlines(rng: random.Random, w: str) -> frozenset[int]:
    """Each eligible Y is underlined with probability 1/2."""
    return frozenset(p for p in sorted(eligible_ys(w)) if rng.random() < 0.5)


def random_lawn(rng: random.Random, rounds: int) -> frozenset[int]:
    """A lawn reached by one run of the two-in/one-out tennis-ball process."""
    room: set[int] = set()
    for t in range(1, rounds + 1):
        room |= {2 * t - 1, 2 * t}
        room.remove(rng.choice(sorted(room)))
    return frozenset(range(1, 2 * rounds + 1)) - room


# --- output checks -------------------------------------------------------------


def parse_rows(stdout: str) -> list[tuple[int, ...]]:
    return [tuple(int(t) for t in line.split(",")) for line in stdout.split()]


def check_triangle(kind: str, result, golden_duck, golden_red) -> bool:
    code, stdout = result
    rows = parse_rows(stdout)
    if code != 0 or len(rows) != COUNT_KMAX:
        return False
    if kind == "duck":
        return rows == golden_duck[:COUNT_KMAX] and all(
            sum(row) == catalan3d(k) for k, row in enumerate(rows, start=1))
    # redvhc rows are shown by increasing point count, i = k-1 down to 0,
    # and the i = 0 entry counts every 3D-Dyck word of length 3k
    return rows == [r[::-1] for r in golden_red[:COUNT_KMAX]] and all(
        row[-1] == catalan3d(k) for k, row in enumerate(rows, start=1))


def check_lines(result, expected: list[str]) -> bool:
    code, stdout = result
    return code == 0 and stdout.splitlines() == expected


def check_roundtrip(result, original: str) -> bool:
    code, stdout = result
    lines = stdout.splitlines()
    return code == 0 and len(lines) == 2 and lines[1] == original


def check_exact(result, expected: str) -> bool:
    code, stdout = result
    return code == 0 and stdout == expected


def check_verify(result) -> bool:
    code, stdout = result
    return code == 0 and json.loads(stdout)["all_pass"] is True


# --- workloads -----------------------------------------------------------------


class Job:
    """A prepared pass: `run(tally)` does the timed work, `inputs_sha256`
    identifies the inputs drawn from the seed, `extras` collects per-pass
    figures beyond the op latencies."""

    def __init__(self, run, inputs=None, extras=None):
        self.run = run
        self.inputs_sha256 = digest(inputs) if inputs is not None else None
        self.extras = extras if extras is not None else {}


def prepare_count(seed: int, cli=None, lib=None) -> Job:
    """`triangle duck` then `triangle redvhc`, both to COUNT_KMAX; not seeded."""
    golden_duck, golden_red = load_triangle("duck"), load_triangle("redvhc")

    def run(tally: Tally) -> None:
        for kind in ("duck", "redvhc"):
            tally.timed(f"triangle {kind}",
                        lambda: cli(["triangle", kind, "--kmax", str(COUNT_KMAX)]),
                        lambda out: check_triangle(kind, out, golden_duck, golden_red))

    return Job(run)


def prepare_oracle(seed: int, cli=None, lib=None) -> Job:
    """Brute-force redvhc cells on at most ORACLE_MAX_N points, then
    verify_eq1(ORACLE_MAX_N); not seeded."""
    hooks = lib.hooks
    cells = [(k, i, v) for k, row in enumerate(load_triangle("redvhc"), start=1)
             for i, v in enumerate(row) if 3 * k - i <= ORACLE_MAX_N]

    def run(tally: Tally) -> None:
        for k, i, expected in cells:
            tally.timed(f"red_vhc_count_brute({k}, {3 * k - i})",
                        lambda: hooks.red_vhc_count_brute(k, 3 * k - i),
                        lambda out: out == expected)
        tally.timed(f"verify_eq1({ORACLE_MAX_N})",
                    lambda: hooks.verify_eq1(ORACLE_MAX_N),
                    lambda out: out["equal"] is True and out["lhs"] == out["rhs"] == EQ1_TOTAL)

    return Job(run)


def prepare_bijection(seed: int, cli=None, lib=None) -> Job:
    """Exhaustive roundtrips for k <= 4, then a seeded sample at k = 32.

    Every roundtrip and every enumeration is a timed step.  The k = 32
    roundtrips are the ops: phi, phi' and the rewrite/decode codec on each
    sampled word.
    """
    maps, words = lib.maps, lib.words
    Underlined = words.UnderlinedDuckWord
    golden_red = load_triangle("redvhc")
    rng = random.Random(seed)
    sample = []
    for _ in range(LARGE_SAMPLE):
        w = random_3d_dyck(rng, LARGE_K)
        sample.append((w, random_underlines(rng, w)))
    extras = {"roundtrips": 0}

    def roundtrip(tally: Tally, what: str, op, original, is_op: bool = False) -> None:
        extras["roundtrips"] += 1
        tally.timed(what, op, lambda out: out == original, is_op)

    def exhaustive(tally: Tally, k: int) -> None:
        dyck = tally.timed(f"3D-Dyck words at k={k}", lambda: list(words.enumerate_3d_dyck(k)),
                           lambda out: len(out) == catalan3d(k), is_op=False)
        for w in dyck or []:
            canon = Underlined(w, eligible_ys(w))
            roundtrip(tally, f"phi roundtrip {w}", lambda: maps.phi(maps.phi_inverse(w)), w)
            roundtrip(tally, f"codec roundtrip {w}",
                      lambda: words.decode(words.rewrite(canon)), canon)
        for i in range(k):
            under = tally.timed(f"underlined words at k={k}, i={i}",
                                lambda: list(words.enumerate_underlined(k, i)),
                                lambda out: len(out) == golden_red[k - 1][i], is_op=False)
            for u in under or []:
                roundtrip(tally, f"phi' roundtrip {u}",
                          lambda: maps.phi_prime(maps.phi_prime_inverse(u)), u)

    def run(tally: Tally) -> None:
        extras["roundtrips"] = 0
        for k in range(1, EXHAUSTIVE_KMAX + 1):
            exhaustive(tally, k)
        for w, under in sample:
            u, canon = Underlined(w, under), Underlined(w, eligible_ys(w))
            roundtrip(tally, f"phi roundtrip {w}", lambda: maps.phi(maps.phi_inverse(w)), w, True)
            roundtrip(tally, f"phi' roundtrip {underlined_text(w, under)}",
                      lambda: maps.phi_prime(maps.phi_prime_inverse(u)), u, True)
            roundtrip(tally, f"codec roundtrip {w}",
                      lambda: words.decode(words.rewrite(canon)), canon, True)

    return Job(run, [[w, underlined_text(w, u)] for w, u in sample], extras)


def cli_requests(seed: int, render_pool: list[dict]) -> list[dict]:
    """The seeded short requests of one `cli` pass, with what each must print."""
    rng = random.Random(seed)
    reqs = []
    for _ in range(CLI_MIX["phi-inv"]):
        w = random_3d_dyck(rng, MAP_K)
        reqs.append({"argv": ["map", "phi-inv", w, "--roundtrip"], "roundtrip": w})
    for _ in range(CLI_MIX["phi-prime-inv"]):
        w = random_3d_dyck(rng, MAP_K)
        text = underlined_text(w, random_underlines(rng, w))
        reqs.append({"argv": ["map", "phi-prime-inv", text, "--roundtrip"], "roundtrip": text})
    for _ in range(CLI_MIX["psi"]):
        lawn = random_lawn(rng, LAWN_ROUNDS)
        reqs.append({"argv": ["map", "psi", ",".join(map(str, sorted(lawn)))],
                     "stdout": psi_reference(lawn) + "\n"})
    for _ in range(CLI_MIX["render"]):
        entry, fmt = rng.choice(render_pool), rng.choice(["svg", "tikz"])
        argv = ["render", entry["config"], "--format", fmt] + (["--labels"] if entry["labels"] else [])
        reqs.append({"argv": argv, "stdout": entry[fmt]})
    for _ in range(CLI_MIX["catalan3d"]):
        k = rng.randint(0, CATALAN3D_KMAX)
        reqs.append({"argv": ["count", "catalan3d", "--k", str(k)], "stdout": f"{catalan3d(k)}\n"})
    for _ in range(CLI_MIX["enumerate"]):
        reqs.append({"argv": ["enumerate", "3d-dyck", "--k", "3"], "lines": True})
    rng.shuffle(reqs)
    return reqs


def prepare_cli(seed: int, cli=None, lib=None) -> Job:
    """40 seeded one-shot commands, then `verify --kmax VERIFY_KMAX`."""
    render_pool = json.loads((GOLDEN / "render.json").read_text())
    reqs = cli_requests(seed, render_pool)
    dyck3 = all_3d_dyck(3)
    extras = {}

    def check(req):
        if "roundtrip" in req:
            return lambda out: check_roundtrip(out, req["roundtrip"])
        if "lines" in req:
            return lambda out: check_lines(out, dyck3)
        return lambda out: check_exact(out, req["stdout"])

    def run(tally: Tally) -> None:
        for req in reqs:
            tally.timed(" ".join(req["argv"]), lambda: cli(req["argv"]), check(req))
        # verify is a timed step, not one of the short requests
        argv = ["verify", "--kmax", str(VERIFY_KMAX)]
        tally.timed(" ".join(argv), lambda: cli(argv), check_verify, is_op=False)
        extras["verify_s"] = tally.times[-1]

    return Job(run, [r["argv"] for r in reqs], extras)


WORKLOADS = {
    "count": prepare_count,
    "oracle": prepare_oracle,
    "bijection": prepare_bijection,
    "cli": prepare_cli,
}
# Workloads whose work runs in `duckwords` subprocesses when untraced.
CLI_WORKLOADS = {"count", "cli"}
