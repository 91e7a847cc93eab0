"""
Checks of the benchmark itself: a deliberately corrupted output must count
as a failed op, and the tracer must attribute calls and time as documented.

    python3 perfbench/selftest.py

Run from the root of a source checkout (the bijection case imports src/).
"""
from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def run_job(prepare, cli=None, lib=None, seed=7) -> workloads.Tally:
    tally = workloads.Tally()
    prepare(seed, cli=cli, lib=lib).run(tally)
    return tally


class FakeCli:
    """Answers every command of the count and cli workloads correctly from the
    benchmark's own references, except the commands it is told to corrupt."""

    def __init__(self, corrupt=lambda argv: False):
        self.corrupt = corrupt
        self.render = {(e["config"], fmt): e[fmt]
                       for e in json.loads((workloads.GOLDEN / "render.json").read_text())
                       for fmt in ("svg", "tikz")}

    def answer(self, argv):
        if argv[0] == "triangle":
            rows = workloads.load_triangle(argv[1])[:workloads.COUNT_KMAX]
            if argv[1] == "redvhc":
                rows = [r[::-1] for r in rows]
            return "\n".join(",".join(map(str, r)) for r in rows) + "\n"
        if argv[0] == "map" and argv[1] == "psi":
            return workloads.psi_reference(frozenset(map(int, argv[2].split(",")))) + "\n"
        if argv[0] == "map":
            return f'{{"perm":[],"hooks":[]}}\n{argv[2]}\n'
        if argv[0] == "render":
            return self.render[(argv[1], argv[3])]
        if argv[0] == "count":
            return f"{workloads.catalan3d(int(argv[3]))}\n"
        if argv[0] == "enumerate":
            return "\n".join(workloads.all_3d_dyck(3)) + "\n"
        if argv[0] == "verify":
            return json.dumps({"all_pass": True})
        raise AssertionError(argv)

    def __call__(self, argv):
        out = self.answer(argv)
        return (0, out[:-2] + "X\n") if self.corrupt(argv) else (0, out)


class CorruptedOutputs(unittest.TestCase):
    def test_count(self):
        self.assertEqual(run_job(workloads.prepare_count, cli=FakeCli()).failed, 0)
        tally = run_job(workloads.prepare_count, cli=FakeCli(lambda a: a[1] == "redvhc"))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_count_nonzero_exit(self):
        tally = run_job(workloads.prepare_count, cli=lambda argv: (1, FakeCli().answer(argv)))
        self.assertEqual(tally.failed, 2)

    def test_cli_each_kind(self):
        clean = run_job(workloads.prepare_cli, cli=FakeCli())
        self.assertEqual(clean.failed, 0)
        for kind in ("phi-inv", "phi-prime-inv", "psi", "render", "count", "enumerate", "verify"):
            bad = FakeCli(lambda a, kind=kind: kind in a)
            tally = run_job(workloads.prepare_cli, cli=bad)
            self.assertGreater(tally.failed, 0, kind)
            self.assertEqual(tally.attempted, clean.attempted, kind)

    def test_oracle(self):
        cells = {(k, 3 * k - i): v for k, row in enumerate(workloads.load_triangle("redvhc"), 1)
                 for i, v in enumerate(row)}
        total = workloads.EQ1_TOTAL
        # one op per golden cell on at most ORACLE_MAX_N points, then verify_eq1
        timed = sum(n <= workloads.ORACLE_MAX_N for _, n in cells) + 1

        def hooks(off_by=0, eq1_rhs=total):
            return SimpleNamespace(
                red_vhc_count_brute=lambda k, n: cells[(k, n)] + (off_by if n == 8 else 0),
                verify_eq1=lambda n: {"equal": total == eq1_rhs, "lhs": total, "rhs": eq1_rhs})

        self.assertEqual(run_job(workloads.prepare_oracle, lib=SimpleNamespace(hooks=hooks())).failed, 0)
        for bad in (hooks(off_by=1), hooks(eq1_rhs=total + 1)):
            tally = run_job(workloads.prepare_oracle, lib=SimpleNamespace(hooks=bad))
            self.assertEqual((tally.attempted, tally.failed), (timed, 1))
            self.assertEqual(len(tally.times), timed)

    def test_bijection_on_the_program(self):
        from duckwords import maps, words
        calls = []

        def phi(config):
            calls.append(1)
            w = maps.phi(config)
            return w[::-1] if len(calls) == 100 else w

        lib = SimpleNamespace(maps=SimpleNamespace(**{**vars(maps), "phi": phi}), words=words)
        tally = run_job(workloads.prepare_bijection, lib=lib)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(len(tally.latencies), 3 * workloads.LARGE_SAMPLE)
        # the exhaustive roundtrips and enumerations are timed steps, not ops
        self.assertGreater(len(tally.times), len(tally.latencies))


class Tracing(unittest.TestCase):
    def test_calls_generators_and_self_time(self):
        tracer = Tracer()

        def inner(x):
            return x + 1

        inner_t = tracer.wrap("m.inner", inner)

        def gen(n):
            for i in range(n):
                yield inner_t(i)

        gen_t = tracer.wrap("m.gen", gen)
        outer_t = tracer.wrap("m.outer", lambda: sum(gen_t(5)) + next(gen_t(3)))
        self.assertEqual(outer_t(), 15 + 1)
        funcs = tracer.functions()
        self.assertEqual(funcs["m.outer"]["calls"], 1)
        self.assertEqual((funcs["m.gen"]["calls"], funcs["m.gen"]["yielded"]), (2, 6))
        self.assertEqual(funcs["m.inner"]["calls"], 6)
        edges = {(e["caller"], e["callee"]): e for e in tracer.report()["edges"]}
        self.assertEqual(set(edges), {("<benchmark>", "m.outer"), ("m.outer", "m.gen"),
                                      ("m.gen", "m.inner")})
        outer = edges[("<benchmark>", "m.outer")]
        covered = sum(e["total_s"] for (c, _), e in edges.items() if c == "m.outer")
        self.assertAlmostEqual(outer["self_s"], outer["total_s"] - covered, places=9)


if __name__ == "__main__":
    unittest.main()
