"""
The duckwords benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload count|oracle|bijection|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Every pass runs in a fresh interpreter (worker.py), one after another, with
one client and no pool.

--trace 0  runs untraced passes back to back until about S seconds have
           passed (at least MIN_PASSES), and reports the end-to-end metrics
           of BENCHMARK.json.  Every pass runs the same timed steps in the
           same order, and each step is taken at its best over the passes:
           wall_s is the sum of those bests, the latency percentiles are
           taken over the bests of the steps that are ops, and set-up time
           is the median over at least MIN_SETUPS fresh interpreters.

--trace 1  runs TRACE_PAIRS traced passes and as many untraced passes of
           the same shape, in turns, and reports the per-layer metrics of
           BENCHMARK.json from the fastest traced pass.  The difference of
           the best traced and untraced walls is the tracing overhead.

A shared machine only ever adds time: on the 2-vCPU machine the baseline
was taken on, the same op ran up to 1.9 times slower in spells that lasted
from under a second to minutes.  A short step is far more likely than a whole
pass to run once outside such a spell, so each step is taken at its best
over passes spread across the run, and the passes are kept short enough
that a run holds many of them.

The last line of stdout is the result object; the lines before it say how
many samples each figure rests on.  The full record of the run, every exact
count of the traced pass included, goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
MIN_PASSES = 2
MIN_SETUPS = 15
TRACE_PAIRS = 3
WORKER_TIMEOUT_S = 175


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # the result cache would answer `triangle` without computing it
    env.pop("DUCKWORDS_CACHE_DIR", None)
    return env


def spawn(env: dict, workload: str, seed: int, mode: str, cpu: int | None = None) -> dict:
    """Run one worker, bound to `cpu` if one is given, with its subprocesses."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), mode, repr(t0)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        preexec_fn=pin)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def untraced(env: dict, workload: str, seed: int, seconds: float) -> dict:
    # One set-up sample before every pass, so that the samples spread over
    # the run and do not all fall in one slow or fast spell of the machine.
    # Passes take turns on the CPUs this process may use: on a shared host
    # one CPU can sit in a slow spell while another runs at full speed.
    cpus = sorted(os.sched_getaffinity(0))
    setups, passes = [], []
    start = time.monotonic()
    while True:
        cpu = cpus[len(passes) % len(cpus)]
        setups.append(spawn(env, workload, seed, "setup", cpu)["setup_s"])
        passes.append(spawn(env, workload, seed, "pass", cpu))
        elapsed = time.monotonic() - start
        # stop once another pass would end past the window by over half a pass
        if len(passes) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    setups += [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        cpu = cpus[len(setups) % len(cpus)]
        setups.append(spawn(env, workload, seed, "setup", cpu)["setup_s"])
    # every pass runs the same steps in the same order
    best = [min(step) for step in zip(*(p["times"] for p in passes))]
    latencies = [t for t, op in zip(best, passes[0]["ops"]) if op]
    values = {
        "wall_s": sum(best),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "op_p50_ms": 1000 * percentile(latencies, 50),
        "op_p95_ms": 1000 * percentile(latencies, 95),
    }
    samples = (f"passes={len(passes)} steps={len(best)} ops={len(latencies)} "
               f"setups={len(setups)}")
    # figures the workload reports beyond the metrics, e.g. verify_s on cli
    extras = {k: statistics.median(p["extras"][k] for p in passes) for k in passes[0]["extras"]}
    return {"passes": passes, "setups": setups, "values": values, "samples": samples,
            "extras": extras}


def traced(env: dict, workload: str, seed: int) -> dict:
    # untraced and traced passes take turns on one CPU; the overhead is the
    # difference of their best walls, and the fastest traced pass gives the
    # figures, since every traced pass must make the same exact counts
    cpu = min(os.sched_getaffinity(0))
    pairs = [(spawn(env, workload, seed, "inprocess", cpu),
              spawn(env, workload, seed, "traced", cpu)) for _ in range(TRACE_PAIRS)]
    plain_s = min(plain["wall_s"] for plain, _ in pairs)
    runs = [run for _, run in pairs]
    digests = {digest_counts(r["trace"]["counts"], r) for r in runs}
    if len(digests) != 1:
        raise BenchError(f"traced passes of one run made different counts: {sorted(digests)}")
    run = min(runs, key=lambda r: r["wall_s"])
    trace = run["trace"]
    calls = {n: c["calls"] for n, c in trace["counts"].items()}
    yielded = {n: c["yielded"] for n, c in trace["counts"].items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        # reduced_vhcs runs once per permutation that passes the descent filter
        "perms.av312_kept_ratio": ratio(calls.get("hooks.reduced_vhcs", 0),
                                        yielded.get("perms.enumerate_av312", 0)),
        "hooks.reduced_ratio": ratio(yielded.get("hooks.reduced_vhcs", 0),
                                     yielded.get("hooks.enumerate_vhcs", 0)),
        "hooks.check_valid.per_roundtrip": ratio(calls.get("hooks.check_valid", 0),
                                                 run["extras"].get("roundtrips", 0)),
        "cli.import_s": run["import_s"],
        "trace.wall_s": run["wall_s"],
        "trace.overhead_s": run["wall_s"] - plain_s,
    }
    stats = {"calls": calls, "yielded": yielded, "self_s": trace["self_s"]}
    return {"passes": [p for pair in pairs for p in pair], "values": values, "stats": stats,
            "counts_sha256": digests.pop(),
            "samples": f"passes={TRACE_PAIRS} traced + {TRACE_PAIRS} untraced"}


def digest_counts(counts: dict, run: dict) -> str:
    blob = json.dumps({"counts": counts, "extras": {k: v for k, v in run["extras"].items()
                                                    if isinstance(v, int)}},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def layer_value(name: str, result: dict) -> float:
    if name in result["values"]:
        return result["values"][name]
    function, stat = name.rsplit(".", 1)
    return result["stats"][stat].get(function, 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["count", "oracle", "bijection", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duckwords" / "__init__.py").is_file():
        print(f"error: no duckwords source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = worker_env()
    try:
        # compile bytecode before anything is timed
        subprocess.run([sys.executable, "-c", "import duckwords.cli"], env=env, cwd=ROOT,
                       check=True, timeout=WORKER_TIMEOUT_S)
        spawn(env, args.workload, args.seed, "setup")
        if args.trace:
            result = traced(env, args.workload, args.seed)
            metrics = {m["name"]: {"value": layer_value(m["name"], result), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            result = untraced(env, args.workload, args.seed, args.seconds)
            metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    digests = {p["inputs_sha256"] for p in passes}
    if len(digests) != 1:
        print(f"error: passes drew different inputs: {sorted(map(str, digests))}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": digests.pop(), "samples": result["samples"],
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "metrics": metrics, "passes": passes,
    }
    for key in ("setups", "extras", "counts_sha256"):
        if key in result:
            record[key] = result[key]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} inputs_sha256={record['inputs_sha256']}")
    print(f"{result['samples']} attempted={attempted} failed={failed} "
          f"fail_ratio={record['fail_ratio']}")
    for f in record["failures"]:
        print(f"FAILED {f}")
    if result.get("extras"):
        print(" ".join(f"{k}={v}" for k, v in result["extras"].items()))
    if "counts_sha256" in result:
        print(f"counts_sha256={result['counts_sha256']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
