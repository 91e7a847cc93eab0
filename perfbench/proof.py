"""
Check that the benchmark is steady: run every workload on several seeds and
compare the spread of each end-to-end metric with its bound.

    python3 perfbench/proof.py [--workloads count,oracle] [--seeds 1-10]
                               [--sets 2] [--traced] [--write-baseline]

For each set, each workload runs once per seed (with `--seconds` from
BENCHMARK.json), one run after another.  For each metric it prints the median
of the per-run values and the spread, meaning the distance between the first
and the third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median.  A spread at or above the metric's bound is marked FAIL, except
on setup_s, and so is a later set whose median is worse than the first set's
by more than the bound.  --traced also makes two traced runs of each
workload on the first seed and checks that their exact counts agree.
--write-baseline stores the figures in perfbench/baseline.json: the first
set, the second (if any) as `second_set`, and the traced runs.  The summary
also goes to .perfbench_out/proof.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One run.py run; returns the full record it wrote."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed} had failed ops:\n{proc.stdout}")
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def traced_figures(workload: str, seed: int, seconds: int) -> dict:
    first, second = (run_once(workload, seed, seconds, trace=1) for _ in range(2))
    values = {m: v["value"] for m, v in first["metrics"].items()}
    return {
        "per_layer_nonzero": {m: v for m, v in values.items() if v},
        "counts_sha256": first["counts_sha256"],
        "counts_identical_in_two_runs": first["counts_sha256"] == second["counts_sha256"],
        "overhead_s": values["trace.overhead_s"],
        "untraced_inprocess_wall_s": values["trace.wall_s"] - values["trace.overhead_s"],
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)

    workloads = args.workloads.split(",")
    sets: list[dict] = []
    first_runs: dict = {}
    ok = True
    for n in range(args.sets):
        runs = {w: [run_once(w, s, spec["run_seconds"]) for s in seeds] for w in workloads}
        first_runs = first_runs or runs
        sets.append({w: {m: summary([r["metrics"][m]["value"] for r in rs]) for m in bounds}
                     for w, rs in runs.items()})
        for w, metrics in sets[-1].items():
            for m, s in metrics.items():
                bound = bounds[m]["bound"]
                shift = s["median"] / sets[0][w][m]["median"] - 1
                bad = (s["spread"] >= bound and m != "setup_s") or shift > bound
                ok &= not bad
                print(f"set {n + 1} {w:10} {m:12} median {s['median']:.6g} "
                      f"spread {s['spread']:.3f} shift {shift:+.3f} bound {bound}"
                      + ("  FAIL" if bad else ""))

    traced = {}
    if args.traced:
        for w in workloads:
            traced[w] = traced_figures(w, seeds[0], spec["run_seconds"])
            same = traced[w]["counts_identical_in_two_runs"]
            ok &= same
            print(f"traced {w:10} counts_sha256 {traced[w]['counts_sha256']} "
                  f"identical in two runs: {same}  overhead_s {traced[w]['overhead_s']:.4g}")

    (OUT / "proof.json").write_text(json.dumps({"seeds": seeds, "sets": sets,
                                                "traced": traced}, indent=1))
    if args.write_baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text())
        baseline["run_seconds"] = spec["run_seconds"]
        baseline["seeds"] = seeds
        for w, metrics in sets[0].items():
            entry = baseline["workloads"][w]
            for m, s in metrics.items():
                entry["end_to_end"][m] = {"unit": bounds[m]["unit"], **s}
                if len(sets) > 1:
                    entry["end_to_end"][m]["second_set"] = sets[1][w][m]
            runs = first_runs[w]
            entry["attempted"] = sum(r["attempted"] for r in runs)
            entry["failed"] = sum(r["failed"] for r in runs)
            entry["fail_ratio"] = entry["failed"] / entry["attempted"]
            entry["extras_median"] = {k: statistics.median(r["extras"][k] for r in runs)
                                      for k in runs[0].get("extras", {})}
            if runs[0]["inputs_sha256"] is not None:
                entry["inputs_sha256_by_seed"] = {str(r["seed"]): r["inputs_sha256"]
                                                  for r in runs}
            if w in traced:
                entry["traced"] = traced[w]
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
