"""
One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE T0

MODE is `setup` (prepare the inputs of a `pass`, then stop), `pass` (an
untraced pass), `inprocess` (an untraced pass shaped like a traced one) or
`traced` (a pass with spans around every public duckwords function).
T0 is the parent's time.monotonic() taken just before it started this
interpreter, so setup_s covers interpreter start, imports and input
generation.  The result is one JSON object on the last line of stdout.

In `pass` mode the `count` and `cli` workloads run each command as a
`duckwords` subprocess; in the other two they call `duckwords.cli.main(argv)`
in this process, so that tracing overhead compares like with like.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from types import SimpleNamespace

import workloads
from tracer import Tracer

COMMAND_TIMEOUT_S = 170


def subprocess_cli(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "duckwords.cli", *argv],
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    return proc.returncode, proc.stdout


def inprocess_cli(cli_module):
    def run(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli_module.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()
    return run


def main() -> int:
    workload, seed, mode, t0 = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    result: dict = {}
    tracer = None
    if mode == "traced":
        start = time.perf_counter()
        import duckwords.cli  # noqa: F401  (imports every traced module)
        result["import_s"] = time.perf_counter() - start
        tracer = Tracer()
        tracer.install()

    in_subprocess = workload in workloads.CLI_WORKLOADS and mode in ("setup", "pass")
    cli = lib = None
    if in_subprocess:
        cli = subprocess_cli
    elif workload in workloads.CLI_WORKLOADS:
        import duckwords.cli
        cli = inprocess_cli(duckwords.cli)
    else:
        from duckwords import hooks, maps, words
        lib = SimpleNamespace(hooks=hooks, maps=maps, words=words)
    job = workloads.WORKLOADS[workload](seed, cli=cli, lib=lib)
    result["setup_s"] = time.monotonic() - t0
    result["inputs_sha256"] = job.inputs_sha256

    if mode != "setup":
        tally = workloads.Tally()
        start = time.perf_counter()
        job.run(tally)
        result["wall_s"] = time.perf_counter() - start
        who = resource.RUSAGE_CHILDREN if in_subprocess else resource.RUSAGE_SELF
        result.update(
            attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
            times=tally.times, ops=tally.ops, extras=job.extras,
            peak_rss_kb=resource.getrusage(who).ru_maxrss,
        )
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
