"""
Record the `render` outputs that the `cli` workload checks byte for byte.

    python3 perfbench/record_render.py

Draws a fixed pool of hook configurations, each the phi-inverse of a random
3D-Dyck word, renders each as SVG and as TikZ with the duckwords CLI of this
checkout, and writes them to golden/render.json.  The stored file was made
at the commit that introduced the benchmark; run this again only when the
figures are meant to change.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import workloads

POOL_SEED = 20101183
POOL_KS = (2, 3, 4, 5, 6, 7, 8, 8)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def cli(*argv: str) -> str:
        return subprocess.run([sys.executable, "-m", "duckwords.cli", *argv], env=env,
                              capture_output=True, text=True, check=True).stdout

    rng = random.Random(POOL_SEED)
    pool = []
    for n, k in enumerate(POOL_KS):
        config = cli("map", "phi-inv", workloads.random_3d_dyck(rng, k)).strip()
        labels = ["--labels"] if n % 2 else []
        pool.append({"config": config, "labels": bool(labels),
                     "svg": cli("render", config, "--format", "svg", *labels),
                     "tikz": cli("render", config, "--format", "tikz", *labels)})
    (workloads.GOLDEN / "render.json").write_text(json.dumps(pool, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
