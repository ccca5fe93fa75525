#!/usr/bin/env python3
"""Emit per-iteration traces of all solvers on the two-objective gaussian problem.

Produces one JSON-lines file per algorithm in the output directory, using
the visualization constants (d=3, r=[0.2, 0.8], mu=0.1, eta=10).  The traces
feed any plotting tool; the trajectory of epo-al first reaches the Pareto
front and then slides along it to the fair point, while the subgradient
trace oscillates around it.

    python scripts/trajectory_traces.py --out-dir results/trajectories
"""

import argparse
import sys
from pathlib import Path

from epoal.cli import main as epoal_main

RUNS = {
    "epo-al": ["--eta", "10"],
    "subgradient": [],
    "smooth-max": ["--tau", "0.1"],
}


def run():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results/trajectories")
    parser.add_argument("--iters", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for algo, extra in RUNS.items():
        out = out_dir / f"{algo}.jsonl"
        argv = ["trace", "--kind", "fig1", "--d", "3", "--algo", algo, "--mu", "0.1",
                "--r", "0.2,0.8", "--iters", str(args.iters),
                "--seed", str(args.seed), "--out", str(out), *extra]
        code = epoal_main(argv)
        print(f"{algo}: exit {code} -> {out}")
        if code not in (0, 2):
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
