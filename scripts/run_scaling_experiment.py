#!/usr/bin/env python3
"""Reproduce the iteration/wall-clock scaling experiment, emitting plot-ready CSV.

Desk scale by default (quick sanity run); pass --full for the full-scale
configuration (d=100, K up to 32, 30 trials, three algorithms), which took
5.8 s at --jobs 1 and 4.9-5.0 s at --jobs 2 on a 2-vCPU Xeon guest (numpy 2.4.6,
Python 3.11.7, one BLAS thread).  All heavy lifting goes through the `epoal bench`
CLI so the output format is identical either way.

    python scripts/run_scaling_experiment.py --out results/scaling.csv
    python scripts/run_scaling_experiment.py --full --jobs 8 --out results/full.csv
"""

import argparse
import sys
from pathlib import Path

from epoal.cli import main as epoal_main


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/scaling.csv")
    parser.add_argument("--full", action="store_true",
                        help="d=100, K=2..32, 30 trials, all three algorithms")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--jobs", type=int, default=1)
    return parser.parse_args()


def run():
    args = parse_args()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    if args.full:
        scale = ["--d", "100", "--K", "2,4,8,16,32", "--trials", "30",
                 "--algos", "epo-al,subgradient,smooth-max"]
    else:
        scale = ["--d", "50", "--K", "2,4,8,16", "--trials", "10",
                 "--algos", "epo-al,subgradient"]
    argv = ["bench", "--kinds", "convex,nonconvex", *scale,
            "--seed", str(args.seed), "--jobs", str(args.jobs),
            "--out", args.out]
    print("epoal", " ".join(argv))
    return epoal_main(argv)


if __name__ == "__main__":
    sys.exit(run())
