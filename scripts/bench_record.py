#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics as BENCH_<label>.json at the repository root.

Runs ``perfbench/run.py --trace 0`` for every workload in BENCHMARK.json at seeds 1 and 2,
one process each, and collects each run's result file from ``perfbench/results/``: the
metrics, the call counts, the machine-speed probe and the provenance block.  Six 30 s runs
take about three minutes.  Compare two files only when they were measured back to back on
one machine.

    python scripts/bench_record.py --label pr31
    python scripts/bench_record.py --label smoke --seconds 1

Exits 1 when a run fails or reads ``correct: false``; the file is written either way.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
SEEDS = (1, 2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per run (default 30, as the benchmark runs)")
    args = parser.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error(f"--label takes letters, digits, '_', '.' and '-', got {args.label!r}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def numpy_build():
    """numpy's BLAS and the SIMD extensions it found on this CPU (trace bytes depend on both)."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "simd": config["SIMD Extensions"]}


def run_one(workload, seed, seconds):
    """One untraced benchmark run; returns its result file's content."""
    argv = [sys.executable, str(RUNNER.relative_to(ROOT)), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # No bytecode cache, as the benchmark is run: each import compiles its source.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    record = json.loads((RUNNER.parent / "results"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    # The run's last stdout line is its result; a stale result file would not match it.
    if json.loads(done.stdout.splitlines()[-1]) != record["result"]:
        raise RuntimeError(f"{workload} seed {seed}: result file does not match the run")
    return {key: record[key] for key in ("result", "calls", "speed", "provenance")}


def main():
    args = parse_args()
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs, ok = {workload: {} for workload in workloads}, True
    for seed in SEEDS:
        for workload in workloads:
            print(f"{workload} seed {seed}: {args.seconds:g} s", file=sys.stderr, flush=True)
            try:
                run = run_one(workload, seed, args.seconds)
            except RuntimeError as err:
                print(f"bench_record: {err}", file=sys.stderr)
                run = {"error": str(err)}
            runs[workload][str(seed)] = run
            ok = ok and run.get("result", {}).get("correct") is True
    out = ROOT / f"BENCH_{args.label}.json"
    record = {"label": args.label, "seconds": args.seconds, "seeds": list(SEEDS),
              "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "build": numpy_build(), "runs": runs}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out.relative_to(ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
