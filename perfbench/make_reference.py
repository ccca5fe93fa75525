#!/usr/bin/env python3
"""Regenerate reference.json, the outputs every pooled benchmark input must reproduce.

Run from the checkout root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py [--workload protocol|trace|certify ...]

Certify entries also store a duality lower bound on the stationarity gap and
the number of steps that moves each "near" model point toward the optimum.
That number is chosen so that both certificate verdicts sit clearly on one
side of their tolerance, for any gap between the bound and the Frank-Wolfe
value, so a more exact certificate must reach the same verdicts.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

import numpy as np  # noqa: E402

MARGIN = 1e-6


def certify_entry(workload, unit, workdir):
    from workloads import certify_inputs, evaluate, min_norm_lower_bound, write_certify_files
    iters = 0 if unit["point"] == "start" else workload.NEAR_ITERS
    while True:
        anchors, r, w = certify_inputs(unit["kind"], unit["K"], unit["d"],
                                       unit["pool_seed"], iters)
        unit["argv"] = workload.argv(*write_certify_files(workdir, "ref", unit["kind"],
                                                          anchors, r, w))
        rec = workload.record(unit, workload.call(unit)[1])
        _, jac = evaluate(unit["kind"], anchors, w)
        bound = min_norm_lower_bound(jac)
        gap_tol = 1e-4 * float(np.max(np.linalg.norm(jac, axis=0)))
        fair_tol = 1e-8 * rec["minmax"] ** 2
        gap_clear = (rec["stationarity_gap"] <= gap_tol * (1 - MARGIN)
                     or bound >= gap_tol * (1 + MARGIN))
        fair_clear = abs(rec["fairness"] - fair_tol) > MARGIN * fair_tol
        if gap_clear and fair_clear:
            break
        if iters <= 1:
            sys.exit(f"{unit['key']}: no model point with clear verdicts")
        iters //= 2
    entry = {"near_iters": iters, "fw_gap": rec.pop("stationarity_gap"),
             "gap_lower_bound": bound}
    entry.update(rec)
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    run.import_program()
    import workloads

    reference = workloads.load_reference() if workloads.REFERENCE_PATH.exists() else {}
    (run.HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.HERE / "work"))
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name](0, workdir, {})
            entries = {}
            for unit in workload.pool():
                if name == "certify":
                    entries[unit["key"]] = certify_entry(workload, unit, workdir)
                else:
                    entries[unit["key"]] = workload.record(unit, workload.call(unit)[1])
                print(name, unit["key"], entries[unit["key"]], flush=True)
            reference[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True, allow_nan=False)
    workloads.REFERENCE_PATH.write_text(text + "\n")


if __name__ == "__main__":
    main()
