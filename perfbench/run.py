#!/usr/bin/env python3
"""epoal benchmark: one workload per invocation, in one process.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload untraced, in whole rounds, until
``--seconds`` have passed, and reports the end-to-end metrics.  ``--trace 1``
runs a fixed number of rounds, each call untraced and traced back to back,
and reports the per-layer metrics, the tracing overhead and the per-call
microsecond grid.  Every call's output is checked against ``reference.json``.
The last line of standard output is the JSON result; a fuller result file
with provenance is written to ``perfbench/results/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with a non-zero code and prints no result.
"""

import os

# One BLAS thread, set before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3


def import_program() -> tuple[float, float]:
    """Import epoal from this checkout; returns the import's start and seconds."""
    if not (SRC / "epoal" / "__init__.py").is_file():
        sys.exit(f"benchmark: {SRC / 'epoal'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import epoal  # noqa: F401
    import epoal.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(epoal.__file__).resolve().parent != SRC / "epoal":
        sys.exit(f"benchmark: imported epoal from {epoal.__file__}, not from {SRC}")
    return start, elapsed


def run_units(workload, units, failures):
    """Time each call; check each output outside the timed region.

    Returns one (seconds, work, output correct, input key, start) tuple per call.
    """
    samples = []
    for unit in units:
        start = time.perf_counter()
        try:
            work, output = workload.call(unit)
        except Exception as err:  # a raising call is a failed operation
            failures.append(f"{unit['key']}: {type(err).__name__}: {err}")
            samples.append((time.perf_counter() - start, 0, False, unit["key"], start))
            continue
        elapsed = time.perf_counter() - start
        try:
            problem = workload.check(unit, output)
        except Exception as err:
            problem = f"{unit['key']}: check raised {type(err).__name__}: {err}"
        if problem:
            failures.append(problem)
        samples.append((elapsed, work, problem is None, unit["key"], start))
    return samples


def tail(times):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  Below 20 samples no
    percentile at or above the median qualifies, and the maximum is reported
    as percentile 100.
    """
    n = len(times)
    ordered = sorted(times)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p < 50:
        return ordered[-1], 100, n
    rank = math.ceil(p * n / 100)
    return ordered[rank - 1], p, n


def end_to_end(samples, scaled, setup_s):
    """End-to-end metrics of an untraced run.

    ``scaled`` holds each call's time at the reference machine speed (see
    ``speed.py``).  Each input's time is the median of its calls; every input
    is called once per round, so all of them weigh the same.  The wall-time
    median and tail over all calls are returned too, for the result file.
    """
    any_ok = any(s[2] for s in samples)
    per_input = {}               # input key -> ([scaled seconds], work)
    for (_, work, ok, key, _), seconds in zip(samples, scaled):
        if ok or not any_ok:
            per_input.setdefault(key, ([], work))[0].append(seconds)
    typical = {key: (statistics.median(times), work) for key, (times, work) in per_input.items()}
    by_class = {}
    for key, (seconds, _) in typical.items():
        by_class.setdefault(key.rsplit("/", 1)[0], []).append(seconds)
    times = [s[0] for s in samples]
    tail_s, tail_pct, n = tail(times)
    metrics = {
        "work_per_s": (sum(w for _, w in typical.values())
                       / sum(t for t, _ in typical.values()), "1/s"),
        "call_gmean_ms": (1e3 * math.exp(statistics.fmean(math.log(t)
                                                          for t, _ in typical.values())), "ms"),
        "slowest_class_ms": (1e3 * max(statistics.median(v) for v in by_class.values()),
                             "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (sum(s[2] for s in samples) / len(samples), "ratio"),
    }
    calls = {"calls": n, "inputs": len(typical), "wall_p50_ms": 1e3 * statistics.median(times),
             "wall_tail_ms": 1e3 * tail_s, "tail_percentile": tail_pct}
    return metrics, calls


def git_commit():
    """Commit of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, phases):
    import epoal
    import numpy
    return {"git_commit": git_commit(), "epoal_version": epoal.__version__,
            "numpy_version": numpy.__version__, "python_version": platform.python_version(),
            "platform": platform.platform(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "phase_s": phases}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_start, import_s = import_program()

    import microgrid
    import workloads
    from speed import Speedometer
    from tracer import LAYER_TARGETS, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if args.trace == 0
                                                  else "per_layer"]}
    phases = {"import": import_s}
    failures = []
    extra = {}

    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    # The speedometer runs through set-up and the untraced measurement; the
    # traced run goes without it, so that no probe lands in a span.
    meter = Speedometer()
    meter.start()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                      workloads.load_reference())
        prep = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            workload.prepare()
            prep.append((start, time.perf_counter() - start))
        phases["prepare"] = [seconds for _, seconds in prep]

        rounds = workload.rounds()
        if args.trace == 0:
            # Whole rounds until --seconds have passed.
            samples, rounds_run = [], 0
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                samples += run_units(workload, next(rounds), failures)
                rounds_run += 1
            meter.stop()
            phases["measure"] = time.perf_counter() - start
            setup_s = (meter.scale(import_start, import_s)
                       + statistics.median(meter.scale(t0, sec) for t0, sec in prep))
            scaled = [meter.scale(t0, seconds) for seconds, _, _, _, t0 in samples]
            metrics, extra["calls"] = end_to_end(samples, scaled, setup_s)
            extra["calls"]["rounds"] = rounds_run
            extra["speed"] = meter.summary()
            extra["samples"] = [[s[3], s[0], seconds] for s, seconds in zip(samples, scaled)]
        else:
            meter.stop()
            # Each unit runs untraced and traced back to back, in alternating
            # order, so drift in machine speed cancels out of the overhead.
            units = [unit for _ in range(workload.traced_rounds) for unit in next(rounds)]
            tracer = Tracer()
            samples, untraced = [], 0.0
            for i, unit in enumerate(units):
                for traced_pass in (i % 2 == 1, i % 2 == 0):
                    if traced_pass:
                        samples += tracer.traced(run_units, workload, [unit], failures)
                    else:
                        start = time.perf_counter()
                        samples += run_units(workload, [unit], failures)
                        untraced += time.perf_counter() - start
            phases["untraced"] = untraced
            traced = phases["traced"] = tracer.wall()
            self_error = tracer.self_time_error()
            if self_error > 1e-6 * traced:
                failures.append(f"self times sum to {traced - self_error:.6f} s, "
                                f"traced wall time is {traced:.6f} s")
            start = time.perf_counter()
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
            metrics.update(microgrid.measure(args.seed))
            phases["grid"] = time.perf_counter() - start
            extra["spans"] = tracer.span_dump()
            extra["counts"] = dict(tracer.counts)
    finally:
        meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(declared):
        sys.exit(f"benchmark: metrics {sorted(set(metrics) ^ set(declared))} "
                 "differ from BENCHMARK.json")
    for name, (value, unit) in metrics.items():
        if unit != declared[name]:
            sys.exit(f"benchmark: {name} measured in {unit}, BENCHMARK.json says {declared[name]}")

    result = {"correct": not failures, "attempted": len(samples),
              "failed": sum(not s[2] for s in samples),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"result": result, "provenance": provenance(args, phases),
              "failures": failures[:50],
              "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
              "layer_targets": LAYER_TARGETS, **extra}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for problem in failures[:10]:
        print(f"FAILED {problem}")
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
