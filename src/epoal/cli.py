"""Command-line entry point: solver traces, benchmarks, and certification.

Subcommands and exit codes:

  trace    JSON-lines per-iteration trace of one solver run   0 ok, 2 diverged
  bench    CSV of aggregated benchmark results + JSON sidecar 0 ok
  certify  JSON certificate for a stored model                0 certified, 3 not

Exit 1 is a harness error or an input too large to allocate, 64 a usage error,
and 65 a malformed data file, an output path that cannot be written (checked
before any solver work), or a model that breaks the divergence rule.  An
interrupt (SIGINT) exits 130 with one stderr line; an output pipe whose reader
has gone (``epoal trace ... | head``) exits 141 with nothing printed.  One rule,
``core._divergence``, decides divergence in ``trace``, ``certify`` and the
tuning behind ``bench``, so no JSON output holds NaN or Infinity.  No command
prints numpy's floating-point warnings; the exit code reports a divergence.
Every output file starts with a metadata header carrying the tool version, the
fully resolved configuration and the seed; apart from wall-clock columns,
outputs are a pure function of that header.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import certify_epo
from .harness import CI_LEVEL, GridSpec, HarnessError, run_experiment
from .problems import (CONVEX, FIG1, NONCONVEX, load_model, load_problem, make_problem,
                       sample_initial)
from .solvers import ALGORITHMS, EPO_AL, SUBGRADIENT, DivergenceError, SolverConfig, run

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DIVERGED = 2
EXIT_NOT_CERTIFIED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
# 128 + the signal number, as a shell reports a command that SIGINT or SIGPIPE ended.
EXIT_INTERRUPTED = 130
EXIT_CLOSED_PIPE = 141

_SHORT_KINDS = {"convex": CONVEX, "nonconvex": NONCONVEX}

CSV_COLUMNS = ["kind", "algorithm", "K", "d", "trials", "n_censored",
               "i_o_mean", "i_o_ci_low", "i_o_ci_high",
               "t_o_mean", "t_o_ci_low", "t_o_ci_high", "master_seed"]


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the documented code is 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number_list(text: str, parse=float) -> list:
    try:
        return [parse(piece) for piece in text.split(",") if piece != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated {parse.__name__} values, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="epoal", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"epoal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    trace = sub.add_parser("trace", help="write a per-iteration JSON-lines trace")
    trace.add_argument("--kind", choices=sorted([*_SHORT_KINDS, "fig1"]), required=True,
                       help="fig1 is the two-objective visualization problem (K=2)")
    trace.add_argument("--d", type=int, required=True)
    trace.add_argument("--K", type=int)
    trace.add_argument("--algo", choices=ALGORITHMS, required=True)
    trace.add_argument("--mu", type=float, required=True)
    trace.add_argument("--eta", type=float)
    trace.add_argument("--tau", type=float)
    trace.add_argument("--r", help="comma-separated preference weights (default uniform)")
    trace.add_argument("--iters", type=int, default=1000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", help="output path (default: stdout)")

    bench = sub.add_parser("bench", help="run the benchmark protocol, write CSV")
    bench.add_argument("--kinds", required=True,
                       help="comma-separated families: convex,nonconvex")
    bench.add_argument("--K", required=True, help="comma-separated objective counts")
    bench.add_argument("--d", type=int, required=True)
    bench.add_argument("--trials", type=int, default=30)
    bench.add_argument("--algos", default=",".join(ALGORITHMS))
    bench.add_argument("--seed", type=int, default=0, help="master seed")
    bench.add_argument("--epsilon", type=float, default=0.01)
    bench.add_argument("--max-iter", type=int, default=1000)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", required=True, help="CSV output path")

    certify = sub.add_parser("certify", help="certify a stored model vector")
    certify.add_argument("--problem", required=True, help="problem record file")
    certify.add_argument("--r", required=True, help="comma-separated preference weights")
    certify.add_argument("--model", required=True,
                         help="model vector file, one coordinate per line")
    certify.add_argument("--fair-tol", type=float)
    certify.add_argument("--gap-tol", type=float)
    return parser


# Parsing leaves a parser unchanged and building one costs about 1 ms, so main reuses one.
_parser = functools.cache(build_parser)


def _check_writable(out: Path) -> None:
    """DataError unless ``out`` can be written; checked before the work a bad path would lose."""
    writable = os.access(out if out.exists() else out.parent, os.W_OK)
    if out.is_dir() or not out.parent.is_dir() or not writable:
        raise DataError(f"cannot write output file {out}")


def cmd_trace(args) -> int:
    kind = {**_SHORT_KINDS, "fig1": FIG1}[args.kind]
    K = 2 if kind == FIG1 and args.K is None else args.K
    if K is None:
        raise ValueError("--K is required unless --kind is fig1")
    if args.out:
        _check_writable(Path(args.out))

    # make_problem rejects K < 2 before the default r divides by K.
    problem = make_problem(kind, args.d, K, args.seed)
    r = [1.0 / K] * K if args.r is None else _number_list(args.r)
    config = SolverConfig(mu=args.mu, eta=args.eta, tau=args.tau,
                          max_iter=args.iters, seed=args.seed)
    error = None
    try:
        records = run(args.algo, problem, r, sample_initial(args.d, args.seed), config)
    except DivergenceError as err:
        records, error = err.records, err
    header = {"type": "header", "tool": "epoal", "version": __version__,
              "command": "trace",
              "config": {"algorithm": args.algo, "kind": kind, "d": args.d, "K": K,
                         "r": r, "mu": args.mu, "eta": args.eta, "tau": args.tau,
                         "iters": args.iters, "seed": args.seed}}
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        print(json.dumps(header), file=fh)
        for rec in records:
            row = {"iter": rec.iter, "jvals": rec.jvals.tolist(),
                   "minmax": rec.minmax, "fairness": rec.fairness}
            if args.algo == EPO_AL:
                row["p"] = rec.p_snapshot.tolist()
            if args.algo == SUBGRADIENT:
                row["active"] = rec.active_index
            print(json.dumps(row), file=fh)
        if error is not None:
            print(json.dumps({"type": "error", "error": "divergence",
                              "iteration": error.iteration, "message": str(error)}), file=fh)
    return EXIT_OK if error is None else EXIT_DIVERGED


def cmd_bench(args) -> int:
    import csv      # loaded on first use, not by `import epoal.cli`
    try:
        kinds = [_SHORT_KINDS[k] for k in args.kinds.split(",") if k]
    except KeyError as err:
        raise ValueError(f"unknown kind {err.args[0]!r}; choose from convex,nonconvex")
    K_values = _number_list(args.K, int)
    algos = [a for a in args.algos.split(",") if a]
    out = Path(args.out)
    _check_writable(out)
    _check_writable(out.with_suffix(".meta.json"))
    grid = GridSpec(max_iter=args.max_iter, epsilon=args.epsilon)
    aggregates = run_experiment(kinds, K_values, args.d, args.trials, args.seed,
                                algorithms=algos, grid=grid, jobs=args.jobs)

    config = {"kinds": kinds, "K_values": K_values, "d": args.d,
              "trials": args.trials, "algorithms": algos, "master_seed": args.seed,
              "epsilon": grid.epsilon, "max_iter": grid.max_iter, "jobs": args.jobs}
    with open(out, "w", newline="") as fh:
        fh.write("# " + json.dumps({"tool": "epoal", "version": __version__,
                                    "command": "bench", "config": config}) + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([*astuple(agg), args.seed] for agg in aggregates)

    sidecar = {"tool": "epoal", "version": __version__, "command": "bench",
               "config": config,
               "grids": {"mu": list(grid.mu_grid), "eta": list(grid.eta_grid),
                         "tau": list(grid.tau_grid)},
               "ci": {"method": "normal approximation on the trimmed sample "
                                "(one min and one max removed)",
                      "level": CI_LEVEL},
               "timing_note": "t_o_* columns are wall-clock measurements (median "
                              "of timing repetitions) and vary across reruns; all "
                              "other columns are a pure function of the config "
                              "block above"}
    out.with_suffix(".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        problem = load_problem(args.problem)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot load problem record: {err}")
    try:
        w = load_model(args.model)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read model file: {err}")
    if w.size != problem.d:
        raise DataError(f"{args.model}: model has {w.size} coordinates, problem has d={problem.d}")
    try:
        cert = certify_epo(w, problem, _number_list(args.r), fair_tol=args.fair_tol,
                           gap_tol=args.gap_tol)
    except DivergenceError as err:
        raise DataError(f"{args.model}: {err}")
    print(json.dumps(asdict(cert)))
    return EXIT_OK if cert.is_fair and cert.is_stationary else EXIT_NOT_CERTIFIED


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull, so the interpreter's final flush of what is
    still buffered for a closed pipe succeeds and prints nothing."""
    with contextlib.suppress(OSError, ValueError):      # as when stdout has no descriptor
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {"trace": cmd_trace, "bench": cmd_bench, "certify": cmd_certify}
    try:
        with np.errstate(all="ignore"):     # a divergence is reported by its exit code instead
            return handler[args.command](args)
    except KeyboardInterrupt:
        code, message = EXIT_INTERRUPTED, "interrupted"
    except BrokenPipeError:         # the reader chose to stop reading; that is not an error
        _discard_stdout()
        return EXIT_CLOSED_PIPE
    except ValueError as err:       # the library checks every argument before any work
        code, message = EXIT_USAGE, f"error: {err}"
    except (DataError, OSError) as err:
        code, message = EXIT_DATA, f"error: {err}"
    except HarnessError as err:
        code, message = EXIT_INTERNAL, f"harness error: {err}"
    except MemoryError as err:      # numpy's names the array's shape
        code, message = EXIT_INTERNAL, f"out of memory: {err}"
    print(f"epoal: {message}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
