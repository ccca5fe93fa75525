"""Benchmark protocol: tuning grids, target accuracy, and complexity measures.

For one random trial (problem instance, preference vector, initial model)
the protocol is:

  1. The target value J* is the minimum weighted min-max value attained by
     the subgradient algorithm over every step size in its grid, scanning
     all iterates of all runs.  The scans of a chunk of one cell's trials
     run as one kernel pass, each row bit-identical to a scan of its trial alone.
  2. For each algorithm and each hyperparameter combination in its grid,
     the iteration complexity of that combination is the first iterate
     whose min-max value lies within ``epsilon`` of J*; the algorithm's
     iteration complexity i_o is the minimum over combinations, ties going
     to the combination first in lexicographic grid order, and the winning
     combination is re-run in the solver kernel, as one row and without trace
     records, for exactly i_o iterations under a monotonic clock: the
     wall-clock complexity t_o is the median of TIMING_REPS such runs.
     The minimum is found by a lockstep race: the solver kernel advances
     every combination one iterate per round as one array pass, and the
     first round with a value in the band ends it, so the winner is exact.
     Subgradient's race reads the target scan's min-max array in one pass.
  3. Combinations that never enter the epsilon band are censored, never
     conflated with slow successes.

Aggregation over trials drops one minimum and one maximum sample and
reports the mean of the rest with a normal-approximation confidence
interval.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .core import _check_non_negative_int
from .problems import CONVEX, FIG1, NONCONVEX, make_problem, sample_initial, sample_preference
# run is re-exported until the perfbench tracer wraps the kernel (ROADMAP item 1).
from .solvers import (ALGORITHMS, EPO_AL, SMOOTH_MAX, SUBGRADIENT, IterationRecord,  # noqa: F401
                      SolverConfig, _lockstep, _row, run)

CI_LEVEL = 0.99
# t_o is the median wall time of this many timing runs of the winning configuration.
TIMING_REPS = 3

_KIND_CODE = {CONVEX: 1, NONCONVEX: 2, FIG1: 3}


class HarnessError(RuntimeError):
    """The benchmark protocol could not produce a measurement."""


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n geometrically spaced values with exact endpoints lo and hi."""
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    _check_non_negative_int("n", n)
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter search grids and protocol constants."""

    mu_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(map(float, log_grid(1e-3, 1e-1, 10))))
    eta_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(map(float, log_grid(1e-1, 1e2, 10))))
    tau_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(map(float, log_grid(1e-2, 10.0, 10))))
    max_iter: int = 1000
    epsilon: float = 0.01

    def __post_init__(self):
        for name in ("mu_grid", "eta_grid", "tau_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        _check_non_negative_int("max_iter", self.max_iter)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of tuning and measuring one algorithm on one random trial.

    ``i_o`` and ``t_o`` are None when every grid combination was censored.
    """

    algorithm: str
    kind: str
    K: int
    d: int
    seed: int
    target: float
    best_config: SolverConfig | None
    i_o: int | None
    t_o: float | None


@dataclass(frozen=True)
class AggregateRecord:
    """Trimmed-mean summary of one (kind, K, algorithm) benchmark cell."""

    kind: str
    algorithm: str
    K: int
    d: int
    n_trials: int
    n_censored: int
    i_o_mean: float
    i_o_ci_low: float
    i_o_ci_high: float
    t_o_mean: float
    t_o_ci_low: float
    t_o_ci_high: float


def trial_seed(master_seed: int, kind: str, K: int, trial: int) -> int:
    """Deterministic per-trial sub-seed derived from the master seed."""
    ss = np.random.SeedSequence(
        entropy=[int(master_seed), _KIND_CODE[kind], int(K), int(trial)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _grid_configs(algorithm: str, grid: GridSpec, seed: int) -> list[SolverConfig]:
    # Enumeration order is lexicographic (mu, then eta/tau), so the first
    # combination attaining the minimal i_o is the deterministic tie-break.
    second = {SUBGRADIENT: [{}],
              EPO_AL: [{"eta": float(e)} for e in grid.eta_grid],
              SMOOTH_MAX: [{"tau": float(t)} for t in grid.tau_grid]}.get(algorithm)
    if second is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return [SolverConfig(mu=float(m), max_iter=grid.max_iter, seed=seed, **extra)
            for m in grid.mu_grid for extra in second]


def compute_target(problem, r, w0, grid: GridSpec, seed: int = 0, *,
                   _scan: np.ndarray | None = None) -> float:
    """Target J*: best min-max value the subgradient algorithm ever attains.

    One full-length run per step size in the grid, all re-seeded identically
    so tie-breaking noise does not differ across step sizes; the minimum is
    taken over every iterate of every run, iterate 0 included.

    ``_scan`` is for the protocol's own use: the trial's row of :func:`_target_scans`,
    read instead of running.
    """
    minmax = _target_scans([(problem, r, w0, seed)], grid)[0] if _scan is None else _scan
    if np.isnan(minmax[:, 0]).all():
        raise HarnessError("every target-scan run diverged before its first iterate")
    return float(np.nanmin(minmax))


def _target_scans(trials, grid: GridSpec) -> list[np.ndarray]:
    """The (step sizes, max_iter + 1) min-max arrays of :func:`compute_target`, NaN from the
    iterate at which a run diverged, for ``(problem, r, w0, seed)`` trials of one kind, K and
    d: one kernel pass of (trials x step sizes) rows."""
    passes = [(problem, r, w0, _grid_configs(SUBGRADIENT, grid, seed))
              for problem, r, w0, seed in trials]
    minmax = np.full((sum(len(p[3]) for p in passes), grid.max_iter + 1), np.nan)
    for block in _lockstep(SUBGRADIENT, passes):
        minmax[block.rows, block.i] = block.minmax
    return np.split(minmax, len(trials))


def iteration_complexity(trace: list[IterationRecord], target: float,
                         epsilon: float) -> int | None:
    """The ``iter`` of the first record whose min-max value is within epsilon of target.

    Returns None (censored) when the trace never enters the band.
    """
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not trace:
        raise ValueError("empty trace")
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    i = _first_hit(np.array([[rec.minmax for rec in trace]]), target, epsilon)[0]
    return None if i is None else trace[i].iter


def _first_hit(minmax, target: float, epsilon: float):
    """(i_o, j): the lowest iterate i, then row j, of a (rows, iterates) min-max array within
    ``epsilon`` of ``target``, else (None, None).  NaN (a row that has left) is never in band."""
    hits = (np.abs(minmax - target) <= epsilon).T
    return divmod(int(np.argmax(hits)), hits.shape[1]) if hits.any() else (None, None)


def _race(rounds, target: float, epsilon: float):
    """:func:`_first_hit` over lockstep ``rounds``, tuples starting ``(i, rows, minmax)``, one
    a round by ascending i as the kernel's blocks come; it stops at the first hit."""
    for i, rows, minmax, *_ in rounds:
        hits = np.flatnonzero(np.abs(minmax - target) <= epsilon)
        if hits.size:
            return i, int(rows[hits].min())
    return None, None


def measure_time(algorithm, problem, r, w0, config: SolverConfig, iters: int) -> float:
    """Median seconds, on a monotonic clock, of ``TIMING_REPS`` runs of the bare solver kernel
    for ``iters`` iterations, one configuration stepped in row arithmetic (``solvers._row``).

    Each run makes ``run``'s checks and evaluations, raising DivergenceError where ``run``
    would, but builds no trace records; callers keep concurrent load away while it runs.
    """
    timed = replace(config, max_iter=iters)
    samples = []
    for _ in range(TIMING_REPS):
        start = time.perf_counter()
        for _ in _row(algorithm, problem, r, w0, timed):
            pass
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def tune_and_measure(algorithm, problem, r, w0, grid: GridSpec, seed: int = 0, *,
                     target: float, measure: bool = True,
                     _scan: np.ndarray | None = None) -> TrialRecord:
    """Full per-trial protocol for one algorithm: tune i_o, then time t_o.

    ``target`` is the trial's J* from :func:`compute_target`, shared by all
    algorithms.  ``measure=False`` skips the timing runs, leaving t_o None.

    ``_scan`` is for the protocol's own use: the trial's target-scan array (the
    subgradient grid, this seed), which subgradient's race reads instead of
    running; other algorithms ignore it.
    """
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    configs = _grid_configs(algorithm, grid, seed)
    best_i, j = (_first_hit(_scan, target, grid.epsilon)
                 if algorithm == SUBGRADIENT and _scan is not None
                 else _race(_lockstep(algorithm, [(problem, r, w0, configs)]), target,
                            grid.epsilon))
    best_cfg = None if j is None else configs[j]
    t_o = (measure_time(algorithm, problem, r, w0, best_cfg, best_i)
           if measure and best_i is not None else None)
    return TrialRecord(algorithm=algorithm, kind=getattr(problem, "kind", "custom"),
                       K=problem.count, d=np.asarray(w0).size, seed=seed,
                       target=target, best_config=best_cfg, i_o=best_i, t_o=t_o)


def trimmed_mean_ci(samples) -> tuple[float, float, float]:
    """Drop one min and one max, then mean +- z(CI_LEVEL) * s / sqrt(n - 2)."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    if x.size < 3:
        raise ValueError(f"need at least 3 samples, got {x.size}")
    trimmed = x[1:-1]
    mean = float(trimmed.mean())
    if trimmed.size < 2:
        return mean, mean, mean
    half = (NormalDist().inv_cdf(0.5 + CI_LEVEL / 2)
            * float(trimmed.std(ddof=1)) / np.sqrt(trimmed.size))
    return mean, mean - half, mean + half


def _trial_inputs(kind, K, d, seed):
    """The trial's (problem, r, w0), a pure function of its arguments."""
    return make_problem(kind, d, K, seed), sample_preference(K, seed), sample_initial(d, seed)


def _tune_chunk(task):
    """Tuning phase (no timing) of a chunk of one cell's trials, per trial its (problem, r, w0)
    and record list; picklable for worker pools.  Its target scans run as one kernel pass."""
    kind, K, d, seeds, algorithms, grid = task
    trials = [_trial_inputs(kind, K, d, seed) for seed in seeds]
    scans = _target_scans([(*trial, seed) for trial, seed in zip(trials, seeds)], grid)
    tuned = []
    for (problem, r, w0), seed, minmax in zip(trials, seeds, scans):
        target = compute_target(problem, r, w0, grid, seed=seed, _scan=minmax)
        tuned.append(((problem, r, w0), [
            tune_and_measure(algo, problem, r, w0, grid, seed=seed, target=target,
                             measure=False, _scan=minmax) for algo in algorithms]))
    return tuned


def _aggregate(kind, algorithm, K, d, trials: list[TrialRecord]) -> AggregateRecord:
    i_samples = [t.i_o for t in trials if t.i_o is not None]
    t_samples = [t.t_o for t in trials if t.t_o is not None]
    # t_o exists only where i_o does, so fewer than 3 i_o also means NaN t_o.
    i_stats = trimmed_mean_ci(i_samples) if len(i_samples) >= 3 else (np.nan,) * 3
    t_stats = trimmed_mean_ci(t_samples) if len(t_samples) >= 3 else (np.nan,) * 3
    return AggregateRecord(kind=kind, algorithm=algorithm, K=K, d=d,
                           n_trials=len(trials),
                           n_censored=len(trials) - len(i_samples),
                           i_o_mean=i_stats[0], i_o_ci_low=i_stats[1],
                           i_o_ci_high=i_stats[2], t_o_mean=t_stats[0],
                           t_o_ci_low=t_stats[1], t_o_ci_high=t_stats[2])


def run_experiment(kinds, K_values, d: int, n_trials: int, master_seed: int,
                   algorithms=ALGORITHMS, grid: GridSpec | None = None,
                   jobs: int = 1) -> list[AggregateRecord]:
    """Benchmark every (kind, K, algorithm) cell over seeded random trials.

    Each trial draws fresh anchors, preference vector and initial model from
    a per-trial sub-seed; all algorithms share the trial's instances and its
    target J*.  Tuning work may fan out over ``jobs`` processes, but timing
    always runs sequentially in this process so measurements never contend.
    The result list is ordered by (kind, K, algorithm) in input order and is
    a pure function of the arguments (timing fields aside).

    Every argument is checked before the first solver run, so a ValueError
    always means a bad argument; a failure inside the protocol raises
    HarnessError.
    """
    kinds, K_values, algorithms = list(kinds), list(K_values), list(algorithms)
    for name, value in (("d", d), ("n_trials", n_trials), ("master_seed", master_seed),
                        ("jobs", jobs), *(("K_values entry", K) for K in K_values)):
        _check_non_negative_int(name, value)
    if n_trials < 3 or jobs < 1:
        raise ValueError(f"need n_trials >= 3 and jobs >= 1, got {n_trials} and {jobs}")
    grid = grid if grid is not None else GridSpec()
    K_values = [int(K) for K in K_values]
    for name, values in (("kinds", kinds), ("K_values", K_values),
                         ("algorithms", algorithms)):
        if not values or len(set(values)) != len(values):
            raise ValueError(f"{name} must be non-empty without repeats, got {values}")
    for algo in algorithms:
        _grid_configs(algo, grid, master_seed)
    cells = [(kind, K) for kind in kinds for K in K_values]
    for kind, K in cells:
        make_problem(kind, d, K, master_seed)

    # A task is a chunk of consecutive trials of one cell, min(jobs, n_trials) chunks a
    # cell.  Trial t of cell c is entry c * n_trials + t of the concatenated chunk results;
    # entry a of a trial's record list is algorithms[a].
    n_chunks = min(jobs, n_trials)
    bounds = [n * n_trials // n_chunks for n in range(n_chunks + 1)]
    tasks = []
    for kind, K in cells:
        seeds = [trial_seed(master_seed, kind, K, t) for t in range(n_trials)]
        tasks += [(kind, K, d, seeds[lo:hi], algorithms, grid)
                  for lo, hi in zip(bounds, bounds[1:])]

    if jobs > 1:
        # Fork-based pools start all their workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_tune_chunk, tasks))
    else:
        chunks = [_tune_chunk(task) for task in tasks]

    tuned = [trial for chunk in chunks for trial in chunk]
    for (problem, r, w0), trial in tuned:
        for a, rec in enumerate(trial):
            if rec.i_o is not None:
                trial[a] = replace(rec, t_o=measure_time(
                    algorithms[a], problem, r, w0, rec.best_config, rec.i_o))

    return [_aggregate(kind, algo, K, d,
                       [trial[a] for _, trial in tuned[c * n_trials:(c + 1) * n_trials]])
            for c, (kind, K) in enumerate(cells) for a, algo in enumerate(algorithms)]
