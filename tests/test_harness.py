import concurrent.futures
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epoal import (GridSpec, SyntheticProblem, compute_target, gen_anchors,
                   iteration_complexity, log_grid, make_problem, minmax_value,
                   run_experiment, sample_initial, sample_preference,
                   trimmed_mean_ci, tune_and_measure)
import epoal.harness as harness
from epoal.harness import _first_hit, _grid_configs, _race, _tune_chunk, trial_seed
from epoal.solvers import ALGORITHMS, DivergenceError, IterationRecord, _lockstep

from oracles import (exhaustive_target, exhaustive_tune, run_allowing_divergence,
                     two_objective_epo_oracle)
from test_solvers import CountingObjectives


def fake_trace(minmax_values):
    return [IterationRecord(iter=i, jvals=np.array([v]), minmax=v, fairness=0.0)
            for i, v in enumerate(minmax_values)]


def test_log_grid_matches_protocol_grid():
    g = log_grid(1e-3, 1e-1, 10)
    assert g[0] == pytest.approx(1e-3, rel=1e-15)
    assert g[-1] == pytest.approx(1e-1, rel=1e-15)
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, 100.0 ** (1.0 / 9.0), rtol=1e-12)


def test_log_grid_small_example():
    np.testing.assert_allclose(log_grid(1.0, 100.0, 3), [1.0, 10.0, 100.0])


@pytest.mark.parametrize("n", [10.0, "3", None])
def test_log_grid_rejects_a_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be a non-negative integer"):
        log_grid(1e-3, 1e-1, n)


def test_log_grid_validation():
    with pytest.raises(ValueError):
        log_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        log_grid(1.0, 0.1, 5)
    with pytest.raises(ValueError, match="lo < hi < inf"):
        log_grid(1e-3, np.inf, 4)
    with pytest.raises(ValueError):
        log_grid(0.1, 1.0, 1)
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            GridSpec(epsilon=bad)
    for bad in (-1, 2.5, np.nan):
        with pytest.raises(ValueError, match="max_iter must be a non-negative integer"):
            GridSpec(max_iter=bad)
    assert GridSpec(max_iter=np.int64(5)).max_iter == 5
    for empty in ("mu_grid", "eta_grid", "tau_grid"):
        with pytest.raises(ValueError, match=empty):
            GridSpec(**{empty: ()})


def test_default_grids_follow_protocol():
    grid = GridSpec()
    for values, lo, hi in [(grid.mu_grid, 1e-3, 1e-1),
                           (grid.eta_grid, 1e-1, 1e2),
                           (grid.tau_grid, 1e-2, 10.0)]:
        values = np.asarray(values)
        assert values.size == 10
        assert values[0] == pytest.approx(lo, rel=1e-15)
        assert values[-1] == pytest.approx(hi, rel=1e-15)
        assert np.all(np.diff(values) > 0)
        ratios = values[1:] / values[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    assert grid.max_iter == 1000
    assert grid.epsilon == 0.01


def test_iteration_complexity_first_entry_into_band():
    trace = fake_trace([1.0, 0.6, 0.505, 0.52])
    assert iteration_complexity(trace, target=0.5, epsilon=0.01) == 2


def test_iteration_complexity_reads_the_record_iterate():
    # A trace that does not start at iterate 0, such as a slice, answers in iterates.
    trace = fake_trace([1.0, 0.6, 0.8, 0.505, 0.52])[2:]
    assert iteration_complexity(trace, target=0.5, epsilon=0.01) == 3


def test_iteration_complexity_censored_when_band_never_reached():
    trace = fake_trace([1.0, 0.9, 0.8])
    assert iteration_complexity(trace, target=0.5, epsilon=0.01) is None


def test_iteration_complexity_agrees_with_vectorized_scan():
    rng = np.random.default_rng(8)
    for _ in range(50):
        values = np.abs(rng.standard_normal(40).cumsum() * 0.1 + 1.0)
        trace = fake_trace(values)
        target, eps = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.01, 0.5))
        hits = np.flatnonzero(np.abs(values - target) <= eps)
        expected = int(hits[0]) if hits.size else None
        assert iteration_complexity(trace, target, eps) == expected


def test_iteration_complexity_monotone_in_epsilon():
    rng = np.random.default_rng(9)
    values = np.abs(rng.standard_normal(60).cumsum() * 0.05 + 1.0)
    trace = fake_trace(values)
    target = float(values.min() + 0.05)
    results = [iteration_complexity(trace, target, eps)
               for eps in (0.01, 0.05, 0.1, 0.5)]
    for narrow, wide in zip(results, results[1:]):
        if narrow is not None:
            assert wide is not None and wide <= narrow


def test_iteration_complexity_validation():
    with pytest.raises(ValueError):
        iteration_complexity([], target=0.0, epsilon=0.1)
    for epsilon in (0.0, np.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            iteration_complexity(fake_trace([1.0]), target=0.0, epsilon=epsilon)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
def test_non_finite_target_is_rejected(target):
    # A NaN target would censor every configuration without a word.
    problem, r, w0 = trial_inputs()
    with pytest.raises(ValueError, match="target must be finite"):
        iteration_complexity(fake_trace([1.0, 0.5]), target, epsilon=0.01)
    with pytest.raises(ValueError, match="target must be finite"):
        tune_and_measure("epo-al", problem, r, w0, small_grid(max_iter=20), seed=4,
                         target=target, measure=False)


def test_trimmed_mean_drops_extremes():
    mean, lo, hi = trimmed_mean_ci(np.arange(1, 31))
    assert mean == pytest.approx(15.5)
    assert lo <= mean <= hi
    assert trimmed_mean_ci([1.0, 2.0, 3.0, 100.0])[0] == pytest.approx(2.5)


def test_trimmed_mean_degenerate_cases():
    assert trimmed_mean_ci([4.0, 4.0, 4.0]) == (4.0, 4.0, 4.0)
    assert trimmed_mean_ci([7.0, 7.0, 7.0, 7.0, 7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        trimmed_mean_ci([1.0, 2.0])


def small_grid(max_iter=150):
    return GridSpec(mu_grid=tuple(log_grid(1e-2, 1e-1, 3)),
                    eta_grid=tuple(log_grid(0.1, 10.0, 3)),
                    tau_grid=tuple(log_grid(0.1, 1.0, 2)),
                    max_iter=max_iter)


def trial_inputs(kind="convex-distance", d=6, K=3, seed=4):
    problem = make_problem(kind, d, K, seed)
    return problem, sample_preference(K, seed), sample_initial(d, seed)


def test_compute_target_not_above_initial_value():
    problem, r, w0 = trial_inputs()
    target = compute_target(problem, r, w0, small_grid(), seed=4)
    assert target <= minmax_value(r, problem.values_and_jacobian(w0)[0])


def test_compute_target_single_objective_reaches_anchor_value():
    anchors = gen_anchors(6, 2, seed=0)[:1]
    problem = SyntheticProblem(kind="convex-distance", anchors=anchors)
    target = compute_target(problem, [1.0], sample_initial(6, 0), GridSpec(), seed=0)
    assert target <= 0.01


def test_compute_target_fig1_matches_bisection_oracle():
    problem = make_problem("fig1-pair", 3, 2, 0)
    r = [0.2, 0.8]
    target = compute_target(problem, r, sample_initial(3, 0), GridSpec(), seed=0)
    _, jvals = two_objective_epo_oracle(r, problem)
    assert abs(target - minmax_value(r, jvals)) <= 0.01


def test_compute_target_improves_with_more_step_sizes():
    problem, r, w0 = trial_inputs(seed=13)
    base = GridSpec(mu_grid=tuple(log_grid(1e-3, 1e-2, 4)), max_iter=200)
    wider = GridSpec(mu_grid=tuple(log_grid(1e-3, 1e-1, 8)), max_iter=200)
    assert (compute_target(problem, r, w0, wider, seed=13)
            <= compute_target(problem, r, w0, base, seed=13))


@pytest.mark.parametrize("K", [2, 16])
def test_cell_scan_rows_equal_each_trials_own_target_scan(K):
    # A chunk's scans run as one kernel pass; a diverging step size (1e200) in every trial
    # leaves NaN from its iterate 1 on, in the pass as alone.
    grid = small_grid(max_iter=80)
    grid = replace(grid, mu_grid=grid.mu_grid + (1e200,))
    seeds = [trial_seed(3, "convex-distance", K, t) for t in range(4)]
    trials = [trial_inputs("convex-distance", 6, K, seed) for seed in seeds]
    scans = harness._target_scans([(*trial, seed) for trial, seed in zip(trials, seeds)], grid)
    assert len(scans) == len(trials)
    for (problem, r, w0), seed, minmax in zip(trials, seeds, scans):
        (alone,) = harness._target_scans([(problem, r, w0, seed)], grid)
        np.testing.assert_array_equal(minmax, alone)
        assert np.isnan(minmax[-1, 1:]).all() and not np.isnan(minmax[:-1]).any()
        target = compute_target(problem, r, w0, grid, seed=seed)
        assert compute_target(problem, r, w0, grid, seed=seed, _scan=minmax) == target


@pytest.fixture
def forbid_run(monkeypatch):
    # measure_time times the kernel; run would add the trace records to t_o.
    def no_run(*args, **kwargs):
        raise AssertionError("measure_time called run")

    monkeypatch.setattr(harness, "run", no_run)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_measure_time_evaluates_iters_plus_one_per_repetition(forbid_run, algorithm):
    problem, r, w0 = trial_inputs()
    config = _grid_configs(algorithm, small_grid(max_iter=20), seed=4)[0]
    counter = CountingObjectives(problem)
    assert harness.measure_time(algorithm, counter, r, w0, config, 7) > 0
    assert counter.evaluations == harness.TIMING_REPS * (7 + 1)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_measure_time_raises_where_the_configuration_diverges(forbid_run, algorithm):
    # A step size of 1e200 overflows ||w - w_k||^2 on the first step.
    problem, r, w0 = trial_inputs()
    config = replace(_grid_configs(algorithm, small_grid(max_iter=20), seed=4)[0], mu=1e200)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        harness.measure_time(algorithm, problem, r, w0, config, 5)
    assert err.value.iteration == 1


def test_tune_run_accounting():
    problem, r, w0 = trial_inputs()
    grid = small_grid(max_iter=20)
    counter = CountingObjectives(problem)
    # target at the starting value: iterate 0 is inside the band, i_o = 0
    target = minmax_value(r, problem.values_and_jacobian(w0)[0])
    record = tune_and_measure("epo-al", counter, r, w0, grid, seed=4, target=target)
    n_configs = len(_grid_configs("epo-al", grid, seed=4))
    assert n_configs == 9
    assert record.i_o == 0
    # A kernel round evaluates every live configuration before the race
    # tests the band, so round 0 evaluates iterate 0 of all 9; the first in
    # grid order is in the band and the race ends there.  The TIMING_REPS (3)
    # timing runs see only iterate 0: 9 + 3 * 1 = 12.
    assert counter.evaluations == 9 + harness.TIMING_REPS * 1
    assert record.t_o > 0


def test_race_evaluates_every_config_up_to_the_winning_iterate():
    problem, r, w0 = trial_inputs(seed=15)
    grid = small_grid()
    target = compute_target(problem, r, w0, grid, seed=15)
    counter = CountingObjectives(problem)
    record = tune_and_measure("epo-al", counter, r, w0, grid, seed=15, target=target,
                              measure=False)
    configs = _grid_configs("epo-al", grid, seed=15)
    j = configs.index(record.best_config)
    assert record.i_o > 0
    # Rounds 0 .. i_o each evaluate all C configurations (none diverges
    # here) before the race tests the band, and round i_o holds the winner,
    # the configuration at grid index j: C * (i_o + 1) evaluations.
    assert counter.evaluations == len(configs) * (record.i_o + 1)


def test_tune_best_is_minimum_over_configs():
    problem, r, w0 = trial_inputs(seed=15)
    grid = small_grid()
    target = compute_target(problem, r, w0, grid, seed=15)
    record = tune_and_measure("epo-al", problem, r, w0, grid, seed=15,
                              target=target, measure=False)
    assert record.i_o is not None
    for cfg in _grid_configs("epo-al", grid, seed=15):
        recs = run_allowing_divergence("epo-al", problem, r, w0, cfg)
        i_cfg = iteration_complexity(recs, target, grid.epsilon) if recs else None
        assert i_cfg is None or record.i_o <= i_cfg


PARITY_GRID = GridSpec(mu_grid=tuple(log_grid(1e-3, 1e-1, 5)),
                       eta_grid=tuple(log_grid(1e-1, 1e2, 5)),
                       tau_grid=tuple(log_grid(1e-2, 10.0, 5)),
                       max_iter=200)


def assert_chunk_matches_oracle(task):
    # Each trial of the chunk, alone through the slow oracles.
    kind, K, d, seeds, algorithms, grid = task
    chunk = _tune_chunk(task)
    assert len(chunk) == len(seeds)
    for seed, (inputs, trial) in zip(seeds, chunk):
        problem, r, w0 = trial_inputs(kind, d, K, seed)
        np.testing.assert_array_equal(inputs[0].anchors, problem.anchors)
        np.testing.assert_array_equal(inputs[1], r)
        np.testing.assert_array_equal(inputs[2], w0)
        target = exhaustive_target(problem, r, w0, grid, seed)
        assert [rec.algorithm for rec in trial] == list(algorithms)
        for rec in trial:
            # The target scan steps in span coordinates: its minimum differs from the d-space
            # oracle's in the last bits.
            assert rec.target == pytest.approx(target, rel=1e-13, abs=0) and rec.seed == seed
            expected = exhaustive_tune(rec.algorithm, problem, r, w0, grid, seed, target)
            assert (rec.i_o, rec.best_config) == expected, rec.algorithm


@pytest.mark.parametrize("K", [2, 4, 16])
@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
def test_tuning_matches_exhaustive_oracle(kind, K):
    seeds = [trial_seed(31, kind, K, trial) for trial in range(2)]
    assert_chunk_matches_oracle((kind, K, 20, seeds, ALGORITHMS, PARITY_GRID))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_tuning_at_start_value_ties_go_to_first_config(algorithm):
    problem, r, w0 = trial_inputs()
    grid = small_grid(max_iter=40)
    target = minmax_value(r, problem.values_and_jacobian(w0)[0])
    record = tune_and_measure(algorithm, problem, r, w0, grid, seed=4, target=target,
                              measure=False)
    assert record.i_o == 0
    assert record.best_config == _grid_configs(algorithm, grid, seed=4)[0]
    assert (record.i_o, record.best_config) == exhaustive_tune(
        algorithm, problem, r, w0, grid, 4, target)


def test_target_scan_reuse_ties_go_to_first_step_size():
    problem, r, w0 = trial_inputs()
    grid = small_grid(max_iter=40)
    (scan,) = harness._target_scans([(problem, r, w0, 4)], grid)
    target = minmax_value(r, problem.values_and_jacobian(w0)[0])
    record = tune_and_measure("subgradient", problem, r, w0, grid, seed=4, target=target,
                              measure=False, _scan=scan)
    assert (record.i_o, record.best_config) == (
        0, _grid_configs("subgradient", grid, seed=4)[0])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=8),
                max_size=6),
       st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_race_matches_exhaustive_minimum(traces, target):
    # An empty trace models a configuration that diverged at iterate 0.  The
    # values and epsilon are exact binary fractions, so some records lie on
    # the band's edge, which is inside the band.
    epsilon = 0.25
    firsts = [next((i for i, v in enumerate(t) if abs(v - target) <= epsilon), None)
              for t in traces]
    assert firsts == [iteration_complexity(fake_trace(t), target, epsilon) if t else None
                      for t in traces]
    entered = [(i, j) for j, i in enumerate(firsts) if i is not None]
    expected = min(entered) if entered else (None, None)
    # The race reads the traces as a scan array: NaN after a trace ends.
    minmax = np.full((len(traces), max(map(len, traces), default=0)), np.nan)
    for j, t in enumerate(traces):
        minmax[j, :len(t)] = t
    assert _first_hit(minmax, target, epsilon) == expected
    assert _race(scan_rounds(minmax), target, epsilon) == expected


def scan_rounds(minmax):
    """The race rounds ``(i, rows, minmax)`` of a (rows, iterates) min-max array, the rows of a
    round in descending order: a round's rows come in any order."""
    return ((i, np.arange(len(minmax))[::-1], column[::-1])
            for i, column in enumerate(minmax.T))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 6), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
def test_first_hit_matches_the_race_over_its_columns(rows, iterates, seed):
    # Values on a coarse grid tie across rows and iterates; some rows are NaN from an
    # iterate on, as the scan stores a row that left, and some are NaN throughout.
    rng = np.random.default_rng(seed)
    minmax = rng.integers(0, 5, size=(rows, iterates)) / 4.0
    for j in range(rows):
        minmax[j, rng.integers(0, iterates + 1):] = np.nan
    for target in (0.0, 0.5, 1.0, 3.0):
        expected = _race(scan_rounds(minmax), target, 0.25)
        assert _first_hit(minmax, target, 0.25) == expected
        i, j = expected
        if i is not None:
            assert type(i) is type(j) is int and abs(minmax[j, i] - target) <= 0.25


def test_tune_trial_tunes_every_algorithm_through_tune_and_measure(monkeypatch):
    # Every trial of a chunk is tuned through tune_and_measure, after compute_target
    # has read its rows of the chunk's scan; the benchmark's tracer counts trials so.
    calls = []

    def counting_tune(algorithm, *args, **kwargs):
        calls.append(algorithm)
        return tune_and_measure(algorithm, *args, **kwargs)

    def counting_target(*args, **kwargs):
        calls.append("target")
        return compute_target(*args, **kwargs)

    monkeypatch.setattr(harness, "tune_and_measure", counting_tune)
    monkeypatch.setattr(harness, "compute_target", counting_target)
    _tune_chunk(("convex-distance", 3, 6, [4], ALGORITHMS, small_grid(max_iter=40)))
    assert calls == ["target", *ALGORITHMS]
    calls.clear()
    _tune_chunk(("convex-distance", 3, 6, [4, 5, 6], ALGORITHMS, small_grid(max_iter=40)))
    assert calls == ["target", *ALGORITHMS] * 3


def test_subgradient_tuning_reads_the_scan_without_running(monkeypatch):
    problem, r, w0 = trial_inputs()
    grid = small_grid(max_iter=40)
    (scan,) = harness._target_scans([(problem, r, w0, 4)], grid)
    target = compute_target(problem, r, w0, grid, seed=4, _scan=scan)
    calls = []

    def counting_lockstep(*args, **kwargs):
        calls.append(args[0])
        return _lockstep(*args, **kwargs)

    monkeypatch.setattr(harness, "_lockstep", counting_lockstep)
    record = tune_and_measure("subgradient", problem, r, w0, grid, seed=4, target=target,
                              measure=False, _scan=scan)
    assert calls == []
    assert (record.i_o, record.best_config) == exhaustive_tune(
        "subgradient", problem, r, w0, grid, 4, target)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_tuning_unreachable_target_censors_every_config(algorithm):
    problem, r, w0 = trial_inputs()
    grid = small_grid(max_iter=40)
    record = tune_and_measure(algorithm, problem, r, w0, grid, seed=4, target=-5.0,
                              measure=False)
    assert record.i_o is None and record.best_config is None
    assert exhaustive_tune(algorithm, problem, r, w0, grid, 4, -5.0) == (None, None)


def test_tuning_with_diverging_config_matches_oracle():
    # A step size of 1e200 overflows ||w - w_k||^2 on the first step, so that
    # configuration diverges after its first iterate in every algorithm.
    grid = small_grid(max_iter=60)
    grid = GridSpec(mu_grid=grid.mu_grid + (1e200,), eta_grid=grid.eta_grid,
                    tau_grid=grid.tau_grid, max_iter=grid.max_iter)
    problem, r, w0 = trial_inputs()
    for algorithm in ALGORITHMS:
        diverging = _grid_configs(algorithm, grid, seed=4)[-1]
        assert len(run_allowing_divergence(algorithm, problem, r, w0, diverging)) == 1
    assert_chunk_matches_oracle(("convex-distance", 3, 6, [4], ALGORITHMS, grid))
    assert_chunk_matches_oracle(("convex-distance", 3, 6, [4, 9, 11], ALGORITHMS, grid))


def test_tune_smooth_max_through_full_protocol():
    problem, r, w0 = trial_inputs()
    grid = GridSpec(max_iter=400)
    target = compute_target(problem, r, w0, grid, seed=4)
    record = tune_and_measure("smooth-max", problem, r, w0, grid, seed=4,
                              target=target, measure=False)
    assert record.i_o is not None
    assert record.best_config.tau in grid.tau_grid


def test_tune_reports_censoring_when_target_unreachable():
    problem, r, w0 = trial_inputs()
    record = tune_and_measure("subgradient", problem, r, w0, small_grid(max_iter=30),
                              seed=4, target=-5.0)
    assert record.i_o is None and record.t_o is None and record.best_config is None


def untimed(aggregates):
    """Every field of each aggregate except the wall-clock ``t_o_*``, as a repr (NaN == NaN)."""
    return repr([[getattr(agg, f.name) for f in fields(agg) if not f.name.startswith("t_o")]
                 for agg in aggregates])


def test_run_experiment_deterministic_and_ordered():
    kinds = ["convex-distance"]
    kwargs = dict(K_values=[2, 3], d=5, n_trials=3, master_seed=71,
                  algorithms=["epo-al", "subgradient"], grid=small_grid(max_iter=80))
    first = run_experiment(kinds, **kwargs)
    second = run_experiment(kinds, **kwargs)
    assert untimed(first) == untimed(second)
    assert [(a.kind, a.K, a.algorithm) for a in first] == [
        ("convex-distance", 2, "epo-al"), ("convex-distance", 2, "subgradient"),
        ("convex-distance", 3, "epo-al"), ("convex-distance", 3, "subgradient")]
    for agg in first:
        assert agg.n_trials == 3
        if agg.n_censored == 0:
            assert np.isfinite(agg.i_o_mean)
            assert agg.i_o_ci_low <= agg.i_o_mean <= agg.i_o_ci_high


def test_run_experiment_builds_each_trials_inputs_once(monkeypatch):
    # The timing runs reuse the inputs the tuning phase built with the records.
    calls = []

    def counting_inputs(*args):
        calls.append(args)
        return trial_inputs_of(*args)

    trial_inputs_of = harness._trial_inputs
    monkeypatch.setattr(harness, "_trial_inputs", counting_inputs)
    run_experiment(["convex-distance", "nonconvex-gaussian"], [2], d=4, n_trials=3,
                   master_seed=9, algorithms=["epo-al", "subgradient"],
                   grid=small_grid(max_iter=40))
    assert len(calls) == len(set(calls)) == 2 * 3


def test_run_experiment_trial_count_floor():
    with pytest.raises(ValueError):
        run_experiment(["convex-distance"], [2], d=3, n_trials=2, master_seed=0)
    with pytest.raises(ValueError):
        run_experiment(["convex-distance"], [2], d=3, n_trials=3, master_seed=0, jobs=0)


@pytest.mark.parametrize("bad", [
    dict(algorithms=["epo-al", "foo"]),
    dict(kinds=["spherical"]),
    dict(K_values=[2, 1]),
    dict(d=0),
    dict(grid=GridSpec(mu_grid=(0.1, -0.1))),
    dict(grid=GridSpec(eta_grid=(-1.0,))),
    dict(algorithms=["subgradient", "subgradient"]),
    dict(kinds=["convex-distance", "convex-distance"]),
    dict(K_values=[2, 2]),
    dict(algorithms=[]),
    dict(kinds=[]),
    dict(K_values=[]),
], ids=["algorithm", "kind", "K", "d", "mu", "eta", "algorithm-repeated", "kind-repeated",
        "K-repeated", "algorithms-empty", "kinds-empty", "K-empty"])
def test_run_experiment_checks_arguments_before_any_run(monkeypatch, bad):
    calls = []

    def counting_lockstep(*args, **kwargs):
        calls.append(args[0])
        return _lockstep(*args, **kwargs)

    monkeypatch.setattr(harness, "_lockstep", counting_lockstep)
    kwargs = dict(kinds=["convex-distance"], K_values=[2], d=3, n_trials=3,
                  master_seed=0, algorithms=["epo-al", "subgradient"],
                  grid=small_grid(max_iter=20))
    with pytest.raises(ValueError):
        run_experiment(**{**kwargs, **bad})
    assert calls == []


@pytest.mark.parametrize("name, bad", [("K_values", [2.5]), ("d", 3.5), ("n_trials", 3.5),
                                       ("jobs", 1.5), ("master_seed", 0.5)],
                         ids=["K", "d", "n_trials", "jobs", "master_seed"])
def test_run_experiment_rejects_an_integer_argument_that_is_not_one(monkeypatch, name, bad):
    # K_values=[2.5] used to run as K=2, and a fractional d, n_trials or jobs raised TypeError:
    # each is a ValueError naming the argument, before any kernel pass.
    calls = []
    monkeypatch.setattr(harness, "_lockstep", lambda *args: calls.append(args))
    kwargs = dict(kinds=["convex-distance"], K_values=[2], d=3, n_trials=3, master_seed=0,
                  algorithms=["subgradient"], grid=small_grid(max_iter=20))
    with pytest.raises(ValueError, match=f"{name}.* must be a non-negative integer"):
        run_experiment(**{**kwargs, name: bad})
    assert calls == []


def test_run_experiment_pool_has_no_more_workers_than_trials(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    run_experiment(["convex-distance"], [2], d=3, n_trials=3, master_seed=0,
                   algorithms=["subgradient"], grid=small_grid(max_iter=20), jobs=64)
    assert sizes == [3]


def test_run_experiment_parallel_matches_serial():
    kwargs = dict(K_values=[2], d=4, n_trials=3, master_seed=5,
                  algorithms=["subgradient"], grid=small_grid(max_iter=60))
    serial = run_experiment(["nonconvex-gaussian"], jobs=1, **kwargs)
    parallel = run_experiment(["nonconvex-gaussian"], jobs=2, **kwargs)
    assert untimed(serial) == untimed(parallel)


def test_run_experiment_chunking_does_not_change_results(monkeypatch):
    # One chunk a cell at jobs=1, two chunks of 2 and 3 trials at jobs=2, one trial a
    # chunk at jobs=5; a serial pool keeps the chunks in this process.
    chunks = []

    class SerialPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            chunks.append([len(task[3]) for task in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    kwargs = dict(K_values=[2, 5], d=4, n_trials=5, master_seed=8,
                  algorithms=["epo-al", "subgradient"], grid=small_grid(max_iter=60))
    results = {jobs: untimed(run_experiment(["convex-distance"], jobs=jobs, **kwargs))
               for jobs in (1, 2, 5)}
    assert chunks == [[2, 3, 2, 3], [1] * 10]
    assert results[1] == results[2] == results[5]


def test_run_experiment_with_timing_produces_positive_times():
    aggs = run_experiment(["convex-distance"], [2], d=4, n_trials=3, master_seed=3,
                          algorithms=["epo-al"], grid=small_grid(max_iter=80))
    (agg,) = aggs
    if agg.n_censored == 0:
        assert agg.t_o_mean > 0
