import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epoal.solvers as solvers
from epoal import (DivergenceError, EpoAlState, ObjectiveSet, SolverConfig, dual_mass,
                   epo_al_step, fairness_residual, fig1_problem, initial_state, log_grid,
                   make_problem, minmax_value, pareto_stationarity_gap, run,
                   sample_initial, sample_preference, smoothmax_step, subgradient_step)
from epoal.core import _divergence
from epoal.problems import _anchor_values
from epoal.solvers import _lockstep

from oracles import scalar_trace

# The suite turns RuntimeWarnings into errors; a test that overflows on purpose carries this.
OVERFLOWS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class FixedObjectives(ObjectiveSet):
    """Constant values with a constant jacobian; handy for algebraic step checks."""

    def __init__(self, vals, jac):
        self.vals = np.asarray(vals, dtype=float)
        self.jac = np.asarray(jac, dtype=float)

    @property
    def count(self):
        return self.vals.size

    def values_and_jacobian(self, w):
        return self.vals.copy(), self.jac.copy()


class ExplodingObjectives(ObjectiveSet):
    """J = (e^{c w_0}, e^{-c w_0}): pure, smooth, and quick to overflow."""

    def __init__(self, d=2, c=10.0):
        self.d, self.c = d, c

    @property
    def count(self):
        return 2

    def values_and_jacobian(self, w):
        jac = np.zeros((self.d, 2))
        with np.errstate(over="ignore"):
            vals = np.array([np.exp(self.c * w[0]), np.exp(-self.c * w[0])])
            jac[0, 0] = self.c * vals[0]
            jac[0, 1] = -self.c * vals[1]
        return vals, jac


class TwinObjectives(ObjectiveSet):
    """J_1 = J_2 = 1 + ||w||^2: every subgradient step is a tie, and a long step overflows."""

    @property
    def count(self):
        return 2

    def values_and_jacobian(self, w):
        with np.errstate(over="ignore"):
            value = 1.0 + w @ w
        return np.array([value, value]), np.column_stack([2.0 * w, 2.0 * w])


class CountingObjectives(ObjectiveSet):
    def __init__(self, inner):
        self.inner = inner
        self.evaluations = 0

    @property
    def count(self):
        return self.inner.count

    def values_and_jacobian(self, w):
        self.evaluations += 1
        return self.inner.values_and_jacobian(w)


def small_problem(kind="convex-distance", d=4, K=3, seed=2):
    problem = make_problem(kind, d, K, seed)
    return problem, sample_preference(K, seed), sample_initial(d, seed)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=0.1, max_iter=-1)
    with pytest.raises(ValueError):
        SolverConfig(mu=0.1, eta=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=0.1, tau=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            SolverConfig(mu=bad)
        with pytest.raises(ValueError):
            SolverConfig(mu=0.1, eta=bad)
        with pytest.raises(ValueError):
            SolverConfig(mu=0.1, tau=bad)


def test_initial_state_uniform_dual():
    state = initial_state(np.zeros(3), count=4)
    np.testing.assert_allclose(state.p, 0.25)
    assert state.iter == 0


def test_dual_mass_values():
    assert dual_mass([1.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)
    r = np.array([0.3, 0.5, 1.7])
    assert dual_mass(r, np.full(3, 1 / 3)) == pytest.approx(np.sum(1.0 / (3 * r)))


def test_epo_al_step_reduces_to_active_gradient_descent():
    # fair point (equal weighted values) with a one-hot clipped dual: the
    # primal follows a single objective's gradient and the dual is inert
    jac = np.array([[1.0, -2.0], [0.5, 3.0]])
    obj = FixedObjectives([2.0, 2.0], jac)
    state = EpoAlState(w=np.zeros(2), p=np.array([0.0, 1.0]), iter=0)
    new = epo_al_step(state, obj, [1.0, 1.0], mu=0.25, eta=10.0)
    np.testing.assert_allclose(new.w, -0.25 * jac[:, 1])
    np.testing.assert_allclose(new.p, state.p)
    assert new.iter == 1


def test_epo_al_step_fixed_primal_when_gradients_vanish():
    obj = FixedObjectives([1.0, 3.0], np.zeros((3, 2)))
    state = initial_state(np.ones(3), 2)
    new = epo_al_step(state, obj, [1.0, 1.0], mu=0.5, eta=2.0)
    np.testing.assert_array_equal(new.w, state.w)


def test_epo_al_dual_mass_conserved_over_long_run():
    problem, r, w0 = small_problem()
    state = initial_state(w0, problem.count)
    mass0 = dual_mass(r, state.p)
    for _ in range(1000):
        state = epo_al_step(state, problem, r, mu=0.05, eta=2.0)
        mass = dual_mass(r, state.p)
        assert abs(mass - mass0) <= 1e-9 * abs(mass0)
        # averaging bound: the best dual ratio is at least the mean, so the
        # clipped dual always keeps at least one strictly positive entry
        assert np.max(state.p / r) >= mass0 / problem.count - 1e-12
        assert np.max(state.p) > 0


def test_subgradient_unique_maximizer_steps_along_it():
    jac = np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 4.0]])
    obj = FixedObjectives([2.0, 1.0], jac)
    rng = np.random.default_rng(0)
    w = np.zeros(3)
    w_new, k = subgradient_step(w, obj, [1.0, 1.0], mu=0.1, rng=rng)
    assert k == 0
    step = w_new - w
    cosine = step @ jac[:, 0] / (np.linalg.norm(step) * np.linalg.norm(jac[:, 0]))
    assert cosine == pytest.approx(-1.0)


def test_subgradient_breaks_ties_uniformly():
    K = 4
    obj = FixedObjectives(np.ones(K), np.eye(K))
    rng = np.random.default_rng(123)
    draws = 10_000
    counts = np.zeros(K)
    for _ in range(draws):
        _, k = subgradient_step(np.zeros(K), obj, np.ones(K), mu=0.1, rng=rng)
        counts[k] += 1
    np.testing.assert_allclose(counts / draws, 1.0 / K, atol=0.05)


def test_subgradient_run_improves_minmax():
    problem, r, w0 = small_problem(d=6, K=3, seed=8)
    mu = log_grid(1e-3, 1e-1, 10)[7]
    records = run("subgradient", problem, r, w0,
                  SolverConfig(mu=mu, max_iter=400, seed=8))
    assert min(rec.minmax for rec in records) < records[0].minmax


def test_smoothmax_single_objective_reduces_to_scaled_descent():
    jac = np.array([[2.0], [1.0]])
    obj = FixedObjectives([5.0], jac)
    w = np.zeros(2)
    tau, mu, r = 0.7, 0.2, [3.0]
    w_new = smoothmax_step(w, obj, r, mu=mu, tau=tau)
    np.testing.assert_allclose(w_new, -mu / tau * r[0] * jac[:, 0])


def test_smoothmax_small_tau_approaches_active_direction():
    jac = np.array([[1.0, 0.0], [0.0, 1.0]])
    obj = FixedObjectives([2.0, 1.0], jac)
    w = np.zeros(2)
    w_new = smoothmax_step(w, obj, [1.0, 1.0], mu=0.1, tau=1e-3)
    step = w_new - w
    # softmax collapses onto objective 0; magnitude is mu/tau times its slope
    np.testing.assert_allclose(step, [-0.1 / 1e-3, 0.0], rtol=1e-6, atol=1e-8)


def test_smoothmax_matches_finite_difference_of_soft_maximum():
    problem, r, w0 = small_problem(kind="nonconvex-gaussian", d=5, K=3, seed=4)
    tau, mu = 0.3, 0.05

    def soft_maximum(w):
        v = r * problem.values_and_jacobian(w)[0] / tau
        m = v.max()
        return m + np.log(np.sum(np.exp(v - m)))

    h = 1e-6
    grad_fd = np.empty(5)
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        grad_fd[j] = (soft_maximum(w0 + e) - soft_maximum(w0 - e)) / (2 * h)
    step = smoothmax_step(w0, problem, r, mu=mu, tau=tau) - w0
    np.testing.assert_allclose(step, -mu * grad_fd, rtol=1e-5, atol=1e-9)


def test_run_zero_iterations_records_initial_point_only():
    problem, r, w0 = small_problem()
    records = run("epo-al", problem, r, w0, SolverConfig(mu=0.1, eta=1.0, max_iter=0))
    assert len(records) == 1
    assert records[0].iter == 0
    np.testing.assert_allclose(records[0].p_snapshot, 1.0 / problem.count)
    np.testing.assert_allclose(records[0].jvals, problem.values_and_jacobian(w0)[0])


def test_run_is_deterministic_given_seed():
    problem, r, w0 = small_problem(seed=6)
    cfg = SolverConfig(mu=0.05, max_iter=60, seed=99)
    first = run("subgradient", problem, r, w0, cfg)
    second = run("subgradient", problem, r, w0, cfg)
    assert len(first) == len(second) == 61
    for a, b in zip(first, second):
        assert a.iter == b.iter
        assert a.minmax == b.minmax and a.fairness == b.fairness
        assert a.active_index == b.active_index
        np.testing.assert_array_equal(a.jvals, b.jvals)


def test_run_record_minmax_matches_helper():
    problem, r, w0 = small_problem(seed=9)
    records = run("smooth-max", problem, r, w0,
                  SolverConfig(mu=0.05, tau=0.5, max_iter=20))
    for rec in records:
        assert rec.minmax == minmax_value(r, rec.jvals)


def test_run_one_evaluation_per_recorded_iterate():
    problem, r, w0 = small_problem()
    for algorithm, cfg in [
        ("epo-al", SolverConfig(mu=0.05, eta=1.0, max_iter=17)),
        ("subgradient", SolverConfig(mu=0.05, max_iter=17)),
        ("smooth-max", SolverConfig(mu=0.05, tau=0.5, max_iter=17)),
    ]:
        counter = CountingObjectives(problem)
        records = run(algorithm, counter, r, w0, cfg)
        assert len(records) == 18
        assert counter.evaluations == 18


@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_public_steps_agree_with_run(algorithm, kind):
    problem, r, w0 = small_problem(kind=kind, d=5, K=4, seed=12)
    config = SolverConfig(mu=0.05, eta=1.0, tau=0.5, max_iter=50, seed=3)
    records = run(algorithm, problem, r, w0, config)
    state = initial_state(w0, problem.count)
    w = state.w
    rng = np.random.default_rng(config.seed)
    for rec in records:
        np.testing.assert_array_equal(problem.values_and_jacobian(w)[0], rec.jvals)
        if algorithm == "epo-al":
            np.testing.assert_array_equal(state.p, rec.p_snapshot)
            state = epo_al_step(state, problem, r, config.mu, config.eta)
            w = state.w
        elif algorithm == "subgradient":
            w, k = subgradient_step(w, problem, r, config.mu, rng)
            assert k == rec.active_index or rec is records[-1]
        else:
            w = smoothmax_step(w, problem, r, config.mu, config.tau)


def test_run_epo_al_fairness_trends_down_on_convex_family():
    problem, r, w0 = small_problem(d=10, K=4, seed=21)
    records = run("epo-al", problem, r, w0, SolverConfig(mu=0.05, eta=1.0, max_iter=500))
    fairness = [rec.fairness for rec in records]
    tail = len(fairness) // 10
    assert np.mean(fairness[-tail:]) <= np.mean(fairness[:tail])


def test_run_requires_algorithm_specific_parameters():
    problem, r, w0 = small_problem()
    with pytest.raises(ValueError):
        run("epo-al", problem, r, w0, SolverConfig(mu=0.1, max_iter=5))
    with pytest.raises(ValueError):
        run("smooth-max", problem, r, w0, SolverConfig(mu=0.1, max_iter=5))
    with pytest.raises(ValueError):
        run("newton", problem, r, w0, SolverConfig(mu=0.1, max_iter=5))


def test_run_rejects_mismatched_model_and_preference_lengths():
    problem, r, w0 = small_problem(d=5, K=4)
    counter = CountingObjectives(problem)
    cfg = SolverConfig(mu=0.1, max_iter=5)
    # A length-1 model would broadcast against the d=5 anchors; the gate's
    # shape check rejects it at the first evaluation, before any update.
    with pytest.raises(ValueError, match="model of size 1"):
        run("subgradient", counter, r, [0.3], cfg)
    assert counter.evaluations == 1
    # A synthetic problem evaluates whole blocks of models at once; it
    # rejects the length-1 model as well.
    with pytest.raises(ValueError, match="model of size 1"):
        run("subgradient", problem, r, [0.3], cfg)
    with pytest.raises(ValueError, match="preference has 3 weights, objective set has K=4"):
        run("subgradient", counter, r[:3], w0, cfg)
    assert counter.evaluations == 1


def test_divergence_error_carries_iteration_and_partial_trace():
    obj = ExplodingObjectives()
    with pytest.raises(DivergenceError) as excinfo:
        run("epo-al", obj, [1.0, 1.0], np.array([0.5, 0.0]),
            SolverConfig(mu=50.0, eta=50.0, max_iter=500))
    err = excinfo.value
    assert err.iteration is not None and err.iteration > 0
    assert len(err.records) == err.iteration
    assert err.iterate is not None


def assert_kernel_stops_where_run_does(algorithm, obj, r, w0, configs):
    """Each kernel row leaves where ``run`` of its configuration stops, with its message."""
    left = [(block.i, str(err)) for block in _lockstep(algorithm, [(obj, r, w0, configs)])
            for err in block.diverged]
    stops = []
    for cfg, trace in zip(configs, kernel_traces(algorithm, obj, r, w0, configs)):
        try:
            records = run(algorithm, obj, r, w0, cfg)
        except DivergenceError as err:
            assert err.iterate is not None
            stops.append((err.iteration, str(err)))
            records = err.records
        assert [m for m, _, _ in trace] == [rec.minmax for rec in records]
    assert left == sorted(stops, key=lambda stop: stop[0])   # by iterate, then row
    return stops


@pytest.mark.parametrize("algorithm, hyper", [("epo-al", {"eta": 1.0}), ("subgradient", {}),
                                               ("smooth-max", {"tau": 0.1})])
@OVERFLOWS
def test_run_diverges_where_weighted_scores_overflow(algorithm, hyper):
    # Finite values whose weighted fairness residual overflows end the run like a
    # non-finite evaluation, before any record holds inf or NaN.  At (1e160, 1e150)
    # the min-max value is finite and only the residual overflows.
    problem, w0 = fig1_problem(3), sample_initial(3, 0)
    cfg = SolverConfig(mu=0.1, max_iter=5, **hyper)
    for r in ([1e300, 1e300], [1e160, 1e150]):
        with pytest.raises(DivergenceError, match="fairness residual is not finite") as excinfo:
            run(algorithm, problem, r, w0, cfg)
        assert excinfo.value.iteration == 0 and excinfo.value.records == []
        assert assert_kernel_stops_where_run_does(algorithm, problem, r, w0, [cfg]) == [
            (0, "weighted min-max value or fairness residual is not finite")]
    # Past the kernel's whole-block screen (max r * J = 9.1e153, K=2 limit 3.4e153)
    # but with a finite residual: the row stays, as the run does.
    assert len(run(algorithm, problem, [1e154, 1e154], w0, cfg)) == 6
    assert assert_kernel_stops_where_run_does(algorithm, problem, [1e154, 1e154], w0,
                                              [cfg]) == []


@OVERFLOWS
def test_run_diverges_where_the_epo_al_dual_overflows():
    # The values stay finite (the gaussian plateau), but the dual of the heavily
    # weighted objective overflows a few iterates before the iterate does.
    problem, w0 = make_problem("nonconvex-gaussian", 3, 2, seed=0), sample_initial(3, 0)
    with pytest.raises(DivergenceError, match="dual weights are not finite") as excinfo:
        run("epo-al", problem, [1e153, 1.0], w0, SolverConfig(mu=10.0, eta=1.0, max_iter=60))
    records = excinfo.value.records
    assert len(records) == excinfo.value.iteration == 37
    assert all(np.isfinite(rec.p_snapshot).all() for rec in records)
    # Rows of one kernel pass leave where their own runs stop; the others go on.
    configs = [SolverConfig(mu=mu, eta=1.0, max_iter=60) for mu in (1.0, 10.0, 3.0, 30.0)]
    assert assert_kernel_stops_where_run_does("epo-al", problem, [1e153, 1.0], w0, configs) == [
        (37, "epo-al dual weights are not finite"), (13, "epo-al dual weights are not finite")]


def test_fixed_point_implies_fair_and_stationary():
    problem, r, w0 = small_problem(d=2, K=2, seed=3)
    state = initial_state(w0, 2)
    consecutive = 0
    for _ in range(100_000):
        nxt = epo_al_step(state, problem, r, mu=0.1, eta=1.0)
        tiny = (np.linalg.norm(nxt.w - state.w) <= 1e-12
                and np.linalg.norm(nxt.p - state.p) <= 1e-12)
        consecutive = consecutive + 1 if tiny else 0
        state = nxt
        if consecutive >= 10:
            break
    assert consecutive >= 10, "trajectory did not settle to a fixed point"
    jvals, jac = problem.values_and_jacobian(state.w)
    assert fairness_residual(r, jvals) <= 1e-8 * float(jvals @ jvals)
    assert pareto_stationarity_gap(jac).gap <= 1e-4


def pass_traces(algorithm, trials):
    """Per kernel row, in trial order, (minmax, p, active index) of every iterate that one
    kernel pass over ``trials``, (obj, r, w0, configs) tuples, yields."""
    traces = [[] for *_, configs in trials for _ in configs]
    for block in _lockstep(algorithm, trials):
        for b, j in enumerate(block.rows):
            traces[j].append((float(block.minmax[b]),
                              block.P[b] if algorithm == "epo-al" else None,
                              None if block.active is None else int(block.active[b])))
    return traces


def kernel_traces(algorithm, obj, r, w0, configs):
    """Per configuration, (minmax, p, active index) of every iterate the kernel yields."""
    return pass_traces(algorithm, [(obj, r, w0, configs)])


def assert_traces_equal(kernel, oracle):
    # Bit-exact: a row's stream must not depend on the rows beside it.
    assert len(kernel) == len(oracle)
    for (m, p, k), (m_ref, p_ref, k_ref) in zip(kernel, oracle):
        assert m == m_ref and k == k_ref
        if p_ref is None:
            assert p is None
        else:
            np.testing.assert_array_equal(p, p_ref)


def grid_configs(algorithm, max_iter, seeds=(0, 1, 2, 3, 4)):
    mus = log_grid(1e-2, 2e-1, len(seeds))
    return [SolverConfig(mu=float(mu), eta=float(eta) if algorithm == "epo-al" else None,
                         tau=0.3 if algorithm == "smooth-max" else None,
                         max_iter=max_iter, seed=seed)
            for mu, eta, seed in zip(mus, log_grid(0.1, 10.0, len(seeds)), seeds)]


@pytest.mark.parametrize("K", [2, 16, 64])
@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_lockstep_matches_scalar_oracle(algorithm, kind, K):
    problem, r, w0 = small_problem(kind=kind, d=12, K=K, seed=K)
    configs = grid_configs(algorithm, max_iter=60)
    kernel = kernel_traces(algorithm, problem, r, w0, configs)
    for cfg, trace in zip(configs, kernel):
        assert len(trace) == 61
        assert_traces_equal(trace, scalar_trace(algorithm, problem, r, w0, cfg))


def test_lockstep_subgradient_ties_use_each_rows_generator():
    # Far out on the bisector of the fig1 anchors both values round to 1.0
    # and stay there, so every step is a tie drawn from the row's generator.
    d = 4
    problem = fig1_problem(d)
    w0 = 10.0 * np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    r = np.array([0.5, 0.5])
    configs = grid_configs("subgradient", max_iter=80)
    kernel = kernel_traces("subgradient", problem, r, w0, configs)
    for cfg, trace in zip(configs, kernel):
        assert {k for _, _, k in trace[:-1]} == {0, 1}
        assert_traces_equal(trace, scalar_trace("subgradient", problem, r, w0, cfg))
        # Alone (C = 1, as in run) a single two-way tie must draw from the generator too.
        assert_traces_equal(kernel_traces("subgradient", problem, r, w0, [cfg])[0], trace)
    assert len({tuple(k for _, _, k in trace) for trace in kernel}) == len(configs)


@pytest.mark.parametrize("objectives", ["synthetic", "twin"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
@OVERFLOWS
def test_lockstep_diverging_row_leaves_while_others_go_on(algorithm, objectives):
    # mu = 1e200 overflows the values at iterate 1 of the middle row.  The
    # twin objectives go row by row through the gate and tie at every step,
    # so the rows after the diverged one must keep their own generators.
    if objectives == "synthetic":
        problem, r, w0 = small_problem(d=6, K=3, seed=4)
    else:
        problem, r, w0 = TwinObjectives(), np.array([0.5, 0.5]), np.array([0.3, -0.2, 0.1])
    configs = grid_configs(algorithm, max_iter=40, seeds=(0, 1, 2))
    configs[1] = SolverConfig(mu=1e200, eta=configs[1].eta, tau=configs[1].tau, max_iter=40)
    diverged = []
    for block in _lockstep(algorithm, [(problem, r, w0, configs)]):
        diverged += [(block.i, err.iteration) for err in block.diverged]
        if block.i >= 1:
            assert list(block.rows) == [0, 2]
    assert diverged == [(1, 1)]
    kernel = kernel_traces(algorithm, problem, r, w0, configs)
    assert [len(trace) for trace in kernel] == [41, 1, 41]
    for cfg, trace in zip(configs, kernel):
        assert_traces_equal(trace, scalar_trace(algorithm, problem, r, w0, cfg))


@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_lockstep_row_blocks_of_one_give_identical_results(monkeypatch, algorithm):
    problem, r, w0 = small_problem(kind="nonconvex-gaussian", d=8, K=5, seed=7)
    configs = grid_configs(algorithm, max_iter=50)
    whole = kernel_traces(algorithm, problem, r, w0, configs)
    monkeypatch.setattr(solvers, "_BLOCK_BYTES", 1)
    blocks = list(_lockstep(algorithm, [(problem, r, w0, configs)]))
    assert {len(block.rows) for block in blocks} == {1}
    # The race relies on this order: ascending iterate, then ascending row.
    order = [(block.i, int(block.rows[0])) for block in blocks]
    assert order == sorted(order) == [(i, j) for i in range(51) for j in range(len(configs))]
    for single, full in zip(kernel_traces(algorithm, problem, r, w0, configs), whole):
        assert_traces_equal(single, full)


@pytest.mark.parametrize("K", [2, 16, 64])
@pytest.mark.parametrize("kind", [pytest.param("convex-distance", marks=OVERFLOWS),
                                  "nonconvex-gaussian"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_lockstep_trials_of_one_pass_match_their_own_passes(monkeypatch, algorithm, kind, K):
    # Three trials of one (kind, K, d) cell in one pass, as the target scan runs them.  On
    # the convex family row 1 of the middle trial (mu = 1e200) leaves at iterate 1 while every
    # other row goes on; on the gaussian plateau its values and gradients stay finite.
    d = 12
    trials = [(*small_problem(kind=kind, d=d, K=K, seed=seed),
               grid_configs(algorithm, max_iter=40, seeds=range(seed, seed + 5)))
              for seed in (K, K + 1, K + 2)]
    trials[1][3][1] = replace(trials[1][3][1], mu=1e200)
    alone = [trace for trial in trials for trace in pass_traces(algorithm, [trial])]
    oracle = [scalar_trace(algorithm, obj, r, w0, cfg)
              for obj, r, w0, configs in trials for cfg in configs]
    diverges = kind == "convex-distance"
    assert [len(trace) for trace in oracle] == [41] * 6 + [1 if diverges else 41] + [41] * 8
    # One block of all 15 rows, one row a block, and blocks of 4 that span trial boundaries.
    for rows_per_block in (None, 1, 4):
        if rows_per_block is not None:
            monkeypatch.setattr(solvers, "_BLOCK_BYTES", rows_per_block * 8 * K * d)
        blocks = list(_lockstep(algorithm, trials))
        assert max(len(block.rows) for block in blocks) == (rows_per_block or 15)
        assert [(block.i, err.iteration) for block in blocks for err in block.diverged] == (
            [(1, 1)] if diverges else [])
        together = pass_traces(algorithm, trials)
        for row, own, scalar in zip(together, alone, oracle, strict=True):
            assert_traces_equal(row, own)
            assert_traces_equal(row, scalar)


def test_lockstep_rejects_a_multi_trial_pass_that_cannot_stack_anchors():
    # A block that spans trials evaluates its rows' stacked anchors, so a pass of several
    # trials takes synthetic problems of one kind; a generic objective set or mixed kinds
    # raise before the first evaluation, and trials of other sizes before that.
    d = 3
    r, w0 = np.array([0.3, 0.7]), sample_initial(d, 1)
    configs = grid_configs("subgradient", max_iter=30, seeds=(0, 1, 2))
    convex = (make_problem("convex-distance", d, 2, 5), r, w0, configs)
    generic = CountingObjectives(TwinObjectives())
    for other in (generic, make_problem("nonconvex-gaussian", d, 2, 6)):
        with pytest.raises(ValueError, match="synthetic problems of one kind"):
            list(_lockstep("subgradient", [convex, (other, r, w0, configs)]))
    assert generic.evaluations == 0
    bigger = (make_problem("convex-distance", d + 1, 2, 5), r, sample_initial(d + 1, 1), configs)
    with pytest.raises(ValueError, match="must share K and d"):
        list(_lockstep("subgradient", [convex, bigger]))


@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_finite_gradients_whose_sum_overflows_keep_every_row(algorithm):
    # Every gradient entry is finite, but their sum is not: the whole-block screen fails,
    # and the row rule keeps every row, as run keeps going.
    jac = np.full((3, 2), 1e308)
    assert np.isfinite(jac).all()
    obj = FixedObjectives([1.0, 2.0], jac)
    configs = [SolverConfig(mu=mu, eta=1.0 if algorithm == "epo-al" else None,
                            tau=0.5 if algorithm == "smooth-max" else None, max_iter=4)
               for mu in (1e-300, 2e-300)]
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.add.reduce(jac, axis=None))
        assert [len(run(algorithm, obj, [0.5, 0.5], np.zeros(3), cfg)) for cfg in configs] == [
            5, 5]
        assert assert_kernel_stops_where_run_does(algorithm, obj, [0.5, 0.5], np.zeros(3),
                                                  configs) == []


# Iterate entries past every threshold of the two anchor families: ||w - w_k||^2 overflows
# from about 1.3e154, and w - w_k itself stays finite up to the largest double.
HUGE = [0.0, 0.5, -1.0, 1e154, -1e160, 1e200, 1.7976931348623157e308,
        -1.7976931348623157e308, np.inf, -np.inf, np.nan]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(["convex-distance", "nonconvex-gaussian", "fig1-pair"]),
       B=st.integers(1, 3), d=st.integers(1, 3), K=st.integers(2, 3), data=st.data())
def test_a_synthetic_block_that_passes_the_screen_passes_the_row_rule(kind, B, d, K, data):
    # A synthetic block screens its iterates, not its gradients: finite values and iterates
    # must imply finite gradients, so that no row the rule would stop goes on.
    K = 2 if kind == "fig1-pair" else K
    problem = make_problem(kind, d, K, seed=1)

    def draw(values, rows, cols):
        flat = data.draw(st.lists(st.sampled_from(values), min_size=rows * cols,
                                  max_size=rows * cols))
        return np.array(flat, dtype=np.float64).reshape(rows, cols)

    W = draw(HUGE, B, d)
    r = draw([1.0, 1e-300, 1e150, 1e300], B, K)
    P = draw([0.5, -1.0, 1e308, np.inf, np.nan], B, data.draw(st.sampled_from([0, K])))
    limit = math.sqrt(np.finfo(np.float64).max / (8 * K))
    with np.errstate(all="ignore"):
        J, G = _anchor_values(problem.kind, problem.anchors, W)
        if solvers._screened(r * J, W, P, limit):
            for row in zip(r, J, G, P):
                assert _divergence(*row)[0] is None


@pytest.mark.parametrize("algorithm, hyper", [("epo-al", {"eta": 1.0}), ("subgradient", {}),
                                               ("smooth-max", {"tau": 0.1})])
@OVERFLOWS
def test_gaussian_row_whose_iterate_overflows_leaves_where_run_stops(algorithm, hyper):
    # mu * r = 1e309 sends iterate 1 of the second row to +-inf.  There ||w - w_k||^2 is
    # inf, so J = 1 - e^-inf = 1 stays finite and r * J = 1e150 passes the value screen,
    # but the gradient 2 e^-inf (w - w_k) = 0 * inf is NaN: the screen must catch the iterate.
    problem, w0 = make_problem("nonconvex-gaussian", 3, 2, seed=0), sample_initial(3, 0)
    r = [1e150, 1e150]
    configs = [SolverConfig(mu=mu, max_iter=5, **hyper) for mu in (1e-2, 1e159)]
    assert assert_kernel_stops_where_run_does(algorithm, problem, r, w0, configs) == [
        (1, "objective evaluation produced non-finite values")]
    with pytest.raises(DivergenceError) as excinfo:
        run(algorithm, problem, r, w0, configs[1])
    iterate = excinfo.value.iterate
    assert np.isinf(iterate).all()
    jvals, jac = problem.values_and_jacobian(iterate)
    assert (jvals == 1.0).all() and np.isnan(jac).any()
    for cfg, trace in zip(configs, kernel_traces(algorithm, problem, r, w0, configs)):
        assert_traces_equal(trace, scalar_trace(algorithm, problem, r, w0, cfg))


@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_a_row_makes_its_generator_at_its_first_tie(monkeypatch, algorithm):
    # Generator.integers(1) draws nothing, so only a tie needs a row's stream: epo-al and
    # smooth-max passes, and subgradient rows that never tie, make no generator.
    problem, r, w0 = small_problem(d=6, K=3, seed=4)
    fig1, far = fig1_problem(4), 5.0 * np.array([1.0, -1.0, 1.0, -1.0])
    configs = grid_configs(algorithm, max_iter=40)
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed)
                        or default_rng(seed))
    kernel_traces(algorithm, problem, r, w0, configs)
    assert made == []
    if algorithm == "subgradient":
        # On the fig1 bisector every step ties: each row makes its generator once, from its
        # seed, and passes it back at each later tie.
        kernel_traces(algorithm, fig1, [0.5, 0.5], far, configs)
        assert [seed for seed in made if not isinstance(seed, np.random.Generator)] == [
            cfg.seed for cfg in configs]
        assert len(made) == len(configs) * configs[0].max_iter
