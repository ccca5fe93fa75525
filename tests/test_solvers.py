import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epoal.harness as harness
import epoal.problems as problems
import epoal.solvers as solvers
from epoal import (DivergenceError, EpoAlState, ObjectiveSet, SolverConfig, dual_mass,
                   epo_al_step, fairness_residual, initial_state, log_grid,
                   make_problem, minmax_value, pareto_stationarity_gap, run,
                   sample_initial, sample_preference, smoothmax_step, subgradient_step)
from epoal.core import _divergence
from epoal.problems import _anchor_parts, _gradients
from epoal.solvers import _lockstep

from oracles import dspace_lockstep, scalar_trace

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
    """J_1 = J_2 = sign (1 + ||w||^2): every subgradient step is a tie, and a long step
    overflows."""

    def __init__(self, sign=1.0):
        self.sign = sign

    @property
    def count(self):
        return 2

    def values_and_jacobian(self, w):
        with np.errstate(over="ignore"):
            value = self.sign * (1.0 + w @ w)
        return np.array([value, value]), np.column_stack([2.0 * self.sign * w] * 2)


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
    for bad in (-1, 2.5, np.nan):
        with pytest.raises(ValueError, match="max_iter must be a non-negative integer"):
            SolverConfig(mu=0.1, max_iter=bad)
    assert SolverConfig(mu=0.1, max_iter=np.int64(4)).max_iter == 4
    with pytest.raises(ValueError):
        SolverConfig(mu=0.1, eta=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=0.1, tau=0.0)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SolverConfig(mu=0.1, seed=bad)
    assert SolverConfig(mu=0.1, seed=np.int64(3)).seed == 3
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


def test_subgradient_ties_below_zero_draw_every_index():
    # The maximum is in its own tie set whatever its sign: below zero, (1 - 1e-9) M lies
    # above M, so a tie rule that scales M alone would never see the tie.
    obj = TwinObjectives(sign=-1.0)
    records = run("subgradient", obj, [0.5, 0.5], [0.3, 0.1],
                  SolverConfig(mu=0.1, max_iter=20, seed=1))
    assert {rec.active_index for rec in records[:-1]} == {0, 1}
    rng = np.random.default_rng(0)
    assert {subgradient_step(np.array([0.3, 0.1]), obj, [0.5, 0.5], 0.1, rng)[1]
            for _ in range(20)} == {0, 1}


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


def step_from(algorithm, w, obj, r, eta, tau, iteration):
    """One public step of ``algorithm`` from w at mu 0.1, an epo-al one from a state at
    ``iteration`` with uniform duals."""
    if algorithm == "epo-al":
        state = EpoAlState(w=w, p=np.full(obj.count, 1.0 / obj.count), iter=iteration)
        return epo_al_step(state, obj, r, 0.1, eta)
    if algorithm == "subgradient":
        return subgradient_step(w, obj, r, 0.1, np.random.default_rng(0))
    return smoothmax_step(w, obj, r, 0.1, tau)


@pytest.mark.parametrize("algorithm, case", [
    ("epo-al", "no eta"), ("smooth-max", "no tau"), ("epo-al", "(1,) dual"),
    ("epo-al", "(3,) dual"),
    *((algorithm, case) for algorithm in ("epo-al", "subgradient", "smooth-max")
      for case in ("non-finite w", "wrong-size w", "diverging"))])
def test_a_public_step_makes_the_checks_of_run(algorithm, case):
    # A public step is one iterate of run's row: it raises the ValueError run raises on the
    # same arguments, and a DivergenceError carrying the index of its iterate, which is
    # state.iter for epo-al and 0 otherwise.  A dual of another shape than (K,), which run
    # never takes, is rejected rather than broadcast.
    problem, r, w = small_problem(d=3, K=2)
    if case.endswith("dual"):
        p = np.full(int(case[1]), 0.5)
        with pytest.raises(ValueError, match=re.escape(
                f"dual p has shape {p.shape}, objective set has K=2")):
            epo_al_step(EpoAlState(w, p, 7), problem, r, 0.1, 1.0)
        return
    eta, tau = None if case == "no eta" else 1.0, None if case == "no tau" else 0.5
    if case == "diverging":
        problem, r, w = ExplodingObjectives(d=3), np.array([0.5, 0.5]), np.array([100.0, 0, 0])
    w = {"non-finite w": np.array([0.0, np.nan, 0.0]), "wrong-size w": np.zeros(4)}.get(case, w)
    iteration = 7 if algorithm == "epo-al" else 0
    with pytest.raises((ValueError, DivergenceError)) as by_run:
        run(algorithm, problem, r, w, SolverConfig(mu=0.1, eta=eta, tau=tau, max_iter=3))
    with pytest.raises(type(by_run.value), match=re.escape(str(by_run.value))) as by_step:
        step_from(algorithm, w, problem, r, eta, tau, iteration)
    if case == "diverging":
        assert by_run.value.iteration == 0 and by_step.value.iteration == iteration
        assert np.array_equal(by_step.value.iterate, w)


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
    """Each kernel row leaves where ``run`` of its configuration stops, with its message, and
    its min-max values are run's: bit for bit on a d-space row, within SPAN_RTOL on a span row
    (a synthetic problem's)."""
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
        reference = [(rec.minmax, rec.p_snapshot, rec.active_index) for rec in records]
        if isinstance(obj, problems.SyntheticProblem):
            assert_traces_close(trace, reference)
        else:
            assert [m for m, _, _ in trace] == [m for m, _, _ in reference]
    assert left == sorted(stops, key=lambda stop: stop[0])   # by iterate, then row
    return stops


@pytest.mark.parametrize("algorithm, hyper", [("epo-al", {"eta": 1.0}), ("subgradient", {}),
                                               ("smooth-max", {"tau": 0.1})])
@OVERFLOWS
def test_run_diverges_where_weighted_scores_overflow(algorithm, hyper):
    # Finite values whose weighted fairness residual overflows end the run like a
    # non-finite evaluation, before any record holds inf or NaN.  At (1e160, 1e150)
    # the min-max value is finite and only the residual overflows.
    problem, w0 = make_problem("fig1-pair", 3, 2, 0), sample_initial(3, 0)
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


def block_traces(algorithm, trials, blocks):
    """Per row of a pass over ``trials``, (obj, r, w0, configs) tuples, in trial order,
    (minmax, p, active index) of every iterate its ``blocks`` yield, and the pass's
    (iterate, message) of each row that left."""
    traces, left = [[] for *_, configs in trials for _ in configs], []
    for i, rows, minmax, J, P, active, diverged in blocks:
        for b, j in enumerate(rows):
            traces[j].append((float(minmax[b]), P[b] if algorithm == "epo-al" else None,
                              None if active is None else int(active[b])))
        left += [(err.iteration, str(err)) for err in diverged]
    return traces, left


def pass_traces(algorithm, trials):
    """Per kernel row, :func:`block_traces` of one kernel pass over ``trials``."""
    return block_traces(algorithm, trials, _lockstep(algorithm, trials))[0]


def assert_pass_matches_dspace_oracle(algorithm, trials):
    """A kernel pass of synthetic problems against the d-space lockstep oracle: each row within
    SPAN_RTOL (assert_traces_close), and the same rows leaving at the same iterates with the
    same messages."""
    kernel, left = block_traces(algorithm, trials, _lockstep(algorithm, trials))
    oracle, oracle_left = block_traces(algorithm, trials, dspace_lockstep(algorithm, trials))
    assert left == oracle_left
    for row, reference in zip(kernel, oracle, strict=True):
        assert_traces_close(row, reference)


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


# A span row (a synthetic problem's row of a kernel pass) makes the d-space step in span
# coordinates, so its values differ from a d-space reference's in the last bits: the largest
# relative min-max difference over this file's passes is 2e-15.
SPAN_RTOL = 1e-12


def span_atol(obj, w0):
    """The absolute rounding of a span value J beyond SPAN_RTOL, eps max |Gamma| on B = [w0;
    anchors].  Where the values near 0, z is near a vertex e_k and s_k = z^T Gamma z - 2 (Gamma
    z)_k + Gamma_kk cancels terms of about Gamma_kk, 2 Gamma_kk and Gamma_kk.  Its largest term
    carries twice the half-ulp rounding of (Gamma z)_k, 2 * eps / 2 * max |Gamma|.  J's slope
    in s is at most 1 (1/2 on the convex family), and a min-max value's at most max r.  Over
    all three algorithms, both kinds, K 2, 3 and 6, d 1, 2 and 8, seeds 0-40, 2 rows and 30
    iterations, the largest excess over SPAN_RTOL is exactly this bound."""
    B = np.vstack([w0, obj.anchors])
    return np.finfo(np.float64).eps * np.abs(np.einsum("id,jd->ij", B, B)).max()


def assert_traces_close(kernel, oracle, atol=0.0):
    """A span row against its d-space reference: the same iterates and active indices, min-max
    values within SPAN_RTOL relative plus ``atol`` and duals within SPAN_RTOL of the largest,
    and the same first iterate in each band around the reference's smallest value (bands
    relative to it past 1)."""
    assert len(kernel) == len(oracle)
    for (m, p, k), (m_ref, p_ref, k_ref) in zip(kernel, oracle):
        assert k == k_ref
        assert abs(m - m_ref) <= SPAN_RTOL * abs(m_ref) + atol
        if p_ref is None:
            assert p is None
        else:
            np.testing.assert_allclose(p, p_ref, rtol=0,
                                       atol=SPAN_RTOL * np.abs(p_ref).max())
    if oracle:
        target = min(m for m, _, _ in oracle)
        for epsilon in (1e-3, 1e-2, 1e-1):
            epsilon *= max(1.0, abs(target))
            assert first_hit(kernel, target, epsilon) == first_hit(oracle, target, epsilon)


def first_hit(trace, target, epsilon):
    """The first iterate of ``trace`` whose min-max value is within epsilon of target."""
    return next((i for i, (m, _, _) in enumerate(trace) if abs(m - target) <= epsilon), None)


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
    # Span rows against the scalar d-space oracle; at K = 16 and 64 > d = 12, Gamma is
    # singular.
    problem, r, w0 = small_problem(kind=kind, d=12, K=K, seed=K)
    configs = grid_configs(algorithm, max_iter=60)
    kernel = kernel_traces(algorithm, problem, r, w0, configs)
    for cfg, trace in zip(configs, kernel):
        assert len(trace) == 61
        assert_traces_close(trace, scalar_trace(algorithm, problem, r, w0, cfg))
    assert_pass_matches_dspace_oracle(algorithm, [(problem, r, w0, configs)])


def test_lockstep_subgradient_ties_use_each_rows_generator():
    # Far out on the bisector of the fig1 anchors both values round to 1.0
    # and stay there, so every step is a tie drawn from the row's generator.
    d = 4
    problem = make_problem("fig1-pair", d, 2, 0)
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


def test_lockstep_tied_rows_keep_their_generators_when_a_row_leaves_the_span(monkeypatch):
    # The fig1 bisector of the test above, where every step is a tie.  mu = 1e200 sends the
    # middle row's z past zlim at iterate 1: the pass replays its configuration in d-space from
    # w0, drawing its ties from its own seed again, so from iterate 1 on it is its run, and
    # every row left in the span goes on drawing from its own generator.
    d = 4
    problem = make_problem("fig1-pair", d, 2, 0)
    w0 = 10.0 * np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    r = np.array([0.5, 0.5])
    configs = grid_configs("subgradient", max_iter=80)
    configs[2] = replace(configs[2], mu=1e200)
    assert_span_exits_are_runs(monkeypatch, "subgradient", problem, r, w0, configs, {2: 1})
    kernel = kernel_traces("subgradient", problem, r, w0, configs)
    for cfg, trace in zip(configs, kernel):
        assert {k for _, _, k in trace[:-1]} == {0, 1}
        assert_traces_close(trace, scalar_trace("subgradient", problem, r, w0, cfg))
    assert_pass_matches_dspace_oracle("subgradient", [(problem, r, w0, configs)])


@pytest.mark.parametrize("objectives", ["synthetic", "twin"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
@OVERFLOWS
def test_lockstep_diverging_row_leaves_while_others_go_on(monkeypatch, algorithm, objectives):
    # mu = 1e200 overflows the values at iterate 1 of the middle row: its span row leaves
    # there as a d-space replay that raises where run does.  The twin objectives go row by row
    # through the gate, each a d-space row from iterate 0, and tie at every step, so the rows
    # after the diverged one must keep their own generators.
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
    compare = assert_traces_close if objectives == "synthetic" else assert_traces_equal
    for cfg, trace in zip(configs, kernel):
        compare(trace, scalar_trace(algorithm, problem, r, w0, cfg))
    if objectives == "synthetic":
        assert_pass_matches_dspace_oracle(algorithm, [(problem, r, w0, configs)])
    assert_span_exits_are_runs(monkeypatch, algorithm, problem, r, w0, configs,
                               {1: 1} if objectives == "synthetic" else {0: 0, 1: 0, 2: 0})


@pytest.mark.parametrize("K", [2, 16, 64])
@pytest.mark.parametrize("kind", [pytest.param("convex-distance", marks=OVERFLOWS),
                                  "nonconvex-gaussian"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_lockstep_trials_of_one_pass_match_their_own_passes(algorithm, kind, K):
    # Three trials of one (kind, K, d) cell in one pass, as the target scan runs them.  On
    # the convex family row 1 of the middle trial (mu = 1e200) leaves at iterate 1 while every
    # other row goes on; on the gaussian plateau its values stay finite, and its z, too large
    # for the span sums, sends it on in d-space.  Each row is bit for bit its trial's own pass.
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
    blocks = list(_lockstep(algorithm, trials))
    assert [block.i for block in blocks] == list(range(41))                 # one a round
    assert [(block.i, err.iteration) for block in blocks for err in block.diverged] == (
        [(1, 1)] if diverges else [])
    together = pass_traces(algorithm, trials)
    for row, own, scalar in zip(together, alone, oracle, strict=True):
        assert_traces_equal(row, own)
        assert_traces_close(row, scalar)
    assert_pass_matches_dspace_oracle(algorithm, trials)


def test_lockstep_runs_a_pass_of_other_objective_sets_as_rows():
    # A pass with another objective set, or synthetic problems of two kinds, steps each row
    # in d-space as run does, bit for bit, one block a round; trials of other sizes raise
    # before the first evaluation.
    d = 3
    r, w0 = np.array([0.3, 0.7]), sample_initial(d, 1)
    configs = grid_configs("subgradient", max_iter=30, seeds=(0, 1, 2))
    convex = (make_problem("convex-distance", d, 2, 5), r, w0, configs)
    gaussian = make_problem("nonconvex-gaussian", d, 2, 6)
    for other in (CountingObjectives(TwinObjectives()), gaussian):
        trials = [convex, (other, r, w0, configs)]
        blocks = list(_lockstep("subgradient", trials))
        assert [block.i for block in blocks] == list(range(31))
        assert all(list(block.rows) == list(range(6)) for block in blocks)
        for row, (obj, cfg) in zip(pass_traces("subgradient", trials),
                                   [(obj, cfg) for obj, _, _, cfgs in trials for cfg in cfgs]):
            records = run("subgradient", obj, r, w0, cfg)
            assert_traces_equal(row, [(rec.minmax, None, rec.active_index) for rec in records])
    bigger = (make_problem("convex-distance", d + 1, 2, 5), r, sample_initial(d + 1, 1), configs)
    generic = CountingObjectives(TwinObjectives())
    with pytest.raises(ValueError, match="must share K and d"):
        list(_lockstep("subgradient", [(generic, r, w0, configs), bigger]))
    assert generic.evaluations == 0


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
        J, *parts = _anchor_parts(problem.kind, problem.anchors, W)
        if solvers._screened(np.maximum.reduce(r * J, axis=None), W, P, limit):
            for row in zip(r, J, _gradients(*parts), P):
                assert _divergence(*row)[0] is None


@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
@OVERFLOWS
def test_a_synthetic_block_with_a_nan_or_overflowing_row_goes_to_the_row_rule(kind):
    # A synthetic block screens the row maxima M of U = r J, not |U|.  A NaN iterate makes
    # its row's M NaN, and a weight of 1e300 puts its row's M past the limit: each fails the
    # screen on M alone, and the row rule stops that row and keeps the good one.
    K, d = 3, 4
    problem = make_problem(kind, d, K, seed=1)
    W = np.array([[0.1, -0.2, 0.3, 0.0], [np.nan, 0.0, 0.0, 0.0], [0.1, -0.2, 0.3, 0.0]])
    r = np.array([[0.3, 0.3, 0.4], [0.3, 0.3, 0.4], [1e300, 0.3, 0.4]])
    P, limit = np.empty((3, 0)), math.sqrt(np.finfo(np.float64).max / (8 * K))
    J, *parts = _anchor_parts(problem.kind, problem.anchors, W)
    M = np.maximum.reduce(r * J, axis=1)
    assert solvers._screened(M[0], W[[0]], P[[0]], limit)
    assert solvers._screened(M[0], W[0], P[0], limit)          # a single row, as run screens
    assert np.isnan(M[1]) and np.isfinite(M[2]) and M[2] >= limit
    for bad in (1, 2):
        m = np.maximum.reduce(M[[0, bad]])
        assert not solvers._screened(m, np.zeros((2, d)), P[[0, bad]], limit)
        assert not solvers._screened(m, W[[0, bad]], P[[0, bad]], limit)
        assert not solvers._screened(M[bad], W[bad], P[bad], limit)
    assert [_divergence(*row)[0] for row in zip(r, J, _gradients(*parts), P)] == [
        None, "objective evaluation produced non-finite values",
        "weighted min-max value or fairness residual is not finite"]
    # Through the kernel: the trial weighted 1e300 leaves at iterate 0 beside a trial that
    # goes on, in one block.
    w0 = sample_initial(d, 1)
    trials = [(problem, r[j], w0, [SolverConfig(mu=0.1, max_iter=5, seed=j)]) for j in (0, 2)]
    left = [(block.i, list(block.rows), str(err)) for block in _lockstep("subgradient", trials)
            for err in block.diverged]
    assert left == [(0, [0], "weighted min-max value or fairness residual is not finite")]


@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
def test_a_screened_subgradient_pass_never_forms_the_whole_gradient_stack(monkeypatch, kind):
    # A screened kernel pass steps in span coordinates and forms no gradient at all.  Run and
    # the timing runs step one row in d-space: a subgradient step forms the active gradient
    # alone, an epo-al or smooth-max step the whole stack.  Every d-space gradient is formed by
    # the op that problems._anchor_parts hands out: count what it forms, a whole stack or one
    # gradient a row.
    problem, r, w0 = small_problem(kind=kind, d=6, K=5, seed=3)
    formed, anchor_parts = [], problems._anchor_parts

    def counted(kind, anchors, W):
        J, diffs, scale, op = anchor_parts(kind, anchors, W)

        def counting(x, s):
            out = op(x, s)
            formed.append("whole" if out.ndim == diffs.ndim else "active")
            return out
        return J, diffs, scale, counting

    monkeypatch.setattr(problems, "_anchor_parts", counted)
    monkeypatch.setattr(solvers, "_anchor_parts", counted)
    for algorithm in ("subgradient", "epo-al", "smooth-max"):
        each = ["active" if algorithm == "subgradient" else "whole"] * 30   # none at the end
        configs = grid_configs(algorithm, max_iter=30)
        formed.clear()
        traces = kernel_traces(algorithm, problem, r, w0, configs)
        assert formed == []
        for cfg, trace in zip(configs, traces):
            assert_traces_close(trace, scalar_trace(algorithm, problem, r, w0, cfg))
        formed.clear()
        assert len(run(algorithm, problem, r, w0, configs[0])) == 31
        assert formed == each
        formed.clear()
        harness.measure_time(algorithm, problem, r, w0, configs[0], 30)
        assert formed == each * harness.TIMING_REPS


def lockstep_rows(algorithm, obj, r, w0, configs, blocks=None):
    """Per configuration, (jvals, minmax, p, active index) of every iterate of one kernel pass
    (or of its ``blocks``), and the pass's (iterate, message) of each row that left."""
    rows, left = [[] for _ in configs], []
    for block in _lockstep(algorithm, [(obj, r, w0, configs)]) if blocks is None else blocks:
        for b, j in enumerate(block.rows):
            rows[j].append((block.J[b], block.minmax[b], block.P[b],
                            None if block.active is None else block.active[b]))
        left += [(err.iteration, str(err)) for err in block.diverged]
    return rows, left


def assert_row_is_run(row, records):
    """A kernel row's (jvals, minmax, p, active index) per iterate are run's records, bit for
    bit."""
    assert len(row) == len(records)
    for rec, (J, minmax, p, active) in zip(records, row):
        assert np.array_equal(rec.jvals, J) and np.array_equal(rec.minmax, minmax)
        assert np.array_equal(rec.p_snapshot, p) if p.size else rec.p_snapshot is None
        assert rec.active_index == active


def assert_span_exits_are_runs(monkeypatch, algorithm, obj, r, w0, configs, exits):
    """One kernel pass makes a d-space row for the rows of ``exits``, {row: iterate}, alone,
    each in that iterate's round, from w0 with the row's own configuration.  From that iterate
    on each row is its run, bit for bit: values, min-max, duals and active indices; and it
    leaves where run raises, with run's message."""
    row, made, seen, blocks = solvers._row, [], [], []

    def recording_row(algorithm, obj, r, w, config, **kwargs):
        made.append((w, config))
        return row(algorithm, obj, r, w, config, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_row", recording_row)
        for block in _lockstep(algorithm, [(obj, r, w0, configs)]):
            for w, config in made:
                assert np.array_equal(w, w0)
                seen.append((next(j for j, cfg in enumerate(configs) if cfg is config), block.i))
            made.clear()
            blocks.append(block)
    assert sorted(seen) == sorted(exits.items())
    kernel, left = lockstep_rows(algorithm, obj, r, w0, configs, blocks)
    for j, i in exits.items():
        try:
            records, err = run(algorithm, obj, r, w0, configs[j]), None
        except DivergenceError as caught:
            records, err = caught.records, caught
        assert len(kernel[j]) == len(records)
        assert_row_is_run(kernel[j][i:], records[i:])
        assert err is None or (err.iteration, str(err)) in left


def assert_run_is_its_row(algorithm, objectives, K, d, seed, rows, j, diverging):
    """Row j of a kernel pass of ``rows`` grid configurations (row j's mu 1e200 if
    ``diverging``) is run of its configuration: every value and active index bit for bit on
    the twin objectives, and within SPAN_RTOL plus span_atol on a span row; and it leaves where
    run raises."""
    if objectives.endswith("twin"):
        sign = -1.0 if objectives == "negative-twin" else 1.0
        problem, r, w0 = TwinObjectives(sign), np.array([0.5, 0.5]), sample_initial(d, seed)
    elif objectives == "fig1-pair":
        problem, r, w0 = make_problem(objectives, d, 2, seed), np.array([0.5, 0.5]), np.zeros(d)
    else:
        problem = make_problem(objectives, d, K, seed)
        r, w0 = sample_preference(K, seed), sample_initial(d, seed)
    configs = grid_configs(algorithm, max_iter=30, seeds=range(seed % 1000, seed % 1000 + rows))
    if diverging:
        configs[j] = replace(configs[j], mu=1e200)
    kernel, left = lockstep_rows(algorithm, problem, r, w0, configs)
    try:
        records, err = run(algorithm, problem, r, w0, configs[j]), None
    except DivergenceError as caught:
        records, err = caught.records, caught
    # A long step leaves at iterate 1 unless every gradient at the start is 0: at d = 1 both
    # anchors can lie on the start (see the test below).
    if (diverging and objectives in ("convex-distance", "twin", "negative-twin")
            and problem.values_and_jacobian(w0)[1].any()):
        assert err is not None and err.iteration == 1
    assert left == ([] if err is None else [(err.iteration, str(err))])
    assert len(records) == len(kernel[j]) == (31 if err is None else err.iteration)
    if isinstance(problem, problems.SyntheticProblem):
        atol = span_atol(problem, w0)
        for rec, (J, *_) in zip(records, kernel[j]):
            np.testing.assert_allclose(J, rec.jvals, rtol=0,
                                       atol=SPAN_RTOL * np.abs(rec.jvals).max() + atol)
        assert_traces_close([(m, p if algorithm == "epo-al" else None, k)
                             for _, m, p, k in kernel[j]],
                            [(rec.minmax, rec.p_snapshot, rec.active_index) for rec in records],
                            atol=atol * np.max(r))
        return
    assert_row_is_run(kernel[j], records)


@pytest.mark.parametrize("objectives", ["convex-distance", "nonconvex-gaussian", "twin",
                                        "negative-twin", "fig1-pair"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
@OVERFLOWS
@settings(derandomize=True, deadline=None, max_examples=12)
@given(K=st.integers(2, 6), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(2, 4), data=st.data())
def test_run_is_its_row_of_a_lockstep_pass(algorithm, objectives, K, d, seed, rows, data):
    # run steps one configuration in row arithmetic; a kernel pass steps it as one row of a
    # block, in span coordinates on a synthetic problem.  Every value must match, bit for bit
    # on the twin objectives and within SPAN_RTOL plus span_atol on a span row, with the same
    # active indices, and a row that leaves must leave where run raises.  The twin objectives,
    # positive or negative, tie at every subgradient step and overflow under a long one; the
    # fig1 pair ties at the origin, so a row makes its generator at iterate 0, and there a long
    # epo-al or smooth-max step leaves w at 0 while z grows past the span sums' limit.
    assert_run_is_its_row(algorithm, objectives, K, d, seed, rows,
                          data.draw(st.integers(0, rows - 1)), data.draw(st.booleans()))


def test_a_span_row_whose_values_near_zero_is_its_run_within_span_atol():
    # Epo-al on a convex K = 2, d = 1 pass at seed 18: at iterate 22 of row 1 the values' largest
    # is 2.16e-4, and a value is 2.2e-16 off run's, past SPAN_RTOL of it but within span_atol.
    assert_run_is_its_row("epo-al", "convex-distance", K=2, d=1, seed=18, rows=2, j=1,
                          diverging=False)


@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_a_start_on_both_anchors_keeps_every_row_there(algorithm):
    # At d = 1, seed 2 puts both convex anchors on the start, where every value and gradient
    # is 0: no row moves, not even at mu = 1e200, and none diverges.
    problem, r, w0 = small_problem(d=1, K=2, seed=2)
    assert (problem.anchors == w0).all()
    configs = grid_configs(algorithm, max_iter=30, seeds=range(2))
    configs[1] = replace(configs[1], mu=1e200)
    kernel, left = lockstep_rows(algorithm, problem, r, w0, configs)
    assert left == []
    for config, rows in zip(configs, kernel):
        records = run(algorithm, problem, r, w0, config)
        assert len(records) == len(rows) == 31
        for rec, (J, minmax, p, _) in zip(records, rows):
            assert np.array_equal(J, records[0].jvals) and np.array_equal(rec.jvals, J)
            assert minmax == rec.minmax == records[0].minmax
            if algorithm == "epo-al":
                assert np.array_equal(p, records[0].p_snapshot)
                assert np.array_equal(rec.p_snapshot, p)


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
        assert_traces_close(trace, scalar_trace(algorithm, problem, r, w0, cfg))


@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_a_row_makes_its_generator_at_its_first_tie(monkeypatch, algorithm):
    # Generator.integers(1) draws nothing, so only a tie needs a row's stream: epo-al and
    # smooth-max passes, and subgradient rows that never tie, make no generator.
    problem, r, w0 = small_problem(d=6, K=3, seed=4)
    fig1, far = make_problem("fig1-pair", 4, 2, 0), 5.0 * np.array([1.0, -1.0, 1.0, -1.0])
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


@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
def test_a_span_row_at_an_anchor_reads_zero_there(kind):
    # At z = e_k the row's iterate is anchor k: s_k = Gamma_kk - 2 Gamma_kk + Gamma_kk is 0,
    # so J_k = 0, and every value is the d-space one at a_k.  Next to e_k, s_k cancels to a few
    # ulps of either sign, and the clamp keeps every value at 0 or above.
    K, d = 4, 5
    problem, r, w0 = small_problem(kind=kind, d=d, K=K, seed=2)
    B = np.vstack([w0, problem.anchors])
    G = np.einsum("id,jd->ij", B, B)[None]
    dg = np.diagonal(G[0])[1:]
    at = np.eye(K + 1)[1:]
    J, _, _ = solvers._span_values(kind, G, dg, at)
    assert (np.diagonal(J) == 0.0).all()
    for k in range(K):
        np.testing.assert_allclose(J[k], problem.values_and_jacobian(problem.anchors[k])[0],
                                   rtol=SPAN_RTOL, atol=1e-15)
    step = np.random.default_rng(0).normal(scale=1e-9, size=(1000, K + 1))
    near = np.repeat(at, 250, axis=0) + step - step.mean(axis=1, keepdims=True)
    J, _, _ = solvers._span_values(kind, G, dg, near)
    assert (J >= 0.0).all()
    # A pass that starts at anchor 1 reads J_1 = 0 there, and its rows follow the d-space
    # oracle.
    configs = grid_configs("epo-al", max_iter=40)
    rows, left = lockstep_rows("epo-al", problem, r, problem.anchors[1], configs)
    assert left == []
    for cfg, row in zip(configs, rows):
        assert row[0][0][1] == 0.0
        assert_traces_close([(m, p, k) for _, m, p, k in row],
                            scalar_trace("epo-al", problem, r, problem.anchors[1], cfg))


@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
def test_span_rows_with_K_at_least_d_never_invert_gamma(monkeypatch, algorithm, kind):
    # K + 1 = 9 basis rows in d = 3 dimensions: Gamma has rank 3, and nothing inverts it.
    problem, r, w0 = small_problem(kind=kind, d=3, K=8, seed=5)
    B = np.vstack([w0, problem.anchors])
    assert np.linalg.matrix_rank(np.einsum("id,jd->ij", B, B)) == 3

    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel inverted Gamma")

    for name in ("inv", "pinv", "solve", "lstsq", "cholesky"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    configs = grid_configs(algorithm, max_iter=80)
    for cfg, trace in zip(configs, kernel_traces(algorithm, problem, r, w0, configs)):
        assert len(trace) == 81
        assert_traces_close(trace, scalar_trace(algorithm, problem, r, w0, cfg))
    assert_pass_matches_dspace_oracle(algorithm, [(problem, r, w0, configs)])


@pytest.mark.parametrize("algorithm", ["epo-al", "subgradient", "smooth-max"])
@OVERFLOWS
def test_span_rows_on_the_fig1_pair(algorithm):
    # The fig1 pair takes the gaussian formulas on two antipodal anchors.  From a start off
    # the axis, span rows follow the d-space oracle.  From the origin with equal weights, an
    # epo-al or smooth-max step pulls equally toward both anchors, so w stays at 0 whatever mu
    # is while z = (1 - 2g, g, g) grows by |1 - 2g| a step: at mu = 1e200 z passes the span
    # sums' limit at iterate 1, and the row's d-space replay stays at 0 to the last iterate,
    # as run does.  A subgradient step there lands on the plateau and stays.
    problem = make_problem("fig1-pair", 3, 2, 0)
    r, w0 = np.array([0.2, 0.8]), sample_initial(3, 0)
    configs = grid_configs(algorithm, max_iter=60)
    for cfg, trace in zip(configs, kernel_traces(algorithm, problem, r, w0, configs)):
        assert len(trace) == 61
        assert_traces_close(trace, scalar_trace(algorithm, problem, r, w0, cfg))
    configs = [replace(cfg, mu=1e200) for cfg in configs[:2]]
    origin = np.zeros(3)
    assert assert_kernel_stops_where_run_does(algorithm, problem, [0.5, 0.5], origin,
                                              configs) == []
    assert_pass_matches_dspace_oracle(algorithm, [(problem, [0.5, 0.5], origin, configs)])
    for cfg, trace in zip(configs, kernel_traces(algorithm, problem, [0.5, 0.5], origin,
                                                 configs)):
        assert len(trace) == 61


@pytest.mark.parametrize("algorithm, hyper", [("epo-al", {"eta": 1.0}), ("subgradient", {}),
                                               ("smooth-max", {"tau": 0.1})])
@OVERFLOWS
def test_a_gaussian_row_whose_span_sums_overflow_goes_on_where_run_does(monkeypatch, algorithm,
                                                                        hyper):
    # r = 1e150 and mu = 1e-2: the first epo-al step moves w out to about 1e297, where
    # z^T Gamma z overflows.  run reads J = 1 there, on the gaussian plateau, and goes on; the
    # row leaves the span at iterate 1 as its d-space replay and is run's from there on, bit for
    # bit, to the last iterate.  Subgradient and smooth-max steps stay in the span.
    problem, w0 = make_problem("nonconvex-gaussian", 3, 2, seed=0), sample_initial(3, 0)
    r, cfg = np.array([1e150, 1e150]), SolverConfig(mu=1e-2, max_iter=5, **hyper)
    records = run(algorithm, problem, r, w0, cfg)
    (kernel,), left = lockstep_rows(algorithm, problem, r, w0, [cfg])
    assert left == [] and len(kernel) == len(records) == 6
    for rec, (J, *_) in zip(records[1:], kernel[1:]):
        assert (rec.jvals == 1.0).all() and (J == 1.0).all()
    assert assert_kernel_stops_where_run_does(algorithm, problem, r, w0, [cfg]) == []
    assert_span_exits_are_runs(monkeypatch, algorithm, problem, r, w0, [cfg],
                               {0: 1} if algorithm == "epo-al" else {})
