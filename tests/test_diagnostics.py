import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epoal import (DivergenceError, SolverConfig, certify_epo, epo_al_step, fairness_residual,
                   initial_state, make_problem, minmax_value, pareto_stationarity_gap, run,
                   sample_initial, sample_preference)
from epoal.problems import SyntheticProblem

from oracles import (InfeasibilityError, frank_wolfe_gap, min_norm_grid_search,
                     two_objective_epo_oracle)


def test_gap_single_column_is_its_norm():
    g = np.array([[3.0], [4.0]])
    res = pareto_stationarity_gap(g)
    assert res.gap == pytest.approx(5.0)
    np.testing.assert_allclose(res.weights, [1.0])


def test_gap_opposing_gradients_cancel():
    g = np.array([[1.0, -1.0], [2.0, -2.0]])
    res = pareto_stationarity_gap(g)
    assert res.gap == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.weights, [0.5, 0.5])


def test_gap_matches_grid_oracle_on_random_instance():
    rng = np.random.default_rng(17)
    G = rng.standard_normal((4, 3))
    res = pareto_stationarity_gap(G, max_fw_iter=20_000)
    assert abs(res.gap - min_norm_grid_search(G, step=1e-3)) <= 1e-3


def test_gap_weights_stay_in_simplex_and_are_consistent():
    rng = np.random.default_rng(3)
    for _ in range(25):
        G = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 6)))
        res = pareto_stationarity_gap(G)
        assert np.all(res.weights >= -1e-15)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.gap == pytest.approx(np.linalg.norm(G @ res.weights), abs=1e-12)
        assert res.gap >= 0.0
        # any vertex is feasible, so the optimum cannot beat the best column
        assert res.gap <= np.min(np.linalg.norm(G, axis=0)) + 1e-12


def test_gap_objective_non_increasing_in_iteration_budget():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((5, 4))
    gaps = [pareto_stationarity_gap(G, max_fw_iter=t).gap
            for t in range(1, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def kkt_residual(G, weights):
    """Wolfe's optimality residual p.q - min_k q_k, q = G^T G p."""
    q = G.T @ (G @ weights)
    return float(weights @ q - q.min())


def max_sq_norm(G):
    return float(np.max(np.sum(G * G, axis=0)))


@pytest.mark.parametrize("K", [2, 16, 32, 64])
@pytest.mark.parametrize("d", [3, 50, 500])
def test_gap_is_exact_against_frank_wolfe_oracle(K, d):
    problem = make_problem("convex-distance", d, K, seed=K + d)
    G = problem.values_and_jacobian(sample_initial(d, K + d))[1]
    scale = max_sq_norm(G)
    res = pareto_stationarity_gap(G)
    assert res.fw_iterations < 500      # the max_fw_iter default is a guard, never reached
    assert kkt_residual(G, res.weights) <= 1e-12 * scale
    oracle = frank_wolfe_gap(G, max_fw_iter=50_000)
    # The minimum lies between the duality bound at any simplex point and ||G p|| there.
    q = G.T @ (G @ oracle.weights)
    lower_sq = oracle.gap ** 2 - 2.0 * float(oracle.weights @ q - q.min())
    rounding = 1e-14 * np.sqrt(scale)
    assert res.gap <= oracle.gap + rounding
    assert res.gap >= np.sqrt(max(lower_sq, 0.0)) - rounding


def test_gap_is_exact_at_converged_epo_point():
    # 500 Frank-Wolfe steps leave a gap of about 1e-2 here and 50_000 about 1e-3;
    # the point is stationary, and the exact gap is zero up to rounding.
    problem = make_problem("nonconvex-gaussian", 20, 16, seed=4)
    r = sample_preference(16, 4)
    w = converged_epo_point(problem, r, sample_initial(20, 4), steps=2000, mu=0.05, eta=10.0)
    G = problem.values_and_jacobian(w)[1]
    res = pareto_stationarity_gap(G)
    assert kkt_residual(G, res.weights) <= 1e-12 * max_sq_norm(G)
    assert res.gap <= 1e-12


def test_gap_input_validation():
    with pytest.raises(ValueError):
        pareto_stationarity_gap(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        pareto_stationarity_gap(np.ones((2, 2)), max_fw_iter=0)


@pytest.mark.parametrize("cap", [2.5, "3", None])
def test_gap_rejects_a_cap_that_is_not_an_integer(cap):
    with pytest.raises(ValueError, match="max_fw_iter must be a non-negative integer"):
        pareto_stationarity_gap(np.ones((2, 2)), max_fw_iter=cap)


def test_grid_oracle_rejects_large_k():
    with pytest.raises(ValueError):
        min_norm_grid_search(np.ones((2, 4)))


def duplicated_anchor_problem():
    anchor = np.array([[0.6, 0.8]])
    return SyntheticProblem(kind="convex-distance",
                            anchors=np.vstack([anchor, anchor]))


@st.composite
def degenerate_matrices(draw):
    """Small (d, K) matrices with repeated, zero, opposing and affinely dependent columns."""
    d = draw(st.integers(1, 3))
    entries = st.one_of(st.integers(-2, 2).map(float),
                        st.floats(-2.0, 2.0, allow_subnormal=False))
    cols = draw(st.lists(arrays(np.float64, d, elements=entries), min_size=1, max_size=6))
    for op, i in draw(st.lists(st.tuples(st.sampled_from(["repeat", "zero", "oppose"]),
                                         st.integers(0, 5)), max_size=4)):
        g = cols[i % len(cols)]
        cols.append({"repeat": g, "zero": 0.0 * g, "oppose": -g}[op])
    order = draw(st.permutations(range(len(cols))))
    return np.column_stack([cols[i] for i in order])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(degenerate_matrices())
@example(np.array([[3.0], [4.0]]))                                  # K = 1
@example(np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 1.0]]))              # a zero column
@example(np.array([[1.0, -1.0, 0.5], [2.0, -2.0, 0.0]]))            # opposing columns
@example(duplicated_anchor_problem().values_and_jacobian(np.array([0.1, -0.3]))[1])
@example(np.array([[1.0, 2.0, 3.0, 0.0, -1.0, 5.0],
                   [1.0, 1.0, 1.0, 2.0, 0.5, -3.0]]))               # K > d + 1
@example(np.array([[4.4e-160, 0.0]]))                               # G^T G underflows
@example(np.array([[0.0, -0.484375, 2.0],
                   [-0.46875, -0.484375, 2.0]]))                    # alpha rounds below 0
@example(np.array([[2.0, 0.0, 2.0, 0.0, -1.5],
                   [0.015625, 2.0, 0.0, 2.0, 0.0]]))                # a thin active set
@example(np.array([[1.0, -1.0, 0.5], [0.0, 0.0, 1e-5]]))            # a thin active set
def test_gap_on_degenerate_inputs(G):
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise",
                                                over="raise"):
        warnings.simplefilter("error")
        res = pareto_stationarity_gap(G)
    assert np.isfinite(res.gap) and res.gap >= 0.0
    assert np.all(res.weights >= 0.0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert res.fw_iterations < 500
    assert res.gap <= np.sqrt(np.min(np.sum(G * G, axis=0))) + 1e-12
    assert kkt_residual(G, res.weights) <= 1e-12 * max_sq_norm(G)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(degenerate_matrices(), st.integers(-600, 600))
def test_gap_scales_with_a_power_of_two_bit_for_bit(G, k):
    # Entries below 2^-400 are zeroed, so every entry of 2^k G stays normal, where scaling by
    # a power of two is exact: the gap and the Gram matrix neither underflow nor overflow.
    G = np.where(np.abs(G) < 2.0 ** -400, 0.0, G)
    res, scaled = pareto_stationarity_gap(G), pareto_stationarity_gap(np.ldexp(G, k))
    assert scaled.gap == np.ldexp(res.gap, k)
    np.testing.assert_array_equal(scaled.weights, res.weights)


def test_gap_is_exact_when_column_norms_differ():
    # The affine-minimizer system is shifted by the shortest column's squared norm;
    # a shift by the longest one misses the 1e-12 test on every one of these instances.
    rng = np.random.default_rng(6)
    for _ in range(30):
        d, K = int(rng.integers(20, 50)), int(rng.integers(30, 64))
        G = rng.standard_normal((d, K)) * 10.0 ** rng.uniform(-2.0, 2.0, K)
        res = pareto_stationarity_gap(G)
        assert kkt_residual(G, res.weights) <= 1e-12 * max_sq_norm(G)


def test_gap_on_nearly_repeated_columns():
    # Columns 1e-10 to 1e-5 apart: an entering vertex can lie on the affine hull of the
    # active set to rounding, where bordering the inverse would blow up; it is swapped in.
    rng = np.random.default_rng(8)
    for _ in range(100):
        base = rng.standard_normal((5, 6))
        noise = 10.0 ** -rng.integers(5, 11) * rng.standard_normal((5, 24))
        G = base[:, rng.integers(0, 6, 24)] + noise
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            res = pareto_stationarity_gap(G)
        assert np.all(res.weights >= 0.0) and res.fw_iterations < 500
        assert kkt_residual(G, res.weights) <= 1e-12 * max_sq_norm(G)
        assert res.gap <= frank_wolfe_gap(G).gap + 1e-14 * np.sqrt(max_sq_norm(G))


def test_certify_passes_at_common_minimizer_of_identical_objectives():
    problem = duplicated_anchor_problem()
    cert = certify_epo(problem.anchors[0], problem, [1.0, 1.0])
    assert cert.is_fair and cert.is_stationary
    assert cert.fairness == pytest.approx(0.0, abs=1e-30)
    assert cert.stationarity_gap == pytest.approx(0.0, abs=1e-15)


def test_certify_flags_unequal_weighted_values():
    problem = make_problem("convex-distance", 4, 2, seed=5)
    cert = certify_epo(np.ones(4) / 2.0, problem, [1.0, 5.0])
    assert not cert.is_fair
    assert cert.minmax == pytest.approx(
        minmax_value([1.0, 5.0], problem.values_and_jacobian(np.ones(4) / 2.0)[0]))


def test_certify_rejects_nonpositive_tolerances():
    problem = make_problem("convex-distance", 3, 2, seed=1)
    with pytest.raises(ValueError):
        certify_epo(np.zeros(3), problem, [1.0, 1.0], fair_tol=0.0)
    with pytest.raises(ValueError):
        certify_epo(np.zeros(3), problem, [1.0, 1.0], gap_tol=-1.0)


@pytest.mark.parametrize("tol", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["fair_tol", "gap_tol"])
def test_certify_rejects_non_finite_tolerances(name, tol):
    # An infinite tolerance would certify any model.
    problem = make_problem("convex-distance", 3, 2, seed=1)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        certify_epo(np.zeros(3), problem, [1.0, 1.0], **{name: tol})


def test_certify_rejects_mismatched_model_and_preference_lengths():
    problem = make_problem("convex-distance", 5, 4, seed=1)
    r = sample_preference(4, 1)
    with pytest.raises(ValueError, match="model of size 1"):
        certify_epo([0.3], problem, r)
    with pytest.raises(ValueError, match="preference has 2 weights, objective set has K=4"):
        certify_epo(np.zeros(5), problem, [1.0, 1.0])


@pytest.mark.parametrize("size", [1, 4])
def test_certify_checks_the_model_size_as_run_does(size):
    # A model of another size than d would broadcast against the anchors, or be caught only
    # by the shapes the objectives return; certify names the sizes in run's words.
    problem = make_problem("convex-distance", 3, 2, seed=1)
    r, cfg = np.array([0.5, 0.5]), SolverConfig(mu=0.1, max_iter=3)
    message = f"model of size {size}, objective set has d=3"
    with pytest.raises(ValueError, match=re.escape(message)):
        run("subgradient", problem, r, np.zeros(size), cfg)
    with pytest.raises(ValueError, match=re.escape(message)):
        certify_epo(np.zeros(size), problem, r)


def test_certify_raises_divergence_where_objectives_are_not_finite():
    # ||w - w_k||^2 overflows: the values are inf while the gradients round to 0.
    problem = make_problem("convex-distance", 2, 2, seed=0)
    with pytest.raises(DivergenceError):
        certify_epo([1e200, 0.0], problem, [1.0, 1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # overflows on purpose
def test_certify_raises_divergence_where_weighted_scores_overflow():
    # The values are finite, but r * J squared overflows the fairness residual.
    problem = make_problem("convex-distance", 2, 2, seed=0)
    with pytest.raises(DivergenceError, match="fairness residual is not finite"):
        certify_epo([0.5, 0.0], problem, [1e300, 1e300])


def converged_epo_point(problem, r, w0, steps=20_000, mu=0.1, eta=1.0):
    state = initial_state(w0, problem.count)
    for _ in range(steps):
        state = epo_al_step(state, problem, r, mu, eta)
    return state.w


def test_certified_point_is_minmax_optimal_among_probes():
    # two-objective instances always admit a fair Pareto point, so a long
    # solver run lands on one; certified optima must beat random probes
    problem = make_problem("convex-distance", 3, 2, seed=2)
    r = sample_preference(2, 2)
    w = converged_epo_point(problem, r, sample_initial(3, 2))
    cert = certify_epo(w, problem, r)
    assert cert.is_fair and cert.is_stationary
    rng = np.random.default_rng(0)
    for _ in range(100):
        probe = w + rng.standard_normal(3) * rng.choice([0.01, 0.1, 1.0])
        assert cert.minmax <= minmax_value(r, problem.values_and_jacobian(probe)[0]) + 1e-9


def test_oracle_balanced_preferences_sit_at_midpoint():
    t, jvals = two_objective_epo_oracle([0.5, 0.5], make_problem("fig1-pair", 3, 2, 0))
    assert t == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(jvals, 1.0 - np.exp(-1.0), atol=1e-9)


def test_oracle_biases_toward_heavily_weighted_objective():
    problem = make_problem("fig1-pair", 3, 2, 0)
    t, jvals = two_objective_epo_oracle([0.2, 0.8], problem, tol=1e-10)
    assert t > 0.0  # positive t moves toward the second anchor, J2's minimizer
    assert abs(0.2 * jvals[0] - 0.8 * jvals[1]) <= 1e-10
    assert fairness_residual([0.2, 0.8], jvals) <= 1e-8


def test_oracle_point_agrees_between_t_and_values():
    problem = make_problem("fig1-pair", 4, 2, 0)
    t, jvals = two_objective_epo_oracle([0.3, 0.7], problem)
    axis = 0.5 * (problem.anchors[1] - problem.anchors[0])
    np.testing.assert_allclose(problem.values_and_jacobian(t * axis)[0], jvals)


def test_oracle_requires_antipodal_unit_anchors():
    problem = make_problem("nonconvex-gaussian", 3, 2, seed=0)
    with pytest.raises(ValueError):
        two_objective_epo_oracle([0.5, 0.5], problem)


class ConstantPair:
    """Equal constant objectives: no root unless the weights are equal."""

    count = 2
    anchors = np.vstack([np.ones(3) / np.sqrt(3), -np.ones(3) / np.sqrt(3)])

    def values_and_jacobian(self, w):
        return np.array([1.0, 1.0]), np.zeros((3, 2))


def test_oracle_reports_infeasible_segment():
    with pytest.raises(InfeasibilityError):
        two_objective_epo_oracle([0.2, 0.8], ConstantPair())
