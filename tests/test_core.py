import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epoal import (ObjectiveSet, as_model_vector, as_preference, fairness_residual,
                   lr_apply, minmax_value)

from oracles import finite_diff_jacobian, lr_dense

positive_weights = st.integers(min_value=2, max_value=16).flatmap(
    lambda k: arrays(np.float64, k,
                     elements=st.floats(min_value=0.05, max_value=20.0)))


def weight_value_pairs():
    return st.integers(min_value=2, max_value=16).flatmap(
        lambda k: st.tuples(
            arrays(np.float64, k, elements=st.floats(min_value=0.05, max_value=20.0)),
            arrays(np.float64, k, elements=st.floats(min_value=-10.0, max_value=10.0))))


class QuadraticObjectives(ObjectiveSet):
    """J_k(w) = 0.5 w^T A_k w + b_k^T w + c_k with known analytic gradients."""

    def __init__(self, mats, vecs, consts):
        self.mats, self.vecs, self.consts = mats, vecs, consts

    @property
    def count(self):
        return len(self.mats)

    def values_and_jacobian(self, w):
        vals = np.array([0.5 * w @ A @ w + b @ w + c
                         for A, b, c in zip(self.mats, self.vecs, self.consts)])
        return vals, np.column_stack([A @ w + b for A, b in zip(self.mats, self.vecs)])


def random_quadratics(rng, d=4, K=3):
    mats = []
    for _ in range(K):
        M = rng.standard_normal((d, d))
        mats.append(M + M.T)
    vecs = [rng.standard_normal(d) for _ in range(K)]
    return QuadraticObjectives(mats, vecs, list(10.0 + rng.random(K)))


def test_lr_apply_uniform_weights():
    np.testing.assert_allclose(lr_apply([1.0, 1.0], [1.0, 0.0]), [0.5, -0.5])


def test_lr_apply_annihilates_inverse_weights():
    out = lr_apply([2.0, 3.0], [0.5, 1.0 / 3.0])
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)


def test_lr_apply_matches_dense_product():
    rng = np.random.default_rng(0)
    for K in (2, 3, 8, 64, 128):
        for _ in range(5):
            r = rng.uniform(0.1, 5.0, K)
            v = rng.standard_normal(K)
            ref = lr_dense(r) @ v
            diff = np.max(np.abs(lr_apply(r, v) - ref))
            assert diff <= 1e-12 * max(np.max(np.abs(ref)), 1e-3)


def test_lr_dense_uniform():
    np.testing.assert_allclose(lr_dense([1.0, 1.0]), [[0.5, -0.5], [-0.5, 0.5]])


def test_lr_dense_hand_expanded():
    np.testing.assert_allclose(lr_dense([1.0, 2.0]), [[0.5, -1.0], [-1.0, 2.0]])


@given(positive_weights)
def test_lr_dense_symmetric_with_inverse_nullspace(r):
    dense = lr_dense(r)
    np.testing.assert_allclose(dense, dense.T, atol=1e-13)
    inv = 1.0 / r
    assert np.max(np.abs(dense @ inv)) <= 1e-12 * np.linalg.norm(inv)


@given(positive_weights)
def test_lr_apply_nullspace(r):
    inv = 1.0 / r
    assert np.max(np.abs(lr_apply(r, inv))) <= 1e-12 * np.linalg.norm(inv)


@given(weight_value_pairs())
def test_lr_apply_symmetric_and_psd(pair):
    r, v = pair
    rng = np.random.default_rng(1)
    u = rng.standard_normal(v.size)
    assert u @ lr_apply(r, v) == pytest.approx(v @ lr_apply(r, u), rel=1e-9, abs=1e-9)
    assert v @ lr_apply(r, v) >= -1e-12 * (v @ v)


@given(weight_value_pairs())
def test_lr_quadratic_form_variance_identity(pair):
    r, v = pair
    u = r * v
    centered = u - u.mean()
    quad = v @ lr_apply(r, v)
    # round-off floor scales with the squared magnitude of the weighted values
    floor = 1e-12 * max(1.0, float(u @ u))
    assert quad == pytest.approx(centered @ centered, rel=1e-10, abs=floor)


def test_lr_apply_length_mismatch():
    with pytest.raises(ValueError):
        lr_apply([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        lr_apply([1.0, 2.0], np.ones((2, 3)))


def test_lr_apply_stack_is_bit_identical_to_each_row():
    # The solver kernel applies L_r to a (C, K) stack at once; each row must equal
    # the single-vector product to the last bit, as np.mean is sum / K too.
    rng = np.random.default_rng(3)
    for K in (2, 16, 64):
        r = rng.uniform(0.1, 5.0, K)
        V = rng.standard_normal((7, K)) * 10.0 ** rng.integers(-3, 4, (7, 1))
        out = lr_apply(r, V)
        for v, row in zip(V, out):
            assert np.array_equal(row, r * (r * v - (r * v).mean()))
            assert np.array_equal(row, lr_apply(r, v))


def test_lr_apply_stacked_preferences_are_bit_identical_to_each_row():
    # A kernel pass over several trials applies each row's own r to that row of a (C, K)
    # stack; each row must equal the single-vector product to the last bit.
    rng = np.random.default_rng(4)
    for K in (2, 16, 64):
        R = rng.uniform(0.1, 5.0, (7, K))
        V = rng.standard_normal((7, K)) * 10.0 ** rng.integers(-3, 4, (7, 1))
        out = lr_apply(R, V)
        for r, v, row in zip(R, V, out):
            assert np.array_equal(row, r * (r * v - (r * v).mean()))
            assert np.array_equal(row, lr_apply(r, v))
    with pytest.raises(ValueError, match="length mismatch"):
        lr_apply(np.ones((7, 3)), np.ones((7, 4)))


def test_fairness_residual_zero_when_weighted_values_equal():
    assert fairness_residual([1.0, 1.0], [2.0, 2.0]) == 0.0
    assert fairness_residual([0.2, 0.8], [4.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_fairness_residual_frozen_value():
    assert fairness_residual([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5)


@given(weight_value_pairs())
def test_fairness_residual_nonnegative_and_matches_quadratic_form(pair):
    r, jvals = pair
    res = fairness_residual(r, jvals)
    assert res >= -1e-12 * (jvals @ jvals)
    assert res == pytest.approx(jvals @ lr_apply(r, jvals), rel=1e-10, abs=1e-10)


@given(positive_weights, st.floats(min_value=0.01, max_value=100.0))
def test_fairness_residual_zero_on_inverse_ray(r, c):
    jvals = c / r
    assert fairness_residual(r, jvals) <= 1e-10 * (jvals @ jvals)
    # on the fairness set, the min-max value equals each weighted objective
    assert minmax_value(r, jvals) == pytest.approx(r[0] * jvals[0], rel=1e-12)


def test_minmax_value_examples():
    assert minmax_value([0.2, 0.8], [1.0, 1.0]) == pytest.approx(0.8)
    assert minmax_value([1.0, 1.0, 1.0], [3.0, 1.0, 2.0]) == pytest.approx(3.0)


def test_model_vector_validation():
    with pytest.raises(ValueError):
        as_model_vector([])
    with pytest.raises(ValueError):
        as_model_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_model_vector([[1.0, 2.0]])


def test_preference_validation():
    with pytest.raises(ValueError):
        as_preference([1.0, -1.0])
    with pytest.raises(ValueError):
        as_preference([1.0, 0.0])
    with pytest.raises(ValueError):
        as_preference([])
    np.testing.assert_allclose(as_preference([2.0]), [2.0])


class ConstantObjectives(ObjectiveSet):
    def __init__(self, vals, d):
        self.vals, self.d = np.asarray(vals, dtype=float), d

    @property
    def count(self):
        return self.vals.size

    def values_and_jacobian(self, w):
        return self.vals.copy(), np.zeros((self.d, self.vals.size))


def test_finite_diff_constant_objective_is_zero():
    obj = ConstantObjectives([3.0, 7.0], d=4)
    fd = finite_diff_jacobian(obj, np.ones(4), h=1e-5)
    np.testing.assert_allclose(fd, np.zeros((4, 2)), atol=1e-9)


def test_finite_diff_requires_positive_step():
    obj = ConstantObjectives([1.0], d=2)
    with pytest.raises(ValueError):
        finite_diff_jacobian(obj, np.zeros(2), h=0.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_finite_diff_validated_on_quadratics(seed):
    rng = np.random.default_rng(seed)
    obj = random_quadratics(rng)
    w = rng.standard_normal(4)
    fd = finite_diff_jacobian(obj, w, h=1e-5)
    analytic = obj.values_and_jacobian(w)[1]
    scale = max(np.max(np.abs(analytic)), 1.0)
    assert np.max(np.abs(fd - analytic)) <= 1e-5 * scale
