import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epoal import (SyntheticProblem, gen_anchors, load_model, load_problem,
                   make_problem, sample_initial, sample_preference, save_problem)
from epoal.problems import _family

from oracles import dense_anchor_values, finite_diff_jacobian

SQRT2 = np.sqrt(2.0)


def test_convex_value_zero_at_own_anchor():
    anchors = gen_anchors(5, 3, seed=0)
    jvals, jac = SyntheticProblem("convex-distance", anchors).values_and_jacobian(anchors[1])
    assert jvals[1] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(jac[:, 1], 0.0, atol=1e-15)
    assert np.all(np.delete(jvals, 1) > 0)


def test_convex_value_at_unit_distance():
    anchors = np.array([[1.0, 0.0]])
    jvals, _ = SyntheticProblem("convex-distance", anchors).values_and_jacobian([0.0, 0.0])
    assert jvals[0] == pytest.approx(SQRT2 - 1.0)


def test_nonconvex_value_zero_at_own_anchor():
    anchors = gen_anchors(4, 2, seed=3)
    jvals, jac = SyntheticProblem("nonconvex-gaussian", anchors).values_and_jacobian(anchors[0])
    assert jvals[0] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(jac[:, 0], 0.0, atol=1e-15)


def test_nonconvex_plateau_far_from_anchor():
    anchors = gen_anchors(3, 2, seed=1)
    far = 100.0 * np.ones(3)
    jvals, jac = SyntheticProblem("nonconvex-gaussian", anchors).values_and_jacobian(far)
    np.testing.assert_allclose(jvals, 1.0, atol=1e-12)
    assert np.max(np.abs(jac)) < 1e-12


@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
@pytest.mark.parametrize("d,K", [(3, 2), (20, 4)])
def test_jacobian_matches_finite_differences(kind, d, K):
    # test points live on the unit sphere, like anchors and iterates; far off
    # it the gaussian family is flat to machine precision and the relative
    # comparison degenerates
    problem = make_problem(kind, d, K, seed=11)
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        analytic = problem.values_and_jacobian(w)[1]
        fd = finite_diff_jacobian(problem, w, h=1e-5)
        scale = max(np.linalg.norm(analytic), 1e-8)
        assert np.linalg.norm(fd - analytic) <= 1e-5 * scale


def test_gen_anchors_unit_rows_and_determinism():
    a = gen_anchors(7, 4, seed=42)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(a, gen_anchors(7, 4, seed=42))
    assert not np.array_equal(a, gen_anchors(7, 4, seed=43))


def test_gen_anchors_symmetric_on_sphere():
    rows = np.vstack([gen_anchors(3, 2, seed=s) for s in range(5000)])
    assert np.max(np.abs(rows.mean(axis=0))) < 0.05


def test_gen_anchors_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_anchors(0, 2, seed=0)
    with pytest.raises(ValueError):
        gen_anchors(3, 1, seed=0)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**9))
def test_sample_preference_lands_in_shrunken_simplex(K, seed):
    y = sample_preference(K, seed)
    assert y.sum() == pytest.approx(1.0, abs=1e-12)
    assert y.min() > 1.0 / (3.0 * K)


def test_sample_preference_k2_range():
    for seed in range(200):
        y = sample_preference(2, seed)
        assert 1.0 / 6.0 < y[0] < 5.0 / 6.0
        assert y[0] + y[1] == pytest.approx(1.0, abs=1e-12)


def test_sample_preference_symmetric_mean():
    ys = np.vstack([sample_preference(3, seed) for seed in range(10_000)])
    np.testing.assert_allclose(ys.mean(axis=0), 1.0 / 3.0, atol=0.02)


def test_sample_initial_unit_norm_and_determinism():
    w = sample_initial(9, seed=5)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(w, sample_initial(9, seed=5))


def test_sample_initial_stream_independent_of_anchors():
    # same seed, different domain tags: the draws must not coincide or correlate
    dots = []
    for seed in range(100):
        w0 = sample_initial(6, seed)
        first_anchor = gen_anchors(6, 2, seed)[0]
        assert not np.allclose(w0, first_anchor)
        dots.append(w0 @ first_anchor)
    assert abs(np.mean(dots)) < 0.1


def test_fig1_problem_geometry():
    for d in (1, 3, 10):
        prob = make_problem("fig1-pair", d, 2, 0)
        np.testing.assert_allclose(np.linalg.norm(prob.anchors, axis=1), 1.0, atol=1e-12)
    prob = make_problem("fig1-pair", 3, 2, 0)
    jvals = prob.values_and_jacobian(prob.anchors[0])[0]
    assert jvals[0] == pytest.approx(0.0, abs=1e-15)
    assert jvals[1] == pytest.approx(1.0 - np.exp(-4.0))
    mid = prob.values_and_jacobian(np.zeros(3))[0]
    np.testing.assert_allclose(mid, 1.0 - np.exp(-1.0))


def test_make_problem_is_pure_function_of_arguments():
    a = make_problem("nonconvex-gaussian", 6, 3, seed=9)
    b = make_problem("nonconvex-gaussian", 6, 3, seed=9)
    np.testing.assert_array_equal(a.anchors, b.anchors)
    with pytest.raises(ValueError):
        make_problem("fig1-pair", 3, 4, seed=0)
    with pytest.raises(ValueError):
        make_problem("mystery", 3, 2, seed=0)


@pytest.mark.parametrize("name", ["d", "K", "seed"])
@pytest.mark.parametrize("kind", ["convex-distance", "fig1-pair"])
def test_make_problem_rejects_an_argument_that_is_not_a_non_negative_integer(kind, name):
    # A fractional argument is a ValueError naming it, before any draw; seed=2.5 used to draw
    # seed 2's anchors and d=2.5 to raise TypeError.
    args = {"d": 3, "K": 2, "seed": 4}
    for bad in (2.5, -1, "3"):
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
            make_problem(kind, **{**args, name: bad})
    assert make_problem(kind, **{**args, name: np.int64(args[name])}).count == 2


@pytest.mark.parametrize("sampler, args", [(gen_anchors, {"d": 3, "K": 2, "seed": 4}),
                                           (sample_preference, {"K": 4, "seed": 4}),
                                           (sample_initial, {"d": 3, "seed": 4})])
def test_samplers_reject_an_argument_that_is_not_a_non_negative_integer(sampler, args):
    # As make_problem does: sample_initial(3, 1.7) used to draw seed 1's point, and
    # sample_initial(2.5, 0) to raise TypeError.
    for name in args:
        for bad in (2.5, 1.7, 0.9, -1, "3"):
            with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
                sampler(**{**args, name: bad})
        np.testing.assert_array_equal(sampler(**{**args, name: np.int64(args[name])}),
                                      sampler(**args))


def test_problem_rejects_non_unit_anchors():
    with pytest.raises(ValueError):
        SyntheticProblem(kind="convex-distance", anchors=np.ones((2, 3)))


@pytest.mark.parametrize("seed", [1.5, -5, "7"])
def test_problem_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # save_problem writes int(seed), so 1.5 would come back as 1; no make_problem gives -5.
    anchors = make_problem("convex-distance", 3, 2, seed=0).anchors
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        SyntheticProblem(kind="convex-distance", anchors=anchors, seed=seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_non_finite_anchors(bad):
    anchors = np.array([[1.0, 0.0], [bad, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        SyntheticProblem(kind="convex-distance", anchors=anchors)


def test_problem_hashes_and_compares_by_identity():
    a = make_problem("convex-distance", 4, 2, seed=3)
    b = make_problem("convex-distance", 4, 2, seed=3)
    assert hash(a) == hash(a) and a == a
    assert a != b
    assert len({a, b}) == 2


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.0, max_value=1.0))
def test_convex_family_is_convex_along_segments(seed, lam):
    problem = make_problem("convex-distance", 5, 3, seed=17)
    rng = np.random.default_rng(seed)
    w1, w2 = rng.standard_normal(5), rng.standard_normal(5)
    mix = problem.values_and_jacobian(lam * w1 + (1 - lam) * w2)[0]
    bound = (lam * problem.values_and_jacobian(w1)[0]
             + (1 - lam) * problem.values_and_jacobian(w2)[0])
    assert np.all(mix <= bound + 1e-12)


def test_serialization_round_trip(tmp_path):
    problem = make_problem("convex-distance", 4, 3, seed=123)
    path = tmp_path / "problem.txt"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.kind == problem.kind
    assert loaded.seed == 123
    np.testing.assert_array_equal(loaded.anchors, problem.anchors)


def test_serialization_unknown_seed(tmp_path):
    anchors = make_problem("fig1-pair", 3, 2, 0).anchors
    problem = SyntheticProblem(kind="fig1-pair", anchors=anchors)
    path = tmp_path / "fig1.txt"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.seed is None
    np.testing.assert_array_equal(loaded.anchors, problem.anchors)


def test_load_problem_rejects_malformed_records(tmp_path):
    # Every error names the file, as load_model's do.
    bad = tmp_path / "bad.txt"
    for content, message in [
        ("", "empty problem file"),
        ("just nonsense\n", ":1: malformed problem header"),
        ("convex-distance 3 2x 7\n", ":1: '2x' is not an integer"),
        ("convex-distance 3 2 7\n1.0 0.0 0.0\n\n0.0 1.0\n", ":4: row length 2, line 2 has 3"),
        ("convex-distance 3 2 7\n1.0 0.0 0.0\n", "anchor block has shape (1, 3), header says (2, 3)"),
        ("convex-distance 0 0 -\n", "anchors must be a (K, d) matrix"),
        ("spherical 3 2 7\n1.0 0.0 0.0\n0.0 1.0 0.0\n", "unknown problem kind 'spherical'"),
        ("convex-distance 3 2 7\n1.0 0.0 0.0\n0.0 2.0 0.0\n", "anchor rows must have unit norm"),
        ("convex-distance 3 2 7\n1.0 0.0 0.0\nnan 0.0 0.0\n", "anchors must be finite"),
        ("convex-distance 3 2 -5\n1.0 0.0 0.0\n0.0 1.0 0.0\n",
         "seed must be a non-negative integer, got -5"),
    ]:
        bad.write_text(content)
        with pytest.raises(ValueError, match=re.escape(str(bad))) as excinfo:
            load_problem(bad)
        assert message in str(excinfo.value), content


def test_load_model_reads_one_coordinate_per_line(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("0.25\n\n-1e-3\n  7  \n")
    w = load_model(path)
    assert w.dtype == np.float64 and w.shape == (3,)
    np.testing.assert_array_equal(w, [0.25, -1e-3, 7.0])


@pytest.mark.parametrize("content, message", [
    (b"", "model vector must be 1-d with d >= 1"),
    (b"\n  \n\n", "model vector must be 1-d with d >= 1"),
    (b"0.1\nnan\n", "non-finite"),
    (b"0.1\n1e400\n", "non-finite"),
    (b"0.1 0.2\n0.3 0.4\n", "expected one coordinate per line"),
    (b"0.1\n0.2 0.3\n", ":2: row length 2, line 1 has 1"),
    (b"0.1\n2x\n", ":2: '2x' is not a decimal number"),
    (b"\xff\xfe0.1\n", ":1: '\\udcff\\udcfe0.1' is not a decimal number"),
], ids=["empty", "blank", "nan", "overflow", "two-per-line", "ragged", "token", "undecodable"])
def test_load_model_errors_name_the_file(tmp_path, content, message):
    path = tmp_path / "model.txt"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(f"{path}")) as excinfo:
        load_model(path)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("kind", ["convex-distance", "nonconvex-gaussian"])
def test_anchor_gradients_match_the_dense_stack_bit_for_bit(kind, stacked):
    # A row forms the gradients it reads, op(w - a_k, scale_k) with _family's op and scale,
    # with the dense oracle's elementwise operations on the same operands: the whole stack, as
    # values_and_jacobian does, or one gradient, a subgradient step's.  The oracle's stack form
    # (B models on one trial's (K, d) anchors, or on a (B, K, d) stack of them) reads each
    # model's row.  Row 1 sits at its own anchor 2.
    B, K, d = 5, 4, 7
    A = (np.array([gen_anchors(d, K, seed) for seed in range(B)]) if stacked
         else np.array([gen_anchors(d, K, seed=3)] * B))
    W = np.random.default_rng(0).standard_normal((B, d))
    W[1] = A[1, 2]
    J_ref, G_ref = dense_anchor_values(kind, A if stacked else A[0], W)
    for b, w in enumerate(W):
        diffs = w - A[b]
        J, scale, op = _family(kind, np.einsum("kd,kd->k", diffs, diffs))
        jvals, jac = SyntheticProblem(kind, A[b]).values_and_jacobian(w)
        assert np.array_equal(J, J_ref[b]) and np.array_equal(jvals, J_ref[b])
        assert np.array_equal(op(diffs, scale[:, None]), G_ref[b])
        assert np.array_equal(jac, G_ref[b].T)
        for k in range(K):
            assert np.array_equal(op(diffs[k], scale[k]), G_ref[b, k])
    assert J_ref[1, 2] == 0.0 and not G_ref[1, 2].any()
