"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the full suite stays within its stated runtime budgets on desk hardware.
"""

import itertools
import time

import numpy as np

from epoal import (GridSpec, SolverConfig, certify_epo, compute_target, dual_mass,
                   epo_al_step, fig1_problem, initial_state, lr_apply, make_problem,
                   pareto_stationarity_gap, run, run_experiment, sample_initial,
                   sample_preference, tune_and_measure)
from epoal.cli import main
from epoal.harness import _grid_configs

from oracles import (finite_diff_jacobian, lr_dense, min_norm_grid_search,
                     run_allowing_divergence, two_objective_epo_oracle)


def report(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_dual_mass_conservation():
    combos = list(itertools.product((2, 8, 32), (3, 100)))
    kinds = ("convex-distance", "nonconvex-gaussian")
    worst = 0.0
    for idx in range(20):
        K, d = combos[idx % len(combos)]
        kind = kinds[idx % 2]
        problem = make_problem(kind, d, K, seed=1000 + idx)
        r = sample_preference(K, seed=1000 + idx)
        w0 = sample_initial(d, seed=1000 + idx)
        records = run("epo-al", problem, r, w0,
                      SolverConfig(mu=0.01, eta=1.0, max_iter=1000))
        mass0 = dual_mass(r, records[0].p_snapshot)
        drift = max(abs(dual_mass(r, rec.p_snapshot) - mass0) for rec in records)
        worst = max(worst, drift / abs(mass0))
    report("C1 dual-mass conservation", worst <= 1e-9,
           f"worst relative drift {worst:.3e} over 20 problems x 1000 iterations")


def test_c2_gradient_correctness():
    worst = 0.0
    rng = np.random.default_rng(2)
    for kind in ("convex-distance", "nonconvex-gaussian"):
        for d, K in ((3, 2), (20, 4), (100, 8)):
            problem = make_problem(kind, d, K, seed=7)
            for _ in range(50):
                w = rng.standard_normal(d)
                w /= np.linalg.norm(w)
                analytic = problem.values_and_jacobian(w)[1]
                fd = finite_diff_jacobian(problem, w, h=1e-5)
                rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-8)
                worst = max(worst, rel)
    report("C2 gradient correctness", worst <= 1e-5,
           f"worst relative error {worst:.3e} (50 sphere points per family per size)")


def _epo_al_seconds_per_iteration(K, d=200, iters=300):
    problem = make_problem("convex-distance", d, K, seed=5)
    r = sample_preference(K, seed=5)
    w0 = sample_initial(d, seed=5)
    cfg = SolverConfig(mu=0.01, eta=1.0, max_iter=iters, seed=5)
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        run("epo-al", problem, r, w0, cfg)
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def test_c3_matrix_free_operator_and_linear_scaling():
    rng = np.random.default_rng(3)
    sizes = (2, 3, 8, 16, 32, 64, 128)
    worst = 0.0
    for i in range(100):
        K = sizes[i % len(sizes)]
        r = rng.uniform(0.05, 5.0, K)
        v = rng.standard_normal(K)
        ref = lr_dense(r) @ v
        diff = np.max(np.abs(lr_apply(r, v) - ref))
        worst = max(worst, diff / max(np.max(np.abs(ref)), 1e-3))
    ratio = _epo_al_seconds_per_iteration(128) / _epo_al_seconds_per_iteration(32)
    ok = worst <= 1e-12 and ratio <= 6.0
    report("C3 matrix-free operator + O(K) scaling", ok,
           f"worst apply/dense deviation {worst:.3e}; "
           f"per-iteration time ratio K=128/K=32 = {ratio:.2f} (budget 6.0)")


def test_c4_stationarity_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        G = rng.standard_normal((d, K))
        fw = pareto_stationarity_gap(G, tol=1e-12, max_fw_iter=50_000).gap
        grid = min_norm_grid_search(G, step=1e-3)
        worst = max(worst, abs(fw - grid))
    report("C4 stationarity oracle vs simplex grid", worst <= 1e-3,
           f"worst |frank-wolfe - grid| = {worst:.3e} over 20 instances")


def test_c5_convex_convergence_to_certified_optimum():
    # the certificate presupposes a fair Pareto point exists; this seed's
    # instance was verified feasible by direct search over the anchor hull
    seed = 6
    problem = make_problem("convex-distance", 20, 4, seed=seed)
    r = sample_preference(4, seed=seed)
    w0 = sample_initial(20, seed=seed)
    grid = GridSpec()

    target = compute_target(problem, r, w0, grid, seed=seed)
    tuned = tune_and_measure("epo-al", problem, r, w0, grid, seed=seed,
                             target=target, measure=False)
    assert tuned.i_o is not None, "every grid combination censored"

    # select for fixed-point quality over the same grids, then certify a
    # longer run of the winning combination
    best_fairness, best_cfg = np.inf, None
    for cfg in _grid_configs("epo-al", grid, seed):
        records = run_allowing_divergence("epo-al", problem, r, w0, cfg)
        if records and records[-1].iter == grid.max_iter:
            if records[-1].fairness < best_fairness:
                best_fairness, best_cfg = records[-1].fairness, cfg
    state = initial_state(w0, problem.count)
    for _ in range(12_000):
        state = epo_al_step(state, problem, r, best_cfg.mu, best_cfg.eta)
    cert = certify_epo(state.w, problem, r)

    ok = cert.is_fair and cert.is_stationary and cert.minmax <= target + 0.01
    report("C5 convex convergence to certified EPO", ok,
           f"tuned i_o={tuned.i_o}; certificate fair={cert.is_fair} "
           f"stationary={cert.is_stationary} (fairness {cert.fairness:.2e}, "
           f"gap {cert.stationarity_gap:.2e}); minmax {cert.minmax:.5f} vs "
           f"J*+0.01 = {target + 0.01:.5f}")


def _sign_changes(minmax_series, window=100):
    increments = np.diff(np.asarray(minmax_series))[-window:]
    signs = np.sign(increments)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def test_c6_two_objective_reproduction():
    problem = fig1_problem(3)
    r = [0.2, 0.8]
    w0 = sample_initial(3, seed=0)
    _, oracle_jvals = two_objective_epo_oracle(r, problem, tol=1e-10)

    epo_records = run("epo-al", problem, r, w0,
                      SolverConfig(mu=0.1, eta=10.0, max_iter=1000, seed=0))
    sub_records = run("subgradient", problem, r, w0,
                      SolverConfig(mu=0.1, max_iter=1000, seed=0))

    dist = float(np.linalg.norm(epo_records[-1].jvals - oracle_jvals))
    epo_osc = _sign_changes([rec.minmax for rec in epo_records])
    sub_osc = _sign_changes([rec.minmax for rec in sub_records])
    ok = dist <= 1e-2 and sub_osc > epo_osc
    report("C6 two-objective trajectory reproduction", ok,
           f"objective-space distance to oracle {dist:.2e} (budget 1e-2); "
           f"min-max increment sign changes over final 100 iterations: "
           f"subgradient {sub_osc} vs epo-al {epo_osc}")


def test_c7_scaling_with_objective_count():
    K_values = [2, 4, 8, 16]
    aggregates = run_experiment(["convex-distance", "nonconvex-gaussian"],
                                K_values, d=50, n_trials=10, master_seed=2024,
                                algorithms=["epo-al", "subgradient"],
                                measure=False)
    means = {(a.kind, a.K, a.algorithm): a.i_o_mean for a in aggregates}
    censored = {(a.kind, a.K, a.algorithm): a.n_censored for a in aggregates}

    details, ok = [], True
    nondecreasing_steps, total_steps = 0, 0
    for kind in ("convex-distance", "nonconvex-gaussian"):
        ratios = [means[(kind, K, "subgradient")] / means[(kind, K, "epo-al")]
                  for K in K_values]
        strict16 = means[(kind, 16, "epo-al")] < means[(kind, 16, "subgradient")]
        ok = ok and strict16 and np.all(np.isfinite(ratios))
        steps = [b >= a - 1e-12 for a, b in zip(ratios, ratios[1:])]
        nondecreasing_steps += sum(steps)
        total_steps += len(steps)
        details.append(f"{kind}: ratios {[f'{x:.1f}' for x in ratios]} "
                       f"strict@16={strict16}")
    ok = ok and nondecreasing_steps >= 4  # majority of the 6 ratio steps
    report("C7 iteration-complexity scaling in K", ok,
           f"{'; '.join(details)}; non-decreasing ratio steps "
           f"{nondecreasing_steps}/{total_steps}; censored trials "
           f"{sum(censored.values())}")


def test_c8_reproducibility(tmp_path):
    bench_args = ["bench", "--kinds", "convex", "--K", "2", "--d", "6",
                  "--trials", "3", "--algos", "epo-al,subgradient",
                  "--max-iter", "150", "--seed", "9", "--timing-reps", "1"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(bench_args + ["--out", str(out_a)]) == 0
    assert main(bench_args + ["--out", str(out_b)]) == 0

    import csv as csv_mod

    def non_timing_rows(path):
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        timing = {"t_o_mean", "t_o_ci_low", "t_o_ci_high"}
        return [{k: v for k, v in row.items() if k not in timing}
                for row in csv_mod.DictReader(lines)]

    bench_ok = non_timing_rows(out_a) == non_timing_rows(out_b)

    trace_args = ["trace", "--fig1", "--d", "3", "--algo", "epo-al", "--mu", "0.1",
                  "--eta", "10", "--r", "0.2,0.8", "--iters", "200", "--seed", "3"]
    trace_a, trace_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(trace_args + ["--out", str(trace_a)]) == 0
    assert main(trace_args + ["--out", str(trace_b)]) == 0
    trace_ok = trace_a.read_bytes() == trace_b.read_bytes()

    report("C8 deterministic outputs", bench_ok and trace_ok,
           f"bench non-timing columns identical: {bench_ok}; "
           f"trace reruns byte-identical: {trace_ok}")
