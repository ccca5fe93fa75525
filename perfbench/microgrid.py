"""Microseconds per call of each layer's inner functions on a (K, d) grid.

Entries are named ``<module>.<fn>_us.K<k>.d<d>``.  Each is the median of
several batches, each batch long enough (>= 2 ms) that timer resolution
does not matter.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from epoal import core, diagnostics, problems, solvers

GRID = [(K, d) for K in (2, 16, 64) for d in (50, 500)]
RUN_ITERS = 20
MU, ETA, TAU = 0.05, 1.0, 0.1


def per_call_us(fn, batches=5, min_batch_s=2e-3) -> float:
    fn()
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_batch_s:
            break
        n *= 2
    samples = [elapsed / n]
    for _ in range(batches - 1):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return 1e6 * statistics.median(samples)


def measure(seed: int) -> dict:
    """{metric name: (microseconds, "us")} over the whole grid."""
    out = {}
    for K, d in GRID:
        tag = f"K{K}.d{d}"
        convex = problems.make_problem(problems.CONVEX, d, K, seed)
        nonconvex = problems.make_problem(problems.NONCONVEX, d, K, seed)
        r = problems.sample_preference(K, seed)
        w0 = problems.sample_initial(d, seed)
        jvals, jac = convex.values_and_jacobian(w0)
        state = solvers.initial_state(w0, K)
        rng = np.random.default_rng(seed)
        configs = {solvers.EPO_AL: solvers.SolverConfig(mu=MU, eta=ETA, max_iter=RUN_ITERS),
                   solvers.SUBGRADIENT: solvers.SolverConfig(mu=MU, max_iter=RUN_ITERS),
                   solvers.SMOOTH_MAX: solvers.SolverConfig(mu=MU, tau=TAU, max_iter=RUN_ITERS)}
        timed = {
            "problems.values_and_jacobian_convex": lambda: convex.values_and_jacobian(w0),
            "problems.values_and_jacobian_nonconvex": lambda: nonconvex.values_and_jacobian(w0),
            "core.lr_apply": lambda: core.lr_apply(r, jvals),
            "solvers.epo_al_step": lambda: solvers.epo_al_step(state, convex, r, MU, ETA),
            "solvers.subgradient_step": lambda: solvers.subgradient_step(w0, convex, r, MU, rng),
            "solvers.smoothmax_step": lambda: solvers.smoothmax_step(w0, convex, r, MU, TAU),
            "diagnostics.pareto_stationarity_gap": lambda: diagnostics.pareto_stationarity_gap(jac),
        }
        for name, fn in timed.items():
            out[f"{name}_us.{tag}"] = (per_call_us(fn), "us")
        for algo, config in configs.items():
            us = per_call_us(lambda: solvers.run(algo, convex, r, w0, config), batches=3)
            out[f"solvers.run_{algo.replace('-', '_')}_us.{tag}"] = (us / RUN_ITERS, "us")
    return out
