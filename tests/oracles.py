"""Slow reference implementations that the library's fast paths are tested against."""

import math

import numpy as np

from epoal import (CONVEX, DivergenceError, StationarityResult, SyntheticProblem,
                   as_model_vector, as_preference, lr_apply, run)
from epoal.core import _divergence
from epoal.diagnostics import WOLFE_TOL
from epoal.harness import SUBGRADIENT, _grid_configs, iteration_complexity
from epoal.solvers import ACTIVE_TIE_RTOL, EPO_AL, SMOOTH_MAX


class InfeasibilityError(RuntimeError):
    """The fairness equation has no root on the searched segment."""


def lr_dense(r):
    """Explicit dense matrix diag(r) (I - (1/K) 1 1^T) diag(r), for ``lr_apply``."""
    r = as_preference(r)
    if r.size < 2:
        raise ValueError(f"need K >= 2 weights, got {r.size}")
    k = r.size
    centering = np.eye(k) - np.ones((k, k)) / k
    return np.diag(r) @ centering @ np.diag(r)


def dense_anchor_values(kind, anchors, W):
    """Values (..., K) and the whole gradient stack (..., K, d) of ``kind``'s anchor family at
    models W (..., d) on anchors (K, d), or a (..., K, d) stack of them row by row: the
    reference of the d-space row's evaluation, which forms only the gradients it reads."""
    diffs = W[..., None, :] - anchors
    sq = np.einsum("...kd,...kd->...k", diffs, diffs)
    if kind == CONVEX:
        root = np.sqrt(1.0 + sq)
        return root - 1.0, diffs / root[..., None]
    expo = np.exp(-sq)
    return 1.0 - expo, 2.0 * expo[..., None] * diffs


def finite_diff_jacobian(obj, w, h):
    """Central-difference approximation of the (d, K) gradient matrix.

    Entry (j, k) is (J_k(w + h e_j) - J_k(w - h e_j)) / (2 h).
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    w = as_model_vector(w)
    jac = np.empty((w.size, obj.count))
    for j in range(w.size):
        bumped = w.copy()
        bumped[j] = w[j] + h
        plus = obj.values_and_jacobian(bumped)[0]
        bumped[j] = w[j] - h
        minus = obj.values_and_jacobian(bumped)[0]
        jac[j] = (plus - minus) / (2.0 * h)
    return jac


def min_norm_grid_search(G, step=1e-3):
    """Brute-force min of ||G p|| over a regular simplex grid (K <= 3)."""
    G = np.asarray(G, dtype=np.float64)
    K = G.shape[1]
    n = int(round(1.0 / step))
    if K == 1:
        points = np.ones((1, 1))
    elif K == 2:
        i = np.arange(n + 1)
        points = np.column_stack([i, n - i]) / n
    elif K == 3:
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        mask = i + j <= n
        i, j = i[mask], j[mask]
        points = np.column_stack([i, j, n - i - j]) / n
    else:
        raise ValueError("grid oracle only supports K <= 3")
    images = G @ points.T
    return float(np.sqrt(np.min(np.einsum("dn,dn->n", images, images))))


def frank_wolfe_gap(G, tol=1e-10, max_fw_iter=500):
    """min_{p in simplex} ||G p|| by Frank-Wolfe with exact line search, O(Kd) per step.

    Starts from the uniform weights.  Each iteration computes the gradient
    q = G^T (G p), moves toward the vertex with the smallest gradient entry
    (lowest index on ties), and stops once the Frank-Wolfe duality gap
    <p - e_k, q> drops to ``tol`` or after ``max_fw_iter`` updates.
    """
    G = np.asarray(G, dtype=np.float64)
    K = G.shape[1]
    p = np.full(K, 1.0 / K)
    Gp = G @ p
    iterations = 0
    while iterations < max_fw_iter:
        q = G.T @ Gp
        k = int(np.argmin(q))
        if float(p @ q - q[k]) <= tol:
            break
        step_dir = G[:, k] - Gp
        denom = float(step_dir @ step_dir)
        if denom == 0.0:
            break
        gamma = min(1.0, max(0.0, -float(Gp @ step_dir) / denom))
        if gamma == 0.0:
            break
        p *= 1.0 - gamma
        p[k] += gamma
        Gp += gamma * step_dir
        iterations += 1

    p /= p.sum()
    return StationarityResult(gap=float(np.linalg.norm(G @ p)), weights=p,
                              fw_iterations=iterations)


def cold_start_gap(G, max_fw_iter=500):
    """``pareto_stationarity_gap`` with Wolfe's cycles always started from the shortest column.

    The library's own path at K = 2 and K > d; elsewhere it starts from a corral instead."""
    G = np.asarray(G, dtype=np.float64)
    e = np.frexp(np.abs(G).max())[1]
    G_unit = np.ldexp(G, -e)
    M = G_unit.T @ G_unit
    scale = float(M.diagonal().max()) or 1.0
    A = M + max(float(M.diagonal().min()), 1e-30 * scale)
    p = np.eye(1, G.shape[1], M.diagonal().argmin())[0]
    active = p > 0
    B = np.diag(p / A.diagonal())
    for iterations in range(max_fw_iter + 1):
        q = M @ p
        k = int(q.argmin())
        if float(p @ q) - q[k] <= WOLFE_TOL * scale or active[k] or iterations == max_fw_iter:
            break
        u = B @ A[:, k]
        s = float(A[k, k] - A[:, k] @ u)
        active[k] = True
        if s > 1e-12 * A[k, k]:
            v = u / s
            B += np.outer(u, v)
            B[:, k] = B[k] = -v
            B[k, k] = 1.0 / s
            cap = 1.0
        else:
            alpha, step, cap = p, np.eye(1, p.size, k)[0] - u, np.inf
        while True:
            if cap == 1.0:
                y = B.sum(axis=1)
                y += B @ np.where(active, 1.0 - A @ y, 0.0)
                alpha = y / y.sum()
                step = alpha - p
            out = np.flatnonzero(active & (step < 0))
            ratios = p[out] / -step[out]
            if ratios.min(initial=np.inf) >= cap:
                p = np.maximum(alpha, 0.0)
                break
            p += ratios.min() * step
            p[out[ratios.argmin()]] = 0.0
            active &= p > 0
            p[~active], B[:] = 0.0, 0.0
            B[np.ix_(active, active)] = np.linalg.inv(A[np.ix_(active, active)])
            cap = 1.0
    return StationarityResult(gap=float(np.ldexp(np.linalg.norm(G_unit @ p), e)), weights=p,
                              fw_iterations=iterations)


def two_objective_epo_oracle(r, problem, tol=1e-10):
    """Root-finding oracle for symmetric two-anchor problems.

    For a problem with unit-norm antipodal anchors the exact Pareto optimum
    lies on the segment between them, so it suffices to solve the scalar
    fairness equation r_1 J_1(w(t)) = r_2 J_2(w(t)) with w(t) = t * axis,
    where axis points from the first anchor toward the second (t = -1 at
    the first anchor, t = +1 at the second).  Bisection runs until the
    weighted residual |r_1 J_1 - r_2 J_2| drops to ``tol``.  Returns the
    root coordinate t and the objective pair there.
    """
    r = as_preference(r)
    if r.size != 2 or problem.count != 2:
        raise ValueError("oracle requires exactly two objectives")
    anchors = np.asarray(problem.anchors)
    if (np.linalg.norm(anchors[0] + anchors[1]) > 1e-9
            or abs(np.linalg.norm(anchors[0]) - 1.0) > 1e-9):
        raise ValueError("oracle requires unit-norm antipodal anchors")
    axis = 0.5 * (anchors[1] - anchors[0])

    def values(t):
        return problem.values_and_jacobian(t * axis)[0]

    def residual(t):
        j1, j2 = values(t)
        return r[0] * j1 - r[1] * j2

    lo, hi = -1.0, 1.0
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0.0:
        lo, hi = lo, lo
    elif f_hi == 0.0:
        lo, hi = hi, hi
    elif np.sign(f_lo) == np.sign(f_hi):
        raise InfeasibilityError(
            "weighted objectives do not cross on the anchor segment")

    t = 0.5 * (lo + hi)
    for _ in range(200):
        f_mid = residual(t)
        if abs(f_mid) <= tol:
            break
        if np.sign(f_mid) == np.sign(f_lo):
            lo = t
        else:
            hi = t
        t = 0.5 * (lo + hi)
    else:
        raise RuntimeError(f"bisection did not reach residual {tol}")
    return t, values(t)


def exhaustive_target(problem, r, w0, grid, seed):
    """J*: minimum over every iterate of a full subgradient run per step size."""
    values = [rec.minmax
              for cfg in _grid_configs(SUBGRADIENT, grid, seed)
              for rec in run_allowing_divergence(SUBGRADIENT, problem, r, w0, cfg)]
    return float(np.min(values))


def exhaustive_tune(algorithm, problem, r, w0, grid, seed, target):
    """(i_o, best_config): every grid combination run to ``grid.max_iter``.

    Combinations are visited in lexicographic grid order and the best is
    replaced only by a strictly smaller i_o, so ties go to the first one.
    """
    best_i, best_cfg = None, None
    for cfg in _grid_configs(algorithm, grid, seed):
        records = run_allowing_divergence(algorithm, problem, r, w0, cfg)
        if not records:
            continue
        i_o = iteration_complexity(records, target, grid.epsilon)
        if i_o is not None and (best_i is None or i_o < best_i):
            best_i, best_cfg = i_o, cfg
    return best_i, best_cfg


def run_allowing_divergence(algorithm, problem, r, w0, config):
    """``run``'s records; a diverged run keeps the records before its failed iterate."""
    try:
        return run(algorithm, problem, r, w0, config)
    except DivergenceError as err:
        return err.records


def scalar_update(algorithm, w, p, jvals, jac, r, config, rng):
    """One step of one configuration from its evaluated iterate: (w+, p+, active or None).

    The per-configuration arithmetic the lockstep kernel batches; the
    subgradient step draws from ``rng`` at every step, ties or not.
    """
    mu = config.mu
    if algorithm == EPO_AL:
        fairness_grad = lr_apply(r, jvals)
        w_new = w - mu * (jac @ (np.maximum(p, 0.0) + config.eta * fairness_grad))
        return w_new, p + mu * fairness_grad, None
    if algorithm == SUBGRADIENT:
        v = r * jvals
        m = v.max()
        active = np.flatnonzero(v >= (1.0 - math.copysign(ACTIVE_TIE_RTOL, m)) * m)
        k = int(active[rng.integers(active.size)])
        return w - mu * r[k] * jac[:, k], p, k
    v = (r * jvals) / config.tau
    weights = np.exp(v - v.max())
    weights /= weights.sum()
    return w - (mu / config.tau) * (jac @ (weights * r)), p, None


def scalar_trace(algorithm, obj, r, w0, config):
    """(minmax, p, active index) per iterate of one configuration, one scalar step at a time.

    Stops before the first iterate whose values, gradients, weighted min-max value,
    fairness residual or epo-al dual is not finite, as a diverged run does.
    """
    r = as_preference(r)
    w = as_model_vector(w0)
    p = np.full(obj.count, 1.0 / obj.count) if algorithm == EPO_AL else None
    rng = np.random.default_rng(config.seed)
    out = []
    for i in range(config.max_iter + 1):
        jvals, jac = obj.values_and_jacobian(w)
        v = r * jvals
        scores = (v.max(), np.sum((v - v.mean()) ** 2), *(() if p is None else p))
        if not (np.all(np.isfinite(jvals)) and np.all(np.isfinite(jac))
                and np.all(np.isfinite(scores))):
            break
        w_next, p_next, active = (scalar_update(algorithm, w, p, jvals, jac, r, config, rng)
                                  if i < config.max_iter else (w, p, None))
        out.append((float(np.max(r * jvals)), p, active))
        w, p = w_next, p_next
    return out


def row_oracle(algorithm, obj, r, w, config):
    """The reference of ``solvers._row`` with its arguments checked: (i, J, max r J, p,
    subgradient step or None, w+, p+) per iterate of one configuration, DivergenceError at the
    first iterate that breaks ``core._divergence``.

    Every iterate forms the whole gradient stack (``dense_anchor_values``, or another set's
    jacobian), takes M by ``np.maximum.reduce``, screens by the largest |r J|, the sum of the
    screened stack (a synthetic row's w) and of the duals, and steps by w - step y^T G, the
    subgradient by its active gradient alone, with its generator made at its first tie.
    """
    r, w = as_preference(r), as_model_vector(w)
    K, mu = r.size, config.mu
    limit = math.sqrt(np.finfo(np.float64).max / (8 * K))
    p = np.full(K if algorithm == EPO_AL else 0, 1.0 / K)
    seed = config.seed
    synthetic = isinstance(obj, SyntheticProblem)
    for i in range(config.max_iter + 1):
        if synthetic:
            J, G = dense_anchor_values(obj.kind, obj.anchors, w)
        else:
            J, jac = obj.values_and_jacobian(w)
            J, G = np.array(J, dtype=np.float64), np.array(jac, dtype=np.float64).T
        U = r * J
        M = np.maximum.reduce(U)
        top = M if synthetic else np.maximum.reduce(np.abs(U))
        screened = (top < limit and math.isfinite(np.add.reduce(w if synthetic else G, None))
                    and math.isfinite(np.add.reduce(p, None)))
        if not screened and (broken := _divergence(r, J, G, p)[0]):
            raise DivergenceError(broken, i, w)
        w_next, p_next, k = w, p, None
        if i < config.max_iter and algorithm == SUBGRADIENT:
            k = U.argmax()
            tied = U >= (1.0 - math.copysign(ACTIVE_TIE_RTOL, M)) * M
            if np.count_nonzero(tied) > 1:
                seed, active = np.random.default_rng(seed), np.flatnonzero(tied)
                k = active[seed.integers(active.size)]
            w_next = w - mu * r[k] * G[k]
        elif i < config.max_iter:
            if algorithm == EPO_AL:
                fairness_grad = lr_apply(r, J)
                y, step, p_next = (np.maximum(p, 0.0) + config.eta * fairness_grad, mu,
                                   p + mu * fairness_grad)
            else:
                assert algorithm == SMOOTH_MAX
                y = np.exp(U / config.tau - M / config.tau)
                y, step = y / np.add.reduce(y) * r, mu / config.tau
            w_next = w - step * np.matmul(y[None, :], G)[0]
        yield i, J, M, p, k, w_next, p_next
        w, p = w_next, p_next


def dspace_lockstep(algorithm, trials):
    """The lockstep kernel in d-space, the reference of the span rows of ``solvers._lockstep``.

    ``trials`` holds ``(problem, r, w0, configs)`` tuples of synthetic problems of one kind,
    K and d.  Row j, the j-th configuration in trial order, holds its iterate w; each round
    evaluates every live row on its trial's anchors through ``dense_anchor_values``, takes
    out the rows that break ``core._divergence`` and steps the rest by w+ = w - mu G^T y, the
    subgradient row along its active gradient alone, with a row's generator made from its seed
    at its first tie.  Yields ``(i, rows, minmax, J, P, active, diverged)`` a round, as the
    kernel's blocks.
    """
    configs = [cfg for *_, cfgs in trials for cfg in cfgs]
    trial = np.repeat(np.arange(len(trials)), [len(cfgs) for *_, cfgs in trials])
    kind, K = trials[0][0].kind, trials[0][0].count
    rows = np.arange(trial.size)
    A = np.array([problem.anchors for problem, *_ in trials])[trial]
    W = np.array([as_model_vector(w0) for *_, w0, _ in trials])[trial]
    r = np.array([as_preference(r) for _, r, *_ in trials])[trial]
    P = np.full((trial.size, K if algorithm == EPO_AL else 0), 1.0 / K)
    seeds = [cfg.seed for cfg in configs]
    for i in range(configs[0].max_iter + 1):
        J, G = dense_anchor_values(kind, A, W)
        broken = [_divergence(*row)[0] for row in zip(r, J, G, P)]
        diverged = [DivergenceError(m, i, w) for m, w in zip(broken, W) if m]
        ok = np.array([m is None for m in broken], dtype=bool)
        rows, A, W, r, P, J, G = (a[ok] for a in (rows, A, W, r, P, J, G))
        seeds = [seed for seed, keep in zip(seeds, ok) if keep]
        U = r * J
        M = U.max(axis=1)
        active = None
        if i < configs[0].max_iter:
            cfgs = [configs[j] for j in rows]
            mu = np.array([cfg.mu for cfg in cfgs])[:, None]
            if algorithm == EPO_AL:
                fairness_grad = lr_apply(r, J)
                eta = np.array([cfg.eta for cfg in cfgs])[:, None]
                Y, P_next = np.maximum(P, 0.0) + eta * fairness_grad, P + mu * fairness_grad
                W_next = W - mu * np.einsum("bk,bkd->bd", Y, G)
            elif algorithm == SUBGRADIENT:
                active = U.argmax(axis=1)
                for b, m in enumerate(M):
                    tied = np.flatnonzero(U[b] >= (1.0 - math.copysign(ACTIVE_TIE_RTOL, m)) * m)
                    if tied.size > 1:
                        seeds[b] = np.random.default_rng(seeds[b])
                        active[b] = tied[seeds[b].integers(tied.size)]
                at = (np.arange(rows.size), active)
                W_next, P_next = W - mu * r[at][:, None] * G[at], P
            else:
                tau = np.array([cfg.tau for cfg in cfgs])[:, None]
                weights = np.exp((U - M[:, None]) / tau)
                weights /= weights.sum(axis=1, keepdims=True)
                W_next, P_next = W - (mu / tau) * np.einsum("bk,bkd->bd", weights * r, G), P
        yield i, rows, M, J, P, active, diverged
        if i < configs[0].max_iter:
            W, P = W_next, P_next
        if not rows.size:
            return
