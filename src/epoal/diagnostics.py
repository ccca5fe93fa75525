"""Optimality certificates: Pareto stationarity, fairness, and their combination.

A model is Pareto stationary when some convex combination of the K
objective gradients vanishes, i.e. min_{p in simplex} ||G(w) p|| = 0.
That min-norm problem is solved here by Frank-Wolfe with exact line
search, keeping every iteration at O(Kd).  Combined with the fairness
residual from :mod:`epoal.core` this yields a checkable certificate of
exact Pareto optimality; on convex problems a passing certificate
witnesses min-max optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ObjectiveSet, _evaluate, _preference_for, as_model_vector,
                   fairness_residual, minmax_value)


@dataclass(frozen=True, eq=False)
class StationarityResult:
    """Outcome of the min-norm-point subproblem min_{p in simplex} ||G p||."""

    gap: float
    weights: np.ndarray
    fw_iterations: int


@dataclass(frozen=True)
class EpoCertificate:
    """Joint fairness / Pareto-stationarity verdict at a model point."""

    fairness: float
    stationarity_gap: float
    is_fair: bool
    is_stationary: bool
    minmax: float


def pareto_stationarity_gap(G: np.ndarray, tol: float = 1e-10,
                            max_fw_iter: int = 500) -> StationarityResult:
    """Minimize ||G p|| over the simplex by Frank-Wolfe with exact line search.

    Starts from the uniform weights.  Each iteration computes the gradient
    q = G^T (G p) in O(Kd), moves toward the vertex with the smallest
    gradient entry (lowest index on ties, for deterministic certificates),
    and stops once the Frank-Wolfe duality gap <p - e_k, q> drops to
    ``tol`` or after ``max_fw_iter`` updates.
    """
    if not (tol > 0) or max_fw_iter < 1:
        raise ValueError("need tol > 0 and max_fw_iter >= 1")
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[1] < 1:
        raise ValueError(f"G must be a (d, K) matrix, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise ValueError("G contains non-finite entries")

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


def certify_epo(w: np.ndarray, obj: ObjectiveSet, r: np.ndarray,
                fair_tol: float | None = None,
                gap_tol: float | None = None) -> EpoCertificate:
    """Evaluate the objectives at ``w`` and certify fairness plus stationarity.

    Default tolerances are scale-relative: the fairness threshold is
    1e-8 * (max_k r_k J_k)^2 and the gap threshold 1e-4 * max_k ||grad J_k||.
    On convex problems a certificate with both verdicts true witnesses
    min-max optimality of ``w``.  Raises ValueError for bad arguments and
    DivergenceError when the objectives are not finite at ``w``.
    """
    if fair_tol is not None and not (fair_tol > 0):
        raise ValueError("fair_tol must be positive")
    if gap_tol is not None and not (gap_tol > 0):
        raise ValueError("gap_tol must be positive")
    r = _preference_for(r, obj)
    w = as_model_vector(w)
    jvals, jac = _evaluate(obj, w)
    fairness = fairness_residual(r, jvals)
    mm = minmax_value(r, jvals)
    if fair_tol is None:
        fair_tol = 1e-8 * mm * mm
    if gap_tol is None:
        gap_tol = 1e-4 * float(np.max(np.linalg.norm(jac, axis=0)))
    gap = pareto_stationarity_gap(jac).gap
    return EpoCertificate(fairness=fairness, stationarity_gap=gap,
                          is_fair=fairness <= fair_tol,
                          is_stationary=gap <= gap_tol, minmax=mm)

