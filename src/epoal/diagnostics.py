"""Optimality certificates: Pareto stationarity, fairness, and their combination.

A model is Pareto stationary when some convex combination of the K
objective gradients vanishes, i.e. min_{p in simplex} ||G(w) p|| = 0.
That min-norm problem is solved exactly, up to rounding, by Wolfe's
min-norm-point algorithm on the K x K Gram matrix (O(K^2 d) time, O(K^2)
memory), with no dependence on an iteration budget.  Combined with the
fairness residual from :mod:`epoal.core` this yields a checkable
certificate of exact Pareto optimality; on convex problems a passing
certificate witnesses min-max optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DivergenceError, ObjectiveSet, _check_non_negative_int, _divergence,
                   _evaluate, _preference_for, minmax_value)
from .problems import _model_for

# Wolfe's stop test: p.q - min q <= WOLFE_TOL * max_k ||g_k||^2.
WOLFE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StationarityResult:
    """Outcome of min_{p in simplex} ||G p||; ``fw_iterations`` counts Wolfe's major cycles."""

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


def pareto_stationarity_gap(G: np.ndarray, max_fw_iter: int = 500) -> StationarityResult:
    """Minimize ||G p|| over the simplex exactly by Wolfe's min-norm-point algorithm.

    Forms M = G^T G once, in O(K^2 d); each step then costs O(K^2).  A major
    cycle adds to the active set S the vertex k minimizing q = M p (lowest
    index on ties); minor cycles move p to the affine minimizer of S, dropping
    vertices whose weight reaches zero, through the inverse of M_SS + c 11^T,
    bordered per added vertex and inverted afresh after a drop (a downdated
    inverse loses accuracy), plus one refinement step.  A vertex on the
    affine hull of S, to rounding, takes the place of one in S.  Stops once
    p.q - min q <= WOLFE_TOL * max_k ||g_k||^2, which bounds ||G p||^2 - min^2 by
    twice that; ``max_fw_iter`` caps the major cycles as a guard.
    """
    _check_non_negative_int("max_fw_iter", max_fw_iter)
    if max_fw_iter < 1:
        raise ValueError(f"need max_fw_iter >= 1, got {max_fw_iter}")
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[1] < 1:
        raise ValueError(f"G must be a (d, K) matrix, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise ValueError("G contains non-finite entries")

    # Scaled by a power of two, which is exact, neither M nor G p overflows or underflows.
    e = np.frexp(np.abs(G).max())[1]
    G_unit = np.ldexp(G, -e)
    M = G_unit.T @ G_unit
    scale = float(M.diagonal().max()) or 1.0        # all-zero G: the test passes at once
    # M + c 1 1^T with c = min_k ||g_k||^2 (>= ||x*||^2); max_k would ill-condition A_SS.
    A = M + max(float(M.diagonal().min()), 1e-30 * scale)
    p = np.eye(1, G.shape[1], M.diagonal().argmin())[0]  # start at the shortest column
    active = p > 0                                  # S; p is zero off S
    B = np.diag(p / A.diagonal())                   # inverse of A_SS, zero off S x S
    for iterations in range(max_fw_iter + 1):
        q = M @ p
        k = int(q.argmin())
        if float(p @ q) - q[k] <= WOLFE_TOL * scale or active[k] or iterations == max_fw_iter:
            break
        # Border B with vertex k: s is the Schur complement of A_SS in A_{S+k}.
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
            # g_k = G_S u is on aff(S) to rounding: shift weight from S to k along u; G p stays.
            alpha, step, cap = p, np.eye(1, p.size, k)[0] - u, np.inf
        while True:
            if cap == 1.0:                          # toward aff(S)'s least-norm point
                y = B.sum(axis=1)
                y += B @ np.where(active, 1.0 - A @ y, 0.0)   # refines A_SS y = 1 once
                alpha = y / y.sum()
                step = alpha - p
            # Step toward alpha until it is reached or a weight hits zero; drop those.
            out = np.flatnonzero(active & (step < 0))
            ratios = p[out] / -step[out]
            if ratios.min(initial=np.inf) >= cap:
                p = np.maximum(alpha, 0.0)          # alpha >= 0 up to rounding here
                break
            p += ratios.min() * step
            p[out[ratios.argmin()]] = 0.0
            active &= p > 0
            p[~active], B[:] = 0.0, 0.0
            B[np.ix_(active, active)] = np.linalg.inv(A[np.ix_(active, active)])
            cap = 1.0

    return StationarityResult(gap=float(np.ldexp(np.linalg.norm(G_unit @ p), e)), weights=p,
                              fw_iterations=iterations)


def certify_epo(w: np.ndarray, obj: ObjectiveSet, r: np.ndarray,
                fair_tol: float | None = None,
                gap_tol: float | None = None) -> EpoCertificate:
    """Evaluate the objectives at ``w`` and certify fairness plus stationarity.

    Default tolerances are scale-relative: the fairness threshold is
    1e-8 * (max_k r_k J_k)^2 and the gap threshold 1e-4 * max_k ||grad J_k||.
    On convex problems a certificate with both verdicts true witnesses
    min-max optimality of ``w``.  Raises ValueError for bad arguments and
    DivergenceError when ``w`` breaks the divergence rule ``core._divergence``.
    """
    for name, tol in (("fair_tol", fair_tol), ("gap_tol", gap_tol)):
        if tol is not None and not 0 < tol < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    r = _preference_for(r, obj)
    w = _model_for(w, obj)
    jvals, jac = _evaluate(obj, w)
    broken, fairness = _divergence(r, jvals, jac)
    if broken:
        raise DivergenceError(broken, iterate=w)
    mm = minmax_value(r, jvals)
    if fair_tol is None:
        fair_tol = 1e-8 * mm * mm
    if gap_tol is None:     # scaled as the gap is, so that neither underflows alone
        e = np.frexp(np.abs(jac).max())[1]
        gap_tol = float(np.ldexp(1e-4 * np.max(np.linalg.norm(np.ldexp(jac, -e), axis=0)), e))
    gap = pareto_stationarity_gap(jac).gap
    return EpoCertificate(fairness=fairness, stationarity_gap=gap,
                          is_fair=fairness <= fair_tol,
                          is_stationary=gap <= gap_tol, minmax=mm)

