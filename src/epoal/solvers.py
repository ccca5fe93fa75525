"""Iterative steppers for the weighted min-max problem min_w max_k r_k J_k(w).

Three algorithms behind one driver loop:

  epo-al      primal-dual update on the augmented Lagrangian of the
              fairness-constrained reformulation:
                  w+ = w - mu * G(w) ([p]_+ + eta * L_r J(w))
                  p+ = p  + mu * L_r J(w)
              The positivity clip [.]_+ appears only inside the primal
              update; the dual recursion evolves the unclipped p so the
              weighted dual mass sum_k p_k / r_k is conserved exactly.
  subgradient descent on the hard maximum: step along the gradient of the
              currently active (largest weighted) objective, ties broken
              uniformly at random.
  smooth-max  gradient descent on the soft maximum log sum_k e^{v_k / tau}
              of the weighted objectives v = r * J(w).

Each stepper consumes exactly one objective/jacobian evaluation per
iteration, and the driver shares that evaluation with the per-iteration
trace record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# DivergenceError is re-exported: callers catch it as epoal.solvers.DivergenceError.
from .core import (DivergenceError, ObjectiveSet, _evaluate, _preference_for, as_model_vector,
                   fairness_residual, lr_apply, minmax_value)
from .diagnostics import pareto_stationarity_gap

EPO_AL = "epo-al"
SUBGRADIENT = "subgradient"
SMOOTH_MAX = "smooth-max"
ALGORITHMS = (EPO_AL, SUBGRADIENT, SMOOTH_MAX)

# Relative tolerance used to detect ties among weighted objective values.
ACTIVE_TIE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class EpoAlState:
    """Primal-dual pair (w, p) plus iteration counter."""

    w: np.ndarray
    p: np.ndarray
    iter: int = 0


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for one solver run.

    ``eta`` is only meaningful for epo-al and ``tau`` only for smooth-max;
    leave them None for algorithms that do not use them.
    """

    mu: float
    eta: float | None = None
    tau: float | None = None
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"step size mu must be positive and finite, got {self.mu}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, got {self.max_iter}")
        if self.eta is not None and not 0 <= self.eta < math.inf:
            raise ValueError(f"penalty eta must be non-negative and finite, got {self.eta}")
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError(f"temperature tau must be positive and finite, got {self.tau}")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One row of a solver trace.

    ``p_snapshot`` is populated for epo-al only; ``active_index`` for the
    subgradient algorithm only (None on the final iterate, which takes no
    step).
    """

    iter: int
    jvals: np.ndarray
    minmax: float
    fairness: float
    p_snapshot: np.ndarray | None = None
    active_index: int | None = None


def initial_state(w0: np.ndarray, count: int) -> EpoAlState:
    """Fresh epo-al state: given primal point, uniform dual p = 1/K."""
    return EpoAlState(w=as_model_vector(w0), p=np.full(count, 1.0 / count), iter=0)


def dual_mass(r: np.ndarray, p: np.ndarray) -> float:
    """The conserved quantity sum_k p_k / r_k of the epo-al dual recursion."""
    r = np.asarray(r, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if p.shape != r.shape:
        raise ValueError(f"length mismatch: r has shape {r.shape}, p has shape {p.shape}")
    return float(np.sum(p / r))


def _update(algorithm, w, p, jvals, jac, r, config: SolverConfig, rng):
    """One step from an evaluated iterate: (w+, p+, active index or None)."""
    mu = config.mu
    if algorithm == EPO_AL:
        fairness_grad = lr_apply(r, jvals)
        w_new = w - mu * (jac @ (np.maximum(p, 0.0) + config.eta * fairness_grad))
        return w_new, p + mu * fairness_grad, None
    if algorithm == SUBGRADIENT:
        v = r * jvals
        active = np.flatnonzero(v >= (1.0 - ACTIVE_TIE_RTOL) * v.max())
        k = int(active[rng.integers(active.size)])
        return w - mu * r[k] * jac[:, k], p, k
    v = (r * jvals) / config.tau
    weights = np.exp(v - v.max())
    weights /= weights.sum()
    return w - (mu / config.tau) * (jac @ (weights * r)), p, None


def _step(algorithm, obj, r, w, p, config: SolverConfig, rng=None, iteration=None):
    """One public step: the checks and the evaluation ``run`` makes, then ``_update``."""
    r = _preference_for(r, obj)
    jvals, jac = _evaluate(obj, w, iteration)
    return _update(algorithm, w, p, jvals, jac, r, config, rng)


def epo_al_step(state: EpoAlState, obj: ObjectiveSet, r: np.ndarray,
                mu: float, eta: float) -> EpoAlState:
    """One primal-dual step from ``state``; both updates use the incoming w."""
    w_new, p_new, _ = _step(EPO_AL, obj, r, state.w, state.p, SolverConfig(mu=mu, eta=eta),
                            iteration=state.iter)
    return EpoAlState(w=w_new, p=p_new, iter=state.iter + 1)


def subgradient_step(w: np.ndarray, obj: ObjectiveSet, r: np.ndarray, mu: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One step along the active objective's gradient; returns (w+, active index).

    The active set is every k whose weighted value is within a 1e-9
    relative tolerance of the maximum; the step index is sampled uniformly
    from it.
    """
    w_new, _, k = _step(SUBGRADIENT, obj, r, w, None, SolverConfig(mu=mu), rng)
    return w_new, k


def smoothmax_step(w: np.ndarray, obj: ObjectiveSet, r: np.ndarray,
                   mu: float, tau: float) -> np.ndarray:
    """One gradient step on the soft maximum log sum_k e^{r_k J_k(w) / tau}.

    The soft maximum carries no leading tau factor, so the effective step
    length scales like mu / tau; softmax weights are computed with
    max-subtraction for stability.
    """
    return _step(SMOOTH_MAX, obj, r, w, None, SolverConfig(mu=mu, tau=tau))[0]


def run(algorithm: str, obj: ObjectiveSet, r: np.ndarray, w0: np.ndarray,
        config: SolverConfig, stop_fairness_tol: float | None = None,
        stop_gap_tol: float | None = None) -> list[IterationRecord]:
    """Run ``config.max_iter`` steps and return one record per iterate, 0 included.

    There is no early stopping by default; passing both ``stop_fairness_tol``
    and ``stop_gap_tol`` enables an optional certificate-based termination
    (fairness residual and Pareto stationarity gap both under tolerance),
    and passing only one is a ValueError.
    Traces are deterministic given ``config.seed``.  On divergence the
    raised :class:`DivergenceError` carries the iteration index and, as
    ``records``, the partial trace: every record before the failed iterate.
    """
    records: list[IterationRecord] = []
    try:
        records.extend(_iterates(algorithm, obj, r, w0, config, stop_fairness_tol,
                                 stop_gap_tol))
    except DivergenceError as err:
        err.records = records
        raise
    return records


def _iterates(algorithm, obj, r, w0, config: SolverConfig, stop_fairness_tol=None,
              stop_gap_tol=None):
    """The records of :func:`run`, one evaluation per ``next``; checks run at the first."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == EPO_AL and config.eta is None:
        raise ValueError("epo-al requires config.eta")
    if algorithm == SMOOTH_MAX and config.tau is None:
        raise ValueError("smooth-max requires config.tau")
    if (stop_fairness_tol is None) != (stop_gap_tol is None):
        raise ValueError("early stopping needs both stop_fairness_tol and stop_gap_tol")
    early_stop = stop_fairness_tol is not None

    r = _preference_for(r, obj)
    w = as_model_vector(w0)
    p = np.full(obj.count, 1.0 / obj.count) if algorithm == EPO_AL else None
    rng = np.random.default_rng(config.seed)

    for i in range(config.max_iter + 1):
        jvals, jac = _evaluate(obj, w, i)
        fairness = fairness_residual(r, jvals)

        stop = i == config.max_iter
        if not stop and early_stop and fairness <= stop_fairness_tol:
            stop = pareto_stationarity_gap(jac).gap <= stop_gap_tol

        active = None
        if not stop:
            w_next, p_next, active = _update(algorithm, w, p, jvals, jac, r, config, rng)
        yield IterationRecord(iter=i, jvals=jvals, minmax=minmax_value(r, jvals),
                              fairness=fairness, p_snapshot=p, active_index=active)
        if stop:
            break
        w, p = w_next, p_next
