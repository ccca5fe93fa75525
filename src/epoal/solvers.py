"""Iterative steppers for the weighted min-max problem min_w max_k r_k J_k(w).

Three algorithms behind one lockstep kernel:

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

Each step is w+ = w - step sum_k y_k grad J_k(w) with the algorithm's weights y.  The kernel
steps many configurations together, in span coordinates on the anchor families.  ``_row`` is
the single path of a single configuration, a d-space row: ``run`` (so ``epoal trace`` and the
timing runs) iterates it, the kernel replays it for a configuration that leaves the span, and
each public step is one of its iterates, with ``run``'s checks.
A row diverges at the first iterate that breaks ``core._divergence``, where ``run`` raises.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

import numpy as np

# DivergenceError is re-exported: callers catch it as epoal.solvers.DivergenceError.
from .core import (DivergenceError, ObjectiveSet, _check_non_negative_int,  # noqa: F401
                   _divergence, _evaluate, _preference_for, as_model_vector, fairness_residual,
                   lr_apply)
# pareto_stationarity_gap is re-exported until the perfbench tracer wraps the kernel (ROADMAP
# item 1): the tracer patches it here.
from .diagnostics import pareto_stationarity_gap  # noqa: F401
from .problems import SyntheticProblem, _anchor_parts, _family, _gradients, _model_for

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
        _check_non_negative_int("max_iter", self.max_iter)
        if self.eta is not None and not 0 <= self.eta < math.inf:
            raise ValueError(f"penalty eta must be non-negative and finite, got {self.eta}")
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError(f"temperature tau must be positive and finite, got {self.tau}")
        _check_non_negative_int("seed", self.seed)


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


# The weights of a step, (y, step, p+, subgradient indices or None), from r, J, U = r J,
# M = max U, the epo-al duals P, columns c and seeds: a block's (rows, K) arrays or a row's (K,).
def _epo_al(r, J, U, M, P, c, seeds):
    fairness_grad = lr_apply(r, J, _u=U)
    return np.maximum(P, 0.0) + c.eta * fairness_grad, c.mu, P + c.mu * fairness_grad, None


def _subgradient(r, J, U, M, P, c, seeds):
    # The maximum is in its own tie set whatever its sign.
    tied = U >= ((1.0 - np.copysign(ACTIVE_TIE_RTOL, M)) * M)[:, None]
    k = U.argmax(axis=1)
    # Generator.integers(1) draws nothing, so a row's generator is made at its first tie
    # (default_rng returns a generator as it is).
    if np.count_nonzero(tied) > k.size:
        for j in np.flatnonzero(tied.sum(axis=1) > 1):
            seeds[j], active = np.random.default_rng(seeds[j]), np.flatnonzero(tied[j])
            k[j] = active[seeds[j].integers(active.size)]
            tied[j] = np.arange(r.shape[1]) == k[j]
    return np.where(tied, r, 0.0), c.mu, P, k        # y = r_k e_k: tied holds k alone


def _smooth_max(r, J, U, M, P, c, seeds):
    # M / tau is max U / tau: rounding is monotonic.
    weights = np.exp(U / c.tau - M[..., None] / c.tau)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights * r, c.mu / c.tau, P, None


_WEIGHTS = {EPO_AL: _epo_al, SUBGRADIENT: _subgradient, SMOOTH_MAX: _smooth_max}
_Columns = namedtuple("_Columns", "mu eta tau")


def _subgradient_row(r, J, U, M, p, c, seeds):
    # A row's scalar active index k: its step forms gradient k alone and reads y_k = r_k.
    k = U.argmax()
    tied = U >= (1.0 - math.copysign(ACTIVE_TIE_RTOL, M)) * M
    if np.count_nonzero(tied) > 1:
        seeds[0], active = np.random.default_rng(seeds[0]), np.flatnonzero(tied)
        k = active[seeds[0].integers(active.size)]
    return r, c.mu, p, k


_ROW_WEIGHTS = {**_WEIGHTS, SUBGRADIENT: _subgradient_row}


def epo_al_step(state: EpoAlState, obj: ObjectiveSet, r: np.ndarray,
                mu: float, eta: float) -> EpoAlState:
    """One primal-dual step from ``state``; both updates use the incoming w."""
    config = SolverConfig(mu, eta, max_iter=state.iter + 1)
    *_, w_new, p_new = next(_row(EPO_AL, obj, r, state.w, config, state.p, i=state.iter))
    return EpoAlState(w=w_new, p=p_new, iter=state.iter + 1)


def subgradient_step(w: np.ndarray, obj: ObjectiveSet, r: np.ndarray, mu: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One step along the active objective's gradient; returns (w+, active index).

    The active set is every k whose weighted value is within a 1e-9
    relative tolerance of the maximum; the step index is sampled uniformly
    from it.
    """
    *_, k, w_new, _ = next(_row(SUBGRADIENT, obj, r, w, SolverConfig(mu, max_iter=1),
                                seeds=[rng]))
    return w_new, int(k)


def smoothmax_step(w: np.ndarray, obj: ObjectiveSet, r: np.ndarray,
                   mu: float, tau: float) -> np.ndarray:
    """One gradient step on the soft maximum log sum_k e^{r_k J_k(w) / tau}.

    The soft maximum carries no leading tau factor, so the effective step
    length scales like mu / tau; softmax weights are computed with
    max-subtraction for stability.
    """
    return next(_row(SMOOTH_MAX, obj, r, w, SolverConfig(mu, tau=tau, max_iter=1)))[5]


def run(algorithm: str, obj: ObjectiveSet, r: np.ndarray, w0: np.ndarray,
        config: SolverConfig) -> list[IterationRecord]:
    """Run ``config.max_iter`` steps and return one record per iterate, 0 included.

    Traces are deterministic given ``config.seed``.  On divergence (the kernel's
    rule, ``core._divergence``) the raised :class:`DivergenceError` carries the
    iteration index, the iterate and, as ``records``, every record before it.
    """
    records: list[IterationRecord] = []
    try:
        for i, J, M, p, k, _, _ in _row(algorithm, obj, r, w0, config):
            records.append(IterationRecord(
                iter=i, jvals=J, minmax=float(M), fairness=fairness_residual(r, J),
                p_snapshot=p if algorithm == EPO_AL else None,
                active_index=None if k is None else int(k)))
    except DivergenceError as err:
        err.records = records
        raise
    return records


# Iterate i of grid rows ``rows``: min-max (B,), values J (B, K), duals P ((B, 0) unless
# epo-al), subgradient steps (None at the end), errors of rows that left at i.
_Block = namedtuple("_Block", "i rows minmax J P active diverged")


def _screened(m, S, P, limit):
    """Whether a row cannot break the divergence rule: largest |U| m < limit, finite sums of S
    and of the duals P.  S is the gradient stack, or a synthetic row's w with m its max U: then
    a convex gradient is a difference over a root >= 1, and a gaussian one 2 e^-s (w - a) has
    |w - a| <= sqrt(s) or is 0 where s overflows."""
    return (m < limit and math.isfinite(np.add.reduce(S, None))
            and math.isfinite(np.add.reduce(P, None)))


def _checked(algorithm, trials):
    """The objectives, preferences, starts and configurations of ``trials``, each checked, and
    K and the divergence screen's limit: the argument checks of every kernel pass."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    configs = [c for *_, cs in trials for c in cs]
    needs = {EPO_AL: "eta", SMOOTH_MAX: "tau"}.get(algorithm)
    if needs and any(getattr(c, needs) is None for c in configs):
        raise ValueError(f"{algorithm} requires config.{needs}")
    objs = [obj for obj, *_ in trials]
    K, rs = objs[0].count, [_preference_for(r, obj) for obj, r, *_ in trials]
    w0s = [_model_for(w0, obj) for obj, _, w0, _ in trials]
    if any(obj.count != K for obj in objs) or any(w0.size != w0s[0].size for w0 in w0s):
        raise ValueError("the trials of one kernel pass must share K and d")
    # |r_k J_k| < limit bounds the fairness residual by 4 K limit^2 = max / 2, so it is finite.
    return objs, rs, w0s, configs, K, math.sqrt(np.finfo(np.float64).max / (8 * K))


def _moved(w, parts, y, step, k):
    """w - step sum_k y_k grad J_k(w) from the gradients' parts, gradient k alone if given."""
    return (w - step * np.matmul(y[None, :], _gradients(*parts))[0] if k is None
            else w - step * y[k] * _gradients(*parts, k))


def _row(algorithm, obj, r, w, config, p=None, seeds=None, i=0, limit=None):
    """One configuration in row arithmetic: (i, J, max r J, p, subgradient step or None, w+, p+)
    for each iterate from i to max_iter, p empty unless epo-al, until one breaks the divergence
    rule (DivergenceError).  Without a limit it checks its arguments and a given p of shape (K,);
    a p or seeds not given start uniform and at config.seed."""
    if limit is None:
        (obj,), (r,), (w,), _, K, limit = _checked(algorithm, [(obj, r, w, [config])])
        if algorithm == EPO_AL and p is not None and np.shape(p) != (K,):
            raise ValueError(f"dual p has shape {np.shape(p)}, objective set has K={K}")
    p = np.full(r.size if algorithm == EPO_AL else 0, 1.0 / r.size) if p is None else p
    seeds = [config.seed] if seeds is None else seeds
    weights, last = _ROW_WEIGHTS[algorithm], config.max_iter
    A = obj.anchors if isinstance(obj, SyntheticProblem) else None
    for i in range(i, last + 1):
        if A is not None:
            J, *parts = _anchor_parts(obj.kind, A, w)
        else:
            J, jac = _evaluate(obj, w)
            J, parts = np.array(J, dtype=np.float64), (np.array(jac, dtype=np.float64).T,
                                                       None, None)
        U = r * J
        M = np.maximum.reduce(U)
        if not (_screened(M, w, p, limit) if A is not None
                else _screened(np.maximum.reduce(np.abs(U)), parts[0], p, limit)):
            if broken := _divergence(r, J, _gradients(*parts), p)[0]:
                raise DivergenceError(broken, i, w)
        w_next, p_next, k = w, p, None
        if i < last:
            y, step, p_next, k = weights(r, J, U, M, p, config, seeds)
            w_next = _moved(w, parts, y, step, k)
        yield i, J, M, p, k, w_next, p_next
        w, p = w_next, p_next


def _span_values(kind, G, dg, Z):
    """Values J (R, K) of ``kind``'s family, and its gradient's scale and op, at span rows Z on
    Gram matrices G (R, K+1, K+1): s_k = z^T G z - 2 (G z)_k + dg_k, clamped at 0."""
    V = np.einsum("rij,rj->ri", G, Z)
    return _family(kind, np.maximum(np.einsum("ri,ri->r", Z, V)[:, None] - 2.0 * V[:, 1:] + dg,
                                    0.0))


def _lockstep(algorithm, trials):
    """Advance the configurations of ``trials``, ``(obj, r, w0, configs)`` with one K, d and
    max_iter, together: round i steps iterate i of every live row (row j the j-th configuration
    in trial order) and yields one _Block.  A row leaves at the first iterate that breaks
    ``core._divergence``, where ``run`` stops.

    Synthetic problems of one kind step in span coordinates: a row holds z, w = B^T z on its
    trial's basis B = [w0; anchors], so a step w+ = w - step sum_k y_k c_k (w - a_k) is
    z+ = (1 - sum g) z + [0; g] with g = step y c, and ||w - a_k||^2 comes from Gamma = B B^T,
    formed once a trial.  A row failing the screen at iterate i (values not finite or near
    overflow, duals without a finite sum, a z whose span sums could overflow) is replayed as its
    configuration's own d-space :func:`_row` from w0, which passes on its iterates from i: from
    there the row is ``run``'s, bit for bit, and leaves, or keeps going, where ``run`` does.
    Other passes' rows are such rows from iterate 0.  A replay that raises before i (``run``
    diverging before the span row left) leaves at round i with ``run``'s iteration index.
    """
    objs, rs, w0s, configs, K, limit = _checked(algorithm, trials)
    last, weights = configs[0].max_iter, _WEIGHTS[algorithm]
    trial = np.repeat(np.arange(len(trials)), [len(cs) for *_, cs in trials])

    def replayed(j, i):
        t = trial[j]
        return j, islice(_row(algorithm, objs[t], rs[t], w0s[t], configs[j], limit=limit), i, None)

    P0 = np.full(K if algorithm == EPO_AL else 0, 1.0 / K)
    if not all(isinstance(obj, SyntheticProblem) and obj.kind == objs[0].kind for obj in objs):
        loose = [replayed(j, 0) for j in range(trial.size)]
        empty = (np.arange(0), np.empty((0, K)), np.empty(0), np.tile(P0, (0, 1)), np.arange(0))
        yield from (_joined(i, empty, loose) for i in range(last + 1) if loose)
        return
    Gammas = np.array([np.einsum("id,jd->ij", B, B)
                       for B in (np.vstack([w0, obj.anchors]) for obj, w0 in zip(objs, w0s))])
    # No span sum can overflow while z's entries stay below zlim.
    zlim = math.sqrt(np.finfo(np.float64).max / (8 * np.max(np.abs(Gammas)))) / (K + 1)
    # The live rows, one table that one mask filters: grid index (into configs), z, r, dual,
    # Gamma, its diagonal, seed (a generator from its first tie) and mu, eta and tau.
    rows, Z = np.arange(trial.size), np.eye(1, K + 1).repeat(trial.size, axis=0)
    r, P, G, loose = np.array(rs)[trial], np.tile(P0, (trial.size, 1)), Gammas[trial], []
    dg, seeds = G.diagonal(axis1=1, axis2=2)[:, 1:], np.array([f.seed for f in configs], object)
    c = _Columns(*np.array([(f.mu, f.eta, f.tau) for f in configs], float).T[:, :, None])
    for i in range(last + 1):
        if not (rows.size or loose):
            return
        J, scale, op = _span_values(objs[0].kind, G, dg, Z)
        U = r * J
        M = np.maximum.reduce(U, axis=1)
        if not (np.maximum.reduce(M, initial=-math.inf) < limit
                and np.maximum.reduce(np.abs(Z), None, initial=0.0) < zlim
                and math.isfinite(np.add.reduce(P, None))):
            ok = ((M < limit) & (np.maximum.reduce(np.abs(Z), axis=1) < zlim)
                  & np.isfinite(np.add.reduce(P, axis=1)))
            loose = sorted(loose + [replayed(j, i) for j in rows[~ok]], key=lambda e: e[0])
            rows, Z, r, P, G, dg, seeds, J, scale, U, M, *H = (
                a[ok] for a in (rows, Z, r, P, G, dg, seeds, J, scale, U, M, *c))
            c = _Columns(*H)
        P_next, active = P, None
        if i < last:
            y, step, P_next, active = weights(r, J, U, M, P, c, seeds)
            g = op(step * y, scale)
            Z = (1.0 - np.add.reduce(g, axis=1))[:, None] * Z
            Z[:, 1:] += g
        yield _joined(i, (rows, J, M, P, active), loose)
        P = P_next


def _joined(i, span, loose):
    """The _Block of round i: the span rows' (rows, J, minmax, P, active), then the next
    iterate of each ``(row, generator)`` of ``loose``; a generator that raises leaves."""
    out, diverged = [], []
    for entry in list(loose):
        try:
            out.append((entry[0], *next(entry[1])[1:5]))
        except DivergenceError as err:
            diverged.append(err)
            loose.remove(entry)
    rows, J, M, P, active = span
    if out:
        j, J_, M_, P_, k = zip(*out)
        rows, J, M, P = (np.concatenate([a, b]) for a, b in ((rows, j), (J, J_), (M, M_), (P, P_)))
        active = None if k[0] is None else np.concatenate([active, k])
    return _Block(i, rows, M, J, P, active, diverged)
