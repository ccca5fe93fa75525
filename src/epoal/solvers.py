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

The kernel advances C configurations of one algorithm together as a (C, d)
iterate stack, one objective/jacobian evaluation per configuration and
iteration; the configurations may belong to several trials of one (K, d), each
row with its trial's objectives, preference and start.  ``run`` is the kernel on
one configuration and shares each evaluation with that iterate's trace record.
A configuration diverges at the first iterate that breaks ``core._divergence``:
its kernel row leaves there, and there ``run`` and the public steps raise
DivergenceError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# DivergenceError is re-exported: callers catch it as epoal.solvers.DivergenceError.
from .core import (DivergenceError, ObjectiveSet, _divergence, _evaluate,  # noqa: F401
                   _preference_for, as_model_vector, fairness_residual, lr_apply)
from .diagnostics import pareto_stationarity_gap
from .problems import _EVALUATORS, SyntheticProblem

EPO_AL = "epo-al"
SUBGRADIENT = "subgradient"
SMOOTH_MAX = "smooth-max"
ALGORITHMS = (EPO_AL, SUBGRADIENT, SMOOTH_MAX)

# Relative tolerance used to detect ties among weighted objective values.
ACTIVE_TIE_RTOL = 1e-9

# Byte budget of one row block's (rows, K, d) array in the lockstep kernel; a round holds
# about four.  Blocks this small measured no slower than larger ones, in far less memory.
_BLOCK_BYTES = 1 << 18


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


def _update(algorithm, r, W, P, J, U, M, G, H, rngs):
    """One step of each row b of a block: (W+, P+, subgradient indices or None).

    Row b: preference r, or r[b] for a (B, K) stack, iterate W[b], dual P[b], values J[b],
    U[b] = r * J[b], M[b] = max U[b], gradients G[b] (row k that of J_k), H[b] = (mu, eta, tau),
    rngs[b]; the scalar step's ops, bit for bit.
    """
    if algorithm == EPO_AL:
        fairness_grad = lr_apply(r, J, _u=U)
        Y = np.maximum(P, 0.0) + H[:, 1] * fairness_grad
        return W - H[:, 0] * np.matmul(Y[:, None, :], G)[:, 0], P + H[:, 0] * fairness_grad, None
    if algorithm == SUBGRADIENT:
        tied = U >= (1.0 - ACTIVE_TIE_RTOL) * M[:, None]
        k = U.argmax(axis=1)
        # Generator.integers(1) draws nothing, so only rows with a tie use their stream.
        if np.count_nonzero(tied) > k.size:
            for b in np.flatnonzero(tied.sum(axis=1) > 1):
                active = np.flatnonzero(tied[b])
                k[b] = active[rngs[b].integers(active.size)]
        rows = np.arange(k.size)
        r_k = r[k] if r.ndim == 1 else r[rows, k]
        return W - H[:, 0] * r_k[:, None] * G[rows, k], P, k
    V = U / H[:, 2]
    weights = np.exp(V - M[:, None] / H[:, 2])    # M / tau is max V: rounding is monotonic
    weights /= np.add.reduce(weights, axis=1, keepdims=True)
    return W - (H[:, 0] / H[:, 2]) * np.matmul((weights * r)[:, None, :], G)[:, 0], P, None


def _columns(configs):
    """The (C, 3, 1) hyperparameter columns (mu, eta, tau), NaN for None."""
    return np.array([(c.mu, c.eta, c.tau) for c in configs], dtype=np.float64)[:, :, None]


def _step(algorithm, obj, r, w, p, config: SolverConfig, rng=None, iteration=None):
    """One public step: the checks and the evaluation ``run`` makes, then ``_update``."""
    r = _preference_for(r, obj)
    jvals, jac = _evaluate(obj, w)
    P = np.empty((1, 0)) if p is None else p[None]
    if broken := _divergence(r, jvals, jac, P)[0]:
        raise DivergenceError(broken, iteration=iteration, iterate=w)
    U = (r * jvals)[None]
    W, P, k = _update(algorithm, r, np.asarray(w)[None], P, jvals[None], U, U.max(axis=1),
                      jac.T[None], _columns([config]), [rng])
    return W[0], None if p is None else P[0], None if k is None else int(k[0])


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
    and ``stop_gap_tol`` stops once the fairness residual and the Pareto
    stationarity gap are both under tolerance (passing one is a ValueError).
    Traces are deterministic given ``config.seed``.  On divergence (the kernel's
    rule, ``core._divergence``) the raised :class:`DivergenceError` carries the
    iteration index, the iterate and, as ``records``, every record before it.
    """
    if (stop_fairness_tol is None) != (stop_gap_tol is None):
        raise ValueError("early stopping needs both stop_fairness_tol and stop_gap_tol")
    records: list[IterationRecord] = []
    try:
        for block in _lockstep(algorithm, [(obj, r, w0, [config])]):
            if block.diverged:
                raise block.diverged[0]
            minmax, fairness = float(block.minmax[0]), fairness_residual(r, block.J[0])
            stop = block.i == config.max_iter
            if not stop and stop_fairness_tol is not None and fairness <= stop_fairness_tol:
                stop = pareto_stationarity_gap(block.G[0].T).gap <= stop_gap_tol
            records.append(IterationRecord(
                iter=block.i, jvals=block.J[0], minmax=minmax, fairness=fairness,
                p_snapshot=block.P[0] if algorithm == EPO_AL else None,
                active_index=None if stop or block.active is None else int(block.active[0])))
            if stop:
                break
    except DivergenceError as err:
        err.records = records
        raise
    return records


# Iterate i of grid rows ``rows``: min-max (B,), values J (B, K), gradients G (B, K, d), duals
# P ((B, 0) unless epo-al), subgradient steps (None at the end), errors of rows that left at i.
_Block = namedtuple("_Block", "i rows minmax J G P active diverged")


def _evaluate_block(obj, W, anchors):
    """Values (B, K) and gradients (B, K, d) of a block of iterates W (B, d): those of
    ``obj``, or, given a (B, K, d) stack of ``anchors``, row b's those of obj's kind of
    problem on anchors[b]."""
    if anchors is not None:
        J, jacs = _EVALUATORS[obj.kind](anchors, W)
    elif isinstance(obj, SyntheticProblem):
        J, jacs = obj.values_and_jacobian(W)      # the whole block as stacks
    else:
        J, jacs = np.empty((len(W), obj.count)), np.empty((len(W), W.shape[1], obj.count))
        for b, w in enumerate(W):
            J[b], jacs[b] = _evaluate(obj, w)
    return J, jacs.swapaxes(1, 2)


def _lockstep(algorithm, trials):
    """Advance the configurations of ``trials`` together, row j the j-th in trial order.

    ``trials`` holds ``(obj, r, w0, configs)`` tuples with one K, d and max_iter.  Round i
    evaluates and steps iterate i of every live row, with its trial's objectives and r and its
    own generator, in row blocks whose (rows, K, d) arrays fit in ``_BLOCK_BYTES``, yielding a
    _Block for each.  A block spans trials only when all are synthetic problems of one kind; it
    then stacks its rows' anchors and r, when it forms and when rows leave it.  A row leaves at
    the first iterate that breaks ``core._divergence``, where ``run`` stops; only a block that
    fails a whole-block screen (finite sums of G and of P, weighted values inside +-limit) is
    ruled by row.  A finite sum has finite terms; one that overflows goes to the row rule.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    configs = [c for *_, cs in trials for c in cs]
    needs = {EPO_AL: "eta", SMOOTH_MAX: "tau"}.get(algorithm)
    if needs and any(getattr(c, needs) is None for c in configs):
        raise ValueError(f"{algorithm} requires config.{needs}")
    objs = [obj for obj, *_ in trials]
    rs = [_preference_for(r, obj) for obj, r, *_ in trials]
    w0s = [as_model_vector(w0) for *_, w0, _ in trials]
    for obj, w0 in zip(objs, w0s):
        if isinstance(obj, SyntheticProblem) and w0.size != obj.d:
            raise ValueError(f"model of size {w0.size}, objective set has d={obj.d}")
    C, K, d, last = len(configs), objs[0].count, w0s[0].size, configs[0].max_iter
    if any(obj.count != K for obj in objs) or any(w0.size != d for w0 in w0s):
        raise ValueError("the trials of one kernel pass must share K and d")
    rs, w0s = np.array(rs), np.array(w0s)
    # |r_k J_k| < limit bounds the fairness residual by 4 K limit^2 = max / 2, so it is finite.
    limit = math.sqrt(np.finfo(np.float64).max / (8 * K))
    counts = [len(cs) for *_, cs in trials]
    trial = np.repeat(np.arange(len(trials)), counts)
    # Row state: grid index, iterate, epo-al dual (no columns otherwise), hyperparameters, rng.
    state = (np.arange(C), w0s[trial],
             np.full((C, K if algorithm == EPO_AL else 0), 1.0 / K), _columns(configs),
             [np.random.default_rng(c.seed) for c in configs])
    size = max(1, _BLOCK_BYTES // (8 * K * d))
    stacks = all(isinstance(obj, SyntheticProblem) and obj.kind == objs[0].kind for obj in objs)
    # Blocks of ``size`` rows, cut at each trial's end too unless the trials' anchors stack.
    bounds = sorted({*range(0, C, size), C, *(() if stacks else np.cumsum(counts).tolist())})
    blocks = []
    for s, e in zip(bounds, bounds[1:]):
        t = trial[s:e]
        # Block source: its trial's objectives, then r and anchors (None), or its rows' stacks.
        source = ([objs[t[0]], rs[t[0]], None] if t[0] == t[-1] else
                  [objs[t[0]], rs[t], np.array([objs[k].anchors for k in t])])
        blocks.append([a[s:e] for a in state] + source)
    for i in range(last + 1):
        for n, (rows, W, P, H, gens, obj, r, A) in enumerate(blocks):
            J, G = _evaluate_block(obj, W, A)
            U = r * J
            M = np.maximum.reduce(U, axis=1)
            diverged = []
            if not (np.maximum.reduce(np.abs(U), axis=None) < limit
                    and np.isfinite(np.add.reduce(G, axis=None))
                    and (not P.size or np.isfinite(np.add.reduce(P, axis=None)))):
                broken = [_divergence(r_b, *row)[0]
                          for r_b, *row in zip(np.broadcast_to(r, U.shape), J, G, P)]
                diverged = [DivergenceError(m, i, w) for m, w in zip(broken, W) if m]
                ok = np.array([m is None for m in broken])
                rows, W, P, H, J, G, U, M = (a[ok] for a in (rows, W, P, H, J, G, U, M))
                gens = [g for g, keep in zip(gens, ok) if keep]
                if A is not None:
                    r, A = r[ok], A[ok]
            W_next, P_next, active = ((W, P, None) if i == last
                                      else _update(algorithm, r, W, P, J, U, M, G, H, gens))
            blocks[n] = [rows, W_next, P_next, H, gens, obj, r, A]
            yield _Block(i, rows, M, J, G, P, active, diverged)
        blocks = [block for block in blocks if block[4]]
        if not blocks:
            return
