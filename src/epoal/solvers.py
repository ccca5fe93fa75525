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
iteration; the configurations may belong to several trials of one synthetic
kind and (K, d), each row with its trial's anchors, preference and start.
``run`` is the kernel on one configuration and shares each evaluation with that
iterate's trace record.
A configuration diverges at the first iterate that breaks ``core._divergence``:
its kernel row leaves there, and there ``run`` and the public steps raise
DivergenceError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress

import numpy as np

# DivergenceError is re-exported: callers catch it as epoal.solvers.DivergenceError.
from .core import (DivergenceError, ObjectiveSet, _divergence, _evaluate,  # noqa: F401
                   _preference_for, as_model_vector, fairness_residual, lr_apply)
# pareto_stationarity_gap is re-exported until the perfbench tracer wraps the kernel (ROADMAP
# item 1): the tracer patches it here.
from .diagnostics import pareto_stationarity_gap  # noqa: F401
from .problems import SyntheticProblem, _anchor_values

EPO_AL = "epo-al"
SUBGRADIENT = "subgradient"
SMOOTH_MAX = "smooth-max"
ALGORITHMS = (EPO_AL, SUBGRADIENT, SMOOTH_MAX)

# Relative tolerance used to detect ties among weighted objective values.
ACTIVE_TIE_RTOL = 1e-9

# Byte budget of one row block's (rows, K, d) array in the lockstep kernel; a round holds
# about four.  Not the fastest size for every pass: a C7 cell's ten target scans at K=16
# (100 rows, d=50, 1000 iterations) took 556 ms in blocks of this size against 445 ms at
# 4 MiB (median of 3 on a shared 2-vCPU host), while at K=2 larger blocks gained nothing.
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


# A step of each block row j: (W+, P+, subgradient indices or None) from W[j], P[j], J[j], U[j]
# = r[j] J[j], M[j] = max U[j], G[j] (row k that of J_k), columns c and seeds, bit for bit.
def _epo_al(r, W, P, J, U, M, G, c, seeds):
    fairness_grad = lr_apply(r, J, _u=U)
    Y = np.maximum(P, 0.0) + c.eta * fairness_grad
    return W - c.mu * np.matmul(Y[:, None, :], G)[:, 0], P + c.mu * fairness_grad, None


def _subgradient(r, W, P, J, U, M, G, c, seeds):
    tied = U >= (1.0 - ACTIVE_TIE_RTOL) * M[:, None]
    k = U.argmax(axis=1)
    # Generator.integers(1) draws nothing, so a row's generator is made at its first tie
    # (default_rng returns a generator as it is).
    if np.count_nonzero(tied) > k.size:
        for j in np.flatnonzero(tied.sum(axis=1) > 1):
            seeds[j], active = np.random.default_rng(seeds[j]), np.flatnonzero(tied[j])
            k[j] = active[seeds[j].integers(active.size)]
    return W - c.mu * r[c.at, k][:, None] * G[c.at, k], P, k


def _smooth_max(r, W, P, J, U, M, G, c, seeds):
    # M / tau is max U / tau: rounding is monotonic.
    weights = np.exp(U / c.tau - M[:, None] / c.tau)
    weights /= np.add.reduce(weights, axis=1, keepdims=True)
    return W - c.mu_tau * np.matmul((weights * r)[:, None, :], G)[:, 0], P, None


_UPDATES = {EPO_AL: _epo_al, SUBGRADIENT: _subgradient, SMOOTH_MAX: _smooth_max}
_Columns = namedtuple("_Columns", "mu eta tau mu_tau at")


def _columns(configs):
    """(B, 1) columns mu, eta, tau (NaN for None), mu / tau of ``configs``; positions 0..B-1."""
    H = np.array([(c.mu, c.eta, c.tau) for c in configs], dtype=np.float64).reshape(-1, 3)
    return _Columns(*H.T[:, :, None], H[:, :1] / H[:, 2:], np.arange(len(H)))


def _step(algorithm, obj, r, w, p, config: SolverConfig, rng=None, iteration=None):
    """One public step: the checks and the evaluation ``run`` makes, then the update."""
    r = _preference_for(r, obj)
    jvals, jac = _evaluate(obj, w)
    P = np.empty((1, 0)) if p is None else p[None]
    if broken := _divergence(r, jvals, jac, P)[0]:
        raise DivergenceError(broken, iteration=iteration, iterate=w)
    U = (r * jvals)[None]
    W, P, k = _UPDATES[algorithm](r[None], np.asarray(w)[None], P, jvals[None], U,
                                  U.max(axis=1), jac.T[None], _columns([config]), [rng])
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
        config: SolverConfig) -> list[IterationRecord]:
    """Run ``config.max_iter`` steps and return one record per iterate, 0 included.

    Traces are deterministic given ``config.seed``.  On divergence (the kernel's
    rule, ``core._divergence``) the raised :class:`DivergenceError` carries the
    iteration index, the iterate and, as ``records``, every record before it.
    """
    records: list[IterationRecord] = []
    for block in _lockstep(algorithm, [(obj, r, w0, [config])]):
        if block.diverged:
            block.diverged[0].records = records
            raise block.diverged[0]
        records.append(IterationRecord(
            iter=block.i, jvals=block.J[0], minmax=float(block.minmax[0]),
            fairness=fairness_residual(r, block.J[0]),
            p_snapshot=block.P[0] if algorithm == EPO_AL else None,
            active_index=None if block.active is None else int(block.active[0])))
    return records


# Iterate i of grid rows ``rows``: min-max (B,), values J (B, K), duals P ((B, 0) unless
# epo-al), subgradient steps (None at the end), errors of rows that left at i.
_Block = namedtuple("_Block", "i rows minmax J P active diverged")


def _evaluate_block(obj, W, A):
    """Values (B, K) and gradients (B, K, d) at iterates W (B, d) of ``obj``, or of its kind on
    anchors A, (K, d) or the rows' (B, K, d)."""
    if A is not None:
        return _anchor_values(obj.kind, A, W)
    J, jacs = zip(*(_evaluate(obj, w) for w in W))
    return np.array(J, dtype=np.float64), np.array(jacs, dtype=np.float64).swapaxes(1, 2)


def _screened(U, S, P, limit):
    """Whether no row of a block breaks the divergence rule: weighted values U inside +-limit
    and finite sums of S and of the duals P (an overflowing sum goes to the row rule).  S is G,
    or a synthetic block's iterates W: with finite values and iterates, a convex gradient is a
    finite difference over a root >= 1, a gaussian one 2 e^-s (w - a) has |w - a| <= sqrt(s)
    or is 0 where s = ||w - a||^2 overflows."""
    return (np.maximum.reduce(np.abs(U), axis=None) < limit
            and np.isfinite(np.add.reduce(S, axis=None))
            and (not P.size or np.isfinite(np.add.reduce(P, axis=None))))


def _lockstep(algorithm, trials):
    """Advance the configurations of ``trials`` together, row j the j-th in trial order.

    ``trials`` holds ``(obj, r, w0, configs)`` tuples with one K, d and max_iter; a pass of
    several trials takes synthetic problems of one kind.  Round i evaluates and steps iterate i
    of every live row, with its trial's objectives, its own preference row and seed, in
    blocks of consecutive rows whose (rows, K, d) arrays fit in ``_BLOCK_BYTES``, yielding a
    _Block for each.  A block of one trial evaluates its objectives; one spanning trials stacks
    its rows' anchors.  A row leaves at the first iterate that breaks ``core._divergence``,
    where ``run`` stops; only a block that fails :func:`_screened` is ruled by row.
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
    if len(trials) > 1 and not all(isinstance(obj, SyntheticProblem)
                                   and obj.kind == objs[0].kind for obj in objs):
        raise ValueError("the trials of one kernel pass must be synthetic problems of one kind")
    # |r_k J_k| < limit bounds the fairness residual by 4 K limit^2 = max / 2, so it is finite.
    limit = math.sqrt(np.finfo(np.float64).max / (8 * K))
    trial = np.repeat(np.arange(len(trials)), [len(cs) for *_, cs in trials])
    # Row state: grid index, iterate, preference, epo-al dual (no columns otherwise),
    # configuration, seed (a row's generator from its first tie on).
    state = (np.arange(C), np.array(w0s)[trial], np.array(rs)[trial],
             np.full((C, K if algorithm == EPO_AL else 0), 1.0 / K), configs,
             [c.seed for c in configs])
    size, update, blocks = max(1, _BLOCK_BYTES // (8 * K * d)), _UPDATES[algorithm], []
    for s in range(0, C, size):
        rows, W, r, P, cs, seeds = (a[s:s + size] for a in state)
        t, obj = trial[rows], objs[trial[s]]
        A = (None if not isinstance(obj, SyntheticProblem) else obj.anchors if t[0] == t[-1]
             else np.array([objs[k].anchors for k in t]))
        blocks.append([rows, W, r, P, cs, _columns(cs), seeds, obj, A])
    for i in range(last + 1):
        for n, (rows, W, r, P, cs, c, seeds, obj, A) in enumerate(blocks):
            J, G = _evaluate_block(obj, W, A)
            U = r * J
            M = np.maximum.reduce(U, axis=1)
            diverged = []
            if not _screened(U, G if A is None else W, P, limit):
                broken = [_divergence(*row)[0] for row in zip(r, J, G, P)]
                diverged = [DivergenceError(m, i, w) for m, w in zip(broken, W) if m]
                ok = np.array([m is None for m in broken])
                rows, W, r, P, J, G, U, M = (a[ok] for a in (rows, W, r, P, J, G, U, M))
                cs, seeds = list(compress(cs, ok)), list(compress(seeds, ok))
                c, A = _columns(cs), (A if A is None or A.ndim == 2 else A[ok])
            W_next, P_next, active = ((W, P, None) if i == last
                                      else update(r, W, P, J, U, M, G, c, seeds))
            blocks[n] = [rows, W_next, r, P_next, cs, c, seeds, obj, A]
            yield _Block(i, rows, M, J, P, active, diverged)
        blocks = [block for block in blocks if block[0].size]
        if not blocks:
            return
