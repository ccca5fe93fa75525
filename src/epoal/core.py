"""Core types and scalar diagnostics for weighted min-max optimization.

The central object is the K x K positive semi-definite operator

    L_r = diag(r) (I - (1/K) 1 1^T) diag(r)

built from a strictly positive preference vector r.  Its quadratic form
J^T L_r J measures how far the weighted objectives r_k * J_k are from
being all equal, and its nullspace contains the elementwise inverse
r^{-1}.  Solvers only ever need matrix-vector products with L_r, which
cost O(K) and never materialize the dense matrix.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod

import numpy as np


def as_model_vector(w) -> np.ndarray:
    """Validate and return a model vector as a 1-d float64 array.

    Raises ValueError if empty or not all entries are finite.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"model vector must be 1-d with d >= 1, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("model vector contains non-finite entries")
    return w


def as_preference(r) -> np.ndarray:
    """Validate preference weights: 1-d, non-empty, strictly positive, finite.

    A single weight is accepted, so degenerate single-objective problems
    stay usable; benchmark-facing generators require K >= 2 themselves.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise ValueError(f"preference must be 1-d with K >= 1, got shape {r.shape}")
    if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
        raise ValueError("preference weights must be strictly positive and finite")
    return r


class DivergenceError(RuntimeError):
    """An evaluated iterate broke the divergence rule of :func:`_divergence`.

    Carries the iteration index and the iterate at which the rule broke
    and, when raised from a solver run, the records collected so far.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 iterate: np.ndarray | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.iterate = iterate
        self.records: list = []


class ObjectiveSet(ABC):
    """A collection of K positive differentiable objectives.

    Implementations must be pure functions of the model vector: repeated
    calls with the same ``w`` return identical results, and instances are
    safe to share across threads.
    """

    @property
    @abstractmethod
    def count(self) -> int:
        """Number of objectives K."""

    @abstractmethod
    def values_and_jacobian(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values, shape (K,), and gradient matrix, shape (d, K), column k for J_k."""


def _check_non_negative_int(name, value) -> None:
    """ValueError naming ``name`` unless ``value`` is a non-negative integer (numpy ints too)."""
    try:
        ok = operator.index(value) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _preference_for(r, obj: ObjectiveSet) -> np.ndarray:
    """``as_preference(r)``, also rejecting a length other than ``obj.count``."""
    r = as_preference(r)
    if r.size != obj.count:
        raise ValueError(f"preference has {r.size} weights, objective set has K={obj.count}")
    return r


def _evaluate(obj: ObjectiveSet, w) -> tuple[np.ndarray, np.ndarray]:
    """Values and jacobian at ``w``; ValueError unless their shapes are (K,) and (d, K), d the
    size of ``w`` (an O(1) check that catches a ``w`` the objectives silently broadcast)."""
    jvals, jac = obj.values_and_jacobian(w)
    K, d = obj.count, len(w)
    if jvals.shape != (K,) or jac.shape != (d, K):
        raise ValueError(f"objectives returned shapes {jvals.shape} and {jac.shape} at a "
                         f"model of size {d}, expected ({K},) and ({d}, {K})")
    return jvals, jac


def _divergence(r: np.ndarray, jvals, jac, p=()) -> tuple[str | None, float]:
    """(First rule an evaluated iterate breaks or None, fairness residual or NaN): values or
    gradients not finite; min-max value or residual not finite (r * J can overflow where J is
    finite; the residual is finite only if every r_k J_k is); epo-al dual ``p`` not finite."""
    if not (np.isfinite(jvals).all() and np.isfinite(jac).all()):
        return "objective evaluation produced non-finite values", math.nan
    fairness = fairness_residual(r, jvals)
    if not math.isfinite(fairness):
        return "weighted min-max value or fairness residual is not finite", fairness
    return (None if np.isfinite(p).all() else "epo-al dual weights are not finite"), fairness


def lr_apply(r: np.ndarray, v: np.ndarray, *, _u=None) -> np.ndarray:
    """Matrix-free product L_r v in O(K) arithmetic, for each row of a (..., K) stack v.

    ``r`` is one (K,) preference or a (..., K) stack of them, each row applied to the
    matching row of v, as the solver kernel does for rows of different trials.
    Uses the identity L_r v = r * (u - mean(u)) with u = r * v, so no
    K x K matrix is ever formed; the mean is taken as sum / K, as ``np.mean`` does.
    ``_u`` is for the solver kernel's own use: the product r * v it has already formed.
    """
    r = np.asarray(r, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != r.shape[-1:]:
        raise ValueError(f"length mismatch: r has shape {r.shape}, v has shape {v.shape}")
    u = r * v if _u is None else _u
    return r * (u - np.add.reduce(u, axis=-1, keepdims=True) / u.shape[-1])


def fairness_residual(r: np.ndarray, jvals: np.ndarray) -> float:
    """Quadratic form J^T L_r J, zero iff the weighted objectives are equal.

    Computed as the centered sum of squares of u = r * jvals, which is the
    same quantity in exact arithmetic but guaranteed non-negative in floats.
    """
    r = np.asarray(r, dtype=np.float64)
    jvals = np.asarray(jvals, dtype=np.float64)
    if jvals.shape != r.shape:
        raise ValueError(f"length mismatch: r has shape {r.shape}, jvals has shape {jvals.shape}")
    u = r * jvals
    centered = u - np.add.reduce(u) / u.size
    return float(centered @ centered)


def minmax_value(r: np.ndarray, jvals: np.ndarray) -> float:
    """The weighted min-max objective value max_k r_k * jvals_k."""
    return float(np.max(np.asarray(r) * np.asarray(jvals)))

