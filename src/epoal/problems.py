"""Seeded synthetic problem families for the benchmark experiments.

Two families over K anchor points w_1..w_K on the unit sphere:

  convex-distance:     J_k(w) = sqrt(1 + ||w - w_k||^2) - 1
  nonconvex-gaussian:  J_k(w) = 1 - exp(-||w - w_k||^2)

plus ``fig1-pair``, the two-objective visualization instance with fixed
antipodal anchors +(1/sqrt(d)) 1 and -(1/sqrt(d)) 1 and the gaussian
formulas.  Every objective is positive except exactly at its own anchor.

All randomness flows through a single integer seed.  Anchors, preference
vectors and initial models draw from domain-separated sub-streams of that
seed, so the three sources can be reproduced independently, on one BLAS
kernel: the unit rows are normalized with ``np.linalg.norm``, whose last bits
depend on the kernel (see ROADMAP item 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ObjectiveSet, _check_non_negative_int, as_model_vector

CONVEX = "convex-distance"
NONCONVEX = "nonconvex-gaussian"
FIG1 = "fig1-pair"
KINDS = (CONVEX, NONCONVEX, FIG1)

# Domain-separation tags appended to the user seed; changing these breaks
# reproducibility of previously recorded runs.
_ANCHOR_TAG = 0xA17C
_PREFERENCE_TAG = 0x9BEF
_INITIAL_TAG = 0x1217


def _stream(seed: int, tag: int) -> np.random.Generator:
    _check_non_negative_int("seed", seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), tag]))


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    rows = np.empty((n, d))
    for i in range(n):
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        while norm < 1e-8:
            v = rng.standard_normal(d)
            norm = np.linalg.norm(v)
        rows[i] = v / norm
    return rows


def gen_anchors(d: int, K: int, seed: int) -> np.ndarray:
    """K independent points drawn uniformly on the unit sphere in R^d, as rows."""
    _check_non_negative_int("d", d)
    _check_non_negative_int("K", K)
    if d < 1 or K < 2:
        raise ValueError(f"need d >= 1 and K >= 2, got d={d}, K={K}")
    return _unit_rows(_stream(seed, _ANCHOR_TAG), K, d)


def sample_preference(K: int, seed: int) -> np.ndarray:
    """Uniform sample from the shrunken simplex {y in simplex: y_k > 1/(3K)}.

    Draws z uniformly on the simplex by exponential spacings and maps it
    affinely, y = 1/(3K) + (2/3) z.  The shrink map keeps every coordinate
    bounded away from zero so no objective is essentially ignored, and it
    is exact for any K (rejection sampling would almost never accept for
    large K).
    """
    _check_non_negative_int("K", K)
    if K < 2:
        raise ValueError(f"need K >= 2, got K={K}")
    rng = _stream(seed, _PREFERENCE_TAG)
    spacings = rng.exponential(scale=1.0, size=K)
    z = spacings / spacings.sum()
    return 1.0 / (3.0 * K) + (2.0 / 3.0) * z


def sample_initial(d: int, seed: int) -> np.ndarray:
    """Initial model drawn uniformly on the unit sphere in R^d."""
    _check_non_negative_int("d", d)
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    return _unit_rows(_stream(seed, _INITIAL_TAG), 1, d)[0]


def _family(kind, sq):
    """Values J of ``kind``'s family at squared anchor distances sq, and the ``scale`` and
    ``op`` of grad J_k = op(w - a_k, scale_k): the convex root, or 2 e^-s times."""
    if kind == CONVEX:
        root = np.sqrt(1.0 + sq)
        return root - 1.0, root, np.divide
    expo = np.exp(-sq)
    return 1.0 - expo, 2.0 * expo, np.multiply


@dataclass(frozen=True, eq=False)
class SyntheticProblem(ObjectiveSet):
    """An anchor-based objective set of one of the synthetic kinds.

    ``seed`` records how the anchors were generated (None when they were
    supplied directly); it is carried for audit and serialization only.
    Instances compare and hash by identity, since the anchors are an array.
    """

    kind: str
    anchors: np.ndarray
    seed: int | None = field(default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.seed is not None:
            _check_non_negative_int("seed", self.seed)
        anchors = np.asarray(self.anchors, dtype=np.float64)
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValueError(f"anchors must be a (K, d) matrix, got shape {anchors.shape}")
        if not np.all(np.isfinite(anchors)):
            raise ValueError("anchors must be finite")
        norms = np.linalg.norm(anchors, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("anchor rows must have unit norm")
        object.__setattr__(self, "anchors", anchors)

    @property
    def d(self) -> int:
        return self.anchors.shape[1]

    @property
    def count(self) -> int:
        return self.anchors.shape[0]

    def values_and_jacobian(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diffs = np.asarray(w, dtype=np.float64) - self.anchors
        jvals, scale, op = _family(self.kind, np.einsum("kd,kd->k", diffs, diffs))
        return jvals, op(diffs, scale[:, None]).T


def _model_for(w, obj: ObjectiveSet) -> np.ndarray:
    """``as_model_vector(w)``, also rejecting a size other than d for a synthetic ``obj``."""
    w = as_model_vector(w)
    if isinstance(obj, SyntheticProblem) and w.size != obj.d:
        raise ValueError(f"model of size {w.size}, objective set has d={obj.d}")
    return w


def make_problem(kind: str, d: int, K: int, seed: int) -> SyntheticProblem:
    """Problem instance as a pure function of (kind, d, K, seed) on one BLAS kernel (see ROADMAP
    item 8); fig1-pair's anchors are fixed."""
    for name, value in (("d", d), ("K", K), ("seed", seed)):
        _check_non_negative_int(name, value)
    if kind == FIG1:
        if K != 2 or d < 1:
            raise ValueError(f"fig1-pair is a two-objective problem with d >= 1, got K={K}, d={d}")
        a = np.full(d, 1.0 / np.sqrt(d))
        return SyntheticProblem(kind=FIG1, anchors=np.vstack([a, -a]), seed=seed)
    if kind not in (CONVEX, NONCONVEX):
        raise ValueError(f"unknown problem kind {kind!r}")
    return SyntheticProblem(kind=kind, anchors=gen_anchors(d, K, seed), seed=seed)


def save_problem(problem: SyntheticProblem, path) -> None:
    """Write the plain-text problem record: header line, then anchor rows.

    Header is ``kind d K seed`` (seed ``-`` when unknown); each anchor row
    is d space-separated decimals with full round-trip precision.
    """
    lines = [
        f"{problem.kind} {problem.d} {problem.count} "
        f"{'-' if problem.seed is None else int(problem.seed)}"
    ]
    for row in problem.anchors:
        lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _bad_token(tokens, parse):
    """The first of ``tokens`` that ``parse`` rejects, or None."""
    for token in tokens:
        try:
            parse(token)
        except ValueError:
            return token
    return None


def _read_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of every non-blank line, numbered from 1."""
    with open(path, errors="surrogateescape") as fh:     # undecodable bytes fail as bad tokens
        return [(no, ln) for no, ln in enumerate((raw.strip() for raw in fh), start=1)
                if ln]


def _decimal_matrix(path, lines) -> np.ndarray:
    """The decimals of ``(line number, text)`` lines of ``path``, one row per line.

    All rows are parsed in one ``np.loadtxt`` call.  On failure the
    ValueError names ``path:line`` and the first token that is not a decimal
    number, or the first line whose length differs from the first line's.
    """
    if not lines:
        return np.empty((0, 0))
    try:
        return np.loadtxt([text for _, text in lines], ndmin=2, comments=None)
    except ValueError as err:
        width = len(lines[0][1].split())
        for no, text in lines:
            tokens = text.split()
            bad = _bad_token(tokens, lambda token: np.loadtxt([token], comments=None))
            if bad is not None:
                raise ValueError(f"{path}:{no}: {bad!r} is not a decimal number") from None
            if len(tokens) != width:
                raise ValueError(f"{path}:{no}: row length {len(tokens)}, "
                                 f"line {lines[0][0]} has {width}") from None
        raise ValueError(f"{path}: {err}") from None


def load_model(path) -> np.ndarray:
    """Read a model vector file, one decimal per line; every ValueError names ``path``."""
    w = _decimal_matrix(path, _read_lines(path))
    if w.shape[1] > 1:
        raise ValueError(f"{path}: expected one coordinate per line")
    try:
        return as_model_vector(w.ravel())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def load_problem(path) -> SyntheticProblem:
    """Read a problem record written by :func:`save_problem`; every ValueError names ``path``."""
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"empty problem file: {path}")
    head_no, head_text = lines[0]
    head = head_text.split()
    if len(head) != 4:
        raise ValueError(f"{path}:{head_no}: malformed problem header: {head_text!r}")
    try:
        kind, d, K = head[0], int(head[1]), int(head[2])
        seed = None if head[3] == "-" else int(head[3])
    except ValueError:
        bad = _bad_token(head[1:], int)
        raise ValueError(f"{path}:{head_no}: {bad!r} is not an integer") from None
    anchors = _decimal_matrix(path, lines[1:])
    if anchors.shape != (K, d):
        raise ValueError(f"{path}: anchor block has shape {anchors.shape}, "
                         f"header says ({K}, {d})")
    try:
        return SyntheticProblem(kind=kind, anchors=anchors, seed=seed)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
