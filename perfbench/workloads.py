"""The three benchmark workloads: inputs drawn from a seed, one timed call, output check.

Each workload draws its inputs from a fixed pool whose outputs are stored in
``reference.json`` (written by ``make_reference.py``); the run seed picks
``PICK`` pool entries per input class and the order of the calls.  A *round*
calls every input of the run once, so every input is repeated as often as
the others and a run always has the same mix of cheap and expensive calls.

Certify inputs (anchors, preference, model points) are generated here with
the benchmark's own numpy code, never with epoal, so a change to epoal's
arithmetic cannot change the inputs it is checked on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import epoal.cli as cli
import epoal.harness as harness

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CONVEX, NONCONVEX = "convex-distance", "nonconvex-gaussian"
SHORT_KIND = {CONVEX: "convex", NONCONVEX: "nonconvex"}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """Shared shape: ``prepare`` builds inputs, ``call`` is the timed user call."""

    name = ""
    CLASSES = []             # input classes
    POOL = range(0)          # instance seeds whose outputs reference.json stores
    PICK = 1                 # pool instances per class in one run
    traced_rounds = 1

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference.get(self.name, {})
        self.rng = random.Random(seed)

    def unit(self, cls, pool_seed) -> dict:
        """One input: its reference key plus whatever ``call`` needs."""
        raise NotImplementedError

    def pool(self):
        return [self.unit(cls, s) for cls in self.CLASSES for s in self.POOL]

    def prepare(self) -> None:
        """Build this run's inputs from the seed; timed as part of ``setup_s``."""
        rng = random.Random(self.seed)
        self.units = [self.unit(cls, s) for cls in self.CLASSES
                      for s in sorted(rng.sample(list(self.POOL), self.PICK))]

    def rounds(self):
        """Endless rounds: every input of the run once, in a seeded order."""
        while True:
            yield self.rng.sample(self.units, len(self.units))

    def call(self, unit):
        """Run one user-visible call; returns (work done, raw output)."""
        raise NotImplementedError

    def record(self, unit, output) -> dict:
        """The non-timing part of ``output`` that must equal the reference."""
        raise NotImplementedError

    def check(self, unit, output) -> str | None:
        """None when ``output`` is correct, else a one-line reason."""
        expected = self.reference.get(unit["key"])
        if expected is None:
            return f"{unit['key']}: no stored reference"
        got = self.record(unit, output)
        for field, want in expected.items():
            if got.get(field, want) != want:
                return f"{unit['key']}: {field} is {got[field]!r}, reference {want!r}"
        return None


class Protocol(Workload):
    """``run_experiment`` on one (kind, K) cell of the C7 configuration per call."""

    name = "protocol"
    CLASSES = [(CONVEX, 2), (CONVEX, 16), (NONCONVEX, 2), (NONCONVEX, 16)]
    POOL = range(8)          # master seeds
    traced_rounds = 2
    D = 50
    TRIALS = 3
    # The C7 grids thinned to every other point (25 epo-al configurations,
    # 5 subgradient step sizes), with a 200-iteration cap per run, so that a
    # call takes about a second and each input repeats several times a run.
    GRID = harness.GridSpec(max_iter=200)
    GRID = dataclasses.replace(GRID, mu_grid=GRID.mu_grid[::2], eta_grid=GRID.eta_grid[::2],
                               tau_grid=GRID.tau_grid[::2])
    ALGORITHMS = ("epo-al", "subgradient")
    FIELDS = ("kind", "algorithm", "K", "d", "n_trials", "n_censored",
              "i_o_mean", "i_o_ci_low", "i_o_ci_high")

    def unit(self, cls, pool_seed):
        kind, K = cls
        return {"key": f"{SHORT_KIND[kind]}/K{K}/seed{pool_seed}", "kind": kind, "K": K,
                "master_seed": pool_seed}

    def call(self, unit):
        aggregates = harness.run_experiment(
            [unit["kind"]], [unit["K"]], self.D, self.TRIALS, unit["master_seed"],
            algorithms=self.ALGORITHMS, grid=self.GRID,
            jobs=1)
        return self.TRIALS, aggregates

    def record(self, unit, output):
        def plain(value):
            # JSON has no NaN: a cell without enough uncensored trials stores None.
            if isinstance(value, (float, np.floating)):
                return None if math.isnan(value) else float(value)
            return value
        return {"aggregates": [{f: plain(getattr(agg, f)) for f in self.FIELDS}
                               for agg in output]}


class Trace(Workload):
    """``epoal trace`` through ``cli.main``: long single runs at K=64, d=500."""

    name = "trace"
    PICK = 2
    CLASSES = [(kind, algo) for kind in ("convex", "nonconvex")
               for algo in ("epo-al", "subgradient", "smooth-max")]
    HYPER = {"epo-al": ["--mu", "0.05", "--eta", "1"],
             "subgradient": ["--mu", "0.05"],
             "smooth-max": ["--mu", "0.05", "--tau", "0.1"]}
    POOL = range(8)          # instance seeds
    K, D, ITERS = 64, 500, 1500

    def unit(self, cls, pool_seed):
        kind, algo = cls
        return {"key": f"{kind}/{algo}/seed{pool_seed}", "kind": kind, "algo": algo,
                "seed": pool_seed}

    def call(self, unit):
        out = self.workdir / "trace.jsonl"
        code = cli.main(["trace", "--kind", unit["kind"], "--d", str(self.D),
                         "--K", str(self.K), "--algo", unit["algo"],
                         *self.HYPER[unit["algo"]], "--iters", str(self.ITERS),
                         "--seed", str(unit["seed"]), "--out", str(out)])
        return self.ITERS, (code, out)

    def record(self, unit, output):
        """Hash of the records after the header line; deletes the trace file."""
        code, path = output
        data = path.read_bytes()
        path.unlink()
        body = data[data.index(b"\n") + 1:]
        return {"exit_code": code, "records_sha256": hashlib.sha256(body).hexdigest()}


# --- certify inputs, generated with the benchmark's own numpy code ---------

_KIND_CODE = {CONVEX: 1, NONCONVEX: 2}
NEAR_MU, NEAR_ETA = 0.05, 1.0


def evaluate(kind, anchors, w):
    """Objective values and (d, K) gradients of the anchor families."""
    diffs = w[None, :] - anchors
    sq = np.einsum("kd,kd->k", diffs, diffs)
    if kind == CONVEX:
        root = np.sqrt(1.0 + sq)
        return root - 1.0, (diffs / root[:, None]).T
    expo = np.exp(-sq)
    return 1.0 - expo, (2.0 * expo[:, None] * diffs).T


def certify_inputs(kind, K, d, pool_seed, near_iters):
    """Anchors, preference and model point of one certify input.

    The model point is a uniform point on the unit sphere, moved by
    ``near_iters`` primal-dual steps toward the fair Pareto point
    (0 keeps the starting point).
    """
    rng = np.random.default_rng([pool_seed, _KIND_CODE[kind], K, d])
    anchors = rng.standard_normal((K, d))
    anchors /= np.linalg.norm(anchors, axis=1)[:, None]
    spacings = rng.exponential(size=K)
    r = 1.0 / (3.0 * K) + (2.0 / 3.0) * spacings / spacings.sum()
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    p = np.full(K, 1.0 / K)
    for _ in range(near_iters):
        jvals, jac = evaluate(kind, anchors, w)
        u = r * jvals
        fair_grad = r * (u - u.mean())
        w = w - NEAR_MU * (jac @ (np.maximum(p, 0.0) + NEAR_ETA * fair_grad))
        p = p + NEAR_MU * fair_grad
    return anchors, r, w


def write_certify_files(directory: Path, stem: str, kind, anchors, r, w):
    """Write the problem record and model file in epoal's text formats."""
    problem = directory / f"{stem}.problem"
    rows = [f"{kind} {anchors.shape[1]} {anchors.shape[0]} -"]
    rows += [" ".join(map(repr, row)) for row in anchors.tolist()]
    problem.write_text("\n".join(rows) + "\n")
    model = directory / f"{stem}.model"
    model.write_text("\n".join(map(repr, w.tolist())) + "\n")
    return str(problem), ",".join(map(repr, r.tolist())), str(model)


def min_norm_lower_bound(G, iters=20000):
    """Duality lower bound on min_{p in simplex} ||G p||.

    Accelerated projected gradient on the Gram matrix gives a point p; by
    convexity ||G p*||^2 >= ||G p||^2 - 2 (p.q - min_k q_k) with q = G^T G p,
    which holds for any p, however inexact.
    """
    M = G.T @ G
    K = M.shape[0]
    L = max(float(np.linalg.eigvalsh(M)[-1]), 1e-300)
    p = y = np.full(K, 1.0 / K)
    t = 1.0

    def bound(p):
        # Evaluated through G, not M: near a stationary point ||G p||^2 is
        # far below the rounding error of p.M.p.
        Gp = G @ p
        q = G.T @ Gp
        return float(Gp @ Gp) - 2.0 * float(p @ q - q.min()), float(Gp @ Gp)

    for i in range(iters):
        p_next = _project_simplex(y - (M @ y) / L)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = p_next + ((t - 1.0) / t_next) * (p_next - p)
        p, t = p_next, t_next
        if i % 500 == 499:
            low, value = bound(p)
            if low >= 0.999999 * value:
                break
    return math.sqrt(max(bound(p)[0], 0.0))


def _project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[k] / (k + 1.0), 0.0)


class Certify(Workload):
    """``epoal certify`` through ``cli.main`` on stored (problem, r, model) files."""

    name = "certify"
    CLASSES = [(kind, K, d, point) for kind in (CONVEX, NONCONVEX) for K in (2, 16, 64)
               for d in (50, 500) for point in ("start", "near")]
    POOL = range(6)          # instance seeds
    PICK = 2
    traced_rounds = 2
    NEAR_ITERS = 300

    def unit(self, cls, pool_seed):
        kind, K, d, point = cls
        return {"key": f"{SHORT_KIND[kind]}/K{K}/d{d}/{point}/seed{pool_seed}", "kind": kind,
                "K": K, "d": d, "point": point, "pool_seed": pool_seed}

    def prepare(self):
        """Pick this run's inputs and write their files."""
        super().prepare()
        for n, unit in enumerate(self.units):
            ref = self.reference.get(unit["key"], {})
            anchors, r, w = certify_inputs(unit["kind"], unit["K"], unit["d"],
                                           unit["pool_seed"], ref.get("near_iters", 0))
            unit["argv"] = self.argv(*write_certify_files(
                self.workdir, f"c{n}", unit["kind"], anchors, r, w))

    @staticmethod
    def argv(problem, r, model):
        return ["certify", "--problem", problem, "--r", r, "--model", model]

    def call(self, unit):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(unit["argv"])
        return 1, (code, buf.getvalue())

    def record(self, unit, output):
        code, text = output
        cert = json.loads(text)
        return {"exit_code": code, "fairness": cert["fairness"], "minmax": cert["minmax"],
                "is_fair": cert["is_fair"], "is_stationary": cert["is_stationary"],
                "stationarity_gap": cert["stationarity_gap"]}

    def check(self, unit, output):
        ref = self.reference.get(unit["key"])
        if ref is None:
            return f"{unit['key']}: no stored reference"
        got = self.record(unit, output)
        for field in ("exit_code", "is_fair", "is_stationary"):
            if got[field] != ref[field]:
                return f"{unit['key']}: {field} is {got[field]!r}, reference {ref[field]!r}"
        for field in ("fairness", "minmax"):
            if not math.isclose(got[field], ref[field], rel_tol=1e-9, abs_tol=1e-300):
                return f"{unit['key']}: {field} is {got[field]!r}, reference {ref[field]!r}"
        # A more exact certificate may report a smaller gap, never a larger
        # one than Frank-Wolfe did, and never one below the duality bound.
        gap = got["stationarity_gap"]
        if gap > ref["fw_gap"] * (1.0 + 1e-9):
            return f"{unit['key']}: gap {gap!r} above the reference Frank-Wolfe gap {ref['fw_gap']!r}"
        if gap < ref["gap_lower_bound"] * (1.0 - 1e-6):
            return f"{unit['key']}: gap {gap!r} below the duality bound {ref['gap_lower_bound']!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Protocol, Trace, Certify)}
