"""Spans around epoal's public functions, installed from outside the package.

Every wrapped call is a span.  Self time is a span's duration minus the time
covered by the spans it caused; it is accumulated on the fly, so the
per-iteration calls (evaluation, ``lr_apply``) cost one stack push and a few
additions each and are never stored one by one.  The coarser spans (CLI,
harness, solver runs, certificates, file loads) are also kept in memory with
their parent and written out when the run ends.

Counts of events epoal does not report (diverged runs, censored grid
configurations, Frank-Wolfe hitting its cap) are taken in the same wrappers.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

import epoal.cli as cli
import epoal.core as core
import epoal.diagnostics as diagnostics
import epoal.harness as harness
import epoal.problems as problems
import epoal.solvers as solvers

MODULES = ("core", "problems", "solvers", "diagnostics", "harness", "cli")
ROOT = "bench.loop"

# Which end-to-end metric (on which workload) each per-layer metric should move.
LAYER_TARGETS = {
    "harness.target_s": "work_per_s on protocol",
    "harness.tune_s.<algo>": "work_per_s on protocol",
    "harness.timing_s": "work_per_s on protocol",
    "harness.solver_runs, solver_iters, diverged_runs, censored_configs, iter_yield":
        "work_per_s on protocol",
    "solvers.run_self_s, solvers.us_per_iter.<algo>": "work_per_s on protocol and trace",
    "problems.eval_calls, problems.eval_self_s": "work_per_s on protocol and trace",
    "problems.load_s": "call_gmean_ms on certify",
    "core.lr_apply_calls, core.lr_apply_self_s": "work_per_s on protocol and trace (epo-al share)",
    "diagnostics.gap_calls, gap_self_s, fw_iterations, fw_cap_ratio":
        "call_gmean_ms and slowest_class_ms on certify",
    "cli.trace_serialize_s": "work_per_s on trace",
    "cli.certify_overhead_ms": "call_gmean_ms on certify",
}


class Tracer:
    def __init__(self):
        self.stack = []                      # open frames: [child seconds, span index]
        self.total = defaultdict(float)      # span name -> seconds
        self.self_time = defaultdict(float)  # span name -> seconds not covered by children
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)       # event counters
        self.spans = []                      # coarse spans: [name, parent, start, end]

    def wrap(self, name, fn, coarse=False, tag=None, observe=None):
        """Return ``fn`` wrapped in a span called ``name`` (``name[tag]`` when tagged)."""
        stack, total, self_time, calls, spans = (self.stack, self.total, self.self_time,
                                                 self.calls, self.spans)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            key = name if tag is None else f"{name}[{tag(*args, **kwargs)}]"
            frame = [0.0, None]
            if coarse:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([key, parent, 0.0, 0.0])
            stack.append(frame)
            result = error = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                total[key] += elapsed
                self_time[key] += elapsed - frame[0]
                calls[key] += 1
                if coarse:
                    spans[frame[1]][2:] = [start, start + elapsed]
                if observe is not None:
                    observe(key, args, kwargs, result, error, elapsed)

        return wrapper

    def traced(self, fn, *args):
        """Run ``fn(*args)`` in a root span with epoal's functions wrapped.

        The root span's self time is the benchmark loop's own time (output checks).
        """
        with self.installed():
            return self.wrap(ROOT, fn, coarse=True)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Replace epoal's public functions by wrapped ones; restore them on exit."""
        saved = []

        def patch(owner, attr, wrapped):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

        run = self.wrap("solvers.run", solvers.run, coarse=True,
                        tag=lambda algo, *a, **k: algo, observe=self._observe_run)
        gap_fn = diagnostics.pareto_stationarity_gap
        cap = inspect.signature(gap_fn).parameters["max_fw_iter"].default
        gap = self.wrap("diagnostics.pareto_stationarity_gap", gap_fn,
                        observe=lambda key, a, k, res, err, dt: self._observe_gap(res, k, cap))
        lr_apply = self.wrap("core.lr_apply", core.lr_apply)
        patch(harness, "run", run)
        patch(cli, "run", run)
        patch(solvers, "lr_apply", lr_apply)
        patch(core, "lr_apply", lr_apply)
        patch(diagnostics, "pareto_stationarity_gap", gap)
        patch(solvers, "pareto_stationarity_gap", gap)
        patch(problems.SyntheticProblem, "values_and_jacobian",
              self.wrap("problems.values_and_jacobian",
                        problems.SyntheticProblem.values_and_jacobian))
        patch(cli, "load_problem", self.wrap("problems.load_problem", cli.load_problem,
                                             coarse=True))
        patch(cli, "certify_epo", self.wrap("diagnostics.certify_epo", cli.certify_epo,
                                            coarse=True))
        patch(cli, "main", self.wrap("cli.main", cli.main, coarse=True,
                                     tag=lambda argv, *a, **k: argv[0]))
        patch(harness, "run_experiment", self.wrap("harness.run_experiment",
                                                   harness.run_experiment, coarse=True))
        patch(harness, "compute_target", self.wrap("harness.compute_target",
                                                   harness.compute_target, coarse=True))
        patch(harness, "measure_time", self.wrap("harness.measure_time",
                                                 harness.measure_time, coarse=True))
        patch(harness, "tune_and_measure", self.wrap(
            "harness.tune_and_measure", harness.tune_and_measure, coarse=True,
            tag=lambda algo, *a, **k: algo, observe=self._observe_tuning))
        patch(harness, "iteration_complexity", self.wrap(
            "harness.iteration_complexity", harness.iteration_complexity,
            observe=self._observe_complexity))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- event counters -----------------------------------------------------

    def _observe_run(self, key, args, kwargs, records, error, elapsed):
        algo = key[key.index("[") + 1:-1]
        if isinstance(error, solvers.DivergenceError):
            # harness._run_allowing_divergence swallows this; count it here.
            self.counts["diverged_runs"] += 1
            steps = len(error.records)
        elif error is None:
            steps = len(records) - 1
        else:
            return
        self.counts["solver_runs"] += 1
        self.counts["solver_iters"] += steps
        self.counts[f"steps[{algo}]"] += steps

    def _observe_gap(self, result, kwargs, cap):
        if result is not None:
            self.counts["fw_iterations"] += result.fw_iterations
            self.counts["fw_capped"] += result.fw_iterations >= kwargs.get("max_fw_iter", cap)

    def _observe_tuning(self, key, args, kwargs, record, error, elapsed):
        if record is not None and record.i_o is not None:
            self.counts["winning_i_o"] += record.i_o

    def _observe_complexity(self, key, args, kwargs, i_o, error, elapsed):
        if error is None and i_o is None:
            self.counts["censored_configs"] += 1

    # --- derived per-layer metrics ---------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics, {name: (value, unit)}, of everything traced so far."""
        wall = self.wall()
        module_self = {m: 0.0 for m in MODULES}
        for key, seconds in self.self_time.items():
            module = key.split(".", 1)[0]
            if module in module_self:
                module_self[module] += seconds

        trials = self.calls["harness.compute_target"]
        per_trial = (lambda x: x / trials) if trials else (lambda x: 0.0)
        c = self.counts
        gap_calls = self.calls["diagnostics.pareto_stationarity_gap"]
        m = {f"{mod}.self_s": (module_self[mod], "s") for mod in MODULES}
        m.update({
            "harness.target_s": (per_trial(self.total["harness.compute_target"]), "s"),
            "harness.tune_s.epo-al": (per_trial(self.total["harness.tune_and_measure[epo-al]"]), "s"),
            "harness.tune_s.subgradient": (
                per_trial(self.total["harness.tune_and_measure[subgradient]"]), "s"),
            "harness.timing_s": (per_trial(self.total["harness.measure_time"]), "s"),
            "harness.solver_runs": (per_trial(c["solver_runs"]), "count"),
            "harness.solver_iters": (per_trial(c["solver_iters"]), "count"),
            "harness.diverged_runs": (per_trial(c["diverged_runs"]), "count"),
            "harness.censored_configs": (per_trial(c["censored_configs"]), "count"),
            "harness.iter_yield": (c["winning_i_o"] / c["solver_iters"]
                                   if trials and c["solver_iters"] else 0.0, "ratio"),
            "solvers.run_self_s": (sum(v for k, v in self.self_time.items()
                                       if k.startswith("solvers.run[")), "s"),
            "problems.eval_calls": (self.calls["problems.values_and_jacobian"], "count"),
            "problems.eval_self_s": (self.self_time["problems.values_and_jacobian"], "s"),
            "problems.load_s": (self.total["problems.load_problem"]
                                / max(self.calls["problems.load_problem"], 1), "s"),
            "core.lr_apply_calls": (self.calls["core.lr_apply"], "count"),
            "core.lr_apply_self_s": (self.self_time["core.lr_apply"], "s"),
            "diagnostics.gap_calls": (gap_calls, "count"),
            "diagnostics.gap_self_s": (self.self_time["diagnostics.pareto_stationarity_gap"], "s"),
            "diagnostics.fw_iterations": (c["fw_iterations"], "count"),
            "diagnostics.fw_cap_ratio": (c["fw_capped"] / max(gap_calls, 1), "ratio"),
            "cli.trace_serialize_s": (self.self_time["cli.main[trace]"], "s"),
            "cli.certify_overhead_ms": (1e3 * self.self_time["cli.main[certify]"]
                                        / max(self.calls["cli.main[certify]"], 1), "ms"),
            "trace.wall_s": (wall, "s"),
            "trace.self_coverage": (sum(module_self.values()) / wall, "ratio"),
        })
        for algo in ("epo-al", "subgradient", "smooth-max"):
            steps = c[f"steps[{algo}]"]
            m[f"solvers.us_per_iter.{algo}"] = (
                1e6 * self.total[f"solvers.run[{algo}]"] / steps if steps else 0.0, "us")
        return m

    def wall(self) -> float:
        """Seconds spent inside root spans, i.e. traced wall time."""
        return self.total[ROOT]

    def self_time_error(self) -> float:
        """|sum of all self times - traced wall time|; zero up to rounding."""
        return abs(sum(self.self_time.values()) - self.wall())

    def span_dump(self) -> list:
        origin = self.spans[0][2] if self.spans else 0.0
        return [{"id": i, "name": name, "parent": parent,
                 "start_s": start - origin, "end_s": end - origin}
                for i, (name, parent, start, end) in enumerate(self.spans)]
