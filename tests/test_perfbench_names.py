"""The benchmark under perfbench/ reaches into epoal by name: its tracer patches functions in
place and its micro-grid calls inner functions.  A name either needs must not leave epoal
unnoticed until a traced benchmark run."""

import ast
from pathlib import Path

import epoal
from epoal import harness, problems, solvers
from epoal.harness import _tune_chunk

from test_harness import small_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_tracer_installs_and_restores_its_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def patched():
        return (harness.run, solvers.lr_apply, solvers.pareto_stationarity_gap,
                problems.SyntheticProblem.values_and_jacobian)

    originals = patched()
    with tracer.Tracer().installed():
        assert not any(now is was for now, was in zip(patched(), originals))
    assert patched() == originals


def test_benchmark_tracer_patches_and_restores_harness_names(monkeypatch):
    # A traced tuning chunk: every harness name the tracer replaces is back afterwards, and the
    # tracer counted each call it wraps.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    names = ("run", "run_experiment", "compute_target", "measure_time",
             "tune_and_measure", "iteration_complexity")
    originals = {name: getattr(harness, name) for name in names}
    benchmark = tracer.Tracer()
    benchmark.traced(_tune_chunk, ("convex-distance", 3, 6, [4, 5], solvers.ALGORITHMS,
                                   small_grid(max_iter=40)))
    assert {name: getattr(harness, name) for name in names} == originals
    assert benchmark.calls["harness.compute_target"] == 2
    for algo in solvers.ALGORITHMS:
        assert benchmark.calls[f"harness.tune_and_measure[{algo}]"] == 2
    assert benchmark.layer_metrics()["harness.tune_s.subgradient"][0] > 0


def test_every_epoal_name_the_micro_grid_calls_exists():
    tree = ast.parse((PERFBENCH / "microgrid.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "epoal" for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {"problems", "solvers"} <= modules and len(used) > 10
    assert [name for name in sorted(used) if not hasattr(getattr(epoal, name[0]), name[1])] == []


def test_the_micro_grid_calls_each_epoal_function_it_times(monkeypatch):
    # One call per entry on a tiny grid: a signature the micro-grid no longer matches fails here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import microgrid

    def once(fn, **_):
        fn()
        return 1.0

    monkeypatch.setattr(microgrid, "GRID", [(2, 3)])
    monkeypatch.setattr(microgrid, "per_call_us", once)
    out = microgrid.measure(0)
    assert len(out) == 10 and all(name.endswith("_us.K2.d3") for name in out)
