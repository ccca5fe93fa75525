"""The benchmark under perfbench/ reaches into epoal by name: its tracer patches functions in
place and its micro-grid calls inner functions.  A name either needs must not leave epoal
unnoticed until a traced benchmark run."""

import ast
from pathlib import Path

import epoal
from epoal import harness, problems, solvers

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
