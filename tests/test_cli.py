import ast
import contextlib
import csv
import inspect
import io
import json
import os
import runpy
import signal
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epoal.cli as cli
from epoal import (AggregateRecord, certify_epo, epo_al_step, initial_state,
                   make_problem, sample_initial, sample_preference, save_problem)
from epoal.cli import CSV_COLUMNS, _parser, build_parser, main

from oracles import two_objective_epo_oracle


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_unknown_flag_exits_64():
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--kind", "fig1", "--d", "3", "--algo", "epo-al", "--mu", "0.1",
              "--eta", "10", "--bogus", "1"])
    assert excinfo.value.code == 64


def test_missing_subcommand_exits_64():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 64


def test_trace_requires_eta_for_epo_al(capsys):
    # The solver kernel owns the rule; the CLI maps its ValueError to exit 64.
    code = main(["trace", "--kind", "fig1", "--d", "3", "--algo", "epo-al", "--mu", "0.1"])
    assert code == 64
    assert "epo-al requires config.eta" in capsys.readouterr().err


def test_trace_requires_tau_for_smooth_max(capsys):
    code = main(["trace", "--kind", "fig1", "--d", "3", "--algo", "smooth-max", "--mu", "0.1"])
    assert code == 64
    assert "smooth-max requires config.tau" in capsys.readouterr().err


def test_trace_requires_k_without_fig1(capsys):
    code = main(["trace", "--kind", "convex", "--d", "3", "--algo", "subgradient",
                 "--mu", "0.1"])
    assert code == 64


def test_trace_kind_fig1_defaults_to_two_objectives(tmp_path):
    # --kind names every trace family; the --fig1 flag is gone.
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--fig1", "--d", "3", "--algo", "subgradient", "--mu", "0.1"])
    assert excinfo.value.code == 64
    argv = ["trace", "--kind", "fig1", "--d", "3", "--algo", "subgradient", "--mu", "0.1",
            "--iters", "20"]
    default, two = tmp_path / "default.jsonl", tmp_path / "two.jsonl"
    assert main(argv + ["--out", str(default)]) == 0
    assert main(argv + ["--K", "2", "--out", str(two)]) == 0
    assert default.read_bytes() == two.read_bytes()


BENCH = ["bench", "--kinds", "convex", "--K", "2", "--d", "3", "--trials", "3",
         "--out", "unused.csv"]
# {problem} and {model} stand for files written by certified_fixture.
CERTIFY = ["certify", "--problem", "{problem}", "--model", "{model}", "--r", "1,1"]


@pytest.mark.parametrize("argv", [
    ["trace", "--kind", "convex", "--d", "3", "--K", "1", "--algo", "subgradient",
     "--mu", "0.1"],
    ["trace", "--kind", "convex", "--d", "3", "--K", "2", "--r", "nan,1", "--algo",
     "subgradient", "--mu", "0.1"],
    ["bench", "--kinds", "convex", "--K", "1", "--d", "3", "--trials", "3",
     "--out", "unused.csv"],
    ["bench", "--kinds", "convex", "--K", "2", "--d", "0", "--trials", "3",
     "--out", "unused.csv"],
    ["bench", "--kinds", "convex", "--K", "2", "--d", "3", "--trials", "3",
     "--epsilon", "-1", "--out", "unused.csv"],
    ["bench", "--kinds", "convex", "--K", "2", "--d", "3", "--trials", "3",
     "--max-iter", "-1", "--out", "unused.csv"],
    BENCH + ["--algos", "foo"],
    BENCH + ["--trials", "2"],
    BENCH + ["--jobs", "0"],
    ["trace", "--kind", "fig1", "--K", "3", "--d", "3", "--algo", "subgradient", "--mu", "0.1"],
    ["trace", "--kind", "convex", "--d", "3", "--K", "3", "--r", "1,1", "--algo",
     "subgradient", "--mu", "0.1"],
    ["trace", "--kind", "convex", "--d", "3", "--K", "0", "--algo", "subgradient",
     "--mu", "0.1"],
    CERTIFY + ["--fair-tol", "0"],
    CERTIFY + ["--gap-tol", "-1"],
    CERTIFY + ["--fair-tol", "inf"],
    CERTIFY + ["--gap-tol", "inf"],
    BENCH + ["--algos", "subgradient,subgradient"],
    BENCH + ["--K", "2,2"],
    BENCH + ["--algos", ""],
    ["trace", "--kind", "convex", "--d", "3", "--K", "2", "--r", "", "--algo", "subgradient",
     "--mu", "0.1"],
], ids=["trace-K1", "trace-r-nan", "bench-K1", "bench-d0", "bench-epsilon-negative",
        "bench-max-iter-negative", "bench-algos-unknown", "bench-trials-2", "bench-jobs-0",
        "trace-fig1-K3", "trace-r-length", "trace-K0", "certify-fair-tol-0",
        "certify-gap-tol-negative", "certify-fair-tol-inf", "certify-gap-tol-inf",
        "bench-algos-repeated", "bench-K-repeated", "bench-algos-empty", "trace-r-empty"])
def test_invalid_problem_or_preference_exits_64(argv, tmp_path, capsys):
    _, _, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    argv = [arg.format(problem=problem_path, model=model_path) for arg in argv]
    assert main(argv) == 64
    assert "epoal: error:" in capsys.readouterr().err


def test_trace_zero_iterations_single_record(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = main(["trace", "--kind", "fig1", "--d", "3", "--algo", "subgradient",
                 "--mu", "0.1", "--iters", "0", "--out", str(out)])
    assert code == 0
    lines = read_jsonl(out)
    assert lines[0]["type"] == "header"
    assert len(lines) == 2
    assert lines[1]["iter"] == 0 and lines[1]["active"] is None


def test_trace_fig1_epo_al_matches_oracle(tmp_path):
    out = tmp_path / "fig1.jsonl"
    code = main(["trace", "--kind", "fig1", "--algo", "epo-al", "--mu", "0.1", "--eta", "10",
                 "--r", "0.2,0.8", "--iters", "500", "--d", "3", "--out", str(out)])
    assert code == 0
    lines = read_jsonl(out)
    header, records = lines[0], lines[1:]
    assert header["config"]["algorithm"] == "epo-al"
    assert header["config"]["seed"] == 0
    assert len(records) == 501
    final = records[-1]
    assert final["fairness"] <= 1e-4
    _, oracle_jvals = two_objective_epo_oracle([0.2, 0.8], make_problem("fig1-pair", 3, 2, 0))
    assert np.linalg.norm(np.array(final["jvals"]) - oracle_jvals) <= 1e-2
    assert all("p" in rec and len(rec["p"]) == 2 for rec in records)


def test_trace_reruns_are_byte_identical(tmp_path):
    args = ["trace", "--kind", "nonconvex", "--d", "4", "--K", "3", "--algo",
            "subgradient", "--mu", "0.05", "--iters", "80", "--seed", "7"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_divergence_flushes_partial_trace(tmp_path):
    out = tmp_path / "diverged.jsonl"
    code = main(["trace", "--kind", "convex", "--d", "5", "--K", "3", "--algo",
                 "epo-al", "--mu", "10", "--eta", "100", "--r", "0.5,0.3,0.2",
                 "--iters", "1000", "--out", str(out)])
    assert code == 2
    lines = read_jsonl(out)
    assert lines[0]["type"] == "header"
    error = lines[-1]
    assert error["type"] == "error" and error["error"] == "divergence"
    assert error["iteration"] == len(lines) - 2  # header + records before failure
    assert len(lines) > 2


def test_bench_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--kinds", "convex", "--K", "2,3", "--d", "6",
                 "--trials", "3", "--algos", "epo-al,subgradient",
                 "--max-iter", "120", "--seed", "11", "--out", str(out)])
    assert code == 0
    first_line = out.read_text().splitlines()[0]
    assert first_line.startswith("# ")
    meta_inline = json.loads(first_line[2:])
    assert meta_inline["command"] == "bench"
    rows = read_csv_rows(out)
    assert len(rows) == 4  # 1 kind x 2 K x 2 algorithms
    assert list(rows[0].keys()) == CSV_COLUMNS
    for row in rows:
        assert row["master_seed"] == "11"
        assert int(row["trials"]) == 3
    sidecar = json.loads(out.with_suffix(".meta.json").read_text())
    assert sidecar["config"]["epsilon"] == 0.01
    assert len(sidecar["grids"]["mu"]) == 10
    assert "ci" in sidecar and "timing_note" in sidecar


def test_bench_rerun_identical_nontiming_columns(tmp_path):
    args = ["bench", "--kinds", "nonconvex", "--K", "2", "--d", "5", "--trials", "3",
            "--algos", "subgradient", "--max-iter", "100", "--seed", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    timing = {"t_o_mean", "t_o_ci_low", "t_o_ci_high"}
    rows_a, rows_b = read_csv_rows(a), read_csv_rows(b)
    assert len(rows_a) == len(rows_b) == 1
    for ra, rb in zip(rows_a, rows_b):
        for col in CSV_COLUMNS:
            if col not in timing:
                assert ra[col] == rb[col], col


def test_bench_defaults_match_protocol():
    args = build_parser().parse_args(
        ["bench", "--kinds", "convex", "--K", "2", "--d", "4", "--out", "x.csv"])
    assert args.epsilon == 0.01
    assert args.max_iter == 1000
    assert args.trials == 30


def test_csv_columns_are_the_aggregate_fields_then_the_seed():
    # Bench rows are written as astuple(record) + [seed], so the orders must agree.
    names = [f.name for f in fields(AggregateRecord)]
    assert CSV_COLUMNS == [{"n_trials": "trials"}.get(n, n) for n in names] + ["master_seed"]


@pytest.mark.parametrize("where", ["missing-dir", "directory", "under-a-file",
                                   "sidecar-is-a-directory"])
def test_bench_unwritable_out_exits_65_before_any_run(tmp_path, capsys, monkeypatch, where):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a) or [])
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "b.meta.json").mkdir()
    out = {"missing-dir": tmp_path / "missing" / "b.csv", "directory": tmp_path,
           "under-a-file": tmp_path / "file.txt" / "b.csv",
           "sidecar-is-a-directory": tmp_path / "b.csv"}[where]
    code = main(["bench", "--kinds", "convex", "--K", "2,16", "--d", "50", "--trials", "3",
                 "--max-iter", "300", "--out", str(out)])
    assert code == 65
    assert calls == []
    unwritable = tmp_path / "b.meta.json" if where == "sidecar-is-a-directory" else out
    assert str(unwritable) in capsys.readouterr().err
    if where == "sidecar-is-a-directory":
        assert not out.exists()


@pytest.mark.parametrize("where", ["missing-dir", "directory", "under-a-file"])
def test_trace_unwritable_out_exits_65_before_any_run(tmp_path, capsys, monkeypatch, where):
    calls = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a) or [])
    (tmp_path / "file.txt").write_text("")
    out = {"missing-dir": tmp_path / "missing" / "x.jsonl", "directory": tmp_path,
           "under-a-file": tmp_path / "file.txt" / "x.jsonl"}[where]
    code = main(["trace", "--kind", "convex", "--d", "200", "--K", "16", "--algo",
                 "subgradient", "--mu", "0.01", "--iters", "20000", "--out", str(out)])
    assert code == 65
    assert calls == []
    assert str(out) in capsys.readouterr().err


def test_trace_usage_error_leaves_existing_out_untouched(tmp_path):
    out = tmp_path / "x.jsonl"
    out.write_text("earlier trace\n")
    code = main(["trace", "--kind", "convex", "--d", "3", "--K", "2", "--algo", "epo-al",
                 "--mu", "0.1", "--out", str(out)])
    assert code == 64
    assert out.read_text() == "earlier trace\n"


def test_bench_usage_error_leaves_existing_out_untouched(tmp_path):
    out = tmp_path / "b.csv"
    out.write_text("earlier results\n")
    code = main(["bench", "--kinds", "convex", "--K", "1", "--d", "3", "--trials", "3",
                 "--out", str(out)])
    assert code == 64
    assert out.read_text() == "earlier results\n"
    assert not out.with_suffix(".meta.json").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_too_large_to_allocate_is_a_harness_error(tmp_path, capfd, jobs):
    # The target scans' (step sizes, max_iter + 1) array is petabytes here, beyond any
    # address space, so its allocation fails at once, in this process or in a worker.
    out = tmp_path / "b.csv"
    code = main(["bench", "--kinds", "convex", "--K", "2", "--d", "2", "--trials", "3",
                 "--max-iter", "100000000000000", "--jobs", jobs, "--out", str(out)])
    err = capfd.readouterr().err
    assert code == 1
    assert err.startswith("epoal: out of memory: ")
    assert "100000000000001)" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trace", "bench"])
def test_input_too_large_to_allocate_exits_1(tmp_path, capfd, command):
    # The (K, d) anchors are 146 TiB here, beyond any address space, so their allocation fails
    # at once: in trace's problem, and in bench's argument checks before its first run.
    out = tmp_path / "out"
    argv = {"trace": ["trace", "--kind", "convex", "--algo", "subgradient", "--mu", "0.1"],
            "bench": ["bench", "--kinds", "convex", "--trials", "3"]}[command]
    code = main(argv + ["--K", "2", "--d", "10000000000000", "--out", str(out)])
    err = capfd.readouterr().err
    assert code == 1
    assert err.startswith("epoal: out of memory: ") and err.count("\n") == 1
    assert "shape (2, 10000000000000)" in err and "Traceback" not in err
    assert not out.exists()


def test_only_the_certify_loads_catch_value_error():
    # main alone maps exception types to exit codes.  A command catches ValueError only
    # around a file load, where it means bad data (65), not a bad argument (64).
    catching = []
    for fn in ast.parse(inspect.getsource(cli)).body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            for node in ast.walk(fn):
                if isinstance(node, ast.Try) and any(
                        handler.type is None or "ValueError" in ast.unparse(handler.type)
                        for handler in node.handlers):
                    catching.append((fn.name, ast.unparse(node.body[0])))
    assert catching == [("cmd_certify", "problem = load_problem(args.problem)"),
                        ("cmd_certify", "w = load_model(args.model)")]


def test_main_alone_sets_the_floating_point_policy():
    # One np.errstate in main serves every command, bench included.
    functions = {fn.name: ast.unparse(fn) for fn in ast.parse(inspect.getsource(cli)).body
                 if isinstance(fn, ast.FunctionDef)}
    assert [name for name, source in functions.items() if "np.errstate" in source] == ["main"]
    assert {"cmd_trace", "cmd_bench", "cmd_certify"} <= set(functions)


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment of a child interpreter that imports epoal from this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_importing_the_cli_leaves_the_pool_statistics_and_csv_unloaded():
    # Each loads on the one path that uses it: the process pool at jobs > 1, NormalDist for
    # an aggregate's interval, csv for bench's output file.
    modules = ["concurrent.futures", "multiprocessing", "statistics", "csv"]
    script = "import sys, epoal, epoal.cli; print([m for m in sys.argv[1:] if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", script, *modules], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_a_closed_stdout_exits_141_and_prints_nothing(tmp_path):
    # The trace is megabytes, far more than a pipe buffers, so the reader closes the pipe
    # while epoal is still writing.
    argv = [sys.executable, "-m", "epoal.cli", "trace", "--kind", "convex", "--K", "4",
            "--d", "5", "--algo", "subgradient", "--mu", "0.05", "--iters", "20000"]
    with open(tmp_path / "err", "wb") as err:
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env())
        head = child.stdout.read(100)
        child.stdout.close()
        code = child.wait(timeout=120)
    assert head.startswith(b'{"type": "header"')
    assert (code, (tmp_path / "err").read_text()) == (141, "")


# Python leaves SIGINT ignored when its parent ignored it, as a shell does for a background
# job; the child restores the handler a terminal's Ctrl-C meets.  It reports from inside the
# trace's solver call, which then repeats until the interrupt lands.
INTERRUPTED_TRACE = """
import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
import epoal.cli as cli
solve = cli.run
def run(*args, **kwargs):
    print("inside main", file=sys.stderr, flush=True)
    while True:
        solve(*args, **kwargs)
cli.run = run
sys.exit(cli.main(sys.argv[1:]))
"""


def test_sigint_exits_130_with_one_stderr_line():
    argv = [sys.executable, "-c", INTERRUPTED_TRACE, "trace", "--kind", "nonconvex",
            "--K", "2", "--d", "3", "--algo", "epo-al", "--eta", "1", "--mu", "0.1",
            "--iters", "200"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=child_env(), text=True)
    try:
        assert child.stderr.readline() == "inside main\n"
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, "", "epoal: interrupted\n")


def test_bench_rejects_unknown_kind(capsys):
    code = main(["bench", "--kinds", "spherical", "--K", "2", "--d", "4",
                 "--trials", "3", "--out", "x.csv"])
    assert code == 64


def certified_fixture(tmp_path, steps=20_000):
    problem = make_problem("convex-distance", 3, 2, seed=2)
    r = sample_preference(2, 2)
    state = initial_state(sample_initial(3, 2), 2)
    for _ in range(steps):
        state = epo_al_step(state, problem, r, 0.1, 1.0)
    problem_path = tmp_path / "problem.txt"
    save_problem(problem, problem_path)
    model_path = tmp_path / "model.txt"
    model_path.write_text("\n".join(repr(float(x)) for x in state.w) + "\n")
    return problem, r, problem_path, model_path


def test_certify_accepts_converged_point(tmp_path, capsys):
    _, r, problem_path, model_path = certified_fixture(tmp_path)
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", f"{r[0]},{r[1]}"])
    cert = json.loads(capsys.readouterr().out)
    assert code == 0
    assert cert["is_fair"] and cert["is_stationary"]
    assert set(cert) == {"fairness", "stationarity_gap", "is_fair",
                         "is_stationary", "minmax"}


def test_certify_rejects_random_point(tmp_path, capsys):
    _, r, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    model_path.write_text("0.3\n-0.2\n0.9\n")
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", f"{r[0]},{r[1]}"])
    cert = json.loads(capsys.readouterr().out)
    assert code == 3
    assert not cert["is_fair"]


def test_certify_accepts_common_anchor_of_duplicated_objectives(tmp_path, capsys):
    anchor = np.array([0.6, 0.8])
    from epoal.problems import SyntheticProblem
    problem = SyntheticProblem(kind="convex-distance",
                               anchors=np.vstack([anchor, anchor]))
    problem_path = tmp_path / "dup.txt"
    save_problem(problem, problem_path)
    model_path = tmp_path / "model.txt"
    model_path.write_text("0.6\n0.8\n")
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1,1"])
    assert code == 0


def test_certify_malformed_model_exits_65(tmp_path, capsys):
    _, r, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    model_path.write_text("0.1\nnot-a-number\n0.3\n")
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1,1"])
    assert code == 65
    assert "not a decimal" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe0.1\n", "cannot read model file"),
    (b"0.1 0.2\n0.3 0.4\n", "one coordinate per line"),
    (b"0.1\n\n0.2 0.3\n", "model.txt:3: row length 2, line 1 has 1"),
], ids=["undecodable", "two-per-line", "ragged"])
def test_certify_unreadable_model_exits_65(tmp_path, capsys, content, message):
    _, _, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    model_path.write_bytes(content)
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1,1"])
    assert code == 65
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"", b"\n  \n\n", b"0.1\nnan\n0.3\n",
                                     b"0.1\n1e400\n0.3\n"],
                         ids=["empty", "blank-lines", "nan", "overflow"])
def test_certify_empty_or_non_finite_model_exits_65_naming_it(tmp_path, capsys, content):
    _, _, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    model_path.write_bytes(content)
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1,1"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert str(model_path) in captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_overflowing_preference_writes_no_nan_or_infinity(tmp_path, capsys):
    # r * J is finite but its fairness residual overflows at the start point.
    _, _, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1e300,1e300"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert str(model_path) in captured.err

    out = tmp_path / "trace.jsonl"
    code = main(["trace", "--kind", "fig1", "--d", "3", "--algo", "subgradient", "--mu", "0.1",
                 "--r", "1e300,1e300", "--out", str(out)])
    assert code == 2
    lines = [json.loads(ln, parse_constant=_reject_constant)
             for ln in out.read_text().splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[-1]["type"] == "error" and lines[-1]["iteration"] == len(lines) - 2


def test_reported_divergences_print_no_numpy_warnings(tmp_path, capsys):
    # The dual overflows at iterate 37 (the trace ends in an error record, exit 2), and
    # the model's values or the fairness residual overflow (certify exits 65).
    problem_path, model_path = tmp_path / "problem.txt", tmp_path / "model.txt"
    save_problem(make_problem("convex-distance", 2, 2, seed=0), problem_path)
    certify = ["certify", "--problem", str(problem_path), "--model", str(model_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["trace", "--kind", "nonconvex", "--d", "3", "--K", "2", "--algo",
                     "epo-al", "--mu", "10", "--eta", "1", "--r", "1e153,1",
                     "--iters", "60"]) == 2
        for model, r in (("1e200\n0\n", "1,1"), ("0.5\n0\n", "1e300,1e300")):
            model_path.write_text(model)
            assert main(certify + ["--r", r]) == 65
    assert [str(w.message) for w in caught] == []
    assert "iteration\": 37" in capsys.readouterr().out


@pytest.fixture(scope="module")
def fuzz_problem(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "problem.txt"
    save_problem(make_problem("convex-distance", 2, 2, 0), path)
    return path


VALID_R = ["1,1", "0.2,0.8", "1e300,1e300"]
FINITE = ["0", "0.5", "1e150"]
VALID_TOL = [None, "1e-12", "5e-324", "1e308"]
GOOD_TOL, BAD_TOL = st.sampled_from(VALID_TOL), st.sampled_from(["0", "-1", "nan", "inf"])

# Models of two finite coordinates reach the certificate, so they draw the tolerances: both
# valid, or one of them not; corrupt models and bad preferences keep the defaults.
WELL_FORMED = st.tuples(st.just(b""), st.lists(st.sampled_from(FINITE), min_size=2, max_size=2),
                        st.sampled_from(VALID_R),
                        st.tuples(GOOD_TOL, GOOD_TOL) | st.tuples(BAD_TOL, GOOD_TOL)
                        | st.tuples(GOOD_TOL, BAD_TOL))
CORRUPT = st.tuples(st.sampled_from([b"", b"\xff\xfe"]),
                    st.lists(st.sampled_from(FINITE + ["1e400", "nan", "inf", "x", "0.1 0.2", "",
                                                       "  "]), max_size=4),
                    st.sampled_from(VALID_R + ["nan,1", "1", ""]), st.just((None, None)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=WELL_FORMED | CORRUPT)
def test_certify_file_boundary_ends_in_a_documented_code(fuzz_problem, case):
    prefix, lines, r, tols = case
    model = fuzz_problem.with_name("model.txt")
    model.write_bytes(prefix + "".join(line + "\n" for line in lines).encode())
    flags = [token for flag, tol in zip(("--fair-tol", "--gap-tol"), tols) if tol is not None
             for token in (flag, tol)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", "--problem", str(fuzz_problem), "--model", str(model),
                     "--r", r, *flags])
    assert code in (0, 3, 64, 65)
    valid_tols = all(tol in VALID_TOL for tol in tols)
    assert not (code == 64 and r in VALID_R and valid_tols)
    # A tolerance the library rejects never yields a verdict.
    assert valid_tols or code in (64, 65)
    assert "Traceback" not in err.getvalue()
    if code in (0, 3):
        cert = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert list(cert) == ["fairness", "stationarity_gap", "is_fair", "is_stationary",
                              "minmax"]
    else:
        assert out.getvalue() == ""
        assert str(model) in err.getvalue() or code == 64


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-fuzz") / "bench.csv"


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; argparse's usage errors exit too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


# Small enough that a case which reaches the protocol takes a fraction of a second.
BENCH_VALID = {"--kinds": ["convex", "nonconvex", "convex,nonconvex"], "--K": ["2", "3,4", "4"],
               "--d": ["1", "3", "4"], "--trials": ["3", "4", "5"],
               "--algos": ["epo-al", "subgradient", "smooth-max", "epo-al,subgradient"],
               "--seed": ["0", "7", str(2 ** 64)],
               "--epsilon": ["0.01", "1", "1e-300", "1e308", "5e-324"],
               "--max-iter": ["0", "5", "20"], "--jobs": ["1", "2"]}
BENCH_INVALID = {"--kinds": ["", "spherical", "convex,convex"],
                 "--K": ["2,2", "1", "0", "-2", "", "x", "2.5"], "--d": ["0", "-1", "x"],
                 "--trials": ["2", "x"], "--algos": ["foo", "", "epo-al,epo-al"],
                 "--seed": ["-1", "x"], "--epsilon": ["0", "-1", "nan", "inf", "x"],
                 "--max-iter": ["-1", "1.5"], "--jobs": ["0", "-2"],
                 # Not a flag: argparse rejects it as unrecognized, exit 64.
                 "--timing-reps": ["1"]}


# A valid argv, or one with a single invalid flag value.
@settings(derandomize=True, max_examples=40, deadline=None)
@given(argv=st.fixed_dictionaries({flag: st.sampled_from(values)
                                   for flag, values in BENCH_VALID.items()}),
       broken=st.none() | st.sampled_from([(flag, value) for flag, values in
                                           BENCH_INVALID.items() for value in values]))
@example(argv={flag: values[0] for flag, values in BENCH_VALID.items()},
         broken=("--timing-reps", "1"))
def test_bench_argv_ends_in_a_documented_code(bench_out, argv, broken):
    if broken is not None:
        argv = {**argv, broken[0]: broken[1]}
    bench_out.unlink(missing_ok=True)
    code, stdout, stderr = run_main(["bench", *(token for item in argv.items() for token in item),
                                     "--out", str(bench_out)])
    assert code in (0, 64, 65)
    assert code == (0 if broken is None else 64)
    assert "Traceback" not in stderr and stdout == ""
    if code != 0:
        assert stderr and not bench_out.exists()
        return
    header, *lines = bench_out.read_text().splitlines()
    assert json.loads(header[2:])["config"]["master_seed"] == int(argv["--seed"])
    rows = list(csv.reader(lines))
    assert rows[0] == CSV_COLUMNS
    cells = [len(argv[flag].split(",")) for flag in ("--kinds", "--K", "--algos")]
    assert len(rows) == 1 + np.prod(cells)
    assert all(len(row) == len(CSV_COLUMNS) and row[-1] == argv["--seed"] for row in rows[1:])
    assert json.loads(bench_out.with_suffix(".meta.json").read_text())["command"] == "bench"


# Cheap trace flags, d <= 4, K <= 4 and at most 5 iterations, with extreme but valid step
# sizes, preferences and seeds.  Each K comes with preferences of its length or none; fig1
# takes no --K, so a preference of another length than 2 is its usage error.
TRACE_SHAPES = {"2": [None, "0.2,0.8", "1e308,1"], "3": [None, "1,1,1"],
                "4": [None, "0.1,0.2,0.3,0.4", "1,1e308,1,1"]}
TRACE_VALID = {"--d": ["1", "3", "4"], "--iters": ["0", "1", "5"],
               "--mu": ["0.1", "10", "1e308", "1e-320"],
               "--eta": ["0", "0.1", "10", "1e308", "1e-320"],
               "--tau": ["0.1", "10", "1e308", "1e-320"], "--seed": ["0", "7", str(2 ** 70)]}
# One flag left out (None) or given a value no trace accepts.
TRACE_BROKEN = {"--d": ["0"], "--K": [None, "1"], "--iters": ["-1"],
                "--mu": ["0", "nan", "inf", "-inf"], "--eta": [None, "nan", "inf", "-1"],
                "--tau": [None, "0", "nan", "inf"],
                "--r": ["0,1", "1,-1", "1", "1,1,1,1,1", "x"], "--seed": ["-1"]}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from([None, "convex", "nonconvex"]),
       algo=st.sampled_from(["epo-al", "subgradient", "smooth-max"]),
       shape=st.sampled_from([(K, r) for K, rs in TRACE_SHAPES.items() for r in rs]),
       flags=st.fixed_dictionaries({flag: st.sampled_from(values)
                                    for flag, values in TRACE_VALID.items()}),
       broken=st.none() | st.sampled_from([(flag, value) for flag, values in
                                           TRACE_BROKEN.items() for value in values]))
def test_trace_argv_ends_in_a_documented_code(kind, algo, shape, flags, broken):
    flags = {"--K": None if kind is None else shape[0], "--r": shape[1], **flags}
    if broken is not None:
        flags[broken[0]] = broken[1]
    argv = ["trace", "--kind", "fig1" if kind is None else kind, "--algo", algo,
            *(token for flag, value in flags.items() if value is not None
              for token in (flag, value))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run_main(argv)
    assert code in (0, 2, 64, 65)
    assert "Traceback" not in stderr and [str(w.message) for w in caught] == []
    if broken is not None and broken[1] is not None:
        assert code == 64
    if code not in (0, 2):
        assert stdout == "" and stderr
        return
    lines = [json.loads(line, parse_constant=_reject_constant) for line in stdout.splitlines()]
    assert lines[0]["type"] == "header"
    records = lines[1:-1] if code == 2 else lines[1:]
    assert (lines[-1].get("type") == "error") == (code == 2)
    assert [record["iter"] for record in records] == list(range(len(records)))


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, flags, commands", [
    ("run_scaling_experiment.py", ["--out", "scaling.csv"], ["bench"]),
    ("run_scaling_experiment.py", ["--full", "--jobs", "8", "--out", "full.csv"], ["bench"]),
    ("trajectory_traces.py", ["--out-dir", "trajectories"], ["trace"] * 3)])
def test_scripts_build_argv_that_the_cli_parses(monkeypatch, tmp_path, capsys, script, flags,
                                               commands):
    # The scripts hand their argv to epoal.cli.main; a recorder takes its place here, so
    # no solver runs, and every argv must parse as the CLI would parse it.
    recorded = []

    def recorder(argv):
        recorded.append(argv)
        return 0

    monkeypatch.setattr(cli, "main", recorder)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *flags])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert excinfo.value.code == 0
    assert [build_parser().parse_args(argv).command for argv in recorded] == commands


@pytest.mark.parametrize("t, code", [(19, 3), (20, 3), (22, 3), (26, 3), (None, 0)])
def test_certify_verdict_survives_gradients_that_underflow(tmp_path, capsys, t, code):
    # On the gaussian pair's bisector t u the gradients are about 2 t e^-t^2, whose squares
    # underflow: at t = 20 the gap is 1.2e-165 against a tolerance of 1.2e-169.  At (20, 6)
    # the gap is 7.0e-198, under its tolerance of 5.8e-175.
    problem = make_problem("nonconvex-gaussian", 2, 2, 0)
    u = problem.anchors.sum(axis=0) / np.linalg.norm(problem.anchors.sum(axis=0))
    problem_path, model_path = tmp_path / "problem.txt", tmp_path / "model.txt"
    save_problem(problem, problem_path)
    model_path.write_text("".join(f"{float(x)!r}\n" for x in ([20, 6] if t is None else t * u)))
    assert main(["certify", "--problem", str(problem_path), "--model", str(model_path),
                 "--r", "0.5,0.5"]) == code
    assert 0.0 < json.loads(capsys.readouterr().out)["stationarity_gap"]


def test_certify_missing_problem_exits_65(tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    model_path.write_text("0.0\n")
    code = main(["certify", "--problem", str(tmp_path / "nope.txt"), "--model",
                 str(model_path), "--r", "1,1"])
    assert code == 65


@pytest.mark.parametrize("r", ["nan,1", "inf,1"])
def test_certify_non_finite_r_exits_64(tmp_path, capsys, r):
    _, _, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", r])
    assert code == 64
    assert "epoal: error:" in capsys.readouterr().err


def test_certify_malformed_problem_row_names_line_and_token(tmp_path, capsys):
    _, _, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    header, first, _ = problem_path.read_text().splitlines()
    problem_path.write_text(f"{header}\n\n{first}\n0.0 1x0 0.0\n")
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1,1"])
    assert code == 65
    assert f"{problem_path}:4: '1x0'" in capsys.readouterr().err


def test_certify_wrong_r_length_exits_64(tmp_path, capsys):
    _, _, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1,1,1"])
    assert code == 64


def test_certify_non_finite_objectives_exits_65(tmp_path, capsys):
    # ||w - w_k||^2 overflows, so the convex values are inf; nothing is printed.
    problem_path, model_path = tmp_path / "problem.txt", tmp_path / "model.txt"
    save_problem(make_problem("convex-distance", 2, 2, seed=0), problem_path)
    model_path.write_text("1e200\n0\n")
    code = main(["certify", "--problem", str(problem_path), "--model",
                 str(model_path), "--r", "1,1"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert str(model_path) in captured.err


def test_main_reuses_one_parser_without_carrying_state(tmp_path, capsys):
    problem, r, problem_path, model_path = certified_fixture(tmp_path, steps=0)
    out = tmp_path / "trace.jsonl"
    trace = ["trace", "--kind", "convex", "--d", "3", "--K", "2", "--algo", "epo-al",
             "--mu", "0.1", "--eta", "1", "--iters", "5", "--out", str(out)]
    certify = ["certify", "--problem", str(problem_path), "--model", str(model_path),
               "--r", f"{r[0]},{r[1]}", "--gap-tol", "1e-3"]

    with pytest.raises(SystemExit) as excinfo:
        main(trace + ["--bogus", "1"])
    assert excinfo.value.code == 64
    assert main(trace) == 0
    first = out.read_bytes()
    assert read_jsonl(out)[0]["config"]["eta"] == 1.0
    capsys.readouterr()

    w = np.array([float(x) for x in model_path.read_text().split()])
    expected = certify_epo(w, problem, r, gap_tol=1e-3)
    assert main(certify) == (0 if expected.is_fair and expected.is_stationary else 3)
    assert json.loads(capsys.readouterr().out)["stationarity_gap"] == expected.stationarity_gap

    out.unlink()
    assert main(trace) == 0
    assert out.read_bytes() == first
    # A parse through the shared parser matches one through a fresh parser.
    assert vars(_parser().parse_args(trace)) == vars(build_parser().parse_args(trace))
    assert _parser() is _parser() and build_parser() is not build_parser()
