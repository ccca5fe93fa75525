"""The benchmark's certify workload checks epoal's certificates against perfbench/reference.json;
a certificate that leaves the stored band fails here, not first in a benchmark run."""

import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_certify_meets_the_benchmark_reference_on_every_pool_input(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    bench = workloads.Certify(0, tmp_path, workloads.load_reference())
    units = bench.pool()
    assert len(units) == 144
    for n, unit in enumerate(units):
        ref = bench.reference[unit["key"]]
        anchors, r, w = workloads.certify_inputs(unit["kind"], unit["K"], unit["d"],
                                                 unit["pool_seed"], ref.get("near_iters", 0))
        unit["argv"] = bench.argv(*workloads.write_certify_files(
            tmp_path, f"c{n}", unit["kind"], anchors, r, w))
        got = bench.record(unit, bench.call(unit)[1])
        for field in ("exit_code", "is_fair", "is_stationary"):
            assert got[field] == ref[field], (unit["key"], field)
        for field in ("fairness", "minmax"):
            assert math.isclose(got[field], ref[field], rel_tol=1e-9), (unit["key"], field)
        # The exact gap lies between the duality bound and the gap Frank-Wolfe reached.
        gap = got["stationarity_gap"]
        assert ref["gap_lower_bound"] * (1.0 - 1e-6) <= gap <= ref["fw_gap"] * (1.0 + 1e-9), \
            unit["key"]
