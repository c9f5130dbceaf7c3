"""Smoke test of the benchmark at tiny sizes: Löbell n = 5, Fibonacci n = 4,
R(5), and one CLI call per run.  It checks that every metric is printed with
a unit and that a broken triangulation is counted as a failure, not raised.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import io
import json

import pytest

import bench
import run

# The end-to-end metrics each workload prints besides its final JSON line.
SUMMARY_METRICS = {
    "lobell_pipeline": {"certify_tets_per_s", "fail_ratio"},
    "fibonacci_pipeline": {"certify_tets_per_s", "fail_ratio"},
    "cli_cold": {"cli_s.p50", "cli_s.p75", "fail_ratio"},
    "census": {"colorings_per_s", "volume_rows_per_s", "fail_ratio"},
}
END_TO_END = {"setup_s", "peak_rss_mb", "chain_s.p50"}


def printed(result):
    """(metric lines as name -> unit, final JSON object) of a reported run."""
    out = io.StringIO()
    bench.report(result, out)
    lines = out.getvalue().splitlines()
    units = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit, *_ = line.split()
            float(value)
            units[name] = unit
    return units, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_a_unit(workload):
    units, final = printed(bench.run(workload, seed=1, seconds=0, trace=False, sizes=bench.TINY))
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == END_TO_END
    assert all(m["unit"] and m["value"] > 0 for m in final["metrics"].values())
    assert SUMMARY_METRICS[workload] | END_TO_END <= {n for n, u in units.items() if u}


def test_a_missing_gluing_is_counted_and_traced(monkeypatch):
    triangulate = bench.triangulate_lobell

    def drop_one_gluing(coloring):
        tri = triangulate(coloring)
        tri.gluings[0][0] = None
        return tri

    monkeypatch.setattr(bench, "triangulate_lobell", drop_one_gluing)
    result = bench.run("lobell_pipeline", seed=1, seconds=0, trace=True, sizes=bench.TINY)
    units, final = printed(result)
    assert not final["correct"]
    assert final["failed"] == final["attempted"] == 2  # one untraced, one traced sample
    assert result.notes["fail_ratio"][:2] == (1.0, "1")
    assert any("verify_triangulation not ok" in p for p in result.problems)
    assert set(final["metrics"]) == set(bench.LAYER_METRICS)
    assert all(units[name] == unit for name, unit in bench.LAYER_METRICS.items())
    assert final["metrics"]["triangulation.tets"]["value"] == 288
