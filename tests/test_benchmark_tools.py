"""The benchmark's tracer and layer timings against the current package.

benchmarks/tracing.py replaces functions by the names in TRACE_POINTS, and
benchmarks/micro.py builds TimeSeries from FrameOutcome rows and times
DeviceState pools through contend, resolve_backoff and acb_gate. A renamed or
removed name would otherwise show only in the benchmark's own slow smoke
run, so both modules are loaded here by path and exercised on small inputs.
"""

import importlib.util
from pathlib import Path

import numpy as np

import rachsim.cli
from rachsim.scenario import default_scenario
from rachsim.simulator import TimeSeries, aggregate_runs, run_scenario

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_trace_point_and_restores_it(tmp_path):
    tracing = load("tracing")
    originals = [holder.__dict__[attr] for holder, attr, _ in tracing.TRACE_POINTS]
    scn = tmp_path / "small.scn"
    scn.write_text("[load]\nsegments = 0:5:0:200, 5:10:200:0\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(
            holder.__dict__[attr] is not original
            for (holder, attr, _), original in zip(tracing.TRACE_POINTS, originals)
        )
        rc = rachsim.cli.main(["run", "--scenario", str(scn), "--reps", "2",
                               "--out", str(tmp_path / "run.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert all(
        holder.__dict__[attr] is original
        for (holder, attr, _), original in zip(tracing.TRACE_POINTS, originals)
    )
    stats = tracing.span_stats(tracer)
    assert stats["cli.main"]["calls"] == 1
    assert stats["simulator.run_scenario"]["calls"] == 2
    assert stats["simulator.generate_arrivals"]["calls"] == 2  # one draw per run


def test_rows_round_trip_through_aggregate_runs():
    series = run_scenario(default_scenario("adaptive"), 1)
    rebuilt = TimeSeries(rows=series.rows, replication_id=0, seed=1)
    assert rebuilt.rows == series.rows
    for name, column in series.columns.items():
        assert rebuilt.columns[name].dtype == column.dtype
        assert np.array_equal(rebuilt.columns[name], column, equal_nan=True)
    direct, via_rows = aggregate_runs([series]), aggregate_runs([rebuilt])
    for name in direct.means:
        assert np.array_equal(direct.means[name], via_rows.means[name], equal_nan=True)


def test_micro_baselines_run():
    # micro.py times aggregate_runs over TimeSeries(rows=...) copies of one run
    micro = load("micro")
    out = micro.baselines(seed=1, calls=20)
    assert out["micro.aggregate_runs.ms_100x20"] > 0
    assert all(value > 0 for value in out.values())


def test_micro_pool_sweep_runs():
    # the benchmark's only use of DeviceState, contend, resolve_backoff and acb_gate
    micro = load("micro")
    out = micro.pool_sweep(seed=1, devices_per_point=500)
    assert len(out) == 12  # three adapters at four pool sizes
    assert all(value > 0 for value in out.values())
