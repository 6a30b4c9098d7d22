"""Layer timings at fixed sizes, independent of any workload.

The contention steps are timed per call at fixed pool sizes, so a change
to the per-device core shows its speed-up at every pool size. The rest are
the per-call baselines of the estimator, optimizer (including the offline
table and its lookup) and aggregation layers.
Every number is the median over repeated calls; inputs come from `seed`.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from rachsim.estimator import LoadBranch, estimate_load
from rachsim.lambertw import WBranch, lambert_w
from rachsim.model import RachConfig
from rachsim.optimizer import decide_subframes, subframe_lookup_table
from rachsim.scenario import default_scenario
from rachsim.simulator import (
    DeviceState,
    TimeSeries,
    acb_gate,
    aggregate_runs,
    contend,
    resolve_backoff,
    run_scenario,
)

POOL_SIZES = (64, 256, 1024, 4096)
# Devices processed per (step, pool size): a few tenths of a second each.
DEVICES_PER_POINT = 150_000
CALLS_PER_BASELINE = 3000
N_S = 2  # the default allocation
PREAMBLES = 64


def _median_ns(calls) -> float:
    """Median wall time of zero-argument calls, each timed alone."""
    clock = time.perf_counter_ns
    times = []
    for call in calls:
        t0 = clock()
        call()
        times.append(clock() - t0)
    return statistics.median(times)


def _fresh_pools(size: int, count: int) -> list[list[DeviceState]]:
    return [[DeviceState(id=k) for k in range(size)] for _ in range(count)]


def pool_sweep(seed: int, devices_per_point: int = DEVICES_PER_POINT) -> dict[str, float]:
    """ns per device of contend, resolve_backoff and acb_gate at each pool size."""
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for size in POOL_SIZES:
        reps = max(5, devices_per_point // size)
        pools = _fresh_pools(size, reps)
        out[f"micro.contend.ns_per_device_at_{size}"] = _median_ns(
            (lambda p=p: contend(p, N_S, PREAMBLES, rng)) for p in pools
        ) / size
        pools = _fresh_pools(size, reps)
        out[f"micro.resolve_backoff.ns_per_device_at_{size}"] = _median_ns(
            (lambda p=p: resolve_backoff(p, 0, 4, 10, rng)) for p in pools
        ) / size
        pools = _fresh_pools(size, reps)
        out[f"micro.acb_gate.ns_per_device_at_{size}"] = _median_ns(
            (lambda p=p: acb_gate(p, 0.5, 4, 0, rng)) for p in pools
        ) / size
    return out


def baselines(seed: int, calls: int = CALLS_PER_BASELINE) -> dict[str, float]:
    """Per-call medians of the estimator, optimizer and aggregation layers."""
    rng = np.random.default_rng(seed)
    config = RachConfig()
    out: dict[str, float] = {}
    # arguments across the estimator's range, -u with u = eta / pairs in (0, 1/e)
    xs = [float(x) for x in -rng.uniform(0.01, math.exp(-1.0) - 1e-6, calls)]
    out["micro.lambert_w.w0_us"] = _median_ns(
        (lambda x=x: lambert_w(x, WBranch.PRINCIPAL)) for x in xs
    ) / 1e3
    out["micro.lambert_w.wm1_us"] = _median_ns(
        (lambda x=x: lambert_w(x, WBranch.LOWER)) for x in xs
    ) / 1e3
    pairs = N_S * PREAMBLES
    successes = [int(s) for s in rng.integers(1, int(pairs / math.e), calls)]
    branches = [LoadBranch.LIGHT if b else LoadBranch.HEAVY for b in rng.integers(0, 2, calls)]
    out["micro.estimate_load.us"] = _median_ns(
        (lambda s=s, b=b: estimate_load(s, N_S, PREAMBLES, b))
        for s, b in zip(successes, branches)
    ) / 1e3
    loads = [float(x) for x in rng.uniform(0.0, 900.0, calls)]
    out["micro.decide_subframes.us"] = _median_ns(
        (lambda x=x: decide_subframes(x, config)) for x in loads
    ) / 1e3
    out["micro.subframe_lookup_table.ms"] = _median_ns(
        (lambda: subframe_lookup_table(config)) for _ in range(15)
    ) / 1e6
    table = subframe_lookup_table(config)
    loads = [float(x) for x in rng.uniform(0.0, 700.0, calls)]
    out["micro.lookup.us"] = _median_ns((lambda x=x: table.lookup(x)) for x in loads) / 1e3
    rows = run_scenario(default_scenario("adaptive"), seed).rows
    runs = [TimeSeries(rows=rows, replication_id=i, seed=i) for i in range(100)]
    out["micro.aggregate_runs.ms_100x20"] = _median_ns(
        (lambda: aggregate_runs(runs)) for _ in range(15)
    ) / 1e6
    return out
