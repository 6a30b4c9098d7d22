"""Span tracing of rachsim from outside the package.

The tracer replaces public functions at the name each caller looks up
(for example `rachsim.simulator.contend`, or `estimate_load` as imported
into `rachsim.simulator`) with a wrapper that records one span per call:
name, start, end, parent span and invocation id. Spans live in compact
in-memory arrays and are written out after the run. Self time, call counts
and the useful-outcome ratios are derived from the spans and from counters
taken at the same boundaries. Nothing under src/ is modified; `uninstall`
puts every original function back.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import rachsim.cli
import rachsim.estimator
import rachsim.optimizer
import rachsim.simulator
from rachsim.estimator import LoadBranch
from rachsim.simulator import DeviceStatus

# (object holding the name, attribute, span name). The span name's first
# component is the layer (the module that defines the function).
TRACE_POINTS = [
    (rachsim.cli, "main", "cli.main"),
    (rachsim.cli, "cmd_run", "cli.cmd_run"),
    (rachsim.cli, "cmd_compare", "cli.cmd_compare"),
    (rachsim.cli, "cmd_table", "cli.cmd_table"),
    (rachsim.cli, "write_run_csv", "cli.write_run_csv"),
    (rachsim.cli, "write_compare_csv", "cli.write_compare_csv"),
    (rachsim.cli, "build_report", "cli.build_report"),
    (rachsim.cli, "parse_scenario", "scenario.parse_scenario"),
    (rachsim.cli, "run_replications", "simulator.run_replications"),
    (rachsim.cli, "subframe_lookup_table", "optimizer.subframe_lookup_table"),
    (rachsim.cli, "utility_of_load", "model.utility_of_load"),
    (rachsim.cli, "throughput", "model.throughput"),
    (rachsim.simulator, "run_scenario", "simulator.run_scenario"),
    (rachsim.simulator, "aggregate_runs", "simulator.aggregate_runs"),
    (rachsim.simulator, "generate_arrivals", "simulator.generate_arrivals"),
    (rachsim.simulator, "contend", "simulator.contend"),
    (rachsim.simulator, "resolve_backoff", "simulator.resolve_backoff"),
    (rachsim.simulator, "acb_gate", "simulator.acb_gate"),
    (rachsim.simulator, "estimate_load", "estimator.estimate_load"),
    (rachsim.simulator, "decide_subframes", "optimizer.decide_subframes"),
    (rachsim.estimator, "lambert_w", "lambertw.lambert_w"),
    (rachsim.optimizer, "optimal_subframes_integer", "optimizer.optimal_subframes_integer"),
    (rachsim.optimizer, "utility_of_load", "model.utility_of_load"),
    (rachsim.optimizer.LookupTable, "lookup", "optimizer.lookup"),
]
SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TRACE_POINTS))
LAYERS = ["cli", "scenario", "simulator", "estimator", "lambertw", "optimizer", "model"]

# Spans of the contention hot path on the simulation workloads.
HOT_SPANS = [
    "simulator.contend",
    "simulator.resolve_backoff",
    "simulator.acb_gate",
    "simulator.run_scenario",
]


def _on_contend(counts: Counter, args, result) -> None:
    counts["contend.devices"] += len(args[0])
    counts["contend.successes"] += result.successes


def _on_resolve_backoff(counts: Counter, args, result) -> None:
    collided = args[0]
    counts["resolve_backoff.devices"] += len(collided)
    counts["resolve_backoff.drops"] += sum(
        1 for dev in collided if dev.status is DeviceStatus.DROPPED
    )


def _on_acb_gate(counts: Counter, args, result) -> None:
    counts["acb_gate.devices"] += len(args[0])
    counts["acb_gate.barred"] += len(result[1])


def _on_estimate_load(counts: Counter, args, result) -> None:
    counts["estimate_load.heavy"] += args[3] is LoadBranch.HEAVY


def _on_decide_subframes(counts: Counter, args, result) -> None:
    counts["decide_subframes.clamped"] += result.clamped


ON_RESULT = {
    "simulator.contend": _on_contend,
    "simulator.resolve_backoff": _on_resolve_backoff,
    "simulator.acb_gate": _on_acb_gate,
    "estimator.estimate_load": _on_estimate_load,
    "optimizer.decide_subframes": _on_decide_subframes,
}


class Tracer:
    """Records spans for the calls in TRACE_POINTS while installed."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.current_invocation = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for holder, attr, span in TRACE_POINTS:
            original = holder.__dict__[attr]
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def _wrap(self, fn, span: str):
        span_id = SPAN_NAMES.index(span)
        on_result = ON_RESULT.get(span)
        names, parents, invocations = self.name, self.parent, self.invocation
        starts, ends, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            invocations.append(self.current_invocation)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[span + ".errors"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, with the span-name table, as a compressed .npz."""
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES), **self.arrays())


def span_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, inclusive and self seconds, durations."""
    a = tracer.arrays()
    n = len(SPAN_NAMES)
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
    has_parent = a["parent"] >= 0
    child = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_s = dur - child
    calls = np.bincount(a["name"], minlength=n)
    incl = np.bincount(a["name"], weights=dur, minlength=n)
    own = np.bincount(a["name"], weights=self_s, minlength=n)
    stats = {}
    for i, span in enumerate(SPAN_NAMES):
        stats[span] = {
            "calls": int(calls[i]),
            "incl_s": float(incl[i]),
            "self_s": float(own[i]),
            "durations": dur[a["name"] == i],
        }
    return stats


def layer_metrics(
    tracer: Tracer,
    n_invocations: int,
    csv_bytes: float,
    csv_rows: float,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced run, per invocation where a count.

    Per-call times (`us_per_call`, `ms`, `s`) are inclusive of child spans;
    `self_s` excludes them. A ratio or a per-call time whose base is zero
    (the layer was not called on this workload) reads 0.
    """
    st = span_stats(tracer)
    c = tracer.counts
    inv = max(n_invocations, 1)

    def per_call(span: str, scale: float) -> float:
        s = st[span]
        return s["incl_s"] / s["calls"] * scale if s["calls"] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def pct(span: str, q: float) -> float:
        d = st[span]["durations"]
        return float(np.percentile(d, q)) * 1e3 if len(d) else 0.0

    m: dict[str, float] = {}
    for op in ("contend", "resolve_backoff", "acb_gate"):
        span = f"simulator.{op}"
        devices = c[f"{op}.devices"]
        m[f"{span}.calls"] = st[span]["calls"] / inv
        m[f"{span}.devices"] = devices / inv
        m[f"{span}.ns_per_device"] = ratio(st[span]["incl_s"] * 1e9, devices)
        if op != "acb_gate":
            m[f"{span}.self_s"] = st[span]["self_s"] / inv
    m["simulator.contend.success_ratio"] = ratio(c["contend.successes"], c["contend.devices"])
    m["simulator.resolve_backoff.drop_ratio"] = ratio(
        c["resolve_backoff.drops"], c["resolve_backoff.devices"]
    )
    m["simulator.acb_gate.barred_ratio"] = ratio(c["acb_gate.barred"], c["acb_gate.devices"])
    m["simulator.run_scenario.calls"] = st["simulator.run_scenario"]["calls"] / inv
    m["simulator.run_scenario.ms_p50"] = pct("simulator.run_scenario", 50)
    m["simulator.run_scenario.ms_p90"] = pct("simulator.run_scenario", 90)
    m["simulator.run_scenario.self_s"] = st["simulator.run_scenario"]["self_s"] / inv
    m["simulator.generate_arrivals.calls"] = st["simulator.generate_arrivals"]["calls"] / inv
    m["simulator.generate_arrivals.us_per_call"] = per_call("simulator.generate_arrivals", 1e6)
    m["simulator.aggregate_runs.ms"] = per_call("simulator.aggregate_runs", 1e3)
    m["simulator.run_replications.s"] = per_call("simulator.run_replications", 1.0)

    estimates = st["estimator.estimate_load"]["calls"]
    m["estimator.estimate_load.calls"] = estimates / inv
    m["estimator.estimate_load.us_per_call"] = per_call("estimator.estimate_load", 1e6)
    m["estimator.heavy_frac"] = ratio(c["estimate_load.heavy"], estimates)
    m["estimator.fallbacks"] = c["estimator.estimate_load.errors"] / inv
    m["lambertw.lambert_w.calls"] = st["lambertw.lambert_w"]["calls"] / inv
    m["lambertw.lambert_w.us_per_call"] = per_call("lambertw.lambert_w", 1e6)

    decisions = st["optimizer.decide_subframes"]["calls"]
    m["optimizer.decide_subframes.calls"] = decisions / inv
    m["optimizer.decide_subframes.us_per_call"] = per_call("optimizer.decide_subframes", 1e6)
    m["optimizer.decide_subframes.clamped_frac"] = ratio(
        c["decide_subframes.clamped"], decisions
    )
    for span in ("optimizer.optimal_subframes_integer", "optimizer.lookup", "model.utility_of_load"):
        m[f"{span}.calls"] = st[span]["calls"] / inv
        m[f"{span}.us_per_call"] = per_call(span, 1e6)
    m["optimizer.subframe_lookup_table.ms"] = per_call("optimizer.subframe_lookup_table", 1e3)

    m["cli.write_run_csv.s"] = per_call("cli.write_run_csv", 1.0)
    m["cli.write_compare_csv.s"] = per_call("cli.write_compare_csv", 1.0)
    # CSV time: the two writers, plus cmd_table's own time, which is the
    # inline formatting and writing of the threshold and sweep files.
    csv_s = (
        st["cli.write_run_csv"]["incl_s"]
        + st["cli.write_compare_csv"]["incl_s"]
        + st["cli.cmd_table"]["self_s"]
    )
    m["cli.csv_rows"] = csv_rows
    m["cli.csv_mb_per_s"] = ratio(csv_bytes * inv / 1e6, csv_s)
    m["cli.build_report.ms"] = per_call("cli.build_report", 1e3)
    m["scenario.parse_scenario.ms"] = per_call("scenario.parse_scenario", 1e3)

    root = st["cli.main"]["incl_s"]
    for layer in LAYERS:
        own = sum(s["self_s"] for span, s in st.items() if span.split(".")[0] == layer)
        m[f"trace.self_share.{layer}"] = ratio(own, root)
    m["trace.hot_share"] = ratio(sum(st[s]["self_s"] for s in HOT_SPANS), root)
    m["trace.spans"] = len(tracer) / inv
    m["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
    return m
