"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned: every threshold is asserted
at its stated value against seeded, reproducible runs.
"""

import csv
import math

import numpy as np
import pytest

from rachsim.cli import main
from rachsim.estimator import LoadBranch, estimate_load
from rachsim.lambertw import BRANCH_POINT, WBranch, lambert_w
from rachsim.model import RachConfig, throughput
from rachsim.optimizer import (
    closed_form_decision,
    optimal_subframes_integer,
    subframe_lookup_table,
)
from rachsim.scenario import default_scenario
from rachsim.simulator import DeviceState, contend, run_replications

from conftest import w_bisect

DEFAULT_SCENARIO_TEXT = "[load]\nsegments = 0:10:0:600, 10:20:600:0\n"


def report(num: str, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def adaptive_100():
    return run_replications(default_scenario("adaptive"), 100, base_seed=1)


@pytest.fixture(scope="module")
def fixed_100():
    return run_replications(default_scenario("fixed"), 100, base_seed=1)


def test_criterion_1_lambert_w():
    rng = np.random.default_rng(101)
    worst_resid = 0.0
    for _ in range(5000):
        if rng.random() < 0.5:
            x = float(rng.uniform(BRANCH_POINT, 0.0))
        else:
            x = float(np.exp(rng.uniform(np.log(1e-9), np.log(1e6))))
        w = lambert_w(x, WBranch.PRINCIPAL)
        worst_resid = max(worst_resid, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    for _ in range(5000):
        x = -float(np.exp(rng.uniform(np.log(1e-9), np.log(-BRANCH_POINT))))
        x = max(x, BRANCH_POINT)
        w = lambert_w(x, WBranch.LOWER)
        worst_resid = max(worst_resid, abs(w * math.exp(w) - x) / max(1.0, abs(x)))

    worst_dev = 0.0
    for x in np.linspace(BRANCH_POINT + 1e-6, 10.0, 1000):
        worst_dev = max(worst_dev, abs(lambert_w(float(x)) - w_bisect(float(x), "principal")))
    for x in np.linspace(BRANCH_POINT + 1e-6, -1e-6, 1000):
        worst_dev = max(
            worst_dev, abs(lambert_w(float(x), WBranch.LOWER) - w_bisect(float(x), "lower"))
        )
    report(
        "1",
        worst_resid <= 1e-12 and worst_dev <= 1e-10,
        "lambert w identity and bisection-oracle agreement",
        f"max scaled residual {worst_resid:.2e}, max oracle deviation {worst_dev:.2e}",
    )


def test_criterion_2_optimizer_anchors():
    cfg2 = RachConfig(alpha=2.0)
    anchors_ok = (
        optimal_subframes_integer(10, cfg2).n_s == 2
        and optimal_subframes_integer(70, cfg2).n_s == 6
        and optimal_subframes_integer(100, cfg2).n_s == 8
    )
    table25 = subframe_lookup_table(RachConfig(alpha=25.0), 1.0, 700.0)
    first_max = next((t for t, n in table25.entries if n == 8), None)
    sat_ok = first_max is not None and 500 <= first_max <= 600
    cfg100 = RachConfig(alpha=100.0)
    high_ok = all(
        optimal_subframes_integer(float(load), cfg100).n_s == 2 for load in range(0, 701)
    )
    report(
        "2",
        anchors_ok and sat_ok and high_ok,
        "optimizer anchors: 10->2, 70->6, 100->8 at alpha=2; "
        "alpha=25 saturation in [500, 600]; alpha=100 pinned at 2",
        f"alpha=25 first n_s=8 threshold at {first_max}",
    )


def test_criterion_3_closed_form_vs_oracle():
    rng = np.random.default_rng(103)
    mismatches = 0
    for _ in range(1000):
        load = float(rng.uniform(1, 700))
        cfg = RachConfig(alpha=float(rng.uniform(1e-6, 34)))
        if closed_form_decision(load, cfg).n_s != optimal_subframes_integer(load, cfg).n_s:
            mismatches += 1
    report(
        "3",
        mismatches == 0,
        "closed form + rounding neighborhood + boundaries reproduces the integer argmax",
        f"{mismatches}/1000 mismatches",
    )


def test_criterion_4_estimator_round_trip():
    worst = 0.0
    for n_d in range(1, 513):
        branch = LoadBranch.LIGHT if n_d <= 128 else LoadBranch.HEAVY
        est = estimate_load(throughput(n_d, 2, 64), 2, 64, branch)
        worst = max(worst, abs(est - n_d) / n_d)
    report(
        "4",
        worst <= 1e-9,
        "estimate_load inverts the throughput curve on the unit grid (0, 512]",
        f"max relative error {worst:.2e}",
    )


def test_criterion_5_monte_carlo_fidelity():
    rng = np.random.default_rng(1)
    rel_errors = {}
    ci_ok = True
    ci_detail = ""
    for n_d in (32, 64, 128, 256):
        successes = np.array(
            [
                contend([DeviceState(id=i) for i in range(n_d)], 2, 64, rng).successes
                for _ in range(1000)
            ],
            dtype=float,
        )
        target = n_d * math.exp(-n_d / 128.0)
        mean = float(successes.mean())
        rel_errors[n_d] = abs(mean - target) / target
        if n_d == 128:
            halfwidth = 1.96 * float(successes.std(ddof=1)) / math.sqrt(len(successes))
            ci_ok = abs(mean - target) <= halfwidth
            ci_detail = f"mean {mean:.3f} vs {target:.3f}, ci halfwidth {halfwidth:.3f}"
    report(
        "5",
        max(rel_errors.values()) <= 0.05 and ci_ok,
        "simulated contention matches the analytic throughput curve",
        f"relative errors {({k: round(v, 4) for k, v in rel_errors.items()})}; {ci_detail}",
    )


def test_criterion_6_branch_classification_accuracy(adaptive_100):
    hits = total = 0
    for run in adaptive_100.runs:
        for row in run.rows:
            pivot = row.n_s_used * 64
            if abs(row.true_load - pivot) <= 0.1 * pivot:
                continue  # band where the branches coincide
            truth_light = row.true_load <= pivot
            classified_light = row.idle >= pivot / math.e
            total += 1
            hits += truth_light == classified_light
    accuracy = hits / total
    report(
        "6",
        accuracy >= 0.95,
        "idle-count branch classification matches the true load side",
        f"accuracy {accuracy:.4f} over {total} frames outside the +-10% pivot band",
    )


def test_criterion_7_load_tracking(adaptive_100):
    worst = 0.0
    checked = 0
    for frame in range(adaptive_100.n_frames):
        mean_true = adaptive_100.means["contenders"][frame]
        if mean_true < 50:
            continue
        mean_est = adaptive_100.means["est_load"][frame]
        worst = max(worst, abs(mean_est - mean_true) / max(mean_true, 1.0))
        checked += 1
    report(
        "7",
        checked > 0 and worst <= 0.15,
        "per-frame mean estimated load tracks the true contender count",
        f"max relative deviation {worst:.4f} over {checked} frames with load >= 50",
    )


def test_criterion_8a_aggregate_utility_improvement(adaptive_100, fixed_100):
    agg_a = float(np.sum(adaptive_100.means["utility"]))
    agg_f = float(np.sum(fixed_100.means["utility"]))
    improvement = 100.0 * (agg_a - agg_f) / abs(agg_f)
    report(
        "8a",
        improvement >= 50.0,
        "adaptive aggregate utility exceeds fixed-default by >= 50%",
        f"adaptive {agg_a:.1f}, fixed {agg_f:.1f}, improvement {improvement:+.1f}%",
    )


def test_criterion_8b_frame_with_doubled_positive_utility(adaptive_100, fixed_100):
    ua = adaptive_100.means["utility"]
    uf = fixed_100.means["utility"]
    frames = [
        f
        for f in range(len(ua))
        if ua[f] > 0 and uf[f] > 0 and ua[f] > 2 * uf[f]
    ]
    report(
        "8b",
        bool(frames),
        "some frame doubles the fixed-default mean utility with both positive",
        f"qualifying frames {frames}; max mean utilities adaptive "
        f"{float(np.max(ua)):.2f}, fixed {float(np.max(uf)):.2f}",
    )


def test_criterion_8c_per_frame_win_fraction(adaptive_100, fixed_100):
    ua = adaptive_100.means["utility"]
    uf = fixed_100.means["utility"]
    win = float(np.mean(ua >= uf))
    report(
        "8c",
        win >= 0.90,
        "adaptive matches or beats fixed-default on >= 90% of frames",
        f"win fraction {win:.2f}",
    )


def test_criterion_9_byte_identical_csv(tmp_path):
    scn = tmp_path / "default.scn"
    scn.write_text(DEFAULT_SCENARIO_TEXT)
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    args = ["run", "--scenario", str(scn), "--controller", "adaptive",
            "--seed", "1", "--reps", "5"]
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report(
        "9",
        rc1 == 0 and rc2 == 0 and identical,
        "repeated cmd_run with one seed emits byte-identical CSV",
        f"{out1.stat().st_size} bytes each",
    )


def test_criterion_10_conservation_invariants(adaptive_100, tmp_path):
    cfg = RachConfig()
    violations = 0
    for run in adaptive_100.runs:
        run.validate(cfg)
        for row in run.rows:
            if row.successes + row.collisions + row.idle != row.n_s_used * 64:
                violations += 1
            if row.successes + row.collided_devices != row.contenders:
                violations += 1
    # the emission path re-validates and the written columns must agree
    scn = tmp_path / "default.scn"
    scn.write_text(DEFAULT_SCENARIO_TEXT)
    out = tmp_path / "full.csv"
    main(["run", "--scenario", str(scn), "--controller", "adaptive",
          "--seed", "1", "--reps", "10", "--out", str(out)])
    with open(out, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            if row["rep"] == "mean":
                continue
            pairs = int(row["n_s"]) * 64
            if int(row["successes"]) + int(row["collided_devices"]) != int(row["contenders"]):
                violations += 1
            if int(row["successes"]) + int(row["idle"]) > pairs:
                violations += 1
    n_rows = sum(len(run.rows) for run in adaptive_100.runs)
    report(
        "10",
        violations == 0,
        "conservation holds on every simulated and emitted row",
        f"{violations} violations over {n_rows} rows",
    )
