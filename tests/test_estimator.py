"""Load estimator: branch classification, curve inversion, smoothing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rachsim.simulator
from rachsim.estimator import (
    InconsistentObservationError,
    LoadBranch,
    classify_load_branch,
    estimate_load,
)
from rachsim.model import RachConfig, throughput, utility
from rachsim.simulator import AdaptiveController, ControllerSpec, FrameOutcome, TimeSeries


def observed(successes, collisions, idle):
    """A frame at 2 subframes of 64 preambles with these counts, two devices per collision."""
    collided = 2 * collisions
    return FrameOutcome(
        frame=0, n_s_used=2, arrivals=0, contenders=successes + collided,
        successes=successes, collisions=collisions, collided_devices=collided, idle=idle,
        true_load=successes + collided, est_load=None, utility=utility(successes, 25.0, 2),
    )


def test_observation_invariants():
    # the counts an estimate is made from are checked with the run's records
    TimeSeries([observed(40, 28, 60)]).validate(RachConfig())
    with pytest.raises(ValueError, match=r"successes \+ collisions \+ idle != 128"):
        TimeSeries([observed(1, 1, 1)]).validate(RachConfig())
    with pytest.raises(ValueError, match="negative count"):
        TimeSeries([observed(-1, 1, 128)]).validate(RachConfig())


def test_classify_extremes():
    assert classify_load_branch(128, 128) is LoadBranch.LIGHT
    assert classify_load_branch(0, 128) is LoadBranch.HEAVY


def test_classify_threshold_boundary():
    # pivot is 128/e ~ 47.09 idle pairs
    assert classify_load_branch(48, 128) is LoadBranch.LIGHT
    assert classify_load_branch(47, 128) is LoadBranch.HEAVY


def test_classify_matches_simulated_majority():
    # loads either side of the pivot should classify to their side most
    # of the time in finite samples
    rng = np.random.default_rng(41)
    pairs = 128
    for n_d, expected in [(96, LoadBranch.LIGHT), (168, LoadBranch.HEAVY)]:
        hits = 0
        for _ in range(300):
            picks = rng.integers(0, pairs, size=n_d)
            counts = np.bincount(picks, minlength=pairs)
            if classify_load_branch(int((counts == 0).sum()), pairs) is expected:
                hits += 1
        assert hits >= 240


def test_estimate_zero_successes():
    assert estimate_load(0.0, 2, 64, LoadBranch.LIGHT) == 0.0
    assert estimate_load(0.0, 2, 64, LoadBranch.HEAVY) == 512.0


@pytest.mark.parametrize("n_s, n_preambles", [(0, 64), (2, 0), (-1, 64)])
def test_estimate_refuses_an_empty_channel(n_s, n_preambles):
    name, value = ("n_s", n_s) if n_s < 1 else ("n_preambles", n_preambles)
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
        estimate_load(1.0, n_s, n_preambles, LoadBranch.LIGHT)


def test_estimate_branch_point():
    eta = 128 / math.e
    assert estimate_load(eta, 2, 64, LoadBranch.LIGHT) == pytest.approx(128.0, rel=1e-12)
    assert estimate_load(eta, 2, 64, LoadBranch.HEAVY) == pytest.approx(128.0, rel=1e-12)


def test_estimate_round_trip_named_points():
    eta_heavy = throughput(300, 2, 64)
    assert estimate_load(eta_heavy, 2, 64, LoadBranch.HEAVY) == pytest.approx(300.0, rel=1e-9)
    eta_light = throughput(50, 2, 64)
    assert estimate_load(eta_light, 2, 64, LoadBranch.LIGHT) == pytest.approx(50.0, rel=1e-9)


def test_estimate_round_trip_grid():
    pairs = 128
    for n_d in range(1, 513, 3):
        branch = LoadBranch.LIGHT if n_d <= pairs else LoadBranch.HEAVY
        est = estimate_load(throughput(n_d, 2, 64), 2, 64, branch)
        assert est == pytest.approx(n_d, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    # load over pairs, 10% or more away from the peak at 1 on either side
    ratio=st.one_of(st.floats(1e-6, 0.9), st.floats(1.1, 30.0)),
    n_s=st.integers(1, 16),
    n_p=st.integers(1, 128),
)
def test_estimate_inverts_throughput_on_both_branches(ratio, n_s, n_p):
    load = ratio * n_s * n_p
    branch = LoadBranch.LIGHT if ratio < 1 else LoadBranch.HEAVY
    est = estimate_load(throughput(load, n_s, n_p), n_s, n_p, branch)
    assert est == pytest.approx(load, rel=1e-9)


def test_estimate_branches_straddle_pivot():
    pairs = 128
    for eta in np.linspace(0.5, pairs / math.e - 1e-9, 50):
        light = estimate_load(float(eta), 2, 64, LoadBranch.LIGHT)
        heavy = estimate_load(float(eta), 2, 64, LoadBranch.HEAVY)
        assert light <= pairs
        assert heavy >= pairs


def test_estimate_clamps_small_overshoot():
    peak = 128 / math.e
    assert estimate_load(peak * 1.2, 2, 64, LoadBranch.LIGHT) == 128.0
    assert estimate_load(peak * 1.25, 2, 64, LoadBranch.HEAVY) == 128.0


def test_estimate_rejects_large_overshoot():
    peak = 128 / math.e
    with pytest.raises(InconsistentObservationError):
        estimate_load(peak * 1.26, 2, 64, LoadBranch.LIGHT)
    with pytest.raises(ValueError):
        estimate_load(-1.0, 2, 64, LoadBranch.LIGHT)


@pytest.fixture
def raw_is_successes(monkeypatch):
    """Make the adaptive controller's raw estimate of a frame its success count."""
    monkeypatch.setattr(rachsim.simulator, "estimate_load", lambda successes, *_: float(successes))


def smooth(controller, raw):
    """Feed the controller a light-load frame whose raw estimate is raw; its window mean."""
    return controller.observe_counts(raw, 128, 2)


def test_smooth_single_and_mean(raw_is_successes):
    assert smooth(AdaptiveController(RachConfig(), 4, 700.0), 300.0) == 300.0
    controller = AdaptiveController(RachConfig(), 4, 700.0)
    smooth(controller, 100.0)
    smooth(controller, 200.0)
    assert smooth(controller, 300.0) == 200.0


def test_smooth_window_one_is_persistence(raw_is_successes):
    controller = AdaptiveController(RachConfig(), 1, 700.0)
    for value in (10.0, 500.0, 42.0):
        assert smooth(controller, value) == value


def test_smooth_evicts_beyond_window(raw_is_successes):
    controller = AdaptiveController(RachConfig(), 2, 700.0)
    smooth(controller, 0.0)
    smooth(controller, 10.0)
    assert smooth(controller, 20.0) == 15.0
    assert list(controller._history) == [10.0, 20.0]


def test_smooth_stays_within_range(raw_is_successes):
    rng = np.random.default_rng(43)
    controller = AdaptiveController(RachConfig(), 5, 700.0)
    seen = []
    for _ in range(50):
        value = float(rng.uniform(0, 1000))
        seen.append(value)
        mean = smooth(controller, value)
        window = seen[-5:]
        assert min(window) <= mean <= max(window)


def test_state_and_input_validation():
    with pytest.raises(ValueError, match="window"):
        ControllerSpec(window=0)
    # the window averages estimates that are never negative
    for successes in range(59):
        for branch in LoadBranch:
            assert estimate_load(successes, 2, 64, branch) >= 0.0
