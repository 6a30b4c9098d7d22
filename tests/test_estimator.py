"""Load estimator: branch classification, curve inversion, smoothing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachsim.estimator import (
    EstimatorState,
    InconsistentObservationError,
    LoadBranch,
    RachObservation,
    classify_load_branch,
    estimate_load,
    smooth_estimate,
)
from rachsim.model import throughput


def obs(successes, idle, n_s=2, n_p=64):
    pairs = n_s * n_p
    return RachObservation(
        successes=successes,
        collisions=pairs - successes - idle,
        idle=idle,
        n_s_used=n_s,
        n_preambles=n_p,
    )


def test_observation_invariants():
    with pytest.raises(ValueError):
        RachObservation(successes=1, collisions=1, idle=1, n_s_used=2, n_preambles=64)
    with pytest.raises(ValueError):
        RachObservation(successes=-1, collisions=1, idle=128, n_s_used=2, n_preambles=64)
    assert obs(40, 60).pairs == 128


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


def test_smooth_single_and_mean():
    state = EstimatorState(window=4)
    assert smooth_estimate(state, 300.0) == 300.0
    state = EstimatorState(window=4)
    smooth_estimate(state, 100.0)
    smooth_estimate(state, 200.0)
    assert smooth_estimate(state, 300.0) == 200.0


def test_smooth_window_one_is_persistence():
    state = EstimatorState(window=1)
    for value in (10.0, 500.0, 42.0):
        assert smooth_estimate(state, value) == value


def test_smooth_evicts_beyond_window():
    state = EstimatorState(window=2)
    smooth_estimate(state, 0.0)
    smooth_estimate(state, 10.0)
    assert smooth_estimate(state, 20.0) == 15.0
    assert list(state.history) == [10.0, 20.0]


def test_smooth_stays_within_range():
    rng = np.random.default_rng(43)
    state = EstimatorState(window=5)
    seen = []
    for _ in range(50):
        value = float(rng.uniform(0, 1000))
        seen.append(value)
        mean = smooth_estimate(state, value)
        window = seen[-5:]
        assert min(window) <= mean <= max(window)


def test_state_and_input_validation():
    with pytest.raises(ValueError):
        EstimatorState(window=0)
    with pytest.raises(ValueError):
        smooth_estimate(EstimatorState(window=1), -1.0)
