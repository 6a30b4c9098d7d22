"""Contention simulator: primitives, run loop, determinism, causality."""

import math
import re
import statistics
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rachsim.simulator
from rachsim.estimator import InconsistentObservationError, classify_load_branch, estimate_load
from rachsim.model import RachConfig, SettingError
from rachsim.optimizer import decide_subframes
from rachsim.scenario import default_scenario, parse_scenario
from rachsim.simulator import (
    FRAME_FIELDS,
    MAX_PAIRS,
    MAX_POOL,
    MAX_RATE,
    MAX_WINDOW,
    _backoff,
    _bar,
    _defer,
    _pick_pairs,
    AdaptiveController,
    ControllerKind,
    ControllerSpec,
    DeviceState,
    DeviceStatus,
    FrameOutcome,
    LoadProfile,
    ProfileSegment,
    Scenario,
    TimeSeries,
    acb_gate,
    aggregate_runs,
    contend,
    generate_arrivals,
    resolve_backoff,
    run_replications,
    run_scenario,
)
from conftest import force_workers, runs_of
from stream_equivalence import ALPHA, compare_streams, holm_rejected, main, welch_p

TM2 = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios" / "tm2_beta.scn"
# observe_counts arguments (successes, idle, n_s) at 64 preambles:
# 70 successes on 128 pairs is beyond any load's expectation
INCONSISTENT = (70, 28, 2)

TRIANGLE = LoadProfile((ProfileSegment(0, 10, 0.0, 600.0), ProfileSegment(10, 20, 600.0, 0.0)))


def make_devices(n):
    return [DeviceState(id=i) for i in range(n)]


# ---------------------------------------------------------------------------
# Load profile and arrivals


def test_profile_interpolation():
    assert TRIANGLE.rate_at(0) == 0.0
    assert TRIANGLE.rate_at(5) == 300.0
    assert TRIANGLE.rate_at(10) == 600.0
    assert TRIANGLE.rate_at(15) == 300.0
    assert TRIANGLE.rate_at(19) == 60.0


@given(
    st.lists(
        st.tuples(st.integers(1, 60), st.floats(0.0, MAX_RATE), st.floats(0.0, MAX_RATE)),
        min_size=1, max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_profile_rates_are_each_segments_ramp(ramps):
    segments, start = [], 0
    for length, r0, r1 in ramps:
        segments.append(ProfileSegment(start, start + length, r0, r1))
        start += length
    profile = LoadProfile(tuple(segments))
    # the ramp of the frame's own segment, one frame at a time in plain floats
    expected = [
        seg.rate_start + (seg.rate_end - seg.rate_start)
        * ((f - seg.start_frame) / (seg.end_frame - seg.start_frame))
        for seg in segments for f in range(seg.start_frame, seg.end_frame)
    ]
    assert profile.rate_at(np.arange(start)).tolist() == expected
    assert [profile.rate_at(f) for f in range(start)] == expected


def test_profile_validation():
    with pytest.raises(ValueError):
        LoadProfile(())
    with pytest.raises(SettingError, match="^end_frame must exceed start_frame$") as exc:
        ProfileSegment(3, 3, 1.0, 1.0)
    assert exc.value.fields == ("end_frame", "start_frame")
    with pytest.raises(ValueError):
        LoadProfile((ProfileSegment(0, 5, 1.0, -1.0),))
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ProfileSegment(0, 5, rate, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ProfileSegment(0, 5, 1.0, rate)
    with pytest.raises(ValueError):
        LoadProfile((ProfileSegment(0, 5, 1.0, 1.0), ProfileSegment(6, 10, 1.0, 1.0)))
    # the profile owns this rule, so one built in Python is refused at once
    with pytest.raises(ValueError, match="start at frame 0, not 5"):
        LoadProfile((ProfileSegment(5, 10, 1.0, 1.0),))


def test_arrivals_zero_rate():
    profile = LoadProfile((ProfileSegment(0, 5, 0.0, 0.0),))
    rng = np.random.default_rng(1)
    assert all(generate_arrivals(profile, range(5), rng).tolist() == [0] * 5 for _ in range(50))


def test_arrivals_sample_mean():
    profile = LoadProfile((ProfileSegment(0, 1, 300.0, 300.0),))
    rng = np.random.default_rng(2)
    draws = generate_arrivals(profile, [0] * 10_000, rng)
    assert np.mean(draws) == pytest.approx(300.0, rel=0.03)


def test_arrivals_outside_span():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        generate_arrivals(TRIANGLE, [20], rng)
    with pytest.raises(ValueError):
        generate_arrivals(TRIANGLE, [-1], rng)


def test_segments_refuse_a_rate_past_the_pool_bound():
    # a profile holds no rate numpy's Poisson draw refuses (1e308) or whose
    # draw could pass the pool bound on its own: the rate bound sits 10
    # standard deviations below it, so arrivals need no check of their own
    assert MAX_RATE == 9_968_380 and MAX_POOL - MAX_RATE >= 10 * math.sqrt(MAX_RATE)
    assert ProfileSegment(0, 5, MAX_RATE, MAX_RATE).rate_end == MAX_RATE
    just_past = math.nextafter(MAX_RATE, math.inf)
    for rates, field, value in (
        ((just_past, 0.0), "rate_start", just_past),
        ((0.0, float(MAX_POOL)), "rate_end", float(MAX_POOL)),
        ((1.0, 1e308), "rate_end", 1e308),
    ):
        with pytest.raises(SettingError) as exc:
            ProfileSegment(0, 5, *rates)
        assert str(exc.value) == f"{field} must be in [0, {MAX_RATE}], got {value}"
        assert exc.value.fields == (field,)
    flat = LoadProfile((ProfileSegment(0, 5, MAX_RATE, MAX_RATE),))
    assert 0 <= generate_arrivals(flat, 4, np.random.default_rng(1)) <= MAX_POOL


def test_a_run_evaluates_the_profile_rates_once(monkeypatch):
    calls = []
    rate_at = LoadProfile.rate_at

    def counted(self, frame):
        calls.append(frame)
        return rate_at(self, frame)

    monkeypatch.setattr(LoadProfile, "rate_at", counted)
    run_scenario(default_scenario("adaptive"), seed=1)
    assert len(calls) == 1


def test_a_pool_past_the_bound_fails_at_its_frame(monkeypatch):
    # 600 arrivals a frame pass a bound of 1000, but the collided ones all
    # come back the next frame (backoff window 1) and overflow it
    monkeypatch.setattr(rachsim.simulator, "MAX_POOL", 1000)
    scenario = Scenario(
        RachConfig(),
        LoadProfile((ProfileSegment(0, 5, 600.0, 600.0),)),
        ControllerSpec(kind=ControllerKind.FIXED_DEFAULT),
        backoff_window=1,
    )
    message = "^frame 1: 608 pending devices plus 610 arrivals exceed the pool bound of 1000$"
    with pytest.raises(ValueError, match=message):
        run_scenario(scenario, seed=1)


# ---------------------------------------------------------------------------
# Contention primitives


def test_contend_single_device():
    rng = np.random.default_rng(4)
    result = contend(make_devices(1), 2, 64, rng)
    assert result.successes == 1
    assert result.collisions == 0
    assert result.collided_devices == 0
    assert result.idle == 127
    assert result.losers == []


def test_contend_empty():
    rng = np.random.default_rng(5)
    result = contend([], 2, 64, rng)
    assert result.successes == 0
    assert result.idle == 128


def test_contend_conservation():
    rng = np.random.default_rng(6)
    for n in (3, 50, 128, 400):
        result = contend(make_devices(n), 2, 64, rng)
        assert result.successes + result.collided_devices == n
        assert result.successes + result.collisions + result.idle == 128
        assert result.collided_devices >= 2 * result.collisions


def test_contend_matches_aloha_curve():
    rng = np.random.default_rng(7)
    means = []
    for _ in range(400):
        means.append(contend(make_devices(128), 2, 64, rng).successes)
    assert np.mean(means) == pytest.approx(128 / math.e, rel=0.05)


def test_contend_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        contend(make_devices(1), 0, 64, rng)


def test_backoff_drops_at_retry_limit():
    rng = np.random.default_rng(9)
    dev = DeviceState(id=0, attempts=10)
    resolve_backoff([dev], frame=3, backoff_window=4, retry_limit=10, rng=rng)
    assert dev.status is DeviceStatus.DROPPED
    assert dev.attempts == 10


def test_backoff_schedules_and_counts_attempts():
    rng = np.random.default_rng(10)
    devs = make_devices(200)
    resolve_backoff(devs, frame=5, backoff_window=4, retry_limit=10, rng=rng)
    for d in devs:
        assert d.status is DeviceStatus.BACKED_OFF
        assert d.attempts == 1
        assert 6 <= d.backoff_until <= 9


def test_backoff_validation():
    rng = np.random.default_rng(16)
    with pytest.raises(SettingError) as exc:
        resolve_backoff(make_devices(1), frame=0, backoff_window=0, retry_limit=10, rng=rng)
    assert str(exc.value) == "backoff_window must be in [1, 2147483647], got 0"
    with pytest.raises(ValueError, match="retry_limit must be >= 0"):
        resolve_backoff(make_devices(1), frame=0, backoff_window=4, retry_limit=-1, rng=rng)


ADAPTER_WINDOWS = {
    "backoff_window": lambda devs, window, rng: resolve_backoff(devs, 0, window, 10, rng),
    "barring_window": lambda devs, window, rng: acb_gate(devs, 0.5, window, 0, rng),
}


@pytest.mark.parametrize("window", [2**31, 2**70])
@pytest.mark.parametrize("name", ADAPTER_WINDOWS)
def test_adapter_windows_are_bounded(name, window):
    # a window past MAX_WINDOW would put due frames past int64; it is
    # refused before any draw, without a numpy warning
    devs = make_devices(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SettingError) as exc:
            ADAPTER_WINDOWS[name](devs, window, np.random.default_rng(16))
    assert str(exc.value) == f"{name} must be in [1, {MAX_WINDOW}], got {window}"
    assert exc.value.fields == (name,)
    assert devs == make_devices(3)


ADAPTER_FRAMES = {
    "resolve_backoff": lambda devs, frame, rng: resolve_backoff(devs, frame, MAX_WINDOW, 10, rng),
    "acb_gate": lambda devs, frame, rng: acb_gate(devs, 0.5, MAX_WINDOW, frame, rng),
}
LAST_FRAME = 2**63 - 1 - MAX_WINDOW  # its deferrals still fit int64


@pytest.mark.parametrize("frame", [2**63 - 3, 2**64])
@pytest.mark.parametrize("name", ADAPTER_FRAMES)
def test_adapter_frames_are_bounded(name, frame):
    # a frame whose deferrals would pass int64 wraps them round or overflows;
    # it is refused before any draw, without a numpy warning
    devs = make_devices(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SettingError) as exc:
            ADAPTER_FRAMES[name](devs, frame, np.random.default_rng(16))
    assert str(exc.value) == f"frame must be in [0, {LAST_FRAME}], got {frame}"
    assert exc.value.fields == ("frame",)
    assert devs == make_devices(3)


@pytest.mark.parametrize("name", ADAPTER_FRAMES)
def test_adapter_defers_from_the_last_frame_within_int64(name):
    devs = make_devices(200)
    ADAPTER_FRAMES[name](devs, LAST_FRAME, np.random.default_rng(16))
    deferred = [d.backoff_until for d in devs if d.backoff_until]
    assert deferred
    assert all(LAST_FRAME < until <= 2**63 - 1 for until in deferred)


def test_backoff_window_one_means_next_frame():
    rng = np.random.default_rng(11)
    devs = make_devices(20)
    resolve_backoff(devs, frame=5, backoff_window=1, retry_limit=10, rng=rng)
    assert all(d.backoff_until == 6 for d in devs)


def chi_square(values, k):
    counts = np.bincount(values, minlength=k)
    assert len(counts) == k
    expected = len(values) / k
    return float(((counts - expected) ** 2 / expected).sum())


def test_backoff_delays_uniform():
    # chi-square 95% critical values, window - 1 dof; 6 is not a power of two
    for window, critical in ((4, 7.815), (6, 11.070)):
        rng = np.random.default_rng(12)
        devs = make_devices(10_000)
        resolve_backoff(devs, frame=0, backoff_window=window, retry_limit=10, rng=rng)
        delays = np.array([d.backoff_until for d in devs]) - 1
        assert chi_square(delays, window) < critical, window


class RecordingRng:
    """A Generator stand-in for the kernels that keeps every uniform it draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.uniforms = []

    def random(self, n):
        self.uniforms.append(self._rng.random(n))
        return self.uniforms[-1]


def test_picks_uniform():
    # 15 pairs, not a power of two; chi-square 99% critical value 29.141 (14 dof)
    rng = RecordingRng(17)
    picks = []
    for _ in range(2000):
        lost, successes, _, idle = _pick_pairs(10, 3, 5, rng)
        # the kernel's counts are those of floor(u * 15) for its uniforms
        drawn = (rng.uniforms[-1] * 15).astype(np.int64)
        counts = np.bincount(drawn, minlength=15)
        assert (successes, idle) == (np.sum(counts == 1), np.sum(counts == 0))
        assert np.array_equal(lost, counts[drawn] != 1)
        picks.append(drawn)
    assert chi_square(np.concatenate(picks), 15) < 29.141


def test_scaled_uniforms_stay_below_their_range():
    # floor(u * n) < n at the largest uniform below 1, up to the largest n
    # whose every integer a double holds
    top = np.nextafter(1.0, 0.0)
    for n in (MAX_WINDOW, MAX_PAIRS, 2**52, 2**53 - 1):
        assert math.floor(top * n) < n, n
    # the bias bound of the law at the widest window
    assert MAX_WINDOW * 2.0**-53 < 2.5e-7

    class TopRng:
        def random(self, n):
            return np.full(n, top)

    assert _defer(3, 10, MAX_WINDOW, TopRng()).tolist() == [10 + MAX_WINDOW] * 3
    assert _pick_pairs(1, 8, MAX_PAIRS // 8, TopRng())[1:] == (1, 0, MAX_PAIRS - 1)


def test_an_empty_selection_draws_nothing():
    # deferring nobody, barring nobody and backing off losers who are all
    # dropped leave the event stream as it was, as the kernels' comment
    # requires; stream_equivalence.py's old-law patches rely on it too
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    due = _defer(0, 7, 4, rng)
    passed, barred_due = _bar(0, 0.5, 4, 7, rng)
    retriers, retry_due = _backoff(np.array([3, 3], dtype=np.int64), 7, 4, 3, rng)
    assert passed.dtype == bool and len(passed) == 0
    assert all(a.dtype == np.int64 and len(a) == 0 for a in (due, barred_due, retriers, retry_due))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("poisson, size, n_s, n_p", [
    (False, 6, 1, 4), (False, 20, 1, 64), (False, 128, 2, 64), (False, 300, 2, 64),
    (True, 50.0, 1, 64), (True, 200.0, 2, 64), (True, 600.0, 8, 64),
])
def test_pick_pairs_success_law(poisson, size, n_s, n_p):
    """Mean successes of 2000 frames within 4 standard errors of the ALOHA law."""
    rng = np.random.default_rng(19)
    pairs = n_s * n_p
    if poisson:
        # N ~ Poisson(lam): each pair is picked Poisson(lam / P) times
        devices = rng.poisson(size, 2000)
        expected = size * math.exp(-size / pairs)
    else:
        # a device is alone on its pair with probability (1 - 1/P)^(N - 1)
        devices = np.full(2000, size)
        expected = size * (1 - 1 / pairs) ** (size - 1)
    wins = np.array([_pick_pairs(n, n_s, n_p, rng)[1] for n in devices.tolist()])
    assert abs(wins.mean() - expected) < 4 * wins.std(ddof=1) / math.sqrt(len(wins))


def test_draws_match_the_old_integers_stream():
    # the stock wave at 20 reps; `tests/stream_equivalence.py --reps 200`
    # runs the same check on the stock wave and tm2_beta.scn
    families = compare_streams("stock", default_scenario(), reps=20)
    assert [family.rejected for family in families] == [0] * len(ControllerKind)


def test_distinct_constants_get_the_exact_permutation_p():
    # a column constant in each sample, with another constant in each, as
    # sparse frames give at few reps; p = 0 here used to reject at once
    for n, expected in ((3, 0.1), (20, 2 / math.comb(40, 20))):
        p = welch_p(np.zeros((n, 2)), np.array([[1.0, 0.0]] * n))
        assert p.tolist() == [expected, 1.0]
    assert holm_rejected(welch_p(np.zeros((3, 1)), np.ones((3, 1))), ALPHA) == 0
    # fewer than two runs have no sample variance
    for reps in ("1", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["--reps", reps])
        assert exc.value.code == 2


def test_acb_gate_admit_all():
    rng = np.random.default_rng(13)
    devs = make_devices(100)
    admitted, barred = acb_gate(devs, 1.0, 4, 0, rng)
    assert len(admitted) == 100
    assert barred == []


def test_acb_gate_half_barring():
    rng = np.random.default_rng(14)
    devs = make_devices(10_000)
    admitted, barred = acb_gate(devs, 0.5, 4, 7, rng)
    assert len(admitted) / len(devs) == pytest.approx(0.5, abs=0.02)
    assert len(admitted) + len(barred) == len(devs)
    for d in barred:
        assert 8 <= d.backoff_until <= 11
    assert all(d.backoff_until == 0 for d in admitted)


def test_acb_gate_validation():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        acb_gate(make_devices(1), 0.0, 4, 0, rng)
    with pytest.raises(ValueError):
        acb_gate(make_devices(1), 0.5, 0, 0, rng)


# ---------------------------------------------------------------------------
# Full runs


def test_run_deterministic():
    scenario = default_scenario("adaptive")
    a = run_scenario(scenario, seed=42)
    b = run_scenario(scenario, seed=42)
    assert a.rows == b.rows
    c = run_scenario(scenario, seed=43)
    assert c.rows != a.rows


def test_zero_rate_scenario():
    profile = LoadProfile((ProfileSegment(0, 6, 0.0, 0.0),))
    for kind in ControllerKind:
        scenario = Scenario(
            config=RachConfig(),
            profile=profile,
            controller=ControllerSpec(kind=kind),
        )
        ts = run_scenario(scenario, seed=1)
        for row in ts.rows:
            assert row.successes == 0
            assert row.utility == -25.0 * row.n_s_used


def test_rows_satisfy_conservation():
    ts = run_scenario(default_scenario("adaptive"), seed=3)
    cfg = RachConfig()
    for row in ts.rows:
        TimeSeries([row]).validate(cfg)
        assert row.successes + row.collisions + row.idle == row.n_s_used * 64
        assert row.successes + row.collided_devices == row.contenders
        assert row.true_load == row.contenders  # no barring


def test_acb_true_load_counts_barred():
    ts = run_scenario(default_scenario("acb"), seed=3)
    assert any(row.contenders < row.true_load for row in ts.rows)
    for row in ts.rows:
        assert row.contenders <= row.true_load
        assert row.n_s_used == 2
        assert row.est_load is None


def test_adaptive_first_frame_uses_minimum():
    ts = run_scenario(default_scenario("adaptive"), seed=5)
    assert ts.rows[0].n_s_used == 2


def test_adaptive_est_load_is_next_frame_forecast():
    # causality: frame t's n_s must be a pure function of frame t-1's
    # recorded observation, reproducible by rerunning the estimator chain
    cfg = RachConfig()
    ts = run_scenario(default_scenario("adaptive"), seed=6)
    for prev, cur in zip(ts.rows, ts.rows[1:]):
        if prev.estimator_fallback:
            assert prev.est_load is None
            assert cur.n_s_used == cfg.n_s_max
            continue
        branch = classify_load_branch(prev.idle, prev.n_s_used * 64)
        raw = estimate_load(prev.successes, prev.n_s_used, 64, branch)
        assert prev.est_load == pytest.approx(raw, rel=1e-12)  # window = 1
        assert cur.n_s_used == decide_subframes(raw, cfg, 700.0).n_s


def test_adaptive_tracks_load_up_and_down():
    ts = run_scenario(default_scenario("adaptive"), seed=7)
    n_s = [row.n_s_used for row in ts.rows]
    assert max(n_s) == 8
    assert n_s[0] == 2


def test_adaptive_fallback_pins_maximum():
    controller = AdaptiveController(RachConfig(), 1, 700.0)
    est = controller.observe_counts(*INCONSISTENT)
    assert est is None
    assert controller.fallback
    assert controller.n_s == 8
    # a sane observation afterwards recovers
    est = controller.observe_counts(successes=30, idle=477, n_s=8)
    assert est is not None
    assert not controller.fallback


def recorded_observations():
    """(successes, idle, n_s) of an adaptive TM2 run and three stock waves, plus two bad ones."""
    runs = [run_scenario(parse_scenario(TM2), seed=1)] + [
        run_scenario(default_scenario("adaptive"), seed) for seed in (1, 2, 3)
    ]
    observations = [
        (row.successes, row.idle, row.n_s_used) for run in runs for row in run.rows
    ]
    return observations[:500] + [INCONSISTENT] + observations[500:] + [INCONSISTENT]


def direct_decisions(observations, config, window):
    """(estimate, next n_s) per observation from plain estimator and optimizer calls."""
    recent = []  # the raw estimates of the last `window` consistent frames
    decisions = []
    for successes, idle, n_s in observations:
        branch = classify_load_branch(idle, n_s * 64)
        try:
            raw = estimate_load(successes, n_s, 64, branch)
        except InconsistentObservationError:
            decisions.append((None, config.n_s_max))
            continue
        recent = (recent + [raw])[-window:]
        smoothed = sum(recent) / len(recent)
        decisions.append((smoothed, decide_subframes(smoothed, config, 700.0).n_s))
    return decisions


def record_misses(monkeypatch, *names):
    """Route the named rachsim.simulator functions through a recorder; {name: [args]}."""
    misses = {name: [] for name in names}
    for name in names:
        fn = getattr(rachsim.simulator, name)

        def call(*args, fn=fn, calls=misses[name]):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(rachsim.simulator, name, call)
    return misses


@pytest.mark.parametrize("window", [1, 3])
def test_adaptive_memo_matches_direct_calls(window, monkeypatch):
    cfg = RachConfig()
    observations = recorded_observations()
    expected = direct_decisions(observations, cfg, window)
    inconsistent = sum(est is None for est, _ in expected)
    assert inconsistent >= 2
    # the misses in order: each consistent observation and each smoothed load
    # the first time it occurs, and every inconsistent observation again
    estimates, known = [], set()
    for (successes, idle, n_s), (est, _) in zip(observations, expected):
        args = (successes, n_s, 64, classify_load_branch(idle, n_s * 64))
        if args not in known:
            estimates.append(args)
        if est is not None:
            known.add(args)
    loads = dict.fromkeys(est for est, _ in expected if est is not None)
    decisions = [(load, cfg, 700.0) for load in loads]
    assert len(estimates) < len(observations) / 2
    if window == 1:
        assert len(decisions) < len(observations) / 2

    misses = record_misses(monkeypatch, "estimate_load", "decide_subframes")
    for _ in range(2):  # a new controller starts with empty caches
        controller = AdaptiveController(cfg, window, 700.0)
        got = [(controller.observe_counts(*obs), controller.n_s) for obs in observations]
        assert got == expected
        assert misses == {"estimate_load": estimates, "decide_subframes": decisions}
        for calls in misses.values():
            calls.clear()


def test_run_replications_shares_one_memo_per_call(monkeypatch):
    # the misses are counted in this process, so all replications run here
    force_workers(monkeypatch, 1)
    scenario = parse_scenario(TM2)
    misses = record_misses(monkeypatch, "estimate_load", "decide_subframes")
    alone = [run_scenario(scenario, seed) for seed in range(1, 6)]
    separate = {name: list(calls) for name, calls in misses.items()}
    first = None
    for _ in range(2):  # a second call starts with empty caches
        for calls in misses.values():
            calls.clear()
        repset = run_replications([scenario], 5, 1)[0]
        # each distinct estimate and decision once across the replications;
        # an inconsistent observation is never cached, so it may recur
        consistent = [
            args for args in misses["estimate_load"]
            if not math.isnan(estimate_or_nan(*args))
        ]
        assert len(set(consistent)) == len(consistent)
        assert len(set(misses["decide_subframes"])) == len(misses["decide_subframes"])
        for name, calls in misses.items():
            assert set(calls) == set(separate[name])
            assert len(calls) < len(separate[name]) / 2
        if first is not None:
            assert misses == first
        first = {name: list(calls) for name, calls in misses.items()}
        for run, run_alone in zip(runs_of(repset), alone, strict=True):
            assert run.rows == run_alone.rows


def estimate_or_nan(*args):
    try:
        return estimate_load(*args)
    except InconsistentObservationError:
        return math.nan


def test_adaptive_memo_never_keeps_an_inconsistent_observation(monkeypatch):
    cfg = RachConfig()
    misses = record_misses(monkeypatch, "estimate_load")["estimate_load"]
    controller = AdaptiveController(cfg, 1, 700.0)
    sane = (30, 93, 2)
    for _ in range(2):
        assert controller.observe_counts(*INCONSISTENT) is None
        assert controller.fallback
        assert controller.n_s == cfg.n_s_max
        assert controller.observe_counts(*sane) is not None
        assert not controller.fallback
        assert controller.n_s == cfg.n_s_min
    bad = (70, 2, 64, classify_load_branch(28, 128))
    assert misses == [bad, (30, 2, 64, classify_load_branch(93, 128)), bad]


def test_common_random_numbers_share_arrivals():
    scenario = default_scenario("adaptive")
    runs = {
        kind: run_scenario(scenario.with_controller(ControllerKind(kind)), seed=11)
        for kind in ("adaptive", "fixed", "max", "acb")
    }
    arrival_seqs = {
        kind: [row.arrivals for row in ts.rows] for kind, ts in runs.items()
    }
    baseline = arrival_seqs["adaptive"]
    assert all(seq == baseline for seq in arrival_seqs.values())


def test_succeeded_devices_do_not_return():
    # steady moderate load: total successes over the run can never exceed
    # the distinct devices that ever arrived
    profile = LoadProfile((ProfileSegment(0, 30, 40.0, 40.0),))
    scenario = Scenario(config=RachConfig(), profile=profile)
    ts = run_scenario(scenario, seed=13)
    total_succ = sum(row.successes for row in ts.rows)
    total_arrivals = sum(row.arrivals for row in ts.rows)
    assert total_succ <= total_arrivals
    # and contenders never exceed arrivals plus previously collided devices
    backlog_in = 0
    for row in ts.rows:
        assert row.contenders <= row.arrivals + backlog_in
        backlog_in += row.collided_devices


@pytest.mark.parametrize("variant", [{"retry_limit": 0}, {"backoff_window": 1}])
def test_device_conservation_every_controller(variant):
    # run_scenario checks arrived == succeeded + dropped + pending every
    # frame and raises if not; the rows must also agree with the variant
    base = replace(default_scenario(), **variant)
    for kind in ControllerKind:
        for seed in range(1, 4):
            rows = run_scenario(base.with_controller(kind), seed).rows
            assert sum(r.successes for r in rows) <= sum(r.arrivals for r in rows)
            for prev, row in zip([None] + rows, rows):
                if kind is ControllerKind.ACB:
                    assert row.true_load >= row.arrivals
                elif variant == {"retry_limit": 0}:
                    assert row.true_load == row.arrivals  # a collision drops
                else:  # every retrier comes back the next frame
                    returning = prev.collided_devices if prev else 0
                    assert row.arrivals <= row.true_load <= row.arrivals + returning


def corrupted(series, frames, changes):
    """A copy of series whose columns are shifted by changes[name] at each frame."""
    columns = {name: column.copy() for name, column in series.columns.items()}
    for name, delta in changes.items():
        columns[name][frames] += delta
    return TimeSeries(replication_id=series.replication_id, seed=series.seed, columns=columns)


# Per invariant: the column changes that break only it at a frame whose
# values are `at`, and the message naming it.
INVARIANT_BREAKS = [
    (lambda at: {"idle": 1}, "successes + collisions + idle != {pairs}"),
    (lambda at: {"contenders": 1}, "successes + collided_devices != contenders"),
    (
        lambda at: {"collisions": at["collided_devices"], "idle": -at["collided_devices"]},
        "collided_devices < 2 * collisions",
    ),
    (
        lambda at: {"collisions": -at["collisions"], "idle": at["collisions"]},
        "collided devices without collisions",
    ),
    (lambda at: {"arrivals": -at["arrivals"] - 1}, "negative count"),
    (lambda at: {"utility": 0.5}, "utility mismatch"),
]


@pytest.mark.parametrize(
    "changes, message", INVARIANT_BREAKS, ids=[m for _, m in INVARIANT_BREAKS]
)
def test_whole_run_validation_names_the_first_bad_frame(changes, message):
    cfg = RachConfig()
    series = run_scenario(parse_scenario(TM2), seed=1)
    c = series.columns
    series.validate(cfg)
    # a frame past the first with collisions and enough idle pairs to move
    k = next(
        f for f in range(1, len(series))
        if c["collisions"][f] >= 1 and c["idle"][f] >= c["collided_devices"][f]
    )
    deltas = changes({name: column[k] for name, column in c.items()})
    expected = f"frame {k}: " + message.format(pairs=c["n_s_used"][k] * 64)
    whole = f"^{re.escape(expected)}$"
    with pytest.raises(ValueError, match=whole):
        corrupted(series, [k], deltas).validate(cfg)
    # the same check on the bad frame's row alone, and the first of two bad frames
    with pytest.raises(ValueError, match=whole):
        TimeSeries([corrupted(series, [k], deltas).rows[k]]).validate(cfg)
    with pytest.raises(ValueError, match=whole):
        corrupted(series, [k, k + 5], deltas).validate(cfg)


def test_conservation_check_catches_a_lost_device(monkeypatch):
    backoff = rachsim.simulator._backoff

    def lose_one_retrier(*args):
        # the retrier stays counted as one, but its due frame is lost
        retriers, due = backoff(*args)
        return retriers, due[1:]

    monkeypatch.setattr(rachsim.simulator, "_backoff", lose_one_retrier)
    with pytest.raises(ValueError, match="device conservation broken"):
        run_scenario(default_scenario("fixed"), seed=1)


def test_run_scenario_reaches_every_kernel_by_its_module_name(monkeypatch):
    # stream_equivalence.py swaps the contention law by patching these names;
    # a kernel bound at import time would compare the new law with itself
    calls = dict.fromkeys(("_pick_pairs", "_backoff", "_defer", "_bar"), 0)

    def counting(name):
        kernel = getattr(rachsim.simulator, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(rachsim.simulator, name, counting(name))
    scenario = replace(default_scenario(), frames=12)
    for kind in ("acb", "adaptive"):
        before = calls["_pick_pairs"]
        run_scenario(scenario.with_controller(kind), seed=1)
        assert calls["_pick_pairs"] - before == scenario.frames, kind
    assert all(calls.values()), calls


def test_whole_run_check_catches_miscounted_pairs(monkeypatch):
    # the adaptive controller takes the counts unchecked; the run's check
    # still refuses a frame whose pairs do not add up
    pick_pairs = rachsim.simulator._pick_pairs

    def one_idle_too_many(*args):
        lost, successes, collisions, idle = pick_pairs(*args)
        return lost, successes, collisions, idle + 1

    monkeypatch.setattr(rachsim.simulator, "_pick_pairs", one_idle_too_many)
    with pytest.raises(ValueError, match=r"^frame 0: successes \+ collisions \+ idle != 128$"):
        run_scenario(default_scenario("adaptive"), seed=1)


def test_window_and_pair_bounds():
    # the largest windows run: every due frame stays an int64
    widest = Scenario(
        config=RachConfig(), profile=TRIANGLE, backoff_window=MAX_WINDOW,
        controller=ControllerSpec(kind=ControllerKind.ACB, acb_window=MAX_WINDOW),
    )
    rows = run_scenario(widest, seed=1).rows
    # no deferred device comes back within the run
    assert sum(row.true_load for row in rows) == sum(row.arrivals for row in rows)
    with pytest.raises(ValueError, match=rf"backoff_window must be in \[1, {MAX_WINDOW}\]"):
        replace(widest, backoff_window=MAX_WINDOW + 1)
    with pytest.raises(ValueError, match=rf"acb_window must be in \[1, {MAX_WINDOW}\]"):
        ControllerSpec(acb_window=MAX_WINDOW + 1)
    # the widest smoothing window is a deque's maximum length
    run_scenario(replace(widest, controller=ControllerSpec(window=MAX_WINDOW)), seed=1)
    with pytest.raises(ValueError, match=rf"^window must be in \[1, {MAX_WINDOW}\]"):
        ControllerSpec(window=MAX_WINDOW + 1)
    # n_s_max x n_preambles, checked before any frame
    Scenario(config=RachConfig(n_preambles=MAX_PAIRS // 8), profile=TRIANGLE)
    with pytest.raises(
        ValueError, match=rf"n_s_max x n_preambles = 8 x 125001 = {8 * 125_001} pairs exceed"
    ):
        Scenario(config=RachConfig(n_preambles=125_001), profile=TRIANGLE)


def test_run_replications_single_equals_run():
    scenario = default_scenario("fixed")
    repset = run_replications([scenario], 1, base_seed=9)[0]
    single = run_scenario(scenario, 9, replication_id=0)
    assert runs_of(repset)[0].rows == single.rows
    assert repset.means["utility"].tolist() == [row.utility for row in single.rows]
    assert all(v == 0.0 for v in repset.ci95_utility)


def test_ci95_utility_is_the_normal_halfwidth_of_each_frame():
    repset = run_replications([default_scenario("adaptive")], 5, base_seed=3)[0]
    n = len(repset.replication_ids)
    columns = repset.columns["utility"].T.tolist()
    expected = [1.96 * statistics.stdev(column) / math.sqrt(n) for column in columns]
    got = repset.ci95_utility.tolist()
    assert len(got) == repset.n_frames and any(ci > 0 for ci in got)
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, expected))


def test_run_replications_deterministic():
    scenario = default_scenario("adaptive")
    a = run_replications([scenario], 4, base_seed=2)[0]
    b = run_replications([scenario], 4, base_seed=2)[0]
    for col in a.means:
        assert np.array_equal(a.means[col], b.means[col], equal_nan=True)


def test_aggregate_est_load_skips_missing():
    scenario = default_scenario("fixed")
    repset = run_replications([scenario], 2, base_seed=1)[0]
    assert all(math.isnan(v) for v in repset.means["est_load"])


# the dtype kind of the column of each FrameOutcome annotation
ANNOTATION_KINDS = {int: "i", float: "f", bool: "b"}


@pytest.mark.parametrize("kind", ["adaptive", "fixed", "max", "acb"])
def test_run_columns_are_the_frame_outcome_fields(kind):
    hints = typing.get_type_hints(FrameOutcome)
    series = run_scenario(default_scenario(kind), seed=4)
    assert list(series.columns) == list(FRAME_FIELDS) == list(hints)
    for name, column in series.columns.items():
        hint = hints[name]  # float | None records as float
        annotated = next(t for t in (hint, *typing.get_args(hint)) if t in ANNOTATION_KINDS)
        assert column.dtype.kind == ANNOTATION_KINDS[annotated], name


def test_means_cover_every_field_but_frame():
    repset = run_replications([default_scenario("adaptive")], 3, base_seed=1)[0]
    assert sorted(repset.means) == sorted(set(FRAME_FIELDS) - {"frame"})


def test_mean_fallback_is_the_share_of_runs_that_fell_back():
    # on one subframe of two preambles a single success is past the clamped
    # peak, so the adaptive controller falls back in some runs' frames
    config = RachConfig(n_preambles=2, n_s_min=1, n_s_max=2)
    profile = LoadProfile((ProfileSegment(0, 30, 1.0, 1.0),))
    repset = run_replications([Scenario(config=config, profile=profile)], 4, base_seed=1)[0]
    fell_back = repset.columns["estimator_fallback"].tolist()
    share = [sum(frame) / len(fell_back) for frame in zip(*fell_back)]
    assert any(0 < s < 1 for s in share)
    assert repset.means["estimator_fallback"].tolist() == share


def test_empty_replications_rejected():
    with pytest.raises(ValueError, match="need at least one run"):
        aggregate_runs([])
    with pytest.raises(ValueError, match="n_reps must be >= 1, got 0"):
        run_replications([default_scenario("fixed")], 0)


def test_unknown_controller_kind_rejected():
    # a kind's name stands for the kind; braces in the value are text, not placeholders
    assert ControllerSpec(kind="adaptive").kind is ControllerKind.ADAPTIVE
    for kind in ("pid", {"kind": 1}):
        with pytest.raises(SettingError) as exc:
            ControllerSpec(kind=kind)
        assert str(exc.value) == (
            f"kind must be one of ['acb', 'adaptive', 'fixed', 'max'], got {kind!r}"
        )
        assert exc.value.fields == ("kind",)


def test_aggregate_mixed_lengths_rejected():
    s20 = default_scenario("fixed")
    short = Scenario(
        config=RachConfig(), profile=TRIANGLE, frames=5,
        controller=ControllerSpec(kind=ControllerKind.FIXED_DEFAULT),
    )
    with pytest.raises(ValueError):
        aggregate_runs([run_scenario(s20, 1), run_scenario(short, 2, replication_id=1)])


def test_aggregate_does_not_depend_on_run_order():
    scenario = default_scenario("adaptive")
    runs = [run_scenario(scenario, 10 + i, replication_id=i) for i in range(5)]
    in_order, reversed_ = aggregate_runs(runs), aggregate_runs(runs[::-1])
    assert reversed_.replication_ids == list(range(5))
    assert in_order.means.keys() == reversed_.means.keys()
    for name, mean in in_order.means.items():
        assert np.array_equal(mean, reversed_.means[name], equal_nan=True), name
    assert np.array_equal(in_order.ci95_utility, reversed_.ci95_utility, equal_nan=True)



def test_aggregate_stacks_each_field_in_replication_order():
    scenario = default_scenario("adaptive")
    runs = [run_scenario(scenario, 20 + i, replication_id=i) for i in range(6)]
    shuffled = [runs[i] for i in np.random.default_rng(5).permutation(len(runs))]
    assert [run.replication_id for run in shuffled] != list(range(6))
    repset = aggregate_runs(shuffled)
    assert repset.replication_ids == list(range(6))
    assert list(repset.columns) == list(FRAME_FIELDS)
    for name in FRAME_FIELDS:
        column = repset.columns[name]
        stacked = np.stack([run.columns[name] for run in runs])
        assert column.shape == (6, repset.n_frames) == stacked.shape, name
        assert column.dtype == runs[0].columns[name].dtype, name
        assert np.array_equal(column, stacked, equal_nan=True), name

def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(config=RachConfig(), profile=TRIANGLE, frames=21)
    with pytest.raises(ValueError):
        Scenario(config=RachConfig(), profile=TRIANGLE, backoff_window=0)
    with pytest.raises(ValueError):
        Scenario(config=RachConfig(), profile=TRIANGLE, retry_limit=-1)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="table_max_load"):
            ControllerSpec(table_max_load=bad)
    assert Scenario(config=RachConfig(), profile=TRIANGLE).frames == 20
