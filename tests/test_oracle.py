"""run_scenario against an independent per-device reference loop.

The reference keeps one record of its own per device, its attempt count,
and a dict wait queue keyed by due frame, and implements pair selection,
the singleton test, the retry-limit drop, the backoff draw and barring
itself, one device at a time, in the order the simulator defines: a
frame's pool is its due devices in the order they were deferred, then the
new arrivals; barred devices are deferred before retriers. It shares only
the load profile, the controllers' subframe decisions and the random
streams with the library, so identical rows check the array core draw for
draw, including drops and heavy barring. Its arrivals are one scalar Poisson
draw per frame, which checks the library's single whole-run draw. A pick
out of n pairs or a delay of 1..n frames takes one uniform u each, as
int(u * n) and 1 + int(u * n).
"""

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachsim import simulator
from rachsim.model import RachConfig, utility
from rachsim.scenario import default_scenario
from rachsim.simulator import (
    ControllerKind,
    ControllerSpec,
    FrameOutcome,
    LoadProfile,
    ProfileSegment,
    Scenario,
    make_controller,
    run_scenario,
)


@dataclass
class Device:
    """A device of the reference loop: failed attempts so far."""

    attempts: int = 0


def reference_run(scenario, seed):
    """The per-device simulation loop; returns the FrameOutcome rows."""
    cfg = scenario.config
    spec = scenario.controller
    controller = make_controller(spec, cfg)
    arrival_seq, event_seq = np.random.SeedSequence(seed).spawn(2)
    arrival_rng = np.random.default_rng(arrival_seq)
    rng = np.random.default_rng(event_seq)
    waiting = {}  # due frame -> devices, in the order they were deferred
    rows = []
    for frame in range(scenario.frames):
        n_s = controller.n_s
        arrivals = int(arrival_rng.poisson(scenario.profile.rate_at(frame)))
        pool = waiting.pop(frame, []) + [Device() for _ in range(arrivals)]

        admitted = pool
        if spec.kind is ControllerKind.ACB and pool:
            passed = rng.random(len(pool))
            admitted = [dev for dev, u in zip(pool, passed) if u < spec.acb_p]
            barred = [dev for dev, u in zip(pool, passed) if not u < spec.acb_p]
            if barred:
                for dev, u in zip(barred, rng.random(len(barred))):
                    waiting.setdefault(frame + 1 + int(u * spec.acb_window), []).append(dev)

        n_pairs = n_s * cfg.n_preambles
        counts = [0] * n_pairs
        picks = []
        if admitted:
            picks = [int(u * n_pairs) for u in rng.random(len(admitted))]
            for pick in picks:
                counts[pick] += 1
        losers = [dev for dev, pick in zip(admitted, picks) if counts[pick] != 1]

        retriers = [dev for dev in losers if dev.attempts < scenario.retry_limit]
        if retriers:
            for dev, u in zip(retriers, rng.random(len(retriers))):
                dev.attempts += 1
                waiting.setdefault(frame + 1 + int(u * scenario.backoff_window), []).append(dev)

        successes = len(admitted) - len(losers)
        collisions = sum(1 for c in counts if c >= 2)
        idle = sum(1 for c in counts if c == 0)
        est = controller.observe_counts(successes, idle, n_s)
        rows.append(
            FrameOutcome(
                frame=frame,
                n_s_used=n_s,
                arrivals=arrivals,
                contenders=len(admitted),
                successes=successes,
                collisions=collisions,
                collided_devices=len(losers),
                idle=idle,
                true_load=len(pool),
                est_load=est,
                utility=utility(successes, cfg.alpha, n_s),
                estimator_fallback=controller.fallback,
            )
        )
    return rows


STOCK = default_scenario()
VARIANTS = {
    "stock": STOCK,
    "retry_limit_0": replace(STOCK, retry_limit=0),
    "backoff_window_1": replace(STOCK, backoff_window=1),
    "acb_p_0.3": replace(STOCK, controller=replace(STOCK.controller, acb_p=0.3)),
}


@pytest.mark.parametrize("kind", [k.value for k in ControllerKind])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_run_scenario_matches_per_device_reference(variant, kind):
    scenario = VARIANTS[variant].with_controller(ControllerKind(kind))
    for seed in range(1, 6):
        assert run_scenario(scenario, seed).rows == reference_run(scenario, seed), seed


# 70 frames of sustained overload with few retries: run_scenario drops the
# spent entries of its pending arrays many times over, devices drop, and
# ACB bars; the windows' order decides which deferrals come due first.
OVERLOAD = replace(
    STOCK,
    profile=LoadProfile((
        ProfileSegment(0, 10, 0.0, 250.0),
        ProfileSegment(10, 60, 250.0, 250.0),
        ProfileSegment(60, 70, 250.0, 0.0),
    )),
    frames=None,
    retry_limit=3,
)


@pytest.mark.parametrize("kind", [k.value for k in ControllerKind])
@pytest.mark.parametrize(
    "backoff_window, acb_window",
    # the last windows exceed the run: no deferred device comes back
    [(2, 9), (9, 2), (1, 1), (40, 3), (100, 2**31 - 1)],
)
def test_run_scenario_matches_reference_across_windows(backoff_window, acb_window, kind):
    scenario = replace(
        OVERLOAD,
        backoff_window=backoff_window,
        controller=replace(OVERLOAD.controller, kind=ControllerKind(kind), acb_window=acb_window),
    )
    for seed in range(1, 4):
        rows = run_scenario(scenario, seed).rows
        assert rows == reference_run(scenario, seed), seed
        if kind == "acb":
            assert any(row.contenders < row.true_load for row in rows)


def test_run_scenario_matches_reference_when_spent_entries_pile_up():
    # barring re-defers thousands of devices every frame, each due the next
    # frame, behind retriers due up to 6 frames on: spent entries pile up
    # behind a pending one, and run_scenario keeps only the pending ones,
    # again and again while the backlog is large, and drops the spent ones
    # in front once it drains; every device must keep its turn throughout
    scenario = Scenario(
        config=RachConfig(),
        profile=LoadProfile(
            (ProfileSegment(0, 20, 150.0, 150.0), ProfileSegment(20, 90, 0.0, 0.0))
        ),
        controller=ControllerSpec(kind=ControllerKind.ACB, acb_p=0.2, acb_window=1),
        backoff_window=6,
    )
    for seed in (1, 2):
        assert run_scenario(scenario, seed).rows == reference_run(scenario, seed), seed


# arrivals stop mid-run until nothing is pending, then resume: the idle
# frames between take run_scenario's empty-frame path
IDLE_GAP = replace(
    STOCK,
    profile=LoadProfile((
        ProfileSegment(0, 6, 60.0, 60.0),
        ProfileSegment(6, 50, 0.0, 0.0),
        ProfileSegment(50, 60, 60.0, 60.0),
    )),
    frames=None,
    retry_limit=2,
)


@pytest.mark.parametrize("kind", [k.value for k in ControllerKind])
def test_run_scenario_matches_reference_across_an_idle_gap(kind):
    scenario = IDLE_GAP.with_controller(ControllerKind(kind))
    # a device pending at frame f was deferred at most `deferral` frames back
    deferral = max(scenario.backoff_window, scenario.controller.acb_window)
    for seed in range(1, 6):
        rows = run_scenario(scenario, seed).rows
        assert rows == reference_run(scenario, seed), seed
        empty = [row.true_load == 0 for row in rows]
        # some frame in the gap follows `deferral` empty frames, so nothing
        # is pending there, and the load resumes after it
        assert any(all(empty[f - deferral:f + 1]) for f in range(deferral, 50)), seed
        assert not any(empty[50:]), seed


# rates from idle through light load to deep overload of the 128 default pairs
RATES = st.one_of(st.just(0.0), st.floats(0.0, 400.0))


@st.composite
def small_scenarios(draw):
    """Up to four contiguous segments, zero-rate ones included, and random knobs."""
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        start = segments[-1].end_frame if segments else 0
        end = start + draw(st.integers(1, 8))
        segments.append(ProfileSegment(start, end, draw(RATES), draw(RATES)))
    profile = LoadProfile(tuple(segments))
    controller = ControllerSpec(
        window=draw(st.integers(1, 3)),
        acb_p=draw(st.floats(0.05, 1.0)),
        acb_window=draw(st.integers(1, 4)),
    )
    return Scenario(
        config=RachConfig(),
        profile=profile,
        controller=controller,
        frames=draw(st.integers(1, profile.end_frame)),
        backoff_window=draw(st.integers(1, 5)),
        retry_limit=draw(st.integers(0, 4)),
    )


@settings(max_examples=25, deadline=None)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1))
def test_run_scenario_matches_reference_on_random_scenarios(scenario, seed):
    arrivals = set()
    for kind in ControllerKind:
        variant = scenario.with_controller(kind)
        rows = run_scenario(variant, seed).rows
        assert len(rows) == scenario.frames
        assert rows == reference_run(variant, seed)
        arrivals.add(tuple(row.arrivals for row in rows))
    assert len(arrivals) == 1  # every controller sees the same arrivals


# Sparse arrivals around one burst, with one retry: once the burst drains,
# frames take arrivals with nothing pending; sparse frames without a
# collision lose nobody, so they make no backoff call, and defer nobody; and
# ACB bars devices in frames with no retrier.
SPARSE_BURST = replace(
    STOCK,
    profile=LoadProfile((
        ProfileSegment(0, 20, 0.5, 0.5),
        ProfileSegment(20, 30, 150.0, 150.0),
        ProfileSegment(30, 70, 0.5, 0.5),
    )),
    frames=None,
    retry_limit=1,
)


@pytest.mark.parametrize("kind", [k.value for k in ControllerKind])
def test_run_scenario_matches_reference_on_frames_that_skip_array_work(kind, monkeypatch):
    scenario = SPARSE_BURST.with_controller(ControllerKind(kind))
    deferrals = []  # (frame, kernel, due frames) of every barring and backoff call

    def recording(name, frame_arg):
        kernel = getattr(simulator, name)

        def wrapper(*args):
            result = kernel(*args)
            deferrals.append((args[frame_arg], name, result[1].tolist()))
            return result

        return wrapper

    monkeypatch.setattr(simulator, "_bar", recording("_bar", 3))
    monkeypatch.setattr(simulator, "_backoff", recording("_backoff", 1))
    paths = Counter()
    for seed in range(1, 4):
        deferrals.clear()
        rows = run_scenario(scenario, seed).rows
        assert rows == reference_run(scenario, seed), seed
        deferred = {(frame, name): len(due) for frame, name, due in deferrals}
        first = next(row.frame for row in rows if row.true_load)
        for row in rows[first + 1:]:
            pending = sum(g < row.frame <= d for g, _, dues in deferrals for d in dues)
            barred = deferred.get((row.frame, "_bar"), 0)
            retriers = deferred.get((row.frame, "_backoff"), 0)
            paths["nothing pending"] += row.arrivals > 0 and pending == 0
            paths["defers nobody"] += row.true_load > 0 and barred + retriers == 0
            paths["bars without retriers"] += barred > 0 and retriers == 0
            if row.contenders > 0 and row.collided_devices == 0:
                paths["loses nobody"] += 1
                assert (row.frame, "_backoff") not in deferred, (seed, row.frame)
    assert paths["nothing pending"] > 0 and paths["defers nobody"] > 0, paths
    assert paths["loses nobody"] > 0, paths
    assert paths["bars without retriers"] > 0 or kind != "acb", paths
