"""run_scenario against an independent per-device reference loop.

The reference keeps one DeviceState object per device and a dict wait
queue keyed by due frame, and implements pair selection, the singleton
test, the retry-limit drop, the backoff draw and barring itself, one
device at a time, in the order the simulator defines: a frame's pool is
its due devices in the order they were deferred, then the new arrivals;
barred devices are deferred before retriers. It shares only the load
profile, the controllers' subframe decisions and the random streams with
the library, so identical rows check the array core draw for draw,
including drops and heavy barring. Its arrivals are one scalar Poisson
draw per frame, which checks the library's single whole-run draw. A pick
out of n pairs or a delay of 1..n frames takes one uniform u each, as
int(u * n) and 1 + int(u * n).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachsim.model import RachConfig, utility
from rachsim.scenario import default_scenario
from rachsim.simulator import (
    ControllerKind,
    ControllerSpec,
    DeviceState,
    FrameOutcome,
    LoadProfile,
    ProfileSegment,
    Scenario,
    make_controller,
    run_scenario,
)


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
    next_id = 0
    for frame in range(scenario.frames):
        n_s = controller.n_s
        arrivals = int(arrival_rng.poisson(scenario.profile.rate_at(frame)))
        pool = waiting.pop(frame, []) + [DeviceState(id=next_id + k) for k in range(arrivals)]
        next_id += arrivals

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
