"""run_scenario against an independent per-device reference loop.

The reference keeps one DeviceState object per device and a dict wait
queue keyed by due frame, and implements pair selection, the singleton
test, the retry-limit drop, the backoff draw and barring itself, one
device at a time, in the order the simulator defines: a frame's pool is
its due devices in the order they were deferred, then the new arrivals;
barred devices are deferred before retriers. It shares only the load
profile, the controllers' subframe decisions and the random streams with
the library, so identical rows check the array core draw for draw,
including drops and heavy barring.
"""

from dataclasses import replace

import numpy as np
import pytest

from rachsim.estimator import RachObservation
from rachsim.model import utility
from rachsim.scenario import default_scenario
from rachsim.simulator import (
    ControllerKind,
    DeviceState,
    FrameOutcome,
    generate_arrivals,
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
        n_s = controller.next_n_s()
        arrivals = generate_arrivals(scenario.profile, frame, arrival_rng)
        pool = waiting.pop(frame, []) + [DeviceState(id=next_id + k) for k in range(arrivals)]
        next_id += arrivals

        admitted = pool
        if spec.kind is ControllerKind.ACB and pool:
            passed = rng.random(len(pool))
            admitted = [dev for dev, u in zip(pool, passed) if u < spec.acb_p]
            barred = [dev for dev, u in zip(pool, passed) if not u < spec.acb_p]
            if barred:
                delays = rng.integers(1, spec.acb_window + 1, size=len(barred))
                for dev, delay in zip(barred, delays):
                    waiting.setdefault(frame + int(delay), []).append(dev)

        n_pairs = n_s * cfg.n_preambles
        counts = [0] * n_pairs
        picks = []
        if admitted:
            picks = [int(p) for p in rng.integers(0, n_pairs, size=len(admitted))]
            for pick in picks:
                counts[pick] += 1
        losers = [dev for dev, pick in zip(admitted, picks) if counts[pick] != 1]

        retriers = [dev for dev in losers if dev.attempts < scenario.retry_limit]
        if retriers:
            delays = rng.integers(1, scenario.backoff_window + 1, size=len(retriers))
            for dev, delay in zip(retriers, delays):
                dev.attempts += 1
                waiting.setdefault(frame + int(delay), []).append(dev)

        successes = len(admitted) - len(losers)
        collisions = sum(1 for c in counts if c >= 2)
        idle = sum(1 for c in counts if c == 0)
        est = controller.observe(
            RachObservation(successes, collisions, idle, n_s, cfg.n_preambles)
        )
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
