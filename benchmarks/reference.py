"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed of one core drifts by a third or more over
seconds to minutes, as other tenants load the machine. The benchmark runs
this kernel before and after every timed invocation and divides the
invocation's wall time by the mean of the two kernel times. A slowdown
that lasts longer than about one invocation slows both alike and cancels
in the ratio; a change to rachsim does not touch the kernel, so it shows
in full.

The kernel imitates the program's mix of work, so that contention for
the core, its caches and memory slows both by a similar factor:
interpreted loops over small objects, numpy random draws and counts on
large and small arrays, dictionary updates, scalar float iterations and
float-to-text formatting. It depends on
the Python and numpy versions and nothing else; it never imports rachsim.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

FRAMES = 45  # with SMALL_FRAMES, about 0.1 s on one core of a 2020s server
SMALL_FRAMES = 40


class _Device:
    __slots__ = ("arrival", "attempts", "backoff")

    def __init__(self, arrival: int, attempts: int, backoff: int):
        self.arrival = arrival
        self.attempts = attempts
        self.backoff = backoff


def kernel() -> int:
    """A fixed amount of work; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(20190416)
    pool: list[_Device] = []
    checksum = 0
    lines = []
    rows: list[_Row] = []
    for frame in range(FRAMES):
        pool.extend(_Device(frame, 0, 0) for _ in range(200))
        picks = rng.integers(0, 128, size=len(pool))
        counts = np.bincount(picks, minlength=128)
        single = {int(k) for k in np.flatnonzero(counts == 1)}
        survivors = []
        tally: dict[int, int] = {}
        for device, pick in zip(pool, picks.tolist()):
            if pick in single:
                continue
            device.attempts += 1
            device.backoff = (pick * 7 + frame) % 20
            if device.attempts < 10:
                survivors.append(device)
            tally[device.backoff] = tally.get(device.backoff, 0) + 1
        pool = survivors
        checksum += len(single) + len(tally) + int(np.count_nonzero(counts == 0))
        lines.append(",".join(f"{v / 3.0!r}" for v in tally.values()))
        for k in range(SMALL_FRAMES):
            rows.append(_small_frame(rng, 0.05 + 0.01 * k + frame / FRAMES))
    for row in rows:
        checksum += row.successes + row.collided
        lines.append(f"{row.load!r},{row.estimate:.6f},{row.successes},{row.collided}")
    return checksum + sum(len(line) for line in lines)


@dataclass(frozen=True)
class _Row:
    load: float
    estimate: float
    successes: int
    collided: int


def _small_frame(rng: np.random.Generator, load: float) -> _Row:
    """One small contention round: numpy calls on short arrays, scalar math."""
    n = int(rng.poisson(40.0))
    counts = np.bincount(rng.integers(0, 64, size=n), minlength=64)
    successes = int(np.count_nonzero(counts == 1))
    collided = int(counts[counts >= 2].sum())
    return _Row(load, _newton(load), successes, collided)


def _newton(x: float) -> float:
    """Solves w * exp(w) = x by Newton steps: scalar float work."""
    w = math.log1p(x)
    for _ in range(8):
        e = math.exp(w)
        w -= (w * e - x) / (e * (w + 1.0))
    return w


def time_kernel() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
