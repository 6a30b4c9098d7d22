"""Contention-load estimation from one frame's RACH observables.

Inverting the throughput curve eta = N * exp(-N / pairs) gives two
candidate loads for one observed success count, one on each side of the
contention peak at N = pairs (pairs = n_s * n_preambles). The idle
preamble count picks the side: expected idles are pairs * exp(-N / pairs),
which crosses pairs / e exactly at the peak load, so fewer idles than that
mean the heavy side. The light-side root comes from the principal Lambert
W branch, the heavy-side root from the lower branch.

Per-frame raw estimates can then be averaged over a sliding window; with
window 1 the latest estimate is used as-is (persistence forecasting).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .lambertw import WBranch, lambert_w

__all__ = [
    "LoadBranch",
    "RachObservation",
    "EstimatorState",
    "InconsistentObservationError",
    "classify_load_branch",
    "estimate_load",
    "smooth_estimate",
    "SUCCESS_CLAMP_FACTOR",
    "LOAD_CAP_FACTOR",
]

# Observed success rates may overshoot the analytic peak 1/e by sampling
# noise; up to 25% over is clamped to the peak, beyond that the observation
# is rejected as inconsistent with the model.
SUCCESS_CLAMP_FACTOR = 1.25

# All-collision frames (eta = 0 on the heavy side) have an unbounded
# inverse; cap the estimate at this multiple of the opportunity count,
# which is deep enough into "beyond table range" for any controller.
LOAD_CAP_FACTOR = 4.0

_E_INV = math.exp(-1.0)


class LoadBranch(Enum):
    """Which side of the contention peak the system is on."""

    LIGHT = "light"
    HEAVY = "heavy"


class InconsistentObservationError(ValueError):
    """Observed successes exceed what any load could produce."""


@dataclass(frozen=True)
class RachObservation:
    """Per-frame observables at the eNodeB.

    Every (subframe, preamble) pair lands in exactly one bucket, so
    successes + collisions + idle must equal n_s_used * n_preambles.
    """

    successes: int
    collisions: int
    idle: int
    n_s_used: int
    n_preambles: int

    def __post_init__(self) -> None:
        if min(self.successes, self.collisions, self.idle) < 0:
            raise ValueError("observation counts must be >= 0")
        if self.n_s_used < 1 or self.n_preambles < 1:
            raise ValueError("n_s_used and n_preambles must be >= 1")
        total = self.successes + self.collisions + self.idle
        if total != self.n_s_used * self.n_preambles:
            raise ValueError(
                f"successes + collisions + idle = {total}, expected "
                f"{self.n_s_used * self.n_preambles}"
            )

    @property
    def pairs(self) -> int:
        return self.n_s_used * self.n_preambles


def classify_load_branch(idle: int, pairs: int) -> LoadBranch:
    """Light if idle pairs are at or above pairs / e, heavy otherwise."""
    if idle >= pairs / math.e:
        return LoadBranch.LIGHT
    return LoadBranch.HEAVY


def estimate_load(eta_obs: float, n_s: int, n_preambles: int, branch: LoadBranch) -> float:
    """Invert the throughput curve at an observed success count.

    With u = eta_obs / pairs: light returns pairs * (-W0(-u)), heavy
    returns pairs * (-W-1(-u)). u just above 1/e is clamped to the peak
    (estimate = pairs); u beyond the clamp tolerance raises
    InconsistentObservationError. eta_obs = 0 yields 0 on the light branch
    and the load cap 4 * pairs on the heavy branch.
    """
    if eta_obs < 0:
        raise ValueError(f"eta_obs must be >= 0, got {eta_obs}")
    if n_s < 1 or n_preambles < 1:
        raise ValueError("n_s and n_preambles must be >= 1")
    pairs = n_s * n_preambles
    if eta_obs == 0:
        return 0.0 if branch is LoadBranch.LIGHT else LOAD_CAP_FACTOR * pairs
    u = eta_obs / pairs
    if u > _E_INV:
        if u <= _E_INV * SUCCESS_CLAMP_FACTOR:
            return float(pairs)
        raise InconsistentObservationError(
            f"success rate {u:.4f} exceeds the contention peak 1/e by more "
            f"than the clamp tolerance"
        )
    w_branch = WBranch.PRINCIPAL if branch is LoadBranch.LIGHT else WBranch.LOWER
    return -pairs * lambert_w(-u, w_branch)


@dataclass
class EstimatorState:
    """Sliding window of raw per-frame load estimates. Single-writer."""

    window: int
    history: deque = field(init=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        self.history = deque(maxlen=self.window)


def smooth_estimate(state: EstimatorState, new_estimate: float) -> float:
    """Push a raw estimate into the window and return the window mean."""
    if new_estimate < 0:
        raise ValueError(f"estimate must be >= 0, got {new_estimate}")
    state.history.append(float(new_estimate))
    return sum(state.history) / len(state.history)
