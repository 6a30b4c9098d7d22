"""Contention-load estimation from one frame's RACH observables.

Inverting the throughput curve eta = N * exp(-N / pairs) gives two
candidate loads for one observed success count, one on each side of the
contention peak at N = pairs (pairs = n_s * n_preambles). The idle
preamble count picks the side: expected idles are pairs * exp(-N / pairs),
which crosses pairs / e exactly at the peak load, so fewer idles than that
mean the heavy side. The light-side root comes from the principal Lambert
W branch, the heavy-side root from the lower branch.
"""

from __future__ import annotations

import math
from enum import Enum

from .lambertw import WBranch, lambert_w
from .model import check_integer, check_range

__all__ = [
    "LoadBranch",
    "InconsistentObservationError",
    "classify_load_branch",
    "estimate_load",
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
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


# a LoadBranch.X read goes through EnumType.__getattr__ (about 200 ns on 3.11)
_LIGHT, _HEAVY = LoadBranch.LIGHT, LoadBranch.HEAVY


class InconsistentObservationError(ValueError):
    """Observed successes exceed what any load could produce."""


def classify_load_branch(idle: int, pairs: int) -> LoadBranch:
    """Light if idle pairs are at or above pairs / e, heavy otherwise."""
    if idle >= pairs / math.e:
        return _LIGHT
    return _HEAVY


def estimate_load(eta_obs: float, n_s: int, n_preambles: int, branch: LoadBranch) -> float:
    """Invert the throughput curve at an observed success count.

    With u = eta_obs / pairs: light returns pairs * (-W0(-u)), heavy
    returns pairs * (-W-1(-u)). u just above 1/e is clamped to the peak
    (estimate = pairs); u beyond the clamp tolerance raises
    InconsistentObservationError. eta_obs = 0 yields 0 on the light branch
    and the load cap 4 * pairs on the heavy branch.
    """
    check_range("eta_obs", eta_obs, 0)
    check_integer("n_s", n_s, 1)
    check_integer("n_preambles", n_preambles, 1)
    pairs = n_s * n_preambles
    if eta_obs == 0:
        return 0.0 if branch is _LIGHT else LOAD_CAP_FACTOR * pairs
    u = eta_obs / pairs
    if u > _E_INV:
        if u <= _E_INV * SUCCESS_CLAMP_FACTOR:
            return float(pairs)
        raise InconsistentObservationError(
            f"success rate {u:.4f} exceeds the contention peak 1/e by more "
            f"than the clamp tolerance"
        )
    w_branch = WBranch.PRINCIPAL if branch is _LIGHT else WBranch.LOWER
    return -pairs * lambert_w(-u, w_branch)
