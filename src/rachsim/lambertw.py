"""Real-valued Lambert W on both real branches.

Solves w * exp(w) = x. Two real branches exist: the principal branch W0
(w >= -1, defined for x >= -1/e) and the lower branch W-1 (w <= -1,
defined for -1/e <= x < 0). They meet at the branch point x = -1/e,
where w = -1.

Halley's method from a branch-appropriate starting point: a square-root
series in sqrt(2*(1 + e*x)) near the branch point, log-based asymptotics
elsewhere. Iteration stops once the Newton-Halley step is negligible or
the residual reaches its floating-point noise floor; the cap of 50
iterations is far beyond what Halley needs but bounds pathological inputs.

Arguments that undershoot -1/e by at most 1e-15 are treated as the branch
point (returning -1.0); upstream algebra that lands exactly on the peak of
x*exp(-x) can produce such round-off. Anything lower raises
BelowBranchPointError so callers can tell "no real solution" apart from
plain misuse.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = ["BRANCH_POINT", "WBranch", "BelowBranchPointError", "lambert_w"]

BRANCH_POINT = -math.exp(-1.0)

_CLAMP_TOL = 1e-15
_STEP_RTOL = 1e-13
_MAX_ITER = 50


class WBranch(Enum):
    """Which real branch of W to evaluate."""

    PRINCIPAL = 0
    LOWER = -1


class BelowBranchPointError(ValueError):
    """Argument below -1/e: w * exp(w) = x has no real solution."""


def lambert_w(x: float, branch: WBranch = WBranch.PRINCIPAL) -> float:
    """Return w with w * exp(w) == x on the requested branch.

    Residual contract: |w*exp(w) - x| <= 1e-12 * max(1, |x|). The
    principal branch returns w >= -1, the lower branch w <= -1.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_w: argument is NaN")
    if x < BRANCH_POINT:
        if x >= BRANCH_POINT - _CLAMP_TOL:
            return -1.0
        raise BelowBranchPointError(
            f"lambert_w: argument {x!r} is below -1/e, no real solution"
        )
    if branch is WBranch.LOWER:
        if x >= 0.0:
            raise ValueError("lambert_w: lower branch requires -1/e <= x < 0")
    elif branch is not WBranch.PRINCIPAL:
        raise TypeError(f"lambert_w: unknown branch {branch!r}")

    w = _initial_guess(x, branch)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        # The residual cannot be computed more accurately than this floor.
        if abs(f) <= 4e-16 * (abs(w) * ew + abs(x)):
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            # Derivative vanishes exactly at the branch point; nudge off it.
            wp1 = 1e-300
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        step = f / denom
        w -= step
        if abs(step) <= _STEP_RTOL * (1.0 + abs(w)):
            break
    return w


def _initial_guess(x: float, branch: WBranch) -> float:
    # x - BRANCH_POINT is computed without cancellation for x near -1/e,
    # which keeps the series argument accurate where it matters.
    p = math.sqrt(2.0 * math.e * (x - BRANCH_POINT))
    if branch is WBranch.PRINCIPAL:
        if x < -0.25:
            return -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
        if x <= math.e:
            return math.log1p(x)
        l1 = math.log(x)
        l2 = math.log(l1)
        return l1 - l2 + l2 / l1
    if x < -0.25:
        return -1.0 - p - p * p / 3.0
    l1 = math.log(-x)
    l2 = math.log(-l1)
    return l1 - l2 + l2 / l1
