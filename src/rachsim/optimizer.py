"""Utility-maximizing choice of the RACH subframe count.

The authoritative optimizer is an exhaustive integer argmax over the
admissible subframe range (at most 9 evaluations). A Lambert-W closed form
for the interior stationary maximum is kept alongside it and cross-checked:
with x = load / (n_s * n_p), stationarity of the utility reads
x^2 * exp(-x) = alpha / n_p. As n_s grows from 0, utility first falls to a
local minimum (the x > 2 root), then rises to a local maximum (the x < 2
root), then falls again, so the maximum unwinds through the principal
branch: x = -2 * W0(-sqrt(alpha / n_p) / 2). No real root exists once
alpha exceeds n_p * 4 * exp(-2), the peak of the marginal collision term;
utility is then monotone decreasing in n_s and the boundary wins.

Because the interior stationary point need not beat the range boundaries,
any decision derived from the closed form compares the rounded neighbors
of the real-valued optimum against both boundary counts.

The offline table sweeps the same argmax over a load grid as numpy
arrays, block by block; points where the best two utilities nearly tie
are decided by the scalar argmax, so the table is the one the scalar
sweep would build.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .lambertw import BelowBranchPointError, WBranch, lambert_w
from .model import RachConfig, utility_of_load

__all__ = [
    "SATURATION_LOAD",
    "MAX_GRID_POINTS",
    "SubframeDecision",
    "LoadGrid",
    "LookupTable",
    "optimal_subframes_integer",
    "optimal_subframes_closed_form",
    "closed_form_decision",
    "decide_subframes",
    "subframe_lookup_table",
    "stationary_alpha_limit",
]

# Beyond this load the controller stops trusting the table and pins the
# allocation at n_s_max (congestion-relief rule); it is also the default
# upper end of the offline table.
SATURATION_LOAD = 700.0

# Largest load grid a sweep may walk; it bounds the time and the sweep file
# of one table.
MAX_GRID_POINTS = 10_000_000

# Grid points per block of the vectorised sweep, which holds one utility per
# admissible count and point: at most 10 x 2^14 floats whatever the grid.
SWEEP_BLOCK = 1 << 14

# The vectorised sweep's np.exp may differ from math.exp by an ULP or so,
# which moves a utility by about 1e-16 of the load plus the subframe price.
# Where the best two utilities of a point lie within this fraction of that
# scale, the scalar argmax decides, so every choice is the scalar one.
NEAR_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class SubframeDecision:
    """A chosen subframe count and the utility it achieves."""

    n_s: int
    achieved_utility: float
    clamped: bool = False


@dataclass(frozen=True)
class LoadGrid:
    """Loads 0, step, 2 * step, ..., (points - 1) * step."""

    step: float
    points: int

    @classmethod
    def up_to(cls, max_load: float, step: float) -> LoadGrid:
        """The grid from 0 to max_load (within rounding), sized before it is built."""
        if not 0 < step < math.inf:
            raise ValueError(f"load grid step must be finite and > 0, got {step}")
        if not 0 < max_load < math.inf:
            raise ValueError(f"max_load must be finite and > 0, got {max_load}")
        steps = max_load / step + 1e-9
        if steps >= MAX_GRID_POINTS:
            raise ValueError(
                f"load grid max_load / step = {max_load} / {step} exceeds "
                f"{MAX_GRID_POINTS} points"
            )
        return cls(step, int(math.floor(steps)) + 1)

    def __iter__(self) -> Iterator[float]:
        return (i * self.step for i in range(self.points))

    def blocks(self) -> Iterator[np.ndarray]:
        """The loads in arrays of at most SWEEP_BLOCK, bit-identical to iteration."""
        for start in range(0, self.points, SWEEP_BLOCK):
            yield np.arange(start, min(start + SWEEP_BLOCK, self.points)) * self.step


@dataclass(frozen=True)
class LookupTable:
    """Offline load -> n_s table; thresholds mark where the argmax changes.

    entries are (load_threshold, n_s) pairs with strictly increasing
    thresholds; a query returns the n_s of the last threshold at or below
    the queried load. grid is the sweep the table was built on, if any.
    """

    entries: tuple[tuple[float, int], ...]
    grid: LoadGrid | None = None

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("lookup table needs at least one entry")
        if any(b <= a for (a, _), (b, _) in zip(self.entries, self.entries[1:])):
            raise ValueError("load thresholds must be strictly increasing")

    def lookup(self, load: float) -> int:
        if math.isnan(load):
            raise ValueError("load must not be NaN")
        # (load, inf) sorts after every entry whose threshold is at most load
        idx = bisect_right(self.entries, (load, math.inf)) - 1
        return self.entries[max(idx, 0)][1]


def stationary_alpha_limit(n_preambles: int) -> float:
    """Largest alpha for which an interior stationary maximum exists."""
    return n_preambles * 4.0 * math.exp(-2.0)


def _argmax(load: float, config: RachConfig, candidates: Iterable[int]) -> SubframeDecision:
    """Utility argmax over ascending candidate counts; ties keep the smaller."""
    best_n = config.n_s_min
    best_u = -math.inf
    for n_s in candidates:
        u = utility_of_load(load, n_s, config)
        if u > best_u:
            best_n, best_u = n_s, u
    return SubframeDecision(n_s=best_n, achieved_utility=best_u)


def optimal_subframes_integer(load: float, config: RachConfig) -> SubframeDecision:
    """Exhaustive argmax of utility over the admissible subframe counts.

    Ties break toward the smaller count, freeing subframes for data when
    utility is indifferent.
    """
    if not 0 <= load < math.inf:
        raise ValueError(f"load must be finite and >= 0, got {load}")
    return _argmax(load, config, config.subframe_range)


def optimal_subframes_closed_form(load: float, config: RachConfig) -> float | None:
    """Real-valued subframe count at the interior utility maximum.

    Returns None when alpha > n_preambles * 4 * exp(-2): the W argument
    falls below -1/e and no interior stationary maximum exists, so callers
    must fall back to comparing the range boundaries.
    """
    if not 0 < load < math.inf:
        raise ValueError(f"load must be finite and > 0, got {load}")
    if config.alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {config.alpha}")
    arg = -math.sqrt(config.alpha / config.n_preambles) / 2.0
    try:
        w = lambert_w(arg, WBranch.PRINCIPAL)
    except BelowBranchPointError:
        return None
    # x = -2w in (0, 2]; n_s = load / (x * n_p).
    return -load / (2.0 * config.n_preambles * w)


def closed_form_decision(load: float, config: RachConfig) -> SubframeDecision:
    """Integer decision derived from the closed form.

    Compares floor/ceil of the real optimum (clamped into range) against
    both boundary counts; agrees with optimal_subframes_integer wherever
    the closed form is defined. Exists for cross-validation, not as the
    controller path.
    """
    candidates = {config.n_s_min, config.n_s_max}
    real_opt = optimal_subframes_closed_form(load, config)
    if real_opt is not None:
        for n in (math.floor(real_opt), math.ceil(real_opt)):
            candidates.add(min(max(n, config.n_s_min), config.n_s_max))
    return _argmax(load, config, sorted(candidates))


def decide_subframes(
    load: float,
    config: RachConfig,
    table_max_load: float = SATURATION_LOAD,
) -> SubframeDecision:
    """Controller-facing decision: argmax in range, saturation beyond it.

    Loads past table_max_load pin the allocation at n_s_max (flagged via
    clamped=True) even though the raw argmax would eventually drift back
    to n_s_min as throughput collapses; the controller's job out there is
    congestion relief, not marginal utility.
    """
    if not 0 <= load < math.inf:
        raise ValueError(f"load must be finite and >= 0, got {load}")
    if load > table_max_load:
        n_s = config.n_s_max
        return SubframeDecision(
            n_s=n_s,
            achieved_utility=utility_of_load(load, n_s, config),
            clamped=True,
        )
    return optimal_subframes_integer(load, config)


def _block_argmax(loads: np.ndarray, config: RachConfig) -> np.ndarray:
    """optimal_subframes_integer(load, config).n_s for each load of an array.

    One utility row per admissible count, by the same IEEE operations as
    utility_of_load; argmax takes the first maximum, so ties keep the
    smaller count. Near ties go to the scalar argmax (see NEAR_TIE_RTOL).
    """
    counts = np.arange(config.n_s_min, config.n_s_max + 1)[:, None]
    # RachConfig keeps n_s * n_preambles within 2^53, so this float product
    # is exactly the int one model.throughput divides by
    capacity = counts * float(config.n_preambles)
    price = config.alpha * counts
    utilities = loads * np.exp(-loads / capacity) - price
    chosen = counts[utilities.argmax(axis=0), 0]
    if len(counts) > 1:
        second, best = np.partition(utilities, -2, axis=0)[-2:]
        scale = np.maximum(1.0, loads + price[-1, 0])
        for i in np.flatnonzero(best - second <= NEAR_TIE_RTOL * scale):
            chosen[i] = optimal_subframes_integer(float(loads[i]), config).n_s
    return chosen


def subframe_lookup_table(
    config: RachConfig,
    load_grid_step: float = 1.0,
    max_load: float = SATURATION_LOAD,
) -> LookupTable:
    """Sweep loads on a grid and record every argmax change as a threshold."""
    grid = LoadGrid.up_to(max_load, load_grid_step)
    entries: list[tuple[float, int]] = []
    last_n = -1
    for loads in grid.blocks():
        n_s = _block_argmax(loads, config)
        changed = n_s != np.concatenate(([last_n], n_s[:-1]))
        entries.extend(zip(loads[changed].tolist(), n_s[changed].tolist()))
        last_n = n_s[-1]
    return LookupTable(entries=tuple(entries), grid=grid)
