"""Utility-maximizing choice of the RACH subframe count.

The authoritative optimizer is an exhaustive integer argmax over the
admissible subframe range (at most 10 counts). A Lambert-W closed form
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

One argmax decides every choice, of one load, of the closed form's
candidates and of each table point: a numpy kernel over arrays of loads
and counts. Counts within a small slack of the best utility tie and the
smaller wins, so no choice turns on the ULP by which numpy's exp differs
between the SIMD code paths it dispatches to. The table applies the kernel
to the first point of each run of grid points, and to every point of a run
only where a bound on how fast utilities change cannot certify that the
first point's count wins throughout the run.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lambertw import BelowBranchPointError, WBranch, lambert_w
from .model import RachConfig, SettingError, check_range, utility, utility_of_load

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

# Grid points per block of the table sweep. A block holds one utility per
# admissible count and point it evaluates, the first point of each run and
# every point of a run it cannot certify: at most 10 x 2^14 floats whatever
# the grid.
SWEEP_BLOCK = 1 << 14

# Grid points per run of the table sweep, whose count is certified from its
# first point (see _certified_runs). On the benchmark's table (alpha 25,
# step 0.01, 70 001 points) runs of 16, 32 and 64 evaluate 7 400, 8 364 and
# 13 638 points; 32 was the fastest, 1.57 ms a table against 1.63 and
# 2.04 ms, and 6.3 ms point by point (median of 200, 2-vCPU Xeon VM).
CERTIFIED_RUN = 32

# numpy's exp may differ from math.exp, and between the SIMD code paths it
# dispatches to, by an ULP or so: about 1e-16 of load + alpha * n_s_max in a
# utility. Counts within this fraction of 1 + load + alpha * n_s_max of the
# best utility tie, and the smallest tied count wins.
NEAR_TIE_RTOL = 1e-9

# The fastest a certificate margin (see _certified_runs) can shrink per unit
# of load. u_n(L) = L * exp(-L / c_n) - alpha * n, with c_n = n * n_preambles,
# has du_n/dL = exp(-x) * (1 - x), x = L / c_n, which lies in [-exp(-2), 1].
# So the gap between two counts' utilities moves by at most 1 + exp(-2) per
# unit of load, and the tie slack by NEAR_TIE_RTOL.
_MARGIN_RATE = 1.0 + math.exp(-2.0) + NEAR_TIE_RTOL


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
        check_range("step", step, 0, lo_open=True)
        check_range("max_load", max_load, 0, lo_open=True)
        steps = max_load / step + 1e-9
        if steps >= MAX_GRID_POINTS:
            raise SettingError(
                f"load grid max_load / step = {max_load} / {step} exceeds "
                f"{MAX_GRID_POINTS} points",
                "max_load", "step",
            )
        return cls(step, int(math.floor(steps)) + 1)

    def __iter__(self) -> Iterator[float]:
        return (i * self.step for i in range(self.points))

    def blocks(self) -> Iterator[np.ndarray]:
        """The loads in arrays of at most SWEEP_BLOCK, bit-identical to iteration.

        A sweep holds one block at a time, so its memory does not grow with
        the grid.
        """
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


def _utilities(
    loads: float | np.ndarray, config: RachConfig, counts: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    """Each count's utility at each load (a row per count), and the tie slack per load.

    The utilities take utility_of_load's IEEE operations, with np.exp.
    """
    # RachConfig keeps n_s * n_preambles within 2^53, so this float product
    # is exactly the int one model.throughput divides by
    column = counts[:, None].astype(np.float64)
    capacity = column * float(config.n_preambles)
    utilities = utility(loads * np.exp(-loads / capacity), config.alpha, column)
    return utilities, NEAR_TIE_RTOL * (1.0 + loads + config.alpha * config.n_s_max)


def _winners(utilities: np.ndarray, slack: float | np.ndarray) -> np.ndarray:
    """Per load, the row of the smallest count tied with the best (see NEAR_TIE_RTOL).

    The counts must be ascending, so the first tied row is the smallest count.
    """
    return (utilities >= utilities.max(axis=0) - slack).argmax(axis=0)


def _certified_runs(
    firsts: np.ndarray, lasts: np.ndarray, config: RachConfig, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per run of grid loads from firsts to lasts: the winning row at its first
    load, and whether that row provably wins at every load of the run.

    Row w wins at a load where u_w - u_k - slack > 0 for every smaller
    count k, so none of them ties with the best, and u_w - u_k + slack > 0
    for every larger count k, so w ties with the best. Over a run each of
    these margins shrinks by at most _MARGIN_RATE per unit of load; the run
    is certified when every margin at its first load exceeds that drift
    plus a tie slack at its last load, far above any rounding.
    """
    utilities, slack = _utilities(firsts, config, counts)
    rows = _winners(utilities, slack)
    order = np.arange(len(counts))[:, None]
    best = utilities[rows, np.arange(len(rows))]
    margins = best - utilities + np.where(order < rows, -slack, slack)
    bound = _MARGIN_RATE * (lasts - firsts) + NEAR_TIE_RTOL * (
        1.0 + lasts + config.alpha * config.n_s_max
    )
    return rows, ((margins > bound) | (order == rows)).all(axis=0)


def _decision(load: float, config: RachConfig, counts: np.ndarray) -> SubframeDecision:
    """The kernel's choice for one load, with its utility by utility_of_load."""
    n_s = int(counts[_winners(*_utilities(load, config, counts))[0]])
    return SubframeDecision(n_s=n_s, achieved_utility=utility_of_load(load, n_s, config))


def optimal_subframes_integer(load: float, config: RachConfig) -> SubframeDecision:
    """Exhaustive argmax of utility over the admissible subframe counts.

    Ties, to within NEAR_TIE_RTOL, break toward the smaller count, freeing
    subframes for data when utility is indifferent.
    """
    check_range("load", load, 0)
    return _decision(load, config, np.array(config.subframe_range))


def optimal_subframes_closed_form(load: float, config: RachConfig) -> float | None:
    """Real-valued subframe count at the interior utility maximum.

    Returns None when alpha > n_preambles * 4 * exp(-2): the W argument
    falls below -1/e and no interior stationary maximum exists, so callers
    must fall back to comparing the range boundaries.
    """
    check_range("load", load, 0, lo_open=True)
    check_range("alpha", config.alpha, 0, lo_open=True)
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
    return _decision(load, config, np.array(sorted(candidates)))


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
    check_range("load", load, 0)
    check_range("table_max_load", table_max_load, 0, lo_open=True)
    if load > table_max_load:
        n_s = config.n_s_max
        return SubframeDecision(n_s, utility_of_load(load, n_s, config), clamped=True)
    return optimal_subframes_integer(load, config)


def subframe_lookup_table(
    config: RachConfig,
    load_grid_step: float = 1.0,
    max_load: float = SATURATION_LOAD,
) -> LookupTable:
    """Sweep loads on a grid and record every argmax change as a threshold.

    Each block of the grid is decided in runs of CERTIFIED_RUN points. The
    kernel decides a run's first point; where _certified_runs proves that
    no other count can overtake that point's count anywhere in the run, the
    whole run takes it. Every point of a run it cannot certify is decided
    by the same kernel and tie rule, so every point gets the count a
    point-by-point sweep gives it. Work and memory are per block: the sweep
    builds no array the size of the grid.
    """
    grid = LoadGrid.up_to(max_load, load_grid_step)
    entries: list[tuple[float, int]] = []
    counts = np.array(config.subframe_range)
    last_n = -1
    for loads in grid.blocks():
        starts = np.arange(0, len(loads), CERTIFIED_RUN)
        ends = np.minimum(starts + CERTIFIED_RUN, len(loads)) - 1
        rows, certified = _certified_runs(loads[starts], loads[ends], config, counts)
        n_s = np.repeat(counts[rows], CERTIFIED_RUN)[: len(loads)]
        dense = np.repeat(~certified, CERTIFIED_RUN)[: len(loads)]
        n_s[dense] = counts[_winners(*_utilities(loads[dense], config, counts))]
        changed = n_s != np.concatenate(([last_n], n_s[:-1]))
        entries.extend(zip(loads[changed].tolist(), n_s[changed].tolist()))
        last_n = n_s[-1]
    return LookupTable(entries=tuple(entries), grid=grid)
