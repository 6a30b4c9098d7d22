"""Statistical equivalence of the simulator's old and new contention draws.

The simulator draws a pair pick out of P pairs, and a backoff or barring
delay out of W frames, as floor(u * n) of one uniform u in [0, 1). It used
to draw them with `Generator.integers`, which costs about 10 us a call
whatever the size. The two laws give different numbers from one seed, so
the change is checked statistically here: this module keeps the old law as
a patch of `_pick_pairs` and `_defer`, runs both laws on independent seeds
for every controller, and applies Welch's two-sample t-test to every
per-frame mean of successes, collided_devices, contenders and n_s_used and
to the run totals of successes and utility. The p-values of one scenario
and controller form one family, corrected by Holm's step-down method.

Run from the repository root:

    PYTHONPATH=src python tests/stream_equivalence.py --reps 200

It prints one row per scenario and controller and exits 1 if any
comparison is rejected. The stock wave and benchmarks/scenarios/tm2_beta.scn
are the scenarios; at 200 reps the run takes about two minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from rachsim import simulator
from rachsim.scenario import default_scenario, parse_scenario
from rachsim.simulator import ControllerKind, Scenario, run_scenario

TM2 = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios" / "tm2_beta.scn"
PER_FRAME = ("successes", "collided_devices", "contenders", "n_s_used")
TOTALS = ("successes", "utility")
ALPHA = 0.05  # family-wise level of each scenario and controller


def old_pick_pairs(n, n_s, n_preambles, rng):
    """`_pick_pairs` as it drew before: picks from Generator.integers."""
    n_pairs = n_s * n_preambles
    if n == 0:
        return np.zeros(0, dtype=bool), 0, 0, n_pairs
    picks = rng.integers(0, n_pairs, size=n)
    counts = np.bincount(picks, minlength=n_pairs)
    idle, successes = np.bincount(counts)[:2].tolist()
    return counts[picks] != 1, successes, n_pairs - idle - successes, idle


def old_defer(n, frame, window, rng):
    """`_defer` as it drew before: due frames from Generator.integers."""
    if not n:
        return np.zeros(0, dtype=np.int64)
    return rng.integers(frame + 1, frame + window + 1, size=n)


def run_columns(scenario: Scenario, seeds: range, old_law: bool) -> dict[str, np.ndarray]:
    """PER_FRAME columns, (runs, frames), and TOTALS as "total_" columns, (runs, 1)."""
    law = (
        mock.patch.multiple(simulator, _pick_pairs=old_pick_pairs, _defer=old_defer)
        if old_law else contextlib.nullcontext()
    )
    with law:
        runs = [run_scenario(scenario, seed).columns for seed in seeds]
    columns = {name: np.array([run[name] for run in runs], dtype=float) for name in PER_FRAME}
    for name in TOTALS:
        columns["total_" + name] = np.array([[run[name].sum()] for run in runs], dtype=float)
    return columns


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), by its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):  # the fraction converges fast below this point
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x)
        + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):  # modified Lentz: even then odd term of each step
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * f


def welch_p(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-sided Welch t-test p-values of x against y along axis 0.

    A column that is constant in both samples gives p = 1 where the two
    constants agree. Where they differ it gets the exact two-sided
    permutation p-value: no other split of the pooled values into samples of
    these sizes is as extreme, except the mirror split when the sizes agree,
    so p = 2 / C(2n, n) for two samples of n.
    """
    n_x, n_y = len(x), len(y)
    var_x, var_y = x.var(axis=0, ddof=1) / n_x, y.var(axis=0, ddof=1) / n_y
    diff = x.mean(axis=0) - y.mean(axis=0)
    p = np.where(diff == 0, 1.0, (2 if n_x == n_y else 1) / math.comb(n_x + n_y, n_x))
    for k in np.flatnonzero(var_x + var_y > 0):
        se2 = var_x[k] + var_y[k]
        df = se2**2 / (var_x[k] ** 2 / (n_x - 1) + var_y[k] ** 2 / (n_y - 1))
        t2 = diff[k] ** 2 / se2
        p[k] = _betainc(df / 2, 0.5, df / (df + t2))  # P(|T_df| >= |t|)
    return p


def holm_rejected(p: np.ndarray, alpha: float) -> int:
    """Comparisons Holm's step-down method rejects at family-wise level alpha."""
    levels = alpha / np.arange(len(p), 0, -1)
    above = np.flatnonzero(np.sort(p) > levels)
    return int(above[0]) if len(above) else len(p)


@dataclass(frozen=True)
class Family:
    """One scenario and controller: its comparisons and what Holm rejects."""

    scenario: str
    controller: str
    tests: int
    rejected: int
    min_p: float
    totals: dict[str, tuple[float, float, float]]  # name -> (old mean, new mean, p)


def compare_streams(name: str, scenario: Scenario, reps: int) -> list[Family]:
    """Old law on seeds 0..reps-1 against the new one on reps..2*reps-1, per controller."""
    families = []
    for kind in ControllerKind:
        variant = scenario.with_controller(kind)
        old = run_columns(variant, range(reps), old_law=True)
        new = run_columns(variant, range(reps, 2 * reps), old_law=False)
        p = {column: welch_p(old[column], new[column]) for column in old}
        every = np.concatenate(list(p.values()))
        totals = {
            column: (float(old[column].mean()), float(new[column].mean()), float(p[column][0]))
            for column in p if column.startswith("total_")
        }
        families.append(Family(
            name, kind.value, len(every), holm_rejected(every, ALPHA), float(every.min()), totals
        ))
    return families


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=200, help="runs per law and controller")
    args = parser.parse_args(argv)
    if args.reps < 2:  # a sample variance needs two runs
        parser.error(f"--reps must be >= 2, got {args.reps}")
    print(f"old law on seeds 0..{args.reps - 1}, new law on seeds {args.reps}.."
          f"{2 * args.reps - 1}; Welch t-tests, Holm at family-wise alpha {ALPHA}")
    print("scenario   controller  tests  rejected  min_p     "
          "total_successes old/new (p)     total_utility old/new (p)")
    rejected = 0
    for name, scenario in (("stock", default_scenario()), ("tm2_beta", parse_scenario(TM2))):
        for family in compare_streams(name, scenario, args.reps):
            rejected += family.rejected
            totals = "  ".join(
                f"{old:10.1f} / {new:10.1f} ({p:.3f})" for old, new, p in family.totals.values()
            )
            print(f"{family.scenario:<10} {family.controller:<10} {family.tests:>6} "
                  f"{family.rejected:>9}  {family.min_p:.2e}  {totals}")
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
