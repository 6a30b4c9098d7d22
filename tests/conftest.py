"""Shared test helpers: independent oracles kept free of library code, a row view,
a worker count for run_replications, and the README's fenced blocks."""

import math
import os
import re
from pathlib import Path

import rachsim.simulator
from rachsim.simulator import TimeSeries

README = Path(__file__).resolve().parents[1] / "README.md"

# A fenced block: its language, the rest of its info string, and its text.
_FENCE = re.compile(r"^```(\w*) *([^\n]*)\n(.*?)^```$", re.M | re.S)


def readme_blocks(language: str) -> list[tuple[str, str]]:
    """README.md's fenced blocks in language, as (the rest of the info string,
    the text inside the fences)."""
    text = README.read_text(encoding="utf-8")
    return [(block[2], block[3]) for block in _FENCE.finditer(text) if block[1] == language]


def force_workers(monkeypatch, workers: int) -> None:
    """Make run_replications use `workers` processes for any call of at least that many jobs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(rachsim.simulator, "MIN_WORKER_ROWS", 1)


def runs_of(repset) -> list[TimeSeries]:
    """Each replication of a ReplicationSet as a run of row views, in replication order."""
    return [
        TimeSeries(replication_id=rep, columns={name: c[i] for name, c in repset.columns.items()})
        for i, rep in enumerate(repset.replication_ids)
    ]


def w_bisect(x: float, branch: str) -> float:
    """Bisection solve of w * exp(w) = x, independent of the library.

    branch "principal": root in [-1, inf), where w*exp(w) is increasing.
    branch "lower": root in (-inf, -1], where w*exp(w) is decreasing.
    Interval narrowed to 1e-13 absolute width.
    """
    g = lambda w: w * math.exp(w) - x
    if branch == "principal":
        lo = -1.0
        hi = max(2.0, math.log(max(x, 1.0)) + 2.0)
        increasing = True
    elif branch == "lower":
        lo, hi = -800.0, -1.0
        increasing = False
    else:
        raise ValueError(branch)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if (gm < 0) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Generic bisection for a sign change of fn on [lo, hi]."""
    flo = fn(lo)
    if flo == 0:
        return lo
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)
