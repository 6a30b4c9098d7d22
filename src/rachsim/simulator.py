"""Monte Carlo simulation of frame-by-frame RACH contention.

One frame is one controller period. The per-frame sequence is:

1. the controller picks this frame's subframe count from what it saw up
   to the previous frame (frame 0 runs at n_s_min for the adaptive
   controller, constants elsewhere);
2. Poisson arrivals are drawn from the load profile and merged with
   retriers whose backoff expires this frame (arrivals contend in the
   frame they arrive);
3. an access-class-barring controller gates the pool, everyone else
   admits it whole;
4. each admitted device picks one (subframe, preamble) pair uniformly;
   singleton pairs succeed, shared pairs collide;
5. collided devices draw a uniform backoff of 1..backoff_window frames,
   or drop once they have failed retry_limit times;
6. the outcome is recorded, and the adaptive controller turns it into a
   load estimate that becomes the forecast for the next frame.

Each run owns two independent random streams spawned from the seed: one
consumed only by arrival draws (one per run, over every frame's rate: the
numbers of one draw per frame), one by contention, backoff, and barring.
Running different controllers at the same seed therefore sees identical
arrival sequences (common random numbers). Runs are deterministic: same
scenario and seed, bit-identical output. Pending devices are append-only
arrays that a frame reads only where due (see run_scenario). A run's
records are columns, one array per FrameOutcome field, checked once per run.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import itertools
import math
import os
import pickle
import signal
import sys
from collections import deque
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import BinaryIO, NoReturn, Sequence

import numpy as np

from .estimator import InconsistentObservationError, classify_load_branch, estimate_load
from .model import RachConfig, SettingError, check_integer, check_range, shown, utility
from .optimizer import SATURATION_LOAD, decide_subframes

__all__ = [
    "ProfileSegment",
    "LoadProfile",
    "MAX_POOL",
    "MAX_RATE",
    "MAX_PAIRS",
    "MAX_WINDOW",
    "DeviceStatus",
    "DeviceState",
    "ControllerKind",
    "KIND_NAMES",
    "ControllerSpec",
    "Controller",
    "AdaptiveController",
    "AcbController",
    "make_controller",
    "Scenario",
    "ContentionResult",
    "FrameOutcome",
    "TimeSeries",
    "ReplicationSet",
    "generate_arrivals",
    "contend",
    "resolve_backoff",
    "acb_gate",
    "run_scenario",
    "run_replications",
    "aggregate_runs",
]


# ---------------------------------------------------------------------------
# Load profile

# Bound on the devices one frame may hold (pending plus new arrivals); a pool
# that outgrows it, pushed there by retriers, fails at its frame.
MAX_POOL = 10_000_000
# Bound on a segment's mean arrival rate, so no rate exhausts memory or reaches
# numpy's Poisson limit. It is 10 Poisson standard deviations below MAX_POOL:
# a frame's draw at it passes MAX_POOL with probability about 7e-24.
MAX_RATE = MAX_POOL - 10 * math.isqrt(MAX_POOL)


@dataclass(frozen=True)
class ProfileSegment:
    """Linear mean-arrival-rate ramp over [start_frame, end_frame)."""

    start_frame: int
    end_frame: int
    rate_start: float
    rate_end: float

    def __post_init__(self) -> None:
        check_integer("start_frame", self.start_frame, 0)
        check_integer("end_frame", self.end_frame, 1)
        if self.end_frame <= self.start_frame:
            raise SettingError("end_frame must exceed start_frame", "end_frame", "start_frame")
        check_range("rate_start", self.rate_start, 0, MAX_RATE)
        check_range("rate_end", self.rate_end, 0, MAX_RATE)


@dataclass(frozen=True)
class LoadProfile:
    """Piecewise-linear mean arrival rate, devices per frame, over [0, end_frame)."""

    segments: tuple[ProfileSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("profile needs at least one segment")
        if (start := self.segments[0].start_frame) != 0:
            raise ValueError(f"segments must start at frame 0, not {shown(start)}")
        for a, b in zip(self.segments, self.segments[1:]):
            if b.start_frame != a.end_frame:
                raise ValueError(
                    f"segments must be contiguous: {shown(a.end_frame)} "
                    f"then {shown(b.start_frame)}"
                )

    @property
    def end_frame(self) -> int:
        return self.segments[-1].end_frame

    def rate_at(self, frame):
        """Rate at a frame, or at each frame of an integer array."""
        frames = np.asarray(frame)
        outside = (frames < 0) | (frames >= self.end_frame)
        if outside.any():
            raise ValueError(
                f"frame {frames[outside].flat[0]} outside profile span "
                f"[0, {self.end_frame})"
            )
        table = np.array(
            [(s.start_frame, s.end_frame, s.rate_start, s.rate_end) for s in self.segments],
            dtype=float,
        )
        # each frame's segment is the last one that starts at or before it
        start, end, r0, r1 = table.T[:, np.searchsorted(table[:, 0], frames, side="right") - 1]
        rates = r0 + (r1 - r0) * ((frames - start) / (end - start))
        return rates if frames.ndim else float(rates)


def generate_arrivals(
    profile: LoadProfile, frames: Sequence[int] | np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Poisson draws at the profile's rate of each given frame."""
    return rng.poisson(profile.rate_at(frames))


# ---------------------------------------------------------------------------
# Devices and contention
#
# Each contention rule has one implementation, an array kernel that works
# on per-device arrays in pool order: `_pick_pairs` (pair selection and
# the singleton test), `_backoff` (retry-limit drop and backoff draw) and
# `_bar` (barring draw and barring delay). `run_scenario` calls them
# directly with settings its Scenario already checked; `contend`,
# `resolve_backoff` and `acb_gate` check their raw arguments and adapt the
# kernels to DeviceState lists. A kernel draws nothing for an empty
# selection, so both callers consume the event stream identically. A pick or
# delay out of n values is floor(u * n), u uniform in [0, 1): total-variation
# bias < n * 2**-53.

MAX_PAIRS = 1_000_000  # bound on n_s_max x n_preambles; a frame counts picks per pair
# Bound on the backoff, barring and estimate smoothing windows: due frames
# fit int64, and a smoothing window fits a deque's maximum length.
MAX_WINDOW = 2**31 - 1
_MAX_FRAME = 2**63 - 1 - MAX_WINDOW  # the last frame whose deferrals fit int64

_NO_DEVICES = np.zeros(0, dtype=np.int64)
_NO_DEVICES.flags.writeable = False


class DeviceStatus(Enum):
    CONTENDING = "contending"
    BACKED_OFF = "backed_off"
    DROPPED = "dropped"


@dataclass(slots=True)
class DeviceState:
    id: int
    status: DeviceStatus = DeviceStatus.CONTENDING
    backoff_until: int = 0
    attempts: int = 0


@dataclass(frozen=True)
class ContentionResult:
    """Counts of one frame's preamble selection plus the devices that collided."""

    successes: int
    collisions: int  # pairs picked by >= 2 devices
    collided_devices: int
    idle: int
    losers: list[DeviceState]


def _pick_pairs(
    n: int, n_s: int, n_preambles: int, rng: np.random.Generator
) -> tuple[np.ndarray, int, int, int]:
    """n devices pick uniform pairs: (lost mask, successes, collisions, idle)."""
    n_pairs = n_s * n_preambles
    if n == 0:
        return np.zeros(0, dtype=bool), 0, 0, n_pairs
    picks = (rng.random(n) * n_pairs).astype(np.int64)
    counts = np.bincount(picks, minlength=n_pairs)
    # pairs by how many devices picked them: idle ones, then singletons
    idle, successes = np.bincount(counts)[:2].tolist()
    return counts[picks] != 1, successes, n_pairs - idle - successes, idle


def _defer(n: int, frame: int, window: int, rng: np.random.Generator) -> np.ndarray:
    """Due frames of n deferred devices, uniform over frame+1..frame+window."""
    return frame + 1 + (rng.random(n) * window).astype(np.int64)


def _backoff(
    attempts: np.ndarray,
    frame: int,
    backoff_window: int,
    retry_limit: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Collided devices' (attempts of the retriers, due frames of the retriers)."""
    retriers = attempts[attempts < retry_limit]
    return retriers, _defer(len(retriers), frame, backoff_window, rng)


def _bar(
    n: int, p_barring: float, barring_window: int, frame: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Barring of n devices: (passed mask, due frames of the barred)."""
    passed = rng.random(n) < p_barring
    return passed, _defer(n - int(np.count_nonzero(passed)), frame, barring_window, rng)


def contend(
    contenders: Sequence[DeviceState],
    n_s: int,
    n_preambles: int,
    rng: np.random.Generator,
) -> ContentionResult:
    """Uniform (subframe, preamble) selection; singleton pairs win."""
    check_integer("n_s", n_s, 1)
    check_integer("n_preambles", n_preambles, 1)
    devices = list(contenders)
    lost, successes, collisions, idle = _pick_pairs(len(devices), n_s, n_preambles, rng)
    losers = [dev for dev, lose in zip(devices, lost.tolist()) if lose]
    return ContentionResult(successes, collisions, len(losers), idle, losers)


def resolve_backoff(
    collided: Sequence[DeviceState],
    frame: int,
    backoff_window: int,
    retry_limit: int,
    rng: np.random.Generator,
) -> None:
    """Back off collided devices by uniform 1..backoff_window frames.

    A device that has already failed retry_limit times is dropped instead.
    """
    check_integer("frame", frame, 0, _MAX_FRAME)
    check_integer("backoff_window", backoff_window, 1, MAX_WINDOW)
    check_integer("retry_limit", retry_limit, 0)
    devices = list(collided)
    attempts = np.array([dev.attempts for dev in devices], dtype=np.int64)
    _, due = _backoff(attempts, frame, backoff_window, retry_limit, rng)
    retriers = []
    for dev, again in zip(devices, (attempts < retry_limit).tolist()):
        if again:
            retriers.append(dev)
        else:
            dev.status = DeviceStatus.DROPPED
    for dev, until in zip(retriers, due.tolist()):
        dev.attempts += 1
        dev.status = DeviceStatus.BACKED_OFF
        dev.backoff_until = until


def acb_gate(
    contenders: Sequence[DeviceState],
    p_barring: float,
    barring_window: int,
    frame: int,
    rng: np.random.Generator,
) -> tuple[list[DeviceState], list[DeviceState]]:
    """Admit each contender with probability p_barring; bar the rest."""
    check_range("p_barring", p_barring, 0, 1, lo_open=True)
    check_integer("barring_window", barring_window, 1, MAX_WINDOW)
    check_integer("frame", frame, 0, _MAX_FRAME)
    devices = list(contenders)
    passed, due = _bar(len(devices), p_barring, barring_window, frame, rng)
    admitted = [dev for dev, ok in zip(devices, passed.tolist()) if ok]
    barred = [dev for dev, ok in zip(devices, passed.tolist()) if not ok]
    for dev, until in zip(barred, due.tolist()):
        dev.backoff_until = until
    return admitted, barred


# ---------------------------------------------------------------------------
# Controllers


class ControllerKind(Enum):
    FIXED_DEFAULT = "fixed"  # constant n_s_min, the 3GPP default of 2
    FIXED_MAX = "max"  # constant n_s_max
    ADAPTIVE = "adaptive"
    ACB = "acb"  # access class barring on top of the default allocation

    @classmethod
    def _missing_(cls, value):
        """Refuse a value that is not a kind's name."""
        raise SettingError(f"kind must be one of {KIND_NAMES}, got {shown(value, repr)}", "kind")


KIND_NAMES = sorted(kind.value for kind in ControllerKind)  # the names a kind is given by


@dataclass(frozen=True)
class ControllerSpec:
    """Controller kind, a ControllerKind or its name, plus the knobs the kinds understand."""

    kind: ControllerKind = ControllerKind.ADAPTIVE
    window: int = 1
    table_max_load: float = SATURATION_LOAD
    acb_p: float = 0.5
    acb_window: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ControllerKind(self.kind))
        check_integer("window", self.window, 1, MAX_WINDOW)
        check_range("table_max_load", self.table_max_load, 0.0, lo_open=True)
        check_range("acb_p", self.acb_p, 0.0, 1.0, lo_open=True)
        check_integer("acb_window", self.acb_window, 1, MAX_WINDOW)


class Controller:
    """The fixed policy: the next frame runs at n_s and admits the whole pool."""

    fallback = False

    def __init__(self, n_s: int):
        self.n_s = n_s

    def admit(
        self, pool: np.ndarray, frame: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split the pool's attempt counts into (admitted, barred, barred due frames)."""
        return pool, _NO_DEVICES, _NO_DEVICES

    def observe_counts(self, successes: int, idle: int) -> float | None:
        """Take the counts of the frame just run at n_s; return the load estimate, if any."""
        return None


class AdaptiveController(Controller):
    """Estimate the load from the last frame, re-optimize the allocation.

    The forecast for frame t+1 is the mean of the raw estimates of the
    last `window` frames; with window 1 the estimate from frame t is used
    unchanged (persistence forecasting). A frame whose observation is
    inconsistent with the model yields no estimate and pins the next frame
    at n_s_max.

    Both steps are pure functions of small keys that recur from frame to
    frame, so their results are cached: estimates by (successes, n_s, load
    branch), decisions by the smoothed load. The counts themselves are
    checked by run_scenario's whole-run check. The caches live as long as
    the controller, one run, unless it is given a pair: run_replications
    gives each of its processes one pair per scenario in one call, shared
    across the replications of that scenario the process runs, never
    across calls.
    They hold at most one entry per frame run through them; an inconsistent
    observation raises and is never cached. A miss looks up estimate_load or
    decide_subframes in this module when it runs, so a wrapper set on either
    name sees every miss.
    """

    def __init__(self, config: RachConfig, window: int, table_max_load: float, memo=None):
        super().__init__(config.n_s_min)
        self._config = config
        self._history: deque[float] = deque(maxlen=window)
        self._estimate, self._decide = memo or _adaptive_memo(config, table_max_load)

    def observe_counts(self, successes, idle):
        branch = classify_load_branch(idle, self.n_s * self._config.n_preambles)
        try:
            raw = self._estimate(successes, self.n_s, branch)
        except InconsistentObservationError:
            self.fallback = True
            self.n_s = self._config.n_s_max
            return None
        self.fallback = False
        history = self._history
        history.append(raw)
        smoothed = sum(history) / len(history)
        self.n_s = self._decide(smoothed)
        return smoothed


def _adaptive_memo(config: RachConfig, table_max_load: float) -> tuple:
    """AdaptiveController's (estimate, decide) cache pair for one config."""
    return functools.cache(
        lambda eta, n_s, branch: estimate_load(eta, n_s, config.n_preambles, branch)
    ), functools.cache(lambda smoothed: decide_subframes(smoothed, config, table_max_load).n_s)


class AcbController(Controller):
    """Probabilistic barring in front of the default fixed allocation."""

    def __init__(self, config: RachConfig, p_barring: float, barring_window: int):
        super().__init__(config.n_s_min)
        self._p = p_barring
        self._window = barring_window

    def admit(self, pool, frame, rng):
        passed, due = _bar(len(pool), self._p, self._window, frame, rng)
        # by positions: run_scenario's docstring says why
        return pool[passed.nonzero()[0]], pool[(~passed).nonzero()[0]], due


def make_controller(spec: ControllerSpec, config: RachConfig, memo=None) -> Controller:
    if spec.kind is ControllerKind.FIXED_DEFAULT:
        return Controller(config.n_s_min)
    if spec.kind is ControllerKind.FIXED_MAX:
        return Controller(config.n_s_max)
    if spec.kind is ControllerKind.ADAPTIVE:
        return AdaptiveController(config, spec.window, spec.table_max_load, memo)
    return AcbController(config, spec.acb_p, spec.acb_window)


# ---------------------------------------------------------------------------
# Scenario and per-frame records


@dataclass(frozen=True)
class Scenario:
    """Everything one simulation run needs besides the seed."""

    config: RachConfig
    profile: LoadProfile
    controller: ControllerSpec = ControllerSpec()
    frames: int | None = None  # None: cover the whole profile
    backoff_window: int = 4
    retry_limit: int = 10

    def __post_init__(self) -> None:
        if self.frames is None:
            object.__setattr__(self, "frames", self.profile.end_frame)
        check_integer("frames", self.frames, 1, self.profile.end_frame)
        check_integer("backoff_window", self.backoff_window, 1, MAX_WINDOW)
        check_integer("retry_limit", self.retry_limit, 0)
        # the config's fields, bounded here because a frame counts picks per pair
        ns_max, preambles = self.config.n_s_max, self.config.n_preambles
        if ns_max * preambles > MAX_PAIRS:
            raise SettingError(
                f"n_s_max x n_preambles = {ns_max} x {preambles} = "
                f"{ns_max * preambles} pairs exceed the bound of {MAX_PAIRS}",
                "n_preambles", "n_s_max",
            )

    def with_controller(self, kind: ControllerKind | str) -> "Scenario":
        return replace(self, controller=replace(self.controller, kind=kind))


@dataclass
class FrameOutcome:
    """One frame's record: realized contention plus the controller's view.

    true_load counts every device that wanted to contend this frame;
    contenders counts those actually admitted (they differ only under
    barring). est_load is the adaptive controller's estimate derived from
    this frame's observation, i.e. its forecast for the next frame; None
    for controllers that do not estimate or when estimation failed (the
    row is then flagged estimator_fallback).
    """

    frame: int
    n_s_used: int
    arrivals: int
    contenders: int
    successes: int
    collisions: int
    collided_devices: int
    idle: int
    true_load: int
    est_load: float | None
    utility: float
    estimator_fallback: bool = False


FRAME_FIELDS = tuple(f.name for f in fields(FrameOutcome))
# the fields annotated float (the annotations are strings here)
_FLOAT_FIELDS = tuple(f.name for f in fields(FrameOutcome) if f.type.startswith("float"))


def _as_columns(values) -> dict[str, np.ndarray]:
    """One array per FrameOutcome field from its values in field order; None becomes NaN."""
    return {
        name: np.array(column, dtype=float if name in _FLOAT_FIELDS else None)
        for name, column in zip(FRAME_FIELDS, values)
    }


class TimeSeries:
    """Frame-ordered records of one replication, one array per FrameOutcome field.

    `columns` maps each field name to its array over the frames; est_load
    is NaN where a row has None. run_scenario builds the columns from one
    tuple of the fields per frame, TimeSeries(rows=...) builds them from
    FrameOutcome rows, and `rows` turns them back into rows.
    """

    def __init__(
        self, rows: Sequence[FrameOutcome] = (), replication_id: int = 0, seed: int = 0,
        *, columns: dict[str, np.ndarray] | None = None,
    ):
        if columns is None:
            columns = _as_columns([getattr(row, name) for row in rows] for name in FRAME_FIELDS)
        self.columns = columns
        self.replication_id = replication_id
        self.seed = seed

    def __len__(self) -> int:
        return len(self.columns["frame"])

    @property
    def rows(self) -> list[FrameOutcome]:
        """The records as FrameOutcome rows, built anew on each access."""
        values = {name: self.columns[name].tolist() for name in FRAME_FIELDS}
        values["est_load"] = [None if math.isnan(e) else e for e in values["est_load"]]
        return [FrameOutcome(*row) for row in zip(*values.values())]

    def validate(self, config: RachConfig) -> None:
        """Check every frame's invariants; the error names the first bad frame."""
        c = self.columns
        pairs = c["n_s_used"] * config.n_preambles
        checks = (
            (c["successes"] + c["collisions"] + c["idle"] != pairs,
             "successes + collisions + idle != {pairs}"),
            (c["successes"] + c["collided_devices"] != c["contenders"],
             "successes + collided_devices != contenders"),
            (c["collided_devices"] < 2 * c["collisions"], "collided_devices < 2 * collisions"),
            ((c["collisions"] == 0) & (c["collided_devices"] != 0),
             "collided devices without collisions"),
            (np.min([v for v in c.values() if v.dtype.kind == "i"], axis=0) < 0,
             "negative count"),
            (c["utility"] != utility(c["successes"], config.alpha, c["n_s_used"]),
             "utility mismatch"),
        )
        bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
        if len(bad):
            k = bad[0]
            message = next(message for mask, message in checks if mask[k])
            raise ValueError(f"frame {c['frame'][k]}: " + message.format(pairs=pairs[k]))


# ---------------------------------------------------------------------------
# Run loop


def run_scenario(scenario: Scenario, seed: int, replication_id: int = 0, memo=None) -> TimeSeries:
    """Simulate one replication; deterministic for a fixed (scenario, seed).

    Pending devices are two append-only arrays in the order they were
    deferred: the frame each one contends in next and its failed attempts
    so far. A frame's pool is its due devices in that order followed by the
    new arrivals; it appends its deferrals, barred before retriers. Spent
    entries (frame passed) never match again: a frame drops those in front
    of the first pending one as views, and once spent entries outnumber the
    pending ones it keeps only the pending ones, in order.

    A frame does array work only for the device groups it holds: an empty
    frame (nothing pending, no arrivals) draws nothing and touches no array,
    a frame with nothing pending takes its arrivals as the pool without
    reading the pending arrays, a frame where nobody lost makes no backoff
    call, and a frame that bars and retries nobody leaves the pending
    arrays as they are. Every frame still counts its pending devices for
    the conservation check.

    A selection that takes a mixed share of an array goes by positions,
    `mask.nonzero()[0]`, not by the mask: the frame's due devices (about a
    quarter of the stored entries on the stock wave), the entries kept at
    compaction (under half), and AcbController's admitted and barred
    devices. At those shares numpy gathers by positions 1.6-1.8 times
    faster than by a mask, and positions ascend, so each keeps pool order.
    The selections that take almost all or almost none, the losers and
    `_backoff`'s retry-limit cut, stay masks, where numpy's mask path is as
    fast or faster.
    """
    check_integer("seed", seed, 0)
    cfg = scenario.config
    controller = make_controller(scenario.controller, cfg, memo)
    arrival_seq, event_seq = np.random.SeedSequence(seed).spawn(2)
    arrival_rng = np.random.default_rng(arrival_seq)
    event_rng = np.random.default_rng(event_seq)
    new_devices = generate_arrivals(scenario.profile, np.arange(scenario.frames), arrival_rng)
    fresh = np.zeros(min(int(new_devices.max()), MAX_POOL), dtype=np.int64)
    fresh.flags.writeable = False

    n_preambles, alpha = cfg.n_preambles, cfg.alpha
    backoff_window, retry_limit = scenario.backoff_window, scenario.retry_limit
    due = attempts = _NO_DEVICES
    arrived = succeeded = dropped = pending = 0
    rows: list[tuple] = []  # per frame, the FrameOutcome fields in order

    for frame, arrivals in enumerate(new_devices.tolist()):
        n_s = controller.n_s

        if pending + arrivals > MAX_POOL:
            raise ValueError(
                f"frame {frame}: {pending} pending devices plus {arrivals} arrivals "
                f"exceed the pool bound of {MAX_POOL}"
            )
        if not (pending or arrivals):  # an empty frame: its counts, no draw
            _, successes, collisions, idle = _pick_pairs(0, n_s, n_preambles, event_rng)
            n_pool = n_admitted = n_losers = 0
        else:
            if pending:
                pool = np.concatenate((attempts[(due == frame).nonzero()[0]], fresh[:arrivals]))
            else:  # the pending arrays are empty
                pool = fresh[:arrivals]
            admitted, barred, barred_due = controller.admit(pool, frame, event_rng)
            n_pool, n_admitted = len(pool), len(admitted)
            lost, successes, collisions, idle = _pick_pairs(n_admitted, n_s, n_preambles, event_rng)
            if successes == n_admitted:  # nobody lost: _backoff would draw nothing
                n_losers, retriers, retry_due = 0, _NO_DEVICES, _NO_DEVICES
            else:
                losers = admitted[lost]
                n_losers = len(losers)
                retriers, retry_due = _backoff(
                    losers, frame, backoff_window, retry_limit, event_rng
                )
            n_retriers = len(retriers)
            if n_retriers or len(barred):  # else nothing is deferred: the arrays stay
                due = np.concatenate((due, barred_due, retry_due))
                attempts = np.concatenate((attempts, barred, retriers + 1))

            arrived += arrivals
            succeeded += successes
            dropped += n_losers - n_retriers
            live = due > frame
            pending = int(np.count_nonzero(live))
            if arrived != succeeded + dropped + pending:
                raise ValueError(
                    f"frame {frame}: device conservation broken: {arrived} arrived, "
                    f"{succeeded} succeeded, {dropped} dropped, {pending} pending"
                )
            # spent entries never match again: keep only the pending ones once
            # they are outnumbered, else drop the spent ones in front, as views
            if len(due) > 2 * pending:
                keep = live.nonzero()[0]
                due, attempts = due[keep], attempts[keep]
            elif pending:
                first = int(live.argmax())
                due, attempts = due[first:], attempts[first:]

        est = controller.observe_counts(successes, idle)
        rows.append((
            frame, n_s, arrivals, n_admitted, successes, collisions, n_losers, idle,
            n_pool, est, utility(successes, alpha, n_s), controller.fallback,
        ))

    series = TimeSeries(replication_id=replication_id, seed=seed, columns=_as_columns(zip(*rows)))
    series.validate(cfg)
    return series


# ---------------------------------------------------------------------------
# Replications and aggregation


@dataclass
class ReplicationSet:
    """Every replication's records, their per-frame means and the utility's 95% CI halfwidth.

    columns[name] is one FrameOutcome field shaped (replications, frames),
    its rows in replication_ids order and its dtype the runs' own.
    """

    columns: dict[str, np.ndarray]
    replication_ids: list[int]
    means: dict[str, np.ndarray]
    ci95_utility: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.columns["frame"].shape[1]


def aggregate_runs(runs: list[TimeSeries]) -> ReplicationSet:
    """Stack the runs' columns once; per-frame means and the utility's 95% CI (zero for one run).

    Every field but frame is averaged, so estimator_fallback's mean is the
    share of runs that fell back at the frame. est_load rows without an
    estimate are skipped; a frame with no valid estimate at all aggregates
    to NaN. Results depend only on the set of runs (keyed by replication
    order), not on completion order.
    """
    if not runs:
        raise ValueError("need at least one run")
    n_frames = len(runs[0])
    if any(len(r) != n_frames for r in runs):
        raise ValueError("all runs must cover the same number of frames")
    runs = sorted(runs, key=lambda r: r.replication_id)
    columns = {name: np.array([run.columns[name] for run in runs]) for name in FRAME_FIELDS}
    means = {
        name: np.mean(columns[name], axis=0)
        for name in FRAME_FIELDS if name not in ("frame", "est_load")
    }
    est_load = columns["est_load"]
    counts = np.count_nonzero(~np.isnan(est_load), axis=0)
    means["est_load"] = np.divide(
        np.nansum(est_load, axis=0), counts, out=np.full(n_frames, np.nan), where=counts > 0
    )
    ci95_utility = (
        1.96 * columns["utility"].std(axis=0, ddof=1) / math.sqrt(len(runs)) if len(runs) > 1
        else np.zeros(n_frames)
    )
    return ReplicationSet(columns, [run.replication_id for run in runs], means, ci95_utility)


# A share of jobs is forked off only if it outweighs the fork. A round trip
# (fork, pickle a run back, reap) takes 3.6-4.8 ms at 40 MB RSS, and after the
# fork the calling process takes a copy-on-write fault on each page it writes
# that the child still shares: beside a child that only sleeps, its share of
# the stock compare took 19.5 ms against 15.4 ms alone (about 780 more minor
# faults), and its share of a 5-rep TM2 run 62.6 against 56.5 ms (about 910).
# 200 frame rows are 5.5-7 ms of serial work on traffic model 2 and about
# 20 ms on the stock wave, and forking still pays on both: the whole call took
# 28.3 ms forked against 30.3 ms serial on the stock compare, and 74.3 against
# 91.6 ms on the TM2 run (medians of 10, 2-vCPU Xeon VM, Python 3.11).
MIN_WORKER_ROWS = 200


def _usable_cpus() -> int:
    """CPUs run_replications spreads over: a one-thread Linux process's affinity set, else 1.

    A fork copies only the calling thread, and Python 3.12 and later warn on
    os.fork in a process with threads. Importing rachsim before numpy gives
    the process single-threaded OpenBLAS (see rachsim/__init__.py). A process
    with a second thread, its caller's own or OpenBLAS's because numpy came
    first, runs its replications in one process, with the same bytes.
    """
    if sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1:
        return len(os.sched_getaffinity(0))
    return 1


def _run_share(
    scenarios: Sequence[Scenario], share: list[tuple[int, int]], base_seed: int
) -> tuple[list, tuple | None]:
    """A share's (scenario index, run) pairs up to its first failure: (runs, (job, error) or None).

    Each scenario's replications in the share use one memo pair.
    """
    memos = [_adaptive_memo(s.config, s.controller.table_max_load) for s in scenarios]
    runs = []
    for s, i in share:
        try:
            run = run_scenario(scenarios[s], base_seed + i, replication_id=i, memo=memos[s])
            runs.append((s, run))
        except Exception as exc:
            return runs, ((s, i), exc)
    return runs, None


# prctl(2)'s option that names the signal a process gets when its parent dies
_PR_SET_PDEATHSIG = 1

# The signals the CLI turns into an exception, as SIGINT raises KeyboardInterrupt.
INTERRUPTS = (signal.SIGTERM, signal.SIGHUP)
# The signals run_replications holds over the numpy.random import and the
# forks: the caller's handlers would unwind a child's copy of the caller's stack.
_HELD = (signal.SIGINT, *INTERRUPTS)


def _report(
    scenarios: Sequence[Scenario], share: list[tuple[int, int]], base_seed: int,
    write_end: int, parent: int, mask: set,
) -> NoReturn:
    """In a forked child: run the share, pickle its (runs, failure) into the pipe and exit.

    The child is forked with _HELD blocked. It takes the default action of
    INTERRUPTS, or keeps ignoring one its parent ignores (as nohup does
    SIGHUP), asks to be killed when its parent dies, and only then
    restores the signal mask, mask. So it dies with its parent also when
    the parent is killed by SIGKILL, or by a signal whose handler raises
    before the parent holds the child's pid.
    """
    status = 1
    try:
        for signum in INTERRUPTS:
            if signal.getsignal(signum) is not signal.SIG_IGN:
                signal.signal(signum, signal.SIG_DFL)
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if os.getppid() == parent:  # else the parent died before prctl
            with open(write_end, "wb") as pipe:
                pickle.dump(_run_share(scenarios, share, base_seed), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
    finally:
        os._exit(status)  # runs none of the parent's exit handlers, flushes none of its buffers


def _pipe() -> tuple[BinaryIO, int]:
    """A new pipe: (its read end as a binary file, its write end); both closed if this raises."""
    read_end, write_end = os.pipe()
    try:
        return open(read_end, "rb"), write_end
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise


def run_replications(
    scenarios: Sequence[Scenario], n_reps: int, base_seed: int = 1
) -> list[ReplicationSet]:
    """Run seeds base_seed..base_seed + n_reps - 1 of each scenario; one aggregate per scenario.

    The jobs, (scenario index, replication) in scenario-major order, are
    dealt into one share per worker, share k holding jobs k, k + workers,
    ...; workers - 1 forked children run the later shares while this
    process runs the first, each process with one adaptive memo pair per
    scenario. A child pickles its runs back through a pipe. There is one
    worker per usable CPU, at most one per job and one per MIN_WORKER_ROWS
    frame rows of the whole call; one worker forks nothing. Every scenario
    sees the same seeds, so controllers compare on common random numbers,
    and the result does not depend on the number of workers. Of failing
    jobs, the lowest one's error is raised (the first scenario's, then
    the lowest-numbered replication's), as one loop in order would; a
    child that dies without reporting counts as its first job failing
    with ChildProcessError. The children are killed and reaped before the
    call returns or raises, also when a KeyboardInterrupt, or the CLI's
    SIGTERM or SIGHUP, interrupts it. One whose fork is interrupted before
    the call holds its pid is not, but like every child it dies with this
    process, also when SIGKILL ends it.
    """
    check_integer("n_reps", n_reps, 1)
    check_integer("base_seed", base_seed, 0)
    rows = n_reps * sum(scenario.frames for scenario in scenarios)
    jobs = [(s, i) for s in range(len(scenarios)) for i in range(n_reps)]
    workers = max(1, min(len(jobs), _usable_cpus(), rows // MIN_WORKER_ROWS))
    first, *shares = (jobs[k::workers] for k in range(workers))
    parent = os.getpid()
    children = {}  # pid -> (read end of its pipe, its share), until reaped
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])  # the caller's, to restore
    try:
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)  # may raise, having blocked
            # numpy imports numpy.random, about 10 ms, at its first use: here,
            # once, before any fork. Held, as a bare except in its Cython module
            # code swallows what a handler raises then. A forking process has
            # only this thread (_usable_cpus), so no other thread takes the signal.
            importlib.import_module("numpy.random")
            for share in shares:
                pipe, write_end = _pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    pipe.close()
                    os.close(write_end)
                    raise
                if pid == 0:
                    pipe.close()
                    _report(scenarios, share, base_seed, write_end, parent, mask)
                # recorded as the fork returns, so whatever raises next, the
                # finally kills and reaps the child and closes its pipe
                children[pid] = (pipe, share)
                os.close(write_end)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        reports = [_run_share(scenarios, first, base_seed)]
        for pid, (pipe, share) in list(children.items()):
            try:
                report = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # cut short: the exit status says why
                report = None
            pipe.close()
            del children[pid]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code or report is None:
                ended = (
                    f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                )
                report = [], (share[0], ChildProcessError(
                    f"the process running {_listed(scenarios, share)} {ended} without reporting"
                ))
            reports.append(report)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in reports if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    runs = [[] for _ in scenarios]
    for done, _ in reports:
        for s, run in done:
            runs[s].append(run)
    return [aggregate_runs(scenario_runs) for scenario_runs in runs]


def _listed(scenarios: Sequence[Scenario], share: list[tuple[int, int]]) -> str:
    """A share's jobs by controller, each with its replication ids, the first three and the last."""
    parts = []
    for s, jobs in itertools.groupby(share, key=lambda job: job[0]):
        ids = [i for _, i in jobs]
        head = ", ".join(map(str, ids[:3]))
        parts.append(
            f"{scenarios[s].controller.kind.value} replications "
            + (head + f", ..., {ids[-1]}" if len(ids) > 3 else head)
        )
    return " and ".join(parts)
