"""Scenario files: a small line-oriented format for simulation setups.

Four sections, all keys optional except the load profile:

    [channel]
    preambles = 64        # preambles per RACH subframe
    ns_min = 2            # minimum RACH subframes per frame
    ns_max = 8            # maximum RACH subframes per frame
    # ns_max x preambles is at most 1 000 000
    alpha = 25.0          # subframe price, devices per subframe

    [load]
    segments = 0:10:0.0:600.0, 10:20:600.0:0.0   # required
    # each segment is start_frame:end_frame:rate_start:rate_end,
    # contiguous, starting at frame 0

    [controller]
    kind = adaptive       # fixed | max | adaptive | acb
    window = 1            # estimate smoothing window (adaptive)
    table_max_load = 700.0  # saturation threshold (adaptive)
    acb_p = 0.5           # barring pass probability (acb)
    acb_window = 4        # barring backoff window, frames (acb), <= 2**31 - 1

    [sim]
    frames = 20           # defaults to the profile span
    backoff_window = 4    # collision backoff window, frames, <= 2**31 - 1
    retry_limit = 10      # failed attempts before a device drops

'#' starts a comment. Unknown sections or keys are rejected with the line
number; out-of-range values are rejected naming the offending key.
"""

from __future__ import annotations

import math
from pathlib import Path

from .model import FRAME_SUBFRAMES, RachConfig
from .optimizer import SATURATION_LOAD
from .simulator import (
    MAX_PAIRS,
    MAX_WINDOW,
    ControllerKind,
    ControllerSpec,
    LoadProfile,
    ProfileSegment,
    Scenario,
)

__all__ = [
    "ScenarioError",
    "parse_scenario",
    "parse_scenario_text",
    "format_scenario",
    "default_scenario",
]


class ScenarioError(Exception):
    """Malformed scenario file; message carries location and key."""


_SECTION_KEYS = {
    "channel": {"preambles", "ns_min", "ns_max", "alpha"},
    "load": {"segments"},
    "controller": {"kind", "window", "table_max_load", "acb_p", "acb_window"},
    "sim": {"frames", "backoff_window", "retry_limit"},
}

_KINDS = {k.value: k for k in ControllerKind}


def parse_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {p}") from None
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from None
    return parse_scenario_text(text, source=str(p))


def parse_scenario_text(text: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario text; all keys defaulted except load.segments."""
    raw: dict[tuple[str, str], tuple[str, int]] = {}
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ScenarioError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value'")
        if section is None:
            raise ScenarioError(f"{source}:{lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[section]:
            raise ScenarioError(f"{source}:{lineno}: unknown key {section}.{key}")
        if (section, key) in raw:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {section}.{key}")
        raw[(section, key)] = (value, lineno)

    def take(section: str, key: str) -> tuple[str, int] | None:
        return raw.get((section, key))

    def take_int(section: str, key: str, default: int, lo: int, hi: int | None = None) -> int:
        entry = take(section, key)
        if entry is None:
            return default
        value, lineno = entry
        try:
            n = int(value)
        except ValueError:
            raise ScenarioError(
                f"{source}:{lineno}: {section}.{key} must be an integer, got {value!r}"
            ) from None
        if n < lo or (hi is not None and n > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ScenarioError(f"{source}:{lineno}: {section}.{key} must be {bound}, got {n}")
        return n

    def take_float(
        section: str,
        key: str,
        default: float,
        lo: float,
        lo_strict: bool = False,
        hi: float | None = None,
    ) -> float:
        entry = take(section, key)
        if entry is None:
            return default
        value, lineno = entry
        try:
            x = float(value)
        except ValueError:
            raise ScenarioError(
                f"{source}:{lineno}: {section}.{key} must be a number, got {value!r}"
            ) from None
        if not math.isfinite(x):
            raise ScenarioError(
                f"{source}:{lineno}: {section}.{key} must be finite, got {value!r}"
            )
        if x < lo or (lo_strict and x == lo) or (hi is not None and x > hi):
            op = ">" if lo_strict else ">="
            bound = f"{op} {lo}" if hi is None else f"in ({lo}, {hi}]"
            raise ScenarioError(f"{source}:{lineno}: {section}.{key} must be {bound}, got {x}")
        return x

    preambles = take_int("channel", "preambles", 64, lo=1)
    ns_min = take_int("channel", "ns_min", 2, lo=1, hi=FRAME_SUBFRAMES)
    ns_max = take_int("channel", "ns_max", 8, lo=1, hi=FRAME_SUBFRAMES)
    if ns_min > ns_max:
        entry = take("channel", "ns_min") or take("channel", "ns_max")
        lineno = entry[1] if entry else 0
        raise ScenarioError(
            f"{source}:{lineno}: channel.ns_min must not exceed channel.ns_max"
        )
    if ns_max * preambles > MAX_PAIRS:
        entry = take("channel", "preambles") or take("channel", "ns_max")
        raise ScenarioError(
            f"{source}:{entry[1]}: channel.ns_max x channel.preambles = {ns_max} x "
            f"{preambles} = {ns_max * preambles} pairs exceed the bound of {MAX_PAIRS}"
        )
    alpha = take_float("channel", "alpha", 25.0, lo=0.0)
    config = RachConfig(n_preambles=preambles, n_s_min=ns_min, n_s_max=ns_max, alpha=alpha)

    seg_entry = take("load", "segments")
    if seg_entry is None:
        raise ScenarioError(f"{source}: load.segments required")
    profile = _parse_segments(*seg_entry, source=source)

    kind_entry = take("controller", "kind")
    if kind_entry is None:
        kind = ControllerKind.ADAPTIVE
    else:
        value, lineno = kind_entry
        if value not in _KINDS:
            raise ScenarioError(
                f"{source}:{lineno}: controller.kind must be one of "
                f"{sorted(_KINDS)}, got {value!r}"
            )
        kind = _KINDS[value]
    controller = ControllerSpec(
        kind=kind,
        window=take_int("controller", "window", 1, lo=1),
        table_max_load=take_float(
            "controller", "table_max_load", SATURATION_LOAD, lo=0.0, lo_strict=True
        ),
        acb_p=take_float("controller", "acb_p", 0.5, lo=0.0, lo_strict=True, hi=1.0),
        acb_window=take_int("controller", "acb_window", 4, lo=1, hi=MAX_WINDOW),
    )

    frames = take_int("sim", "frames", profile.end_frame, lo=1, hi=profile.end_frame)
    backoff_window = take_int("sim", "backoff_window", 4, lo=1, hi=MAX_WINDOW)
    retry_limit = take_int("sim", "retry_limit", 10, lo=0)

    return Scenario(
        config=config,
        profile=profile,
        controller=controller,
        frames=frames,
        backoff_window=backoff_window,
        retry_limit=retry_limit,
    )


def _parse_segments(value: str, lineno: int, source: str) -> LoadProfile:
    fields = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ScenarioError(
                f"{source}:{lineno}: load.segments entry {chunk!r} must be "
                f"start:end:rate_start:rate_end"
            )
        try:
            start, end = int(parts[0]), int(parts[1])
            r0, r1 = float(parts[2]), float(parts[3])
        except ValueError:
            raise ScenarioError(
                f"{source}:{lineno}: load.segments entry {chunk!r} has a non-numeric field"
            ) from None
        fields.append((start, end, r0, r1))
    if not fields:
        raise ScenarioError(f"{source}:{lineno}: load.segments is empty")
    if fields[0][0] != 0:
        raise ScenarioError(f"{source}:{lineno}: load.segments must start at frame 0")
    try:
        return LoadProfile(tuple(ProfileSegment(*f) for f in fields))
    except ValueError as exc:
        raise ScenarioError(f"{source}:{lineno}: load.segments: {exc}") from None


def format_scenario(scenario: Scenario) -> str:
    """Render a scenario back to file text; parse(format(s)) == s."""
    cfg = scenario.config
    ctl = scenario.controller
    segments = ", ".join(
        f"{s.start_frame}:{s.end_frame}:{s.rate_start!r}:{s.rate_end!r}"
        for s in scenario.profile.segments
    )
    return (
        "[channel]\n"
        f"preambles = {cfg.n_preambles}\n"
        f"ns_min = {cfg.n_s_min}\n"
        f"ns_max = {cfg.n_s_max}\n"
        f"alpha = {cfg.alpha!r}\n"
        "\n[load]\n"
        f"segments = {segments}\n"
        "\n[controller]\n"
        f"kind = {ctl.kind.value}\n"
        f"window = {ctl.window}\n"
        f"table_max_load = {ctl.table_max_load!r}\n"
        f"acb_p = {ctl.acb_p!r}\n"
        f"acb_window = {ctl.acb_window}\n"
        "\n[sim]\n"
        f"frames = {scenario.frames}\n"
        f"backoff_window = {scenario.backoff_window}\n"
        f"retry_limit = {scenario.retry_limit}\n"
    )


def default_scenario(kind: ControllerKind | str = ControllerKind.ADAPTIVE) -> Scenario:
    """The stock study scenario: a 20-frame triangular load wave.

    Mean arrivals ramp 0 to 600 devices/frame over frames 0..10 and back
    down to 0 over frames 10..20, crossing every contention regime the
    adaptive controller can face (idle, light, the contention pivot, deep
    overload past the lookup-table range).
    """
    if isinstance(kind, str):
        try:
            kind = _KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown controller kind {kind!r}") from None
    profile = LoadProfile(
        (
            ProfileSegment(0, 10, 0.0, 600.0),
            ProfileSegment(10, 20, 600.0, 0.0),
        )
    )
    return Scenario(
        config=RachConfig(),
        profile=profile,
        controller=ControllerSpec(kind=kind),
        frames=20,
        backoff_window=4,
        retry_limit=10,
    )
