"""Scenario files: a small line-oriented format for simulation setups.

Four sections, all keys optional except the load profile:

    [channel]
    preambles = 64        # preambles per RACH subframe
    ns_min = 2            # minimum RACH subframes per frame
    ns_max = 8            # maximum RACH subframes per frame
    # ns_max x preambles is at most 1 000 000
    alpha = 25.0          # subframe price, devices per subframe, <= 1e100

    [load]
    segments = 0:10:0.0:600.0, 10:20:600.0:0.0   # required
    # each segment is start_frame:end_frame:rate_start:rate_end,
    # contiguous, from frame 0; rates in [0, 9968380] devices/frame (MAX_RATE)

    [controller]
    kind = adaptive       # fixed | max | adaptive | acb
    window = 1            # estimate smoothing window (adaptive), <= 2**31 - 1
    table_max_load = 700.0  # saturation threshold (adaptive)
    acb_p = 0.5           # barring pass probability (acb)
    acb_window = 4        # barring backoff window, frames (acb), <= 2**31 - 1

    [sim]
    frames = 20           # defaults to the profile span
    backoff_window = 4    # collision backoff window, frames, <= 2**31 - 1
    retry_limit = 10      # failed attempts before a device drops

'#' starts a comment. Unknown sections or keys are rejected with the line
number; a bad value with its line and key before its owner's message:
`f.scn:2: channel.alpha: alpha must be in [0.0, 1e+100], got 1e+101`.
"""

from __future__ import annotations

import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

from .model import RachConfig, SettingError, shown
from .simulator import (
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
    "read_number",
]


class ScenarioError(Exception):
    """Malformed scenario file; message carries location and key."""


class _Key(NamedTuple):
    """Where a key's value goes; the dataclass that owns the field checks its range."""

    target: type  # RachConfig, ControllerSpec or Scenario
    field: str
    type: type  # int or float


# Every numeric key, in file order. An absent key takes its field's
# dataclass default. format_scenario writes the same keys.
_KEYS = {
    ("channel", "preambles"): _Key(RachConfig, "n_preambles", int),
    ("channel", "ns_min"): _Key(RachConfig, "n_s_min", int),
    ("channel", "ns_max"): _Key(RachConfig, "n_s_max", int),
    ("channel", "alpha"): _Key(RachConfig, "alpha", float),
    ("controller", "window"): _Key(ControllerSpec, "window", int),
    ("controller", "table_max_load"): _Key(ControllerSpec, "table_max_load", float),
    ("controller", "acb_p"): _Key(ControllerSpec, "acb_p", float),
    ("controller", "acb_window"): _Key(ControllerSpec, "acb_window", int),
    ("sim", "frames"): _Key(Scenario, "frames", int),
    ("sim", "backoff_window"): _Key(Scenario, "backoff_window", int),
    ("sim", "retry_limit"): _Key(Scenario, "retry_limit", int),
}
# Parsed and written by hand; each comes first in its section.
_OTHER_KEYS = (("load", "segments"), ("controller", "kind"))
_SECTIONS = ("channel", "load", "controller", "sim")


# Bound on a scenario file's bytes, read before anything is decoded. A
# command runs at most cli.MAX_FRAME_ROWS = 10**6 frames, so a useful file
# holds at most 10**6 one-frame segments of about 50 characters each.
MAX_SCENARIO_BYTES = 64 << 20


def parse_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file of at most MAX_SCENARIO_BYTES bytes."""
    p = Path(path)
    try:
        with p.open("rb") as handle:
            data = handle.read(MAX_SCENARIO_BYTES + 1)
        if len(data) > MAX_SCENARIO_BYTES:
            raise ScenarioError(
                f"scenario file {p} exceeds the bound of {MAX_SCENARIO_BYTES} bytes"
            )
        text = data.decode("utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
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
            if section not in _SECTIONS:
                raise ScenarioError(f"{source}:{lineno}: unknown section [{shown(section)}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value'")
        if section is None:
            raise ScenarioError(f"{source}:{lineno}: key outside any section")
        key, _, value = line.partition("=")
        name = (section, key.strip())
        if name not in _KEYS and name not in _OTHER_KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {shown(f'{section}.{name[1]}')}")
        if name in raw:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {section}.{name[1]}")
        raw[name] = (value.strip(), lineno)

    if ("load", "segments") not in raw:
        raise ScenarioError(f"{source}: load.segments required")
    profile = _parse_segments(*raw["load", "segments"], source=source)

    values: dict[type, dict] = {RachConfig: {}, ControllerSpec: {}, Scenario: {}}
    try:
        for name, spec in _KEYS.items():
            if name in raw:
                values[spec.target][spec.field] = read_number(raw[name][0], spec.type, spec.field)
        if ("controller", "kind") in raw:
            values[ControllerSpec]["kind"] = raw["controller", "kind"][0]
        return Scenario(
            config=RachConfig(**values[RachConfig]),
            profile=profile,
            controller=ControllerSpec(**values[ControllerSpec]),
            **values[Scenario],
        )
    except SettingError as exc:
        keys = {spec.field: name for name, spec in _KEYS.items()}
        keys["kind"] = ("controller", "kind")
        # the defaults are in range, so the file sets at least one named field
        lineno = next(raw[keys[field]][1] for field in exc.fields if keys[field] in raw)
        names = "/".join(".".join(keys[field]) for field in exc.fields)
        raise ScenarioError(f"{source}:{lineno}: {names}: {exc}") from None


# Integer text as int() reads it, whatever its number of digits
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def read_number(text: str, type_: type, name: str) -> int | float:
    """text read by type_ as the value name; a key's and a flag's number alike.

    Text that is no number is refused naming name. int() reads at most
    sys.get_int_max_str_digits() decimal digits; longer integer text is a
    number too large to read, not text that is no integer.
    """
    try:
        return type_(text)
    except ValueError:
        if _INTEGER.fullmatch(text):
            limit = sys.get_int_max_str_digits()
            message = f"{name} is too large: more than {limit} digits, got {shown(text, repr)}"
        else:
            noun = "an integer" if type_ is int else "a number"
            message = f"{name} must be {noun}, got {shown(text, repr)}"
        raise SettingError(message, name) from None


# A segment's numbers in file order, each as its field's type and name.
_SEGMENT_FIELDS = [({"int": int, "float": float}[f.type], f.name) for f in fields(ProfileSegment)]


def _parse_segments(value: str, lineno: int, source: str) -> LoadProfile:
    segments = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        where = f"{source}:{lineno}: load.segments entry {shown(chunk, repr)}"
        parts = chunk.split(":")
        if len(parts) != len(_SEGMENT_FIELDS):
            raise ScenarioError(f"{where} must be start:end:rate_start:rate_end")
        try:
            numbers = (read_number(part, *spec) for part, spec in zip(parts, _SEGMENT_FIELDS))
            segments.append(ProfileSegment(*numbers))
        except SettingError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    try:
        return LoadProfile(tuple(segments))
    except ValueError as exc:
        raise ScenarioError(f"{source}:{lineno}: load.segments: {exc}") from None


def format_scenario(scenario: Scenario) -> str:
    """Render a scenario back to file text; parse(format(s)) == s."""
    objects = {RachConfig: scenario.config, ControllerSpec: scenario.controller, Scenario: scenario}
    segments = ", ".join(
        f"{s.start_frame}:{s.end_frame}:{s.rate_start!r}:{s.rate_end!r}"
        for s in scenario.profile.segments
    )
    values = dict(zip(_OTHER_KEYS, (segments, scenario.controller.kind.value)))
    for name, spec in _KEYS.items():
        values[name] = repr(getattr(objects[spec.target], spec.field))
    return "\n".join(
        f"[{section}]\n"
        + "".join(f"{key} = {value}\n" for (sec, key), value in values.items() if sec == section)
        for section in _SECTIONS
    )


def default_scenario(kind: ControllerKind | str = ControllerKind.ADAPTIVE) -> Scenario:
    """The stock study scenario: a 20-frame triangular load wave.

    Mean arrivals ramp 0 to 600 devices/frame over frames 0..10 and back
    down to 0 over frames 10..20, crossing every contention regime the
    adaptive controller can face (idle, light, the contention pivot, deep
    overload past the lookup-table range).
    """
    profile = LoadProfile((ProfileSegment(0, 10, 0.0, 600.0), ProfileSegment(10, 20, 600.0, 0.0)))
    return Scenario(RachConfig(), profile, ControllerSpec(kind=kind))
