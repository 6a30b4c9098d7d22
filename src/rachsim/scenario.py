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
    # contiguous, starting at frame 0; rates in [0, 1e7] devices/frame

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
number; out-of-range values are rejected naming the offending key.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .model import RachConfig, SettingError
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
            if section not in _SECTIONS:
                raise ScenarioError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value'")
        if section is None:
            raise ScenarioError(f"{source}:{lineno}: key outside any section")
        key, _, value = line.partition("=")
        name = (section, key.strip())
        if name not in _KEYS and name not in _OTHER_KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {section}.{name[1]}")
        if name in raw:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {section}.{name[1]}")
        raw[name] = (value.strip(), lineno)

    if ("load", "segments") not in raw:
        raise ScenarioError(f"{source}: load.segments required")
    profile = _parse_segments(*raw["load", "segments"], source=source)

    fields: dict[type, dict] = {RachConfig: {}, ControllerSpec: {}, Scenario: {}}
    for (section, key), spec in _KEYS.items():
        if (section, key) in raw:
            value, lineno = raw[section, key]
            where = f"{source}:{lineno}: {section}.{key}"
            fields[spec.target][spec.field] = _number(value, spec.type, where)
    if ("controller", "kind") in raw:
        fields[ControllerSpec]["kind"] = raw["controller", "kind"][0]

    try:
        return Scenario(
            config=RachConfig(**fields[RachConfig]),
            profile=profile,
            controller=ControllerSpec(**fields[ControllerSpec]),
            **fields[Scenario],
        )
    except SettingError as exc:
        keys = {spec.field: name for name, spec in _KEYS.items()}
        keys["kind"] = ("controller", "kind")
        # the defaults are in range, so the file sets at least one named field
        lineno = next(raw[keys[field]][1] for field in exc.fields if keys[field] in raw)
        names = {field: ".".join(name) for field, name in keys.items()}
        raise ScenarioError(f"{source}:{lineno}: {exc.naming(names)}") from None


def _number(value: str, type_: type, where: str) -> int | float:
    try:
        return type_(value)
    except ValueError:
        noun = "an integer" if type_ is int else "a number"
        raise ScenarioError(f"{where} must be {noun}, got {value!r}") from None


def _parse_segments(value: str, lineno: int, source: str) -> LoadProfile:
    segments = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        where = f"{source}:{lineno}: load.segments entry {chunk!r}"
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ScenarioError(f"{where} must be start:end:rate_start:rate_end")
        try:
            start, end = int(parts[0]), int(parts[1])
            r0, r1 = float(parts[2]), float(parts[3])
        except ValueError:
            raise ScenarioError(f"{where} has a non-numeric field") from None
        try:
            segments.append(ProfileSegment(start, end, r0, r1))
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
