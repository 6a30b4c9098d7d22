"""Scenario file parsing, defaults, and round-trip formatting."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rachsim.scenario
from rachsim.model import MAX_ALPHA, RachConfig
from rachsim.scenario import (
    _KEYS,
    ScenarioError,
    default_scenario,
    format_scenario,
    parse_scenario,
    parse_scenario_text,
)
from rachsim.simulator import (
    MAX_PAIRS,
    MAX_WINDOW,
    ControllerKind,
    ControllerSpec,
    LoadProfile,
    ProfileSegment,
    Scenario,
)

MINIMAL = "[load]\nsegments = 0:10:0:600, 10:20:600:0\n"


def test_minimal_scenario_gets_all_defaults():
    s = parse_scenario_text(MINIMAL)
    assert s.config.n_preambles == 64
    assert s.config.alpha == 25.0
    assert (s.config.n_s_min, s.config.n_s_max) == (2, 8)
    assert s.controller.kind is ControllerKind.ADAPTIVE
    assert s.controller.window == 1
    assert s.controller.table_max_load == 700.0
    assert s.controller.acb_p == 0.5
    assert s.controller.acb_window == 4
    assert s.frames == 20
    assert s.backoff_window == 4
    assert s.retry_limit == 10
    assert s.profile.rate_at(5) == 300.0


def test_minimal_matches_default_scenario():
    assert parse_scenario_text(MINIMAL) == default_scenario("adaptive")


def test_missing_segments_is_an_error():
    with pytest.raises(ScenarioError, match="load.segments required"):
        parse_scenario_text("[load]\n")
    with pytest.raises(ScenarioError, match="load.segments required"):
        parse_scenario_text("[channel]\nalpha = 2.0\n")


def test_unknown_key_names_line_and_key():
    text = "[load]\nsegments = 0:5:1:1\nbogus = 3\n"
    with pytest.raises(ScenarioError, match=r":3: unknown key load.bogus"):
        parse_scenario_text(text)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match=r":1: unknown section"):
        parse_scenario_text("[nonsense]\n")


def test_out_of_range_value_names_key():
    text = "[channel]\nalpha = -1\n\n[load]\nsegments = 0:5:1:1\n"
    with pytest.raises(ScenarioError, match="channel.alpha"):
        parse_scenario_text(text)
    text = "[load]\nsegments = 0:5:1:1\n\n[controller]\nacb_p = 1.5\n"
    with pytest.raises(ScenarioError, match="controller.acb_p"):
        parse_scenario_text(text)
    text = "[load]\nsegments = 0:5:1:1\n\n[sim]\nframes = 9\n"
    with pytest.raises(ScenarioError, match="sim.frames"):
        parse_scenario_text(text)
    for value in ("inf", "nan", "-inf"):
        text = f"[channel]\nalpha = {value}\n\n[load]\nsegments = 0:5:1:1\n"
        with pytest.raises(ScenarioError, match="channel.alpha must be finite"):
            parse_scenario_text(text)
        text = f"[load]\nsegments = 0:5:1:1\n\n[controller]\ntable_max_load = {value}\n"
        with pytest.raises(ScenarioError, match="controller.table_max_load must be finite"):
            parse_scenario_text(text)


def test_malformed_lines():
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario_text("[load]\nsegments\n")
    with pytest.raises(ScenarioError, match="outside any section"):
        parse_scenario_text("alpha = 2\n")
    with pytest.raises(ScenarioError, match="duplicate key"):
        parse_scenario_text("[load]\nsegments = 0:5:1:1\nsegments = 0:5:1:1\n")


def test_bad_segments():
    with pytest.raises(ScenarioError, match="start:end:rate_start:rate_end"):
        parse_scenario_text("[load]\nsegments = 0:5:1\n")
    with pytest.raises(ScenarioError, match="non-numeric"):
        parse_scenario_text("[load]\nsegments = 0:5:one:1\n")
    with pytest.raises(ScenarioError, match="start at frame 0"):
        parse_scenario_text("[load]\nsegments = 5:10:1:1\n")
    with pytest.raises(ScenarioError, match="contiguous"):
        parse_scenario_text("[load]\nsegments = 0:5:1:1, 6:10:1:1\n")
    # the profile refuses an empty one; the parser names the line
    for value in ("", " , ,"):
        with pytest.raises(
            ScenarioError, match=":2: load.segments: profile needs at least one segment$"
        ):
            parse_scenario_text(f"[load]\nsegments ={value}\n")
    # a segment's own range error names the entry and the value
    for chunk, error in (
        ("0:5:nan:1", "rate_start must be finite, got nan"),
        ("0:5:1:-inf", "rate_end must be finite, got -inf"),
        ("0:5:-1:1", "rate_start must be in [0, 10000000], got -1.0"),
        ("0:5:1:2e7", "rate_end must be in [0, 10000000], got 20000000.0"),
        ("0:-5:1:1", "end_frame must be >= 1, got -5"),
        ("3:3:1:1", "end_frame must exceed start_frame"),
    ):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_text(f"[load]\nsegments = {chunk}\n", source="f.scn")
        assert str(exc.value) == f"f.scn:2: load.segments entry {chunk!r}: {error}"


def test_bad_kind():
    text = "[load]\nsegments = 0:5:1:1\n\n[controller]\nkind = pid\n"
    with pytest.raises(ScenarioError, match="controller.kind"):
        parse_scenario_text(text)


def test_comments_and_blanks_ignored():
    text = "# top comment\n\n[load]\nsegments = 0:5:1:1  # inline\n"
    s = parse_scenario_text(text)
    assert s.frames == 5
    # an empty entry, as after a trailing comma, is skipped
    assert parse_scenario_text("[load]\nsegments = 0:5:1:1, 5:6:1:0,\n").frames == 6


def test_round_trip_is_idempotent():
    text = (
        "[channel]\npreambles = 32\nns_min = 1\nns_max = 6\nalpha = 3.5\n"
        "[load]\nsegments = 0:4:0:100, 4:12:100:50\n"
        "[controller]\nkind = acb\nwindow = 3\nacb_p = 0.25\n"
        "[sim]\nframes = 10\nretry_limit = 5\n"
    )
    parsed = parse_scenario_text(text)
    emitted = format_scenario(parsed)
    assert parse_scenario_text(emitted) == parsed
    assert format_scenario(parse_scenario_text(emitted)) == emitted


@st.composite
def scenarios(draw):
    """A scenario with every key of the key table drawn across its range."""
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        start = segments[-1].end_frame if segments else 0
        rates = st.floats(0.0, 1e6)
        segments.append(ProfileSegment(start, start + draw(st.integers(1, 50)),
                                       draw(rates), draw(rates)))
    profile = LoadProfile(tuple(segments))
    n_s_max = draw(st.integers(1, 10))
    windows = st.integers(1, MAX_WINDOW)
    values = {
        "n_preambles": draw(st.integers(1, MAX_PAIRS // n_s_max)),
        "n_s_min": draw(st.integers(1, n_s_max)),
        "n_s_max": n_s_max,
        "alpha": draw(st.floats(0.0, MAX_ALPHA)),
        "window": draw(windows),
        "table_max_load": draw(st.floats(0.0, 1e300, exclude_min=True)),
        "acb_p": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "acb_window": draw(windows),
        "frames": draw(st.integers(1, profile.end_frame)),
        "backoff_window": draw(windows),
        "retry_limit": draw(st.integers(0, 2**63)),
    }
    kwargs = {RachConfig: {}, ControllerSpec: {"kind": draw(st.sampled_from(ControllerKind))},
              Scenario: {}}
    for spec in _KEYS.values():  # a key without a strategy above fails here
        kwargs[spec.target][spec.field] = values.pop(spec.field)
    assert not values
    return Scenario(
        config=RachConfig(**kwargs[RachConfig]),
        profile=profile,
        controller=ControllerSpec(**kwargs[ControllerSpec]),
        **kwargs[Scenario],
    )


@settings(max_examples=50, deadline=None)
@given(scenario=scenarios())
def test_format_then_parse_is_the_identity(scenario):
    assert parse_scenario_text(format_scenario(scenario)) == scenario


def test_parse_scenario_from_file(tmp_path):
    path = tmp_path / "s.scn"
    path.write_text(MINIMAL)
    assert parse_scenario(path) == default_scenario("adaptive")
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario(tmp_path / "missing.scn")


def test_default_scenario_kinds():
    assert default_scenario("fixed").controller.kind is ControllerKind.FIXED_DEFAULT
    assert default_scenario(ControllerKind.ACB).controller.kind is ControllerKind.ACB
    with pytest.raises(ValueError):
        default_scenario("bogus")


@pytest.mark.parametrize(
    "section, key",
    [("sim", "backoff_window"), ("controller", "acb_window"), ("controller", "window")],
)
def test_window_bound_names_key(section, key):
    # beyond the bound a due frame, frame + window, could leave int64, and a
    # smoothing window a deque's maximum length
    text = "[load]\nsegments = 0:5:1:1\n\n[{}]\n{} = {}\n"
    s = parse_scenario_text(text.format(section, key, 2**31 - 1))
    assert getattr(s if section == "sim" else s.controller, key) == 2**31 - 1
    for value in ("2147483648", "99999999999999999999"):
        with pytest.raises(
            ScenarioError, match=rf":5: {section}.{key} must be in \[1, 2147483647\], got {value}"
        ):
            parse_scenario_text(text.format(section, key, value))


def test_pair_bound_names_both_keys_and_product():
    text = "[channel]\npreambles = {}\nns_max = {}\n\n[load]\nsegments = 0:5:1:1\n"
    assert parse_scenario_text(text.format(100_000, 10)).config.n_preambles == 100_000
    with pytest.raises(
        ScenarioError,
        match=r":2: channel.ns_max x channel.preambles = 8 x 1000000 = 8000000 pairs "
        r"exceed the bound of 1000000",
    ):
        parse_scenario_text(text.format(1_000_000, 8))
    with pytest.raises(ScenarioError, match=r"= 10 x 100001 = 1000010 pairs"):
        parse_scenario_text(text.format(100_001, 10))


@pytest.mark.parametrize(
    "section, key, not_a_number, out_of_range",
    [
        (
            "channel",
            "preambles",
            "must be an integer, got 'x'",
            "must be in [1, 900719925474099], got 0",
        ),
        ("channel", "ns_min", "must be an integer, got 'x'", "must be in [1, 10], got 11"),
        ("channel", "ns_max", "must be an integer, got 'x'", "must be in [1, 10], got 0"),
        ("channel", "alpha", "must be a number, got 'x'", "must be in [0.0, 1e+100], got -1.0"),
        (
            "controller",
            "window",
            "must be an integer, got 'x'",
            "must be in [1, 2147483647], got 0",
        ),
        ("controller", "table_max_load", "must be a number, got 'x'", "must be > 0.0, got 0.0"),
        ("controller", "acb_p", "must be a number, got 'x'", "must be in (0.0, 1.0], got 1.5"),
        (
            "controller",
            "acb_window",
            "must be an integer, got 'x'",
            "must be in [1, 2147483647], got 0",
        ),
        ("sim", "frames", "must be an integer, got 'x'", "must be in [1, 5], got 6"),
        (
            "sim",
            "backoff_window",
            "must be an integer, got 'x'",
            "must be in [1, 2147483647], got 0",
        ),
        ("sim", "retry_limit", "must be an integer, got 'x'", "must be >= 0, got -1"),
    ],
)
def test_single_error_messages(section, key, not_a_number, out_of_range):
    text = "[load]\nsegments = 0:5:1:1\n\n[{}]\n{} = {}\n"
    value = out_of_range.rpartition(" ")[2]
    for given, message in (("x", not_a_number), (value, out_of_range)):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_text(text.format(section, key, given), source="f.scn")
        assert str(exc.value) == f"f.scn:5: {section}.{key} {message}"


def test_format_writes_every_key():
    scenario = Scenario(
        RachConfig(n_preambles=32, n_s_min=1, n_s_max=6, alpha=3.5),
        LoadProfile((ProfileSegment(0, 4, 0.0, 100.0), ProfileSegment(4, 12, 100.0, 50.5))),
        ControllerSpec(
            ControllerKind.ACB, window=3, table_max_load=350.25, acb_p=0.25, acb_window=9
        ),
        frames=10,
        backoff_window=2,
        retry_limit=5,
    )
    text = format_scenario(scenario)
    assert text == (
        "[channel]\npreambles = 32\nns_min = 1\nns_max = 6\nalpha = 3.5\n"
        "\n[load]\nsegments = 0:4:0.0:100.0, 4:12:100.0:50.5\n"
        "\n[controller]\nkind = acb\nwindow = 3\ntable_max_load = 350.25\nacb_p = 0.25\n"
        "acb_window = 9\n"
        "\n[sim]\nframes = 10\nbackoff_window = 2\nretry_limit = 5\n"
    )
    assert parse_scenario_text(text) == scenario


def test_documented_examples_are_the_default_scenario():
    # both examples list every key at its default value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    ini = readme.split("### Scenario files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    docstring = rachsim.scenario.__doc__.split("load profile:", 1)[1].split("'#' starts", 1)[0]
    for text in (ini, docstring):
        assert parse_scenario_text(text) == default_scenario()


def test_alpha_bound_names_key():
    # a price near float overflow made utilities, their sums and CIs -inf or NaN
    text = "[channel]\nalpha = {}\n\n[load]\nsegments = 0:5:1:1\n"
    assert parse_scenario_text(text.format("1e100")).config.alpha == 1e100
    for value in ("1.0000000000000002e+100", "1e+101", "1e+308"):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_text(text.format(value), source="f.scn")
        assert str(exc.value) == f"f.scn:2: channel.alpha must be in [0.0, 1e+100], got {value}"
