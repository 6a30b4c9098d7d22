"""Each setting's range is declared once, in the dataclass that owns the field.

A scenario file, a command-line flag and a library call therefore reject the
same value with one message, each behind its own prefix: the file's line and
key, or the flag.
"""

import numpy as np
import pytest

from rachsim.model import RachConfig, SettingError
from rachsim.scenario import _KEYS, ScenarioError, parse_scenario_text
from rachsim.simulator import LoadProfile, ProfileSegment, Scenario

PROFILE = LoadProfile((ProfileSegment(0, 5, 1.0, 1.0),))
TEXT = "[load]\nsegments = 0:5:1:1\n\n[{}]\n{} = {}\n"

# values out of each key's range, below and above it where it has both ends
OUT_OF_RANGE = {
    ("channel", "preambles"): ["0", "-5", str(2**53 // 10 + 1), "1" + "0" * 400],
    ("channel", "ns_min"): ["0", "11"],
    ("channel", "ns_max"): ["0", "11"],
    ("channel", "alpha"): ["-1", "1e101", "inf", "nan"],
    ("controller", "window"): ["0", "2147483648"],
    ("controller", "table_max_load"): ["0", "-1", "inf"],
    ("controller", "acb_p"): ["0", "1.5", "nan"],
    ("controller", "acb_window"): ["0", "2147483648"],
    ("sim", "frames"): ["0", "6"],
    ("sim", "backoff_window"): ["0", "2147483648"],
    ("sim", "retry_limit"): ["-1"],
}


def build(target, field, value):
    """The dataclass that owns the field, with only that field set."""
    if target is Scenario:
        return Scenario(RachConfig(), PROFILE, **{field: value})
    return target(**{field: value})


@pytest.mark.parametrize("name", list(_KEYS), ids=".".join)
def test_file_and_dataclass_give_one_requirement(name):
    section, key = name
    spec = _KEYS[name]
    for value in OUT_OF_RANGE[name]:
        with pytest.raises(SettingError) as direct:
            build(spec.target, spec.field, spec.type(value))
        assert direct.value.fields == (spec.field,)
        assert str(direct.value).startswith(f"{spec.field} must be ")
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario_text(TEXT.format(section, key, value), source="f.scn")
        assert str(parsed.value) == f"f.scn:5: {section}.{key}: {direct.value}"


@pytest.mark.parametrize(
    "name", [name for name, spec in _KEYS.items() if spec.type is int], ids=".".join
)
def test_integer_fields_refuse_non_integers(name):
    spec = _KEYS[name]
    with pytest.raises(SettingError) as direct:
        build(spec.target, spec.field, 2.5)
    assert str(direct.value) == f"{spec.field} must be an integer, got 2.5"
    assert direct.value.fields == (spec.field,)
    # a numpy integer is an integer
    built = build(spec.target, spec.field, np.int64(3))
    assert getattr(built, spec.field) == 3
    # the parser refuses the text before a dataclass sees it
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario_text(TEXT.format(*name, "2.5"), source="f.scn")
    assert str(parsed.value) == (
        f"f.scn:5: {'.'.join(name)}: {spec.field} must be an integer, got '2.5'"
    )


def test_segment_frames_refuse_non_integers():
    for frames, field, value in (((0, 10.5), "end_frame", 10.5), ((0.0, 10), "start_frame", 0.0)):
        with pytest.raises(SettingError) as direct:
            ProfileSegment(*frames, 5.0, 5.0)
        assert str(direct.value) == f"{field} must be an integer, got {value}"
        assert direct.value.fields == (field,)
    assert ProfileSegment(np.int64(0), np.int32(5), 1.0, 1.0).end_frame == 5


def test_two_field_bounds_blame_the_first_field_the_file_sets():
    channel = "[channel]\n{}\n[load]\nsegments = 0:5:1:1\n"
    order = "n_s_min must not exceed n_s_max"
    pairs = "n_s_max x n_preambles = 10 x 100001 = 1000010 pairs exceed the bound of 1000000"
    # both keys are named, in the order of the error's fields
    both_ns = "channel.ns_min/channel.ns_max"
    both_pairs = "channel.preambles/channel.ns_max"
    for fields, keys, message, lines in (
        ("ns_min = 9", both_ns, order, 2),
        ("ns_max = 1", both_ns, order, 2),
        ("ns_max = 3\nns_min = 4", both_ns, order, 3),
        ("ns_max = 10\npreambles = 100001", both_pairs, pairs, 3),
        ("preambles = 100001\nns_max = 10", both_pairs, pairs, 2),
    ):
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario_text(channel.format(fields), source="f.scn")
        assert str(parsed.value) == f"f.scn:{lines}: {keys}: {message}"
    with pytest.raises(SettingError, match=f"^{order}$") as direct:
        RachConfig(n_s_min=9)
    assert direct.value.fields == ("n_s_min", "n_s_max")
    with pytest.raises(SettingError, match=f"^{pairs}$") as direct:
        Scenario(RachConfig(n_preambles=100_001, n_s_max=10), PROFILE)
    assert direct.value.fields == ("n_preambles", "n_s_max")
