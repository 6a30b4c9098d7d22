"""Each setting's range is declared once, in the dataclass that owns the field.

A scenario file, a command-line flag and a library call therefore reject the
same value with the same requirement, naming the setting their own way.
"""

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
        requirement = str(direct.value).removeprefix(spec.field + " ")
        assert requirement.startswith("must be ")
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario_text(TEXT.format(section, key, value), source="f.scn")
        assert str(parsed.value) == f"f.scn:5: {section}.{key} {requirement}"


def test_two_field_bounds_blame_the_first_field_the_file_sets():
    channel = "[channel]\n{}\n[load]\nsegments = 0:5:1:1\n"
    order = "n_s_min must not exceed n_s_max"
    pairs = "n_s_max x n_preambles = 10 x 100001 = 1000010 pairs exceed the bound of 1000000"
    for fields, message, lines in (
        ("ns_min = 9", order, 2),
        ("ns_max = 1", order, 2),
        ("ns_max = 3\nns_min = 4", order, 3),
        ("ns_max = 10\npreambles = 100001", pairs, 3),
        ("preambles = 100001\nns_max = 10", pairs, 2),
    ):
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario_text(channel.format(fields), source="f.scn")
        named = message.replace("n_s_min", "channel.ns_min").replace("n_s_max", "channel.ns_max")
        named = named.replace("n_preambles", "channel.preambles")
        assert str(parsed.value) == f"f.scn:{lines}: {named}"
    with pytest.raises(SettingError, match=f"^{order}$") as direct:
        RachConfig(n_s_min=9)
    assert direct.value.fields == ("n_s_min", "n_s_max")
    with pytest.raises(SettingError, match=f"^{pairs}$") as direct:
        Scenario(RachConfig(n_preambles=100_001, n_s_max=10), PROFILE)
    assert direct.value.fields == ("n_preambles", "n_s_max")
