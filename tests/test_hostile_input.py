"""Hostile numbers at the CLI: one odd numeric token in a scenario key or a flag.

Whatever the token, `rachsim` exits 0 or 2, never 3 and never with a
traceback; a refusal is one bounded line of stderr and writes no output
file; and scenario text that is accepted round-trips through
`format_scenario`. The work bounds are lowered for the test, so every
accepted command stays a few frames; a token past them is refused by the
bound, as a larger one would be.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import rachsim.cli
import rachsim.optimizer
from rachsim.cli import _FLAGS, main
from rachsim.scenario import _KEYS, ScenarioError, format_scenario, parse_scenario_text
from rachsim.simulator import KIND_NAMES

# digits of several scripts: int() and float() read every Unicode decimal digit
DIGITS = "0123456789" + "٠١٢٣٤٥٦٧٨٩" + "۰۱۲۳۴۵۶۷۸۹" + "０１２３４５６７８９"
SPECIAL = [
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e309", "-1e309", "1e-400", "1e308",
    "5e-324", "0x10", "0b1", "1e3", "1E3", "2.5", ".5", "5.", "0.25", "1e-2", "-0", "+0", "0", "-1", "1",
    "1_000", "1__0", "_1", "1_", "1 000", "", " ", "-", "+", "e", ".", "1e", "٦٤", "+٦٤",
]
WHITESPACE = ["", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000"]


tokens = st.builds(
    lambda lead, sign, body, trail: lead + sign + body + trail,
    st.sampled_from(WHITESPACE),
    st.sampled_from(["", "", "+", "-", "+-", "--"]),
    st.one_of(
        st.sampled_from(SPECIAL),
        # long digit strings: past every bound, past int()'s 4300 digits
        st.builds(lambda d, n: "1" + d * n, st.sampled_from("09٩０"), st.integers(1, 6000)),
        st.text(DIGITS, min_size=1, max_size=12),
        # small values in range of most settings, in any script
        st.text(DIGITS, min_size=1, max_size=2),
        st.integers(0, 12).map(str),
        st.lists(st.text(DIGITS, min_size=1, max_size=4), min_size=2, max_size=4).map("_".join),
        st.integers(-10**20, 10**20).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
    ),
    st.sampled_from(WHITESPACE),
)

# every accepted command stays a few frames, grid points or replications
SMALL_FRAME_ROWS = mock.patch.object(rachsim.cli, "MAX_FRAME_ROWS", 12)
SMALL_GRID = mock.patch.object(rachsim.optimizer, "MAX_GRID_POINTS", 1000)


def _invoke(argv: list[str]) -> tuple[int, str]:
    """main's exit code (argparse's own refusals exit by SystemExit) and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with SMALL_FRAME_ROWS, SMALL_GRID:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


def _check_outcome(code: int, err: str, directory: Path) -> None:
    """Exit 0 or 2; a refusal is one short line and leaves only the scenario file."""
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err.replace(str(directory), "<dir>")) < 400, err
        assert [p.name for p in directory.iterdir()] == ["s.scn"], err


def _scenario_text(key: tuple[str, str], token: str, kind: str) -> str:
    lines = {"load": ["segments = 0:3:1:1"], "controller": [f"kind = {kind}"]}
    section, name = key
    lines.setdefault(section, []).append(f"{name} = {token}")
    return "".join(f"[{s}]\n" + "".join(f"{line}\n" for line in ls) for s, ls in lines.items())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(_KEYS)), token=tokens, kind=st.sampled_from(KIND_NAMES))
def test_a_hostile_key_exits_0_or_2(key, token, kind):
    text = _scenario_text(key, token, kind)
    try:
        scenario = parse_scenario_text(text)
    except ScenarioError:
        pass
    else:
        assert parse_scenario_text(format_scenario(scenario)) == scenario
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        path = directory / "s.scn"
        path.write_text(text, encoding="utf-8")
        code, err = _invoke([
            "run", "--scenario", str(path), "--reps", "2", "--out", str(directory / "o.csv"),
        ])
        _check_outcome(code, err, directory)
        if code == 0:
            assert (directory / "o.csv").exists()


# each flag's command, with every other value small and valid
_COMMANDS = {
    "seed": ["run", "--reps", "2"], "n_reps": ["run", "--reps", "2"],
    "load": ["optimize", "--alpha", "25", "--load", "10"],
    "alpha": ["optimize", "--alpha", "25", "--load", "10"],
    "n_preambles": ["optimize", "--alpha", "25", "--load", "10"],
    "n_s_min": ["optimize", "--alpha", "25", "--load", "10"],
    "n_s_max": ["optimize", "--alpha", "25", "--load", "10"],
    "max_load": ["table", "--alpha", "25", "--max-load", "10"],
    "step": ["table", "--alpha", "25", "--max-load", "10"],
}


def test_every_flag_has_a_command():
    assert _COMMANDS.keys() == _FLAGS.keys()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(sorted(_FLAGS)), token=tokens)
def test_a_hostile_flag_exits_0_or_2(field, token):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        path = directory / "s.scn"
        path.write_text(_scenario_text(("sim", "frames"), "3", "adaptive"), encoding="utf-8")
        command = _COMMANDS[field]
        files = {
            "run": ["--scenario", str(path), "--out", str(directory / "o.csv")],
            "table": ["--out", str(directory / "o.csv")],
        }.get(command[0], [])
        code, err = _invoke([*command, *files, _FLAGS[field], token])
        _check_outcome(code, err, directory)
