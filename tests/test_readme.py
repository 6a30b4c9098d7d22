"""README.md's examples run: every console transcript and the library block.

A ```console block holds transcripts, as a docstring holds doctest
examples. A transcript is a command line `$ rachsim ...` (or `$ python -m
rachsim ...`, the same command; a line ending in a backslash goes on to the
next), the text the command prints, and a last line `[exit N]` when its
exit code N is not 0. A command that succeeds prints only to stdout and one
that fails only to stderr, so the text is stdout without an `[exit N]` line
and stderr with one. A block's transcripts run in order through
rachsim.cli.main in a temporary directory that holds each ```ini block of
the README as the file its info string names (the stock scenario is
wave.scn), and each must print its text byte for byte and exit with its
code.
"""

import doctest
import re
import shlex

import pytest

from rachsim.cli import main

from conftest import readme_blocks

_EXIT = re.compile(r"\[exit (\d+)\]\n\Z")
# a command line: "$ " and the command, its continuation lines ending in a backslash
_COMMAND = re.compile(r"^\$ ((?:.*\\\n)*.*\n)", flags=re.M)


def transcripts(block: str) -> list[tuple[list[str], str, int]]:
    """Each transcript of a console block as (argv of main, printed text, exit code)."""
    parts = _COMMAND.split(block)
    assert parts[0] == "", f"text before the first command: {parts[0]!r}"
    found = []
    for command, text in zip(parts[1::2], parts[2::2]):
        words = shlex.split(command.replace("\\\n", " "))
        if words[:3] == ["python", "-m", "rachsim"]:
            words = words[2:]
        assert words[0] == "rachsim", f"not a rachsim command: {command!r}"
        code = _EXIT.search(text)
        if code:
            assert code[1] != "0", "exit 0 is written as no [exit N] line"
            text = text[:code.start()]
        found.append((words[1:], text, int(code[1]) if code else 0))
    return found


def first_command(block: str) -> str:
    """A console block's first command as written, on one line: the name of its case.

    An edit elsewhere in the README leaves it, and so the case's name, as it is.
    """
    found = _COMMAND.search(block)
    return " ".join(found[1].replace("\\\n", " ").split()) if found else "(no command)"


CONSOLE = [text for _, text in readme_blocks("console")]
FIRST_COMMANDS = list(map(first_command, CONSOLE))


def test_the_readme_quotes_commands():
    # the CLI section, the exit codes and the scenario refusals each have some
    assert len(CONSOLE) >= 3
    # each case is named by its block's first command, so no two blocks share one
    assert len(set(FIRST_COMMANDS)) == len(FIRST_COMMANDS), FIRST_COMMANDS


@pytest.mark.parametrize("block", CONSOLE, ids=FIRST_COMMANDS)
def test_console_block(block, tmp_path, monkeypatch, capsys):
    for name, text in readme_blocks("ini"):
        assert name, "an ini block names the file it is written to"
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
    runs = transcripts(block)
    assert runs
    for argv, text, code in runs:
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's refusals and --help
            got = exc.code
        out, err = capsys.readouterr()
        expected = (text, "", 0) if code == 0 else ("", text, code)
        assert (out, err, got) == expected, shlex.join(["rachsim", *argv])


def test_library_block():
    # a print whose line ends in "# -> text" prints that text, "..." matching anything
    [(_, code)] = readme_blocks("python")
    printed = []
    exec(code, {"print": lambda *values: printed.append(" ".join(map(str, values)))})
    wants = [
        line.partition("# -> ")[2]
        for line in code.splitlines() if line.lstrip().startswith("print(")
    ]
    assert len(printed) == len(wants) and any(wants)
    checker = doctest.OutputChecker()
    for want, got in zip(wants, printed):
        assert not want or checker.check_output(want + "\n", got + "\n", doctest.ELLIPSIS), got
