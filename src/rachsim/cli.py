"""Command-line front end: run, optimize, table, compare.

run      simulate a scenario with one controller and write a per-frame CSV
         (one row per replication and frame, then per-frame mean rows with
         rep = "mean"); *_num columns evaluate the analytic model at the
         frame's true_load (every device that wanted to contend, before
         barring), *_sim columns are realized.
optimize print the utility-maximizing subframe count for one load.
table    write the offline load -> n_s lookup table and a dense sweep.
compare  run several controllers on common random numbers, write a merged
         per-frame CSV and print aggregate utilities, pairwise improvement
         percentages, and per-frame win fractions.

Numbers are written in their shortest round-trippable decimal form, so a
repeated invocation with the same scenario and seed produces a
byte-identical file. Exit codes: 0 ok, 2 argument or scenario problems,
3 runtime or model failures, 128 + the signal number when SIGHUP, SIGINT
or SIGTERM interrupts a command.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import signal
import stat
import sys
import tempfile
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from itertools import combinations, permutations, repeat, starmap
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from . import INTERRUPTS, model
from .model import RachConfig, SettingError, check_integer, shown, throughput, utility
from .optimizer import SATURATION_LOAD, optimal_subframes_integer, subframe_lookup_table
from .scenario import ScenarioError, parse_scenario, read_number
from .simulator import KIND_NAMES, ReplicationSet, Scenario, run_replications

utility_of_load = model.utility_of_load  # benchmarks/tracing.py wraps cli.utility_of_load

__all__ = ["main", "ComparisonReport", "build_report"]

# Each CSV's columns in order, as (header, source). A source names a record
# column, or a value the writer adds beside them under that name: a str is
# the text of every row, an array holds one value per row.
_RUN_TABLE = (
    ("rep", "rep"), ("frame", "frame"), ("controller", "controller"), ("n_s", "n_s_used"),
    ("arrivals", "arrivals"), ("contenders", "contenders"), ("successes", "successes"),
    ("collided_devices", "collided_devices"), ("idle", "idle"), ("est_load", "est_load"),
    ("true_load", "true_load"), ("throughput_sim", "throughput_sim"),
    ("throughput_num", "throughput_num"), ("utility_sim", "utility"),
    ("utility_num", "utility_num"),
)
_COMPARE_TABLE = (
    ("controller", "controller"), ("frame", "frame"), ("arrivals", "arrivals"),
    ("n_s", "n_s_used"), ("contenders", "contenders"), ("true_load", "true_load"),
    ("est_load", "est_load"), ("successes", "successes"), ("utility_sim", "utility"),
    ("utility_num", "utility_num"), ("ci95_utility_sim", "ci95_utility_sim"),
)
_THRESHOLDS_TABLE = (("load_threshold", "load_threshold"), ("n_s", "n_s"))

# Bound on the frame rows (frames x replications x controllers) one command
# simulates and holds until its CSV is written. A row costs at most about
# 1 kB at its peak (tracemalloc over a whole 10 000-frame run), so the
# largest accepted command stays near 1 GB.
MAX_FRAME_ROWS = 1_000_000


# Rows per write of a CSV: its cells are gathered, joined and written this
# many rows at a time, about 0.12 MB of text. For its whole write a part holds
# only each column's distinct texts and a narrow index a row into them (one or
# two bytes in these tables), so _cells' dedup still spans the whole column.
# tracemalloc's peak inside write_run_csv is about 95 B a row for 20
# replications of tm2_beta.scn, most of it the part's own arrays and
# np.unique's sort. Larger chunks wrote no faster and raised the writer's
# peak memory: 4096-row chunks added about 0.9 MB to the peak of a
# 5-replication, 1000-frame run.
CSV_CHUNK_ROWS = 1 << 10


def _write_outputs(outputs: dict[str, tuple[Path, Callable[[TextIO], object]]]) -> None:
    """Write each flag's path by its writer; each file ends up whole or as it was.

    A writer is given a text handle on its path. A regular file's text
    goes to a temporary file in its directory, which replaces it only
    after the text of every path is written and closed; on any error the
    temporaries are removed and every path keeps what it held. A replaced
    file gets the mode a plain open gives it: an existing file's mode,
    else 0o666 less the umask. A path that exists but is not a regular
    file (/dev/stdout, a FIFO) cannot be replaced and is written directly.
    A symlink is followed, so its target is replaced. An OSError in
    opening, writing or closing a file, or in replacing its path, is
    raised again with the flag in front, as a refusal names its flag.
    """
    temporaries: dict[str, tuple[str, Path, int]] = {}
    try:
        for flag, (path, write) in outputs.items():
            try:
                file: Path | int = path
                if path.is_file() or not path.exists():
                    target = Path(os.path.realpath(path))
                    mode = _plain_mode(target)
                    file, temporary = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
                    temporaries[temporary] = (flag, target, mode)
                with open(file, "w", encoding="utf-8", newline="") as handle:
                    write(handle)
            except OSError as exc:
                raise OSError(f"{flag}: {exc}") from exc
        for temporary, (flag, target, mode) in temporaries.items():
            try:
                os.chmod(temporary, mode)
                os.replace(temporary, target)
            except OSError as exc:
                raise OSError(f"{flag}: {exc}") from exc
        temporaries.clear()
    finally:
        for temporary in temporaries:
            with suppress(OSError):
                os.unlink(temporary)


def _plain_mode(path: Path) -> int:
    """The mode open(path, "w") leaves the file with."""
    try:
        return stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        return 0o666 & ~umask


def _write_table(handle: TextIO, table: Sequence[tuple[str, str]], *parts: dict) -> None:
    """Write table's header, then each part's rows, a column read from the part by source.

    Fields are joined by "," and each row ended by "\n". No field is quoted,
    and none needs to be: every field the CLI writes is a number, a
    ControllerKind value, "mean" or a column name, none of which holds a
    comma, a quote or a line break. The rows go out CSV_CHUNK_ROWS per write.
    """
    handle.write(",".join(header for header, _ in table) + "\n")
    for part in parts:
        sources = [part[source] for _, source in table]
        rows = next(len(v) for v in sources if not isinstance(v, str))
        columns = [v if isinstance(v, str) else _cells(v) for v in sources]
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            chunk = slice(lo, lo + CSV_CHUNK_ROWS)
            cells = (
                repeat(c) if isinstance(c, str) else c[0][c[1][chunk]].tolist() for c in columns
            )
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_run_csv(
    handle: TextIO, repset: ReplicationSet, controller_name: str, config: RachConfig
) -> None:
    """Per-replication rows followed by per-frame mean rows.

    The per-replication rows are one table over every replication, each
    column raveled in replication order, so each column is formatted once.
    """
    tp_num, ut_num = _at_true_load(repset, config)
    c = {name: column.ravel() for name, column in repset.columns.items()}
    means = repset.means
    _write_table(handle, _RUN_TABLE, {
        **c, "controller": controller_name,
        "rep": np.repeat(repset.replication_ids, repset.n_frames),
        "throughput_sim": c["successes"].astype(np.float64),
        "throughput_num": tp_num.ravel(), "utility_num": ut_num.ravel(),
    }, {
        **means, "rep": "mean", "frame": np.arange(repset.n_frames),
        "controller": controller_name, "throughput_sim": means["successes"],
        "throughput_num": tp_num.mean(axis=0), "utility_num": ut_num.mean(axis=0),
    })


def _cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell texts of the distinct values, and each value's index into them.

    A cell's text is the value's str, "" for NaN: a float's str is its
    repr, the shortest round-trip decimal; an int's or a name's is itself.
    An empty cell is a missing value (a frame without a load estimate).
    Each distinct value is formatted once, found by one np.unique pass over
    the whole column; the columns repeat values a lot. Floats are told apart
    by bit pattern, so NaN is one value and -0.0 another than 0.0. The index
    has the narrowest unsigned dtype that holds the distinct count, so the
    writer holds a column as one or two bytes a row, not as its cells.
    """
    floats = values.dtype == np.float64
    distinct, index = np.unique(values.view(np.int64) if floats else values, return_inverse=True)
    items = (distinct.view(np.float64) if floats else distinct).tolist()
    texts = np.array(["" if v != v else str(v) for v in items], dtype=object)
    return texts, index.astype(np.min_scalar_type(len(texts)))


def _at_true_load(repset: ReplicationSet, config: RachConfig) -> tuple[np.ndarray, np.ndarray]:
    """Throughput and utility at (true_load, n_s_used) of every row, each (replications, frames).

    The scalar throughput runs once per distinct pair; the pairs recur, and
    each result is its own float. The utility, throughput - alpha * n_s,
    takes the same two float operations as the scalar utility_of_load.
    """
    true_load, n_s = repset.columns["true_load"], repset.columns["n_s_used"]
    eta = functools.cache(functools.partial(throughput, n_preambles=config.n_preambles))
    pairs = zip(true_load.ravel().tolist(), n_s.ravel().tolist())
    tp = np.array(list(starmap(eta, pairs))).reshape(true_load.shape)
    return tp, utility(tp, config.alpha, n_s)


@dataclass
class ComparisonReport:
    """Aggregate utilities and pairwise comparisons across controllers.

    improvement_pct[(a, b)] is _improvement_pct(U_a, U_b) on utilities
    summed over frames (per-frame means first); win_fraction[(a, b)] is the
    share of frames where a's mean utility is at least b's. The pairs are
    every ordered pair of controllers, or the one controller with itself.
    """

    aggregate_utility: dict[str, float]
    improvement_pct: dict[tuple[str, str], float]
    win_fraction: dict[tuple[str, str], float]


def _improvement_pct(ua: float, ub: float) -> float:
    """100 * (ua - ub) / |ub|; 0 for equal sums, +-inf over a zero base."""
    if ua == ub:
        return 0.0
    if ub == 0.0:
        return math.inf if ua > ub else -math.inf
    return 100.0 * (ua - ub) / abs(ub)


def build_report(repsets: dict[str, ReplicationSet]) -> ComparisonReport:
    means = {name: rs.means["utility"] for name, rs in repsets.items()}
    aggregate = {name: float(np.sum(u)) for name, u in means.items()}
    pairs = list(permutations(means, 2)) or [(name, name) for name in means]
    improvement = {(a, b): _improvement_pct(aggregate[a], aggregate[b]) for a, b in pairs}
    wins = {(a, b): float(np.mean(means[a] >= means[b])) for a, b in pairs}
    return ComparisonReport(aggregate, improvement, wins)


def write_compare_csv(
    handle: TextIO, repsets: dict[str, ReplicationSet], config: RachConfig
) -> None:
    """Each controller's per-frame mean rows, in the order of repsets.

    The rows of every controller are one table, each column concatenated
    in that order, so each column is formatted once.
    """
    parts = [{
        **repset.means, "controller": np.full(repset.n_frames, name),
        "frame": np.arange(repset.n_frames), "ci95_utility_sim": repset.ci95_utility,
        "utility_num": _at_true_load(repset, config)[1].mean(axis=0),
    } for name, repset in repsets.items()]
    _write_table(handle, _COMPARE_TABLE, {
        source: np.concatenate([part[source] for part in parts]) for _, source in _COMPARE_TABLE
    })


# ---------------------------------------------------------------------------
# Commands


# Every value flag by its argparse dest, the RachConfig field or library argument it sets.
_FLAGS = {
    "n_preambles": "--preambles", "n_s_min": "--ns-min", "n_s_max": "--ns-max",
    "alpha": "--alpha", "load": "--load", "step": "--step", "max_load": "--max-load",
    "seed": "--seed", "n_reps": "--reps",
}


@contextmanager
def _flag_errors(**flags: str):
    """Re-raise a SettingError about flag values as an argument error that names the flags.

    It wraps only the code that takes the values. A simulation's own
    SettingError is a program fault even when its field has a flag.
    flags adds the flag of a field that _FLAGS does not name.
    """
    names = {**_FLAGS, **flags}
    try:
        yield
    except SettingError as exc:
        if not set(exc.fields) <= names.keys():
            raise
        flag = "/".join(names[field] for field in exc.fields)
        raise ScenarioError(f"{flag}: {exc}") from None


def _check_frame_rows(scenario: Scenario, reps: int, controllers: int) -> None:
    rows = scenario.frames * reps * controllers
    if rows > MAX_FRAME_ROWS:
        frames, reps, rows = (shown(n) for n in (scenario.frames, reps, rows))
        raise SettingError(
            f"{frames} frames x {reps} replications x {controllers} "
            f"controller(s) = {rows} frame rows exceed the bound of {MAX_FRAME_ROWS}",
            "n_reps",
        )


def _refuse_bad_paths(inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    """Refuse unusable path flags, before any file is opened.

    Each output must name a file, not a directory, in an existing directory.
    No two flags may name one file: existing files match by inode, so a
    symlink or a hard link counts as the file; a path that does not exist
    yet matches by its resolved name.
    """
    for flag, path in outputs.items():
        if path.is_dir():
            raise ScenarioError(f"{flag}: {path} is a directory")
        if not path.parent.is_dir():
            raise ScenarioError(f"{flag}: no directory {path.parent}")
    for (flag, path), (other_flag, other) in combinations({**inputs, **outputs}.items(), 2):
        try:
            same = path.samefile(other)
        except OSError:
            same = os.path.realpath(path) == os.path.realpath(other)
        if same:
            raise ScenarioError(f"{flag} and {other_flag} name the same file, {path}")


def _simulate(args, names: list[str], flag: str) -> tuple[Scenario, dict[str, ReplicationSet]]:
    """args.n_reps runs of the scenario per distinct name in flag's value; no name runs its own."""
    with _flag_errors():
        check_integer("seed", args.seed, 0)
        check_integer("n_reps", args.n_reps, 1)
    _refuse_bad_paths({"--scenario": Path(args.scenario)}, {"--out": Path(args.out)})
    scenario = parse_scenario(args.scenario)
    with _flag_errors(kind=flag):
        variants = [scenario.with_controller(n) for n in dict.fromkeys(names)] or [scenario]
        _check_frame_rows(scenario, args.n_reps, len(variants))
    repsets = run_replications(variants, args.n_reps, args.seed)
    return scenario, {v.controller.kind.value: r for v, r in zip(variants, repsets)}


def cmd_run(args) -> int:
    names = [] if args.controller is None else [args.controller]
    scenario, repsets = _simulate(args, names, "--controller")
    [(name, repset)] = repsets.items()
    _write_outputs({"--out": (
        Path(args.out), lambda handle: write_run_csv(handle, repset, name, scenario.config)
    )})
    print(f"wrote {args.out}: {args.n_reps} replications x {repset.n_frames} frames ({name})")
    return 0


def _config_from_args(args) -> RachConfig:
    with _flag_errors():
        return RachConfig(**{field.name: getattr(args, field.name) for field in fields(RachConfig)})


def cmd_optimize(args) -> int:
    config = _config_from_args(args)
    with _flag_errors():
        decision = optimal_subframes_integer(args.load, config)
    print(f"n_s={decision.n_s} utility={decision.achieved_utility!r}")
    return 0


def cmd_table(args) -> int:
    config = _config_from_args(args)
    out = Path(args.out)
    sweep_path = Path(args.sweep_out) if args.sweep_out else out.with_name(
        out.stem + "_sweep" + (out.suffix or ".csv")
    )
    _refuse_bad_paths({}, {"--out": out, "--sweep-out": sweep_path})
    with _flag_errors():
        table = subframe_lookup_table(config, args.step, args.max_load)
    thresholds, counts = map(np.array, zip(*table.entries))

    def write_sweep(sweep: TextIO) -> None:
        sweep.write("load,n_s\n")
        for loads in table.grid.blocks():
            # the thresholds are grid points, so a block's loads from one
            # threshold up to the next are a run of that entry's n_s, written
            # as its loads joined by the run's row ending
            cuts = np.searchsorted(loads, thresholds).tolist()
            values = loads.tolist()
            for start, end, (_, k) in zip(cuts, [*cuts[1:], len(values)], table.entries):
                if start < end:
                    suffix = f",{k}\n"
                    sweep.write(suffix.join(map(repr, values[start:end])) + suffix)

    _write_outputs({
        "--out": (out, lambda handle: _write_table(
            handle, _THRESHOLDS_TABLE, {"load_threshold": thresholds, "n_s": counts}
        )),
        "--sweep-out": (sweep_path, write_sweep),
    })
    print(f"wrote {out} ({len(table.entries)} thresholds) and {sweep_path}")
    return 0


def cmd_compare(args) -> int:
    names = [c.strip() for c in args.controllers.split(",") if c.strip()]
    if len(names) < 2:
        raise ScenarioError("--controllers: compare needs at least two controllers")
    scenario, repsets = _simulate(args, names, "--controllers")
    _write_outputs({"--out": (
        Path(args.out), lambda handle: write_compare_csv(handle, repsets, scenario.config)
    )})
    report = build_report(repsets)
    print("aggregate utility (sum of per-frame means):")
    for name in repsets:
        print(f"  {name}: {report.aggregate_utility[name]:.3f}")
    for (a, b), pct in report.improvement_pct.items():
        win = report.win_fraction[(a, b)]
        print(f"  {a} vs {b}: improvement {pct:+.1f}%, win fraction {win:.3f}")
    print(f"wrote {args.out}")
    return 0


def _add_flag(parser: argparse.ArgumentParser, field: str, type_: type, **kwargs) -> None:
    """The value flag of field; its text is read as a key's, the code that takes it checks."""
    def convert(text: str) -> int | float:
        with _flag_errors():
            return read_number(text, type_, field)

    parser.add_argument(_FLAGS[field], dest=field, type=convert, **kwargs)


# Words of an argparse refusal shown, each cut by model.shown: at most about
# 65 characters a word, so the whole line stays under 1 kB.
MAX_REFUSAL_WORDS = 12


class _Parser(argparse.ArgumentParser):
    """The parser of every command: argparse's own refusals are one bounded line.

    Each echoed word is cut, the words past MAX_REFUSAL_WORDS are counted
    instead of shown, and no usage lines are printed, as for every other
    refusal; --help prints the usage.
    """

    def error(self, message: str):
        words = message.split(" ")
        text = " ".join(map(shown, words[:MAX_REFUSAL_WORDS]))
        if len(words) > MAX_REFUSAL_WORDS:
            text += f" ... ({len(words) - MAX_REFUSAL_WORDS} more words)"
        self.exit(2, f"{self.prog}: error: {text}\n")


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    """The price alpha and the channel sizes; their defaults are RachConfig's."""
    defaults = RachConfig()
    _add_flag(parser, "alpha", float, required=True)
    for field in ("n_preambles", "n_s_min", "n_s_max"):
        _add_flag(parser, field, int, default=getattr(defaults, field))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rachsim",
        description="RACH subframe allocation: simulate, optimize, tabulate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments of the simulating commands, run and compare
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--scenario", required=True, help="scenario file path")
    _add_flag(sim, "seed", int, default=1)
    _add_flag(sim, "n_reps", int, default=100)
    sim.add_argument("--out", required=True, help="output CSV path")

    run_p = sub.add_parser(
        "run", parents=[sim], help="simulate one controller, write per-frame CSV"
    )
    run_p.add_argument(
        "--controller", help="override scenario controller: one of " + ", ".join(KIND_NAMES)
    )
    run_p.set_defaults(func=cmd_run)

    opt_p = sub.add_parser("optimize", help="best subframe count for one load")
    _add_flag(opt_p, "load", float, required=True)
    _add_channel_flags(opt_p)
    opt_p.set_defaults(func=cmd_optimize)

    tab_p = sub.add_parser("table", help="emit the offline load -> n_s lookup table")
    _add_channel_flags(tab_p)
    _add_flag(tab_p, "max_load", float, default=SATURATION_LOAD)
    _add_flag(tab_p, "step", float, default=1.0)
    tab_p.add_argument("--out", required=True, help="thresholds CSV path")
    tab_p.add_argument("--sweep-out", help="dense sweep CSV path (default: <out>_sweep)")
    tab_p.set_defaults(func=cmd_table)

    cmp_p = sub.add_parser(
        "compare", parents=[sim], help="run controllers on common random numbers"
    )
    cmp_p.add_argument(
        "--controllers", required=True, help="comma-separated list from " + ", ".join(KIND_NAMES)
    )
    cmp_p.set_defaults(func=cmd_compare)

    return parser


class _Interrupted(KeyboardInterrupt):
    """A SIGTERM or SIGHUP, raised where the command is as Ctrl-C's KeyboardInterrupt is."""


def _interrupt(signum: int, frame) -> None:
    raise _Interrupted(signum)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    On the main thread, SIGTERM and SIGHUP interrupt the command as Ctrl-C
    does, for the length of the call, unless the caller ignores them: output
    files are left as they were, forked workers are killed, and one line
    names the signal.
    """
    parser = _build_parser()
    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous = {  # an ignored signal stays ignored, as nohup asks of SIGHUP
            signum: signal.signal(signum, _interrupt)
            for signum in INTERRUPTS if signal.getsignal(signum) is not signal.SIG_IGN
        }
    try:
        args = parser.parse_args(argv)  # a flag's refused text is a ScenarioError
        return args.func(args)
    except (ScenarioError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ScenarioError) else 3
    except KeyboardInterrupt as exc:  # every finally has run
        signum = exc.args[0] if isinstance(exc, _Interrupted) else signal.SIGINT
        print(f"error: interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
