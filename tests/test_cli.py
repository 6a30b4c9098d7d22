"""CLI commands: output schemas, determinism, comparisons, exit codes."""

import csv
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rachsim
import rachsim.cli
import rachsim.optimizer
import rachsim.simulator
from rachsim.cli import (
    MAX_FRAME_ROWS,
    RUN_COLUMNS,
    _build_parser,
    _check_frame_rows,
    _config_from_args,
    build_report,
    main,
)
from rachsim.model import RachConfig, SettingError, check_range, throughput, utility_of_load
from rachsim.optimizer import subframe_lookup_table
from rachsim.simulator import (
    MAX_POOL,
    ControllerKind,
    ControllerSpec,
    ReplicationSet,
    run_replications,
)
from rachsim.scenario import default_scenario, format_scenario, parse_scenario

TM2 = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios" / "tm2_beta.scn"

SMALL = "[load]\nsegments = 0:5:0:200, 5:10:200:0\n"
ZERO = "[load]\nsegments = 0:6:0:0\n"


@pytest.fixture
def small_scn(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SMALL)
    return path


@pytest.fixture
def zero_scn(tmp_path):
    path = tmp_path / "zero.scn"
    path.write_text(ZERO)
    return path


def _no_replications(*args):
    raise AssertionError("a refused command simulated")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_optimize_anchor_outputs(capsys):
    assert main(["optimize", "--load", "70", "--alpha", "2"]) == 0
    assert capsys.readouterr().out.startswith("n_s=6 ")
    assert main(["optimize", "--load", "10", "--alpha", "2"]) == 0
    assert capsys.readouterr().out.startswith("n_s=2 ")
    assert main(["optimize", "--load", "0", "--alpha", "25"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n_s=2 ")
    assert "utility=-50.0" in out


def test_optimize_bad_value_exit_code(capsys):
    assert main(["optimize", "--load", "-5", "--alpha", "2"]) == 2
    assert main(["optimize", "--load", "5", "--alpha", "-2"]) == 2
    assert main(["table", "--alpha", "25", "--step", "0", "--out", "/dev/null"]) == 2
    # non-finite values are argument errors, not -inf utilities or crashes
    assert main(["optimize", "--load", "nan", "--alpha", "25"]) == 2
    assert main(["optimize", "--load", "inf", "--alpha", "25"]) == 2
    assert main(["optimize", "--load", "50", "--alpha", "nan"]) == 2
    assert main(["optimize", "--load", "50", "--alpha", "inf"]) == 2
    assert main(["table", "--alpha", "25", "--max-load", "inf", "--out", "/dev/null"]) == 2
    assert main(["table", "--alpha", "25", "--max-load", "nan", "--out", "/dev/null"]) == 2
    assert main(["table", "--alpha", "25", "--step", "nan", "--out", "/dev/null"]) == 2
    # a finite grid too large to walk is refused before the sweep starts
    assert main(["table", "--alpha", "25", "--max-load", "1e12", "--step", "1",
                 "--out", "/dev/null"]) == 2
    assert capsys.readouterr().out == ""


def test_run_writes_expected_columns(small_scn, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(
        ["run", "--scenario", str(small_scn), "--controller", "adaptive",
         "--seed", "3", "--reps", "4", "--out", str(out)]
    )
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
    assert header == RUN_COLUMNS
    rows = read_csv(out)
    per_rep = [r for r in rows if r["rep"] != "mean"]
    mean_rows = [r for r in rows if r["rep"] == "mean"]
    assert len(per_rep) == 4 * 10
    assert len(mean_rows) == 10
    for row in per_rep:
        pairs = int(row["n_s"]) * 64
        assert int(row["successes"]) + int(row["collided_devices"]) == int(row["contenders"])
        assert int(row["successes"]) + int(row["idle"]) <= pairs
        assert float(row["throughput_sim"]) == float(row["successes"])


def test_run_deterministic_bytes(small_scn, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["run", "--scenario", str(small_scn), "--controller", "adaptive",
            "--seed", "7", "--reps", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_est_load_empty_for_fixed(small_scn, tmp_path, capsys):
    out = tmp_path / "fixed.csv"
    main(["run", "--scenario", str(small_scn), "--controller", "fixed",
          "--seed", "1", "--reps", "2", "--out", str(out)])
    rows = read_csv(out)
    assert all(r["est_load"] == "" for r in rows)
    out2 = tmp_path / "adaptive.csv"
    main(["run", "--scenario", str(small_scn), "--controller", "adaptive",
          "--seed", "1", "--reps", "2", "--out", str(out2)])
    rows = read_csv(out2)
    assert any(r["est_load"] != "" for r in rows if r["rep"] != "mean")


def test_run_zero_load_scenario(zero_scn, tmp_path, capsys):
    out = tmp_path / "zero.csv"
    main(["run", "--scenario", str(zero_scn), "--controller", "max",
          "--seed", "1", "--reps", "2", "--out", str(out)])
    for row in read_csv(out):
        assert float(row["throughput_sim"]) == 0.0
        assert float(row["throughput_num"]) == 0.0
        assert float(row["utility_sim"]) == -25.0 * float(row["n_s"])


def test_run_missing_scenario_exit_code(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.scn"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    # a directory is no scenario file either
    capsys.readouterr()
    rc = main(["run", "--scenario", str(tmp_path), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert f"error: cannot read scenario file {tmp_path}: " in capsys.readouterr().err
    # a scenario with a value out of range is a scenario error as well, naming the
    # value; every load.segments refusal names the line, and the entry if it has one
    entry = "load.segments entry"
    bound = f"must be in [0, {MAX_POOL}]"
    just_past = math.nextafter(1e7, math.inf)
    for text, error in (
        ("[channel]\nalpha = inf\n" + SMALL, "channel.alpha must be finite, got inf"),
        ("[load]\nsegments = 0:5:nan:1\n",
         f"{entry} '0:5:nan:1': rate_start must be finite, got nan"),
        ("[load]\nsegments = 0:5:-1:1\n",
         f"{entry} '0:5:-1:1': rate_start {bound}, got -1.0"),
        ("[load]\nsegments = 0:5:1:inf\n",
         f"{entry} '0:5:1:inf': rate_end must be finite, got inf"),
        ("[load]\nsegments = 0:5:1:1, 5:5:1:1\n",
         f"{entry} '5:5:1:1': end_frame must exceed start_frame"),
        ("[load]\nsegments = 0:5:1e8:1e8\n",
         f"{entry} '0:5:1e8:1e8': rate_start {bound}, got 100000000.0"),
        ("[load]\nsegments = 0:3:0:1e12\n",
         f"{entry} '0:3:0:1e12': rate_end {bound}, got 1000000000000.0"),
        (f"[load]\nsegments = 0:5:{just_past!r}:0\n",
         f"{entry} '0:5:{just_past!r}:0': rate_start {bound}, got {just_past!r}"),
        ("[load]\nsegments = ,\n", "load.segments: profile needs at least one segment"),
        ("[load]\nsegments = 5:10:1:1\n", "load.segments: segments must start at frame 0, not 5"),
        ("[load]\nsegments = 0:5:1:1, 6:10:1:1\n",
         "load.segments: segments must be contiguous: 5 then 6"),
        ("[load]\nsegments = 0:5:1\n", f"{entry} '0:5:1' must be start:end:rate_start:rate_end"),
        ("[load]\nsegments = 0:5:one:1\n", f"{entry} '0:5:one:1' has a non-numeric field"),
    ):
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        rc = main(["run", "--scenario", str(bad), "--reps", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}:2: {error}\n"
    assert not (tmp_path / "o.csv").exists()


def test_table_outputs(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["table", "--alpha", "25", "--max-load", "700", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    firsts = [float(r["load_threshold"]) for r in rows if r["n_s"] == "8"]
    assert firsts and 500 <= firsts[0] <= 600
    sweep = read_csv(tmp_path / "table_sweep.csv")
    assert len(sweep) == 701
    assert sweep[0] == {"load": "0.0", "n_s": "2"}


def test_table_sweep_out_naming_the_out_file_exits_two(tmp_path, capsys):
    # the sweep used to overwrite the thresholds written a moment before
    out = tmp_path / "same.csv"
    out.write_text("kept\n")
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    hard = tmp_path / "hard.csv"
    os.link(out, hard)
    for sweep in (out, tmp_path / "." / "same.csv", link, hard):
        assert main(["table", "--alpha", "25", "--step", "1", "--out", str(out),
                     "--sweep-out", str(sweep)]) == 2
        assert "--out and --sweep-out name the same file" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_out_naming_the_scenario_file_exits_two(small_scn, tmp_path, capsys, command):
    # the CSV used to overwrite the scenario it was simulated from
    hard = tmp_path / "hard.scn"
    os.link(small_scn, hard)
    flags = ["--controller", "fixed"] if command == "run" else ["--controllers", "fixed,max"]
    for out in (small_scn, hard):
        assert main([command, "--scenario", str(small_scn), *flags, "--reps", "1",
                     "--out", str(out)]) == 2
        assert "--scenario and --out name the same file" in capsys.readouterr().err
    assert small_scn.read_text() == SMALL


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_unusable_out_exits_two_before_simulating(
    small_scn, tmp_path, capsys, monkeypatch, command
):
    # each used to simulate first, then fail to open the file with exit 3
    monkeypatch.setattr(rachsim.cli, "run_replications", _no_replications)
    flags = ["--controller", "fixed"] if command == "run" else ["--controllers", "fixed,max"]
    for out, error in (
        (tmp_path / "missing" / "o.csv", f"no directory {tmp_path / 'missing'}"),
        (tmp_path, f"{tmp_path} is a directory"),
        (small_scn / "o.csv", f"no directory {small_scn}"),
    ):
        assert main([command, "--scenario", str(small_scn), *flags, "--reps", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out: {error}\n"
    assert list(tmp_path.iterdir()) == [small_scn]


def test_table_with_an_unusable_path_writes_nothing(tmp_path, capsys):
    # the thresholds file used to be written before the sweep failed with exit 3
    out = tmp_path / "t.csv"
    for paths, error in (
        (["--out", str(out), "--sweep-out", str(tmp_path / "missing" / "s.csv")],
         f"--sweep-out: no directory {tmp_path / 'missing'}"),
        (["--out", str(out), "--sweep-out", str(tmp_path)],
         f"--sweep-out: {tmp_path} is a directory"),
        (["--out", str(tmp_path)], f"--out: {tmp_path} is a directory"),
    ):
        assert main(["table", "--alpha", "25", *paths]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def _write_reference(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("flags,edges", [
    # thresholds on the first point of the second block and the last of the third
    (["--alpha", "2", "--step", "2"], {0, 15}),
    # one count: a single run with no cut
    (["--alpha", "25", "--ns-min", "4", "--ns-max", "4", "--step", "1"], set()),
])
def test_table_files_match_csv_writer(tmp_path, capsys, monkeypatch, flags, edges):
    monkeypatch.setattr(rachsim.optimizer, "SWEEP_BLOCK", 16)
    monkeypatch.setattr(rachsim.cli, "CSV_CHUNK_ROWS", 16)
    args = _build_parser().parse_args(["table", *flags, "--out", str(tmp_path / "t.csv")])
    table = subframe_lookup_table(_config_from_args(args), args.step, args.max_load)
    assert {round(t / args.step) % 16 for t, _ in table.entries[1:]} >= edges
    assert main(["table", *flags, "--out", str(tmp_path / "t.csv")]) == 0
    _write_reference(tmp_path / "ref.csv", [("load_threshold", "n_s"), *table.entries])
    _write_reference(tmp_path / "ref_sweep.csv",
                     [("load", "n_s"), *((load, table.lookup(load)) for load in table.grid)])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "t_sweep.csv").read_bytes() == (tmp_path / "ref_sweep.csv").read_bytes()


@pytest.mark.parametrize("controller", ["adaptive", "fixed"])
def test_run_csv_matches_csv_writer(tmp_path, capsys, monkeypatch, controller):
    # 20 frames: each replication's rows and the mean rows go out as 16 and 4
    monkeypatch.setattr(rachsim.cli, "CSV_CHUNK_ROWS", 16)
    stock = tmp_path / "stock.scn"
    stock.write_text(format_scenario(default_scenario()))
    assert main(["run", "--scenario", str(stock), "--controller", controller,
                 "--seed", "3", "--reps", "3", "--out", str(tmp_path / "run.csv")]) == 0
    scenario = parse_scenario(stock).with_controller(ControllerKind(controller))
    config = scenario.config
    repset = run_replications(scenario, 3, 3)
    assert repset.n_frames == 20
    rows = [RUN_COLUMNS]
    tp_num, ut_num = [], []
    for run in repset.runs:
        tp_num.append([throughput(r.true_load, r.n_s_used, config.n_preambles) for r in run.rows])
        ut_num.append([utility_of_load(r.true_load, r.n_s_used, config) for r in run.rows])
        rows.extend(
            (run.replication_id, r.frame, controller, r.n_s_used, r.arrivals, r.contenders,
             r.successes, r.collided_devices, r.idle, r.est_load, r.true_load,
             float(r.successes), tp, r.utility, ut)
            for r, tp, ut in zip(run.rows, tp_num[-1], ut_num[-1])
        )
    means = repset.means
    mean_columns = [
        means["n_s_used"], means["arrivals"], means["contenders"], means["successes"],
        means["collided_devices"], means["idle"], means["est_load"], means["true_load"],
        means["successes"], np.mean(tp_num, axis=0), means["utility"], np.mean(ut_num, axis=0),
    ]
    for frame, values in enumerate(zip(*(column.tolist() for column in mean_columns))):
        rows.append(("mean", frame, controller, *(None if v != v else v for v in values)))
    _write_reference(tmp_path / "ref.csv", rows)
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_compare_csv_matches_csv_writer(tmp_path, capsys, monkeypatch):
    # 20 frames: each controller's mean rows go out as 16 and 4
    monkeypatch.setattr(rachsim.cli, "CSV_CHUNK_ROWS", 16)
    stock = tmp_path / "stock.scn"
    stock.write_text(format_scenario(default_scenario()))
    names = ["adaptive", "fixed", "acb"]
    assert main(["compare", "--scenario", str(stock), "--controllers", ",".join(names),
                 "--seed", "2", "--reps", "3", "--out", str(tmp_path / "cmp.csv")]) == 0
    scenario = parse_scenario(stock)
    config = scenario.config
    rows = [("controller", "frame", "arrivals", "n_s", "contenders", "true_load", "est_load",
             "successes", "utility_sim", "utility_num", "ci95_utility_sim")]
    for name in names:
        repset = run_replications(scenario.with_controller(ControllerKind(name)), 3, 2)
        assert repset.n_frames == 20
        ut_num = np.mean(
            [[utility_of_load(r.true_load, r.n_s_used, config) for r in run.rows]
             for run in repset.runs],
            axis=0,
        )
        means = repset.means
        columns = [
            means["arrivals"], means["n_s_used"], means["contenders"], means["true_load"],
            means["est_load"], means["successes"], means["utility"], ut_num,
            repset.ci95_utility,
        ]
        for frame, values in enumerate(zip(*(column.tolist() for column in columns))):
            rows.append((name, frame, *(None if v != v else v for v in values)))
    _write_reference(tmp_path / "ref.csv", rows)
    assert (tmp_path / "cmp.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_table_alpha100_single_row(tmp_path, capsys):
    out = tmp_path / "t100.csv"
    main(["table", "--alpha", "100", "--out", str(out)])
    rows = read_csv(out)
    assert rows == [{"load_threshold": "0.0", "n_s": "2"}]


def test_compare_same_controller_is_zero_improvement(small_scn, tmp_path, capsys):
    # identical seeds and kind: byte-identical runs, hence 0% improvement
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--scenario", str(small_scn),
               "--controllers", "adaptive,adaptive", "--seed", "2",
               "--reps", "2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "improvement +0.0%" in text


def test_compare_max_worse_at_zero_load(zero_scn, tmp_path, capsys):
    out = tmp_path / "cmp0.csv"
    main(["compare", "--scenario", str(zero_scn), "--controllers", "max,fixed",
          "--seed", "1", "--reps", "2", "--out", str(out)])
    # at zero load utility is -alpha * n_s every frame: max strictly worse
    rows = read_csv(out)
    util = {(r["controller"], r["frame"]): float(r["utility_sim"]) for r in rows}
    for frame in range(6):
        assert util[("max", str(frame))] == -200.0
        assert util[("fixed", str(frame))] == -50.0


def test_compare_shares_arrival_sequences(small_scn, tmp_path, capsys):
    out = tmp_path / "cmp2.csv"
    main(["compare", "--scenario", str(small_scn),
          "--controllers", "adaptive,fixed,max,acb", "--seed", "5",
          "--reps", "3", "--out", str(out)])
    rows = read_csv(out)
    by_controller = {}
    for row in rows:
        by_controller.setdefault(row["controller"], []).append(row["arrivals"])
    seqs = list(by_controller.values())
    assert len(seqs) == 4
    assert all(seq == seqs[0] for seq in seqs)


UNKNOWN_KIND = "kind must be one of ['acb', 'adaptive', 'fixed', 'max'], got 'bogus'"


def test_compare_needs_two_controllers(small_scn, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["compare", "--scenario", str(small_scn), "--controllers",
               "adaptive", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --controllers: compare needs at least two controllers\n"
    )
    rc = main(["compare", "--scenario", str(small_scn), "--controllers",
               "adaptive,bogus", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --controllers: {UNKNOWN_KIND}\n"
    assert not out.exists()


@pytest.mark.parametrize("entry", ["run", "compare", "scenario", "library"])
def test_an_unknown_controller_name_is_refused_one_way(entry, tmp_path, capsys):
    # ControllerKind refuses the name; each entry point only names where it came from
    if entry == "library":
        for make in (lambda: ControllerSpec(kind="bogus"), lambda: default_scenario("bogus")):
            with pytest.raises(SettingError) as exc:
                make()
            assert str(exc.value) == UNKNOWN_KIND and exc.value.fields == ("kind",)
        return
    scn = tmp_path / "f.scn"
    scn.write_text(SMALL + ("[controller]\nkind = bogus\n" if entry == "scenario" else ""))
    flags, error = {
        "run": (["run", "--controller", "bogus"], f"--controller: {UNKNOWN_KIND}"),
        "compare": (
            ["compare", "--controllers", "adaptive,bogus"], f"--controllers: {UNKNOWN_KIND}"
        ),
        "scenario": (["run"], f"{scn}:4: controller.{UNKNOWN_KIND}"),
    }[entry]
    out = tmp_path / "o.csv"
    assert main(flags + ["--scenario", str(scn), "--out", str(out)]) == 2  # not argparse's exit
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_build_report_win_fraction_semantics():
    reps = {kind: run_replications(default_scenario(kind), 3, 1)
            for kind in ("adaptive", "fixed")}
    report = build_report(reps)
    a_vs_f = report.win_fraction[("adaptive", "fixed")]
    f_vs_a = report.win_fraction[("fixed", "adaptive")]
    assert 0.0 <= a_vs_f <= 1.0
    # a win is "at least ties", so the two directions cover every frame
    assert a_vs_f + f_vs_a >= 1.0
    assert set(report.aggregate_utility) == {"adaptive", "fixed"}
    # one controller (`--controllers adaptive,adaptive`) is compared with itself
    alone = build_report({"adaptive": reps["adaptive"]})
    assert alone.improvement_pct == {("adaptive", "adaptive"): 0.0}
    assert alone.win_fraction == {("adaptive", "adaptive"): 1.0}


def test_build_report_against_a_zero_utility_base():
    # a base whose aggregate utility is exactly 0 gives an infinite improvement
    repsets = {
        name: ReplicationSet(runs=[], means={"utility": np.array(u)}, ci95_utility=np.zeros(2))
        for name, u in (("zero", [1.5, -1.5]), ("up", [2.0, 1.0]), ("down", [-2.0, 0.5]))
    }
    improvement = build_report(repsets).improvement_pct
    assert improvement[("up", "zero")] == math.inf
    assert improvement[("down", "zero")] == -math.inf
    assert improvement[("zero", "up")] == -100.0


def test_bad_arguments_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    for command in (["run"], ["compare", "--controllers", "adaptive,fixed"]):
        # the scenario file does not exist: a refused value is named before it is read
        argv = command + ["--scenario", str(tmp_path / "x.scn"), "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:  # not an int: argparse refuses the text
            main(argv + ["--reps", "two"])
        assert exc.value.code == 2
        capsys.readouterr()
        # a negative seed is an argument error, not numpy's unlabelled one
        for flags, error in (
            (["--reps", "0"], "--reps: n_reps must be >= 1, got 0"),
            (["--reps", "-1"], "--reps: n_reps must be >= 1, got -1"),
            (["--seed", "-1"], "--seed: seed must be >= 0, got -1"),
        ):
            assert main(argv + flags) == 2
            assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_run_huge_rate_fails_before_allocating(tmp_path, capsys, monkeypatch):
    # a finite rate whose Poisson draw is far beyond memory: the segment is
    # refused when the file is parsed, before any replication starts
    monkeypatch.setattr(rachsim.cli, "run_replications", _no_replications)
    scn = tmp_path / "f.scn"
    for segments, entry, rate in (
        ("0:5:1e8:1e8", "0:5:1e8:1e8", "100000000.0"),
        # a segment past [sim] frames is refused too, though no frame reads it
        ("0:5:10:10, 5:10:2e7:2e7\n[sim]\nframes = 5", "5:10:2e7:2e7", "20000000.0"),
    ):
        scn.write_text(f"[load]\nsegments = {segments}\n")
        rc = main(["run", "--scenario", str(scn), "--reps", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {scn}:2: load.segments entry '{entry}': "
            f"rate_start must be in [0, 10000000], got {rate}\n"
        )
    assert not (tmp_path / "o.csv").exists()


def test_run_rate_beyond_the_poisson_range_names_the_entry(tmp_path, capsys):
    # numpy's Poisson draw refuses this rate with its own unlabelled error
    scn = tmp_path / "huge.scn"
    scn.write_text("[load]\nsegments = 0:5:1e308:1e308\n")
    rc = main(["run", "--scenario", str(scn), "--reps", "1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:2: load.segments entry '0:5:1e308:1e308': "
        f"rate_start must be in [0, {MAX_POOL}], got 1e+308\n"
    )
    assert not (tmp_path / "o.csv").exists()


def test_run_pool_past_the_bound_fails_at_its_frame(tmp_path, capsys, monkeypatch):
    # the rate (600) passes the bound, the retriers of frame 0 push frame 1 past it
    monkeypatch.setattr(rachsim.simulator, "MAX_POOL", 1000)
    scn = tmp_path / "flood.scn"
    scn.write_text(
        "[load]\nsegments = 0:5:600:600\n[controller]\nkind = fixed\n[sim]\nbackoff_window = 1\n"
    )
    rc = main(["run", "--scenario", str(scn), "--reps", "1", "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: frame 1: 608 pending devices plus 610 arrivals exceed the pool bound of 1000\n"
    )
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "text, reps, rows",
    [
        (None, "1000000000", 1000 * 1_000_000_000),  # the TM2 scenario
        ("[load]\nsegments = 0:100000000:0.0:0.0\n", "1", 100_000_000),
    ],
)
def test_run_too_many_frame_rows_fails_before_simulating(tmp_path, capsys, text, reps, rows):
    # both used to run until killed, piling up rows toward running out of memory
    scn = TM2
    if text is not None:
        scn = tmp_path / "long.scn"
        scn.write_text(text)
    rc = main(["run", "--scenario", str(scn), "--reps", reps,
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"= {rows} frame rows exceed the bound of {MAX_FRAME_ROWS}" in err
    assert not (tmp_path / "o.csv").exists()


def test_frame_row_bound_counts_distinct_controllers(tmp_path, capsys):
    tm2 = parse_scenario(TM2)
    _check_frame_rows(tm2, 100, 4)  # a 100-replication TM2 comparison is accepted
    # 1000 frames x 300 replications x 4 distinct controllers = 1.2M rows
    rc = main(["compare", "--scenario", str(TM2), "--controllers",
               "adaptive,fixed,acb,max,max", "--reps", "300",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "x 4 controller(s) = 1200000 frame rows" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "section, key",
    [("sim", "backoff_window"), ("controller", "acb_window"), ("controller", "window")],
)
def test_run_window_beyond_the_bound_exits_two(tmp_path, capsys, section, key):
    # used to exit 3 with numpy's unlabelled "high is out of bounds for int64"
    scn = tmp_path / "window.scn"
    scn.write_text(f"{SMALL}\n[{section}]\n{key} = 99999999999999999999\n")
    rc = main(["run", "--scenario", str(scn), "--controller", "acb", "--reps", "1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert f"{section}.{key} must be in [1, 2147483647]" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_pair_bound_applies_to_simulations_only(tmp_path, capsys):
    # every simulated frame counts picks per (subframe, preamble) pair
    scn = tmp_path / "pairs.scn"
    scn.write_text("[channel]\npreambles = 1000000\n" + SMALL)
    for command in (["run"], ["compare", "--controllers", "adaptive,fixed"]):
        rc = main(command + ["--scenario", str(scn), "--reps", "1",
                             "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "channel.ns_max x channel.preambles = 8 x 1000000 = 8000000 pairs" in err
    assert not (tmp_path / "o.csv").exists()
    # table and optimize simulate nothing and keep accepting large counts
    assert main(["optimize", "--load", "500", "--alpha", "25", "--preambles", "1000000"]) == 0
    assert main(["table", "--alpha", "25", "--preambles", "1000000",
                 "--out", str(tmp_path / "t.csv")]) == 0


def test_python_dash_m_rachsim_help():
    src = str(Path(rachsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "rachsim", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: rachsim")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", "--scenario --seed --reps --out --controller"),
        ("compare", "--scenario --seed --reps --out --controllers"),
        ("optimize", "--load --alpha --preambles --ns-min --ns-max"),
        ("table", "--alpha --preambles --ns-min --ns-max --max-load --step --out --sweep-out"),
    ],
)
def test_subcommand_help_lists_every_flag(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: rachsim {command} ")
    assert set(re.findall(r"(?<![\w-])--\w[\w-]*", out)) == {"--help", *flags.split()}


@pytest.mark.parametrize("command", [["optimize", "--load", "10"], ["table", "--out", "t.csv"]])
def test_channel_flag_defaults_are_the_config_defaults(command):
    args = _build_parser().parse_args(command + ["--alpha", "25"])
    config = RachConfig(alpha=25.0)
    assert (args.n_preambles, args.n_s_min, args.n_s_max) == (
        config.n_preambles, config.n_s_min, config.n_s_max
    )
    assert _config_from_args(args) == config


def test_alpha_beyond_the_bound_exits_two(tmp_path, capsys):
    # a finite price near float overflow used to run, printing -inf
    # aggregates and writing NaN confidence intervals after numpy warnings
    scn = tmp_path / "alpha.scn"
    scn.write_text("[channel]\nalpha = 1e308\n" + SMALL)
    rc = main(["compare", "--scenario", str(scn), "--controllers", "adaptive,fixed",
               "--reps", "2", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "alpha.scn:2: channel.alpha must be in [0.0, 1e+100], got 1e+308" in (
        capsys.readouterr().err
    )
    for command in (["optimize", "--load", "100"], ["table", "--out", str(tmp_path / "o.csv")]):
        assert main(command + ["--alpha", "1e308"]) == 2
        err = capsys.readouterr().err
        assert "error: --alpha: alpha must be in [0.0, 1e+100], got 1e+308" in err
    assert not (tmp_path / "o.csv").exists()


def test_bad_channel_flag_is_named(tmp_path, capsys):
    out = tmp_path / "t.csv"
    for command in (["optimize", "--load", "10"], ["table", "--out", str(out)]):
        for flags, named in (
            (["--ns-min", "9", "--ns-max", "3"], "--ns-min/--ns-max: "),
            (["--preambles", "0"], "--preambles: "),
            # a count past 2**53 // 10 used to exit 3 with a float conversion error
            (["--preambles", "1" + "0" * 400], "--preambles: "),
        ):
            assert main(command + ["--alpha", "5", *flags]) == 2
            assert capsys.readouterr().err.startswith(f"error: {named}")
    assert not out.exists()


def test_channel_error_names_only_the_flags_it_concerns(capsys):
    # the config's error names its fields; the message text is not searched
    for flags, error in (
        (["--ns-max", "11"], "--ns-max: n_s_max must be in [1, 10], got 11"),
        (["--ns-min", "9", "--ns-max", "3"], "--ns-min/--ns-max: n_s_min must not exceed n_s_max"),
        (["--ns-min", "9"], "--ns-min/--ns-max: n_s_min must not exceed n_s_max"),
        (["--alpha", "inf"], "--alpha: alpha must be finite, got inf"),
    ):
        assert main(["optimize", "--load", "10", "--alpha", "5", *flags]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


# The value flags of each command; the channel counts, the seed and the
# replication count are int flags.
VALUE_FLAGS = {
    "optimize": ("--load", "--alpha", "--preambles", "--ns-min", "--ns-max"),
    "table": ("--step", "--max-load", "--alpha", "--preambles", "--ns-min", "--ns-max"),
    "run": ("--seed", "--reps"),
    "compare": ("--seed", "--reps"),
}
INT_FLAGS = ("--preambles", "--ns-min", "--ns-max", "--seed", "--reps")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, flags in VALUE_FLAGS.items() for flag in flags]
)
def test_every_refused_flag_value_names_its_flag(command, flag, value, tmp_path, capsys):
    argv = {
        "optimize": ["optimize", "--load", "10", "--alpha", "5"],
        "table": ["table", "--alpha", "5", "--out", str(tmp_path / "t.csv")],
        "run": ["run", "--scenario", str(tmp_path / "s.scn"), "--out", str(tmp_path / "o.csv")],
        "compare": ["compare", "--controllers", "adaptive,fixed", "--scenario",
                    str(tmp_path / "s.scn"), "--out", str(tmp_path / "o.csv")],
    }[command] + [flag, value]
    if flag in INT_FLAGS and value != "-1":
        # not an int at all: argparse refuses it, naming the flag its own way
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {flag}: invalid int value: '{value}'\n" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_grid_bound_names_both_flags(tmp_path, capsys):
    argv = ["table", "--alpha", "25", "--max-load", "1e12", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --max-load/--step: load grid max_load / step = 1000000000000.0 / 1.0 "
        "exceeds 10000000 points\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_a_range_error_without_a_flag_is_a_fault(monkeypatch, capsys):
    # a library argument no flag sets can only be out of range by a program fault
    def faulty(load, config):
        check_range("n_s", 0, 1)

    monkeypatch.setattr(rachsim.cli, "optimal_subframes_integer", faulty)
    assert main(["optimize", "--load", "10", "--alpha", "5"]) == 3
    assert capsys.readouterr().err == "error: n_s must be >= 1, got 0\n"


def test_a_range_error_inside_a_run_is_a_fault(monkeypatch, small_scn, tmp_path, capsys):
    # a flag sets load for optimize, but a simulation's own range error is a fault
    def faulty(load, config, table_max_load):
        raise SettingError("{load} is out of range inside a run", "load")

    monkeypatch.setattr(rachsim.simulator, "decide_subframes", faulty)
    argv = ["run", "--scenario", str(small_scn), "--reps", "1", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: load is out of range inside a run\n"
    assert not (tmp_path / "o.csv").exists()


def test_largest_alpha_keeps_every_number_finite(tmp_path, capsys):
    scn = tmp_path / "alpha.scn"
    scn.write_text("[channel]\nalpha = 1e100\n" + SMALL)
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow and invalid warnings too
        assert main(["compare", "--scenario", str(scn), "--controllers",
                     "adaptive,fixed,acb,max", "--reps", "3", "--out", str(out)]) == 0
        assert main(["optimize", "--load", "100", "--alpha", "1e100"]) == 0
    printed = capsys.readouterr().out
    assert "inf" not in printed and "nan" not in printed
    assert "n_s=2 utility=-2e+100" in printed
    rows = read_csv(out)
    assert len(rows) == 4 * 10
    assert all(math.isfinite(float(row["ci95_utility_sim"])) for row in rows)
    assert all(math.isfinite(float(row["utility_sim"])) for row in rows)
