"""run_replications across worker processes: same results and bytes, same errors, no child left."""

import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

import rachsim.simulator
from rachsim.cli import main
from rachsim.model import SettingError
from rachsim.scenario import parse_scenario
from rachsim.simulator import run_replications, run_scenario
from conftest import force_workers

SCENARIOS = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios"
TM2 = SCENARIOS / "tm2_beta.scn"
STOCK = SCENARIOS / "stock_wave.scn"

# run_replications forks only where _usable_cpus reads the affinity set
forks = pytest.mark.skipif(
    sys.platform != "linux" or sys.version_info >= (3, 12),
    reason="run_replications forks only on Linux under Python < 3.12",
)

# Near the fixed controller's stability limit, with every retrier due again
# the next frame, the pool wanders; under a pool bound of 180 the replications
# at base seed 2 go: 0 passes, 1 fails at frame 20, 2 fails at frame 15.
FLOOD = "[load]\nsegments = 0:30:50:50\n[controller]\nkind = fixed\n[sim]\nbackoff_window = 1\n"
FLOOD_SEED = 2
FLOOD_ERROR = "frame 20: 141 pending devices plus 58 arrivals exceed the pool bound of 180"


@pytest.fixture
def flood(tmp_path, monkeypatch):
    monkeypatch.setattr(rachsim.simulator, "MAX_POOL", 180)
    path = tmp_path / "flood.scn"
    path.write_text(FLOOD)
    return path


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_argv(scn, tmp_path, seed=1):
    """A three-replication `run` of the scenario file, written to tmp_path."""
    return ["run", "--scenario", str(scn), "--reps", "3", "--seed", str(seed),
            "--out", str(tmp_path / "o.csv")]


@pytest.mark.parametrize("path, kind", [(TM2, "adaptive"), (STOCK, "acb")])
def test_worker_count_does_not_change_a_replication_set(path, kind, monkeypatch):
    scenario = parse_scenario(path).with_controller(kind)
    sets = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        sets.append(run_replications(scenario, 5, 11))
        assert_no_child()
    first = sets[0]
    for other in sets[1:]:
        assert other.replication_ids == first.replication_ids == list(range(5))
        for table, other_table in ((first.columns, other.columns), (first.means, other.means)):
            assert table.keys() == other_table.keys()
            for name, column in table.items():
                assert other_table[name].dtype == column.dtype
                np.testing.assert_array_equal(other_table[name], column)  # NaN equals NaN
        np.testing.assert_array_equal(other.ci95_utility, first.ci95_utility)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", str(TM2), "--reps", "3", "--seed", "4"],
        ["compare", "--scenario", str(STOCK), "--controllers", "adaptive,fixed,acb,max",
         "--reps", "5", "--seed", "4"],
    ],
)
def test_worker_count_does_not_change_a_csv(argv, tmp_path, monkeypatch, capsys):
    texts = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        out = tmp_path / f"{workers}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert_no_child()
        texts.append(out.read_bytes())
    assert texts[1] == texts[0] and texts[2] == texts[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_the_lowest_failing_replication_is_raised(workers, flood, monkeypatch):
    # with two workers, replication 2 fails first, in this process, and
    # replication 1 later, in the child: the error is still replication 1's
    scenario = parse_scenario(flood)
    run_scenario(scenario, FLOOD_SEED)
    with pytest.raises(ValueError, match="^frame 15: "):
        run_scenario(scenario, FLOOD_SEED + 2)
    force_workers(monkeypatch, workers)
    with pytest.raises(ValueError) as error:
        run_replications(scenario, 3, FLOOD_SEED)
    assert str(error.value) == FLOOD_ERROR
    assert_no_child()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_reports_the_lowest_failing_replication(workers, flood, tmp_path, monkeypatch, capsys):
    force_workers(monkeypatch, workers)
    assert main(run_argv(flood, tmp_path, seed=FLOOD_SEED)) == 3
    assert capsys.readouterr().err == f"error: {FLOOD_ERROR}\n"
    assert not (tmp_path / "o.csv").exists()
    assert_no_child()


def fail_replication_1(monkeypatch, fail):
    """Route run_scenario through a wrapper that calls fail() for replication 1."""
    run_scenario = rachsim.simulator.run_scenario

    def run(scenario, seed, replication_id=0, memo=None):
        if replication_id == 1:
            fail()
        return run_scenario(scenario, seed, replication_id, memo)

    monkeypatch.setattr(rachsim.simulator, "run_scenario", run)


@forks
def test_a_setting_error_from_a_child_keeps_its_fields(monkeypatch):
    test_pid = os.getpid()

    def fail():
        raise SettingError(f"refused in process {os.getpid()}", "load", "n_s")

    fail_replication_1(monkeypatch, fail)
    force_workers(monkeypatch, 2)
    with pytest.raises(SettingError) as error:
        run_replications(parse_scenario(STOCK), 3)
    assert error.value.fields == ("load", "n_s")
    assert str(error.value) != f"refused in process {test_pid}"  # it came from the child
    assert_no_child()


@forks
def test_a_child_killed_without_reporting_exits_three(tmp_path, monkeypatch, capsys):
    test_pid = os.getpid()

    def fail():
        assert os.getpid() != test_pid, "replication 1 ran in the test process"
        os.kill(os.getpid(), signal.SIGKILL)

    fail_replication_1(monkeypatch, fail)
    force_workers(monkeypatch, 2)
    assert main(run_argv(STOCK, tmp_path)) == 3
    assert capsys.readouterr().err == (
        "error: the process running replications 1 was killed by signal 9 without reporting\n"
    )
    assert not (tmp_path / "o.csv").exists()
    assert_no_child()


@forks
def test_a_child_whose_error_cannot_be_sent_exits_three(tmp_path, monkeypatch, capsys):
    def fail():
        error = ValueError("holds a function")
        error.callback = lambda: None  # a lambda cannot be pickled
        raise error

    fail_replication_1(monkeypatch, fail)
    force_workers(monkeypatch, 2)
    assert main(run_argv(STOCK, tmp_path)) == 3
    assert capsys.readouterr().err == (
        "error: the process running replications 1 exited with status 1 without reporting\n"
    )
    assert_no_child()


@forks
def test_a_failed_fork_kills_and_reaps_the_children_already_forked(monkeypatch):
    fork = os.fork
    forked = []

    def fork_once():
        if forked:
            raise OSError("no second fork")
        forked.append(fork())
        return forked[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    force_workers(monkeypatch, 3)
    with pytest.raises(OSError, match="no second fork"):
        run_replications(parse_scenario(TM2), 3)
    assert forked and forked[0] > 0
    assert_no_child()
