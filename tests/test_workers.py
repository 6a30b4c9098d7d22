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


def assert_same_set(repset, expected, n_reps):
    """Two replication sets equal field for field: ids, columns, means (NaN equals NaN), CI."""
    assert repset.replication_ids == expected.replication_ids == list(range(n_reps))
    for table, other in ((expected.columns, repset.columns), (expected.means, repset.means)):
        assert table.keys() == other.keys()
        for name, column in table.items():
            assert other[name].dtype == column.dtype
            np.testing.assert_array_equal(other[name], column)
    np.testing.assert_array_equal(repset.ci95_utility, expected.ci95_utility)


@pytest.mark.parametrize("path, kind", [(TM2, "adaptive"), (STOCK, "acb")])
def test_worker_count_does_not_change_a_replication_set(path, kind, monkeypatch):
    scenario = parse_scenario(path).with_controller(kind)
    sets = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        sets.append(run_replications([scenario], 5, 11)[0])
        assert_no_child()
    for other in sets[1:]:
        assert_same_set(other, sets[0], 5)


@pytest.mark.parametrize(
    "path, kinds, n_reps",
    [(STOCK, ("adaptive", "fixed", "acb", "max"), 5), (TM2, ("adaptive", "fixed"), 3)],
)
def test_one_call_over_controllers_equals_one_call_each(path, kinds, n_reps, monkeypatch):
    # the jobs of all controllers are dealt across the workers together, so
    # a share mixes controllers; each set must still be its controller's own
    variants = [parse_scenario(path).with_controller(kind) for kind in kinds]
    force_workers(monkeypatch, 1)
    alone = [run_replications([variant], n_reps, 11)[0] for variant in variants]
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        together = run_replications(variants, n_reps, 11)
        assert_no_child()
        assert len(together) == len(alone)
        for repset, expected in zip(together, alone):
            assert_same_set(repset, expected, n_reps)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", str(TM2), "--reps", "3", "--seed", "4"],
        ["compare", "--scenario", str(STOCK), "--controllers", "adaptive,fixed,acb,max",
         "--reps", "5", "--seed", "4"],
    ],
)
def test_worker_count_does_not_change_a_csv(argv, tmp_path, monkeypatch, capsys):
    # one --out path, since `run` prints it: stdout must match byte for byte too
    out = tmp_path / "o.csv"
    texts, printed = [], []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        assert main(argv + ["--out", str(out)]) == 0
        assert_no_child()
        texts.append(out.read_bytes())
        printed.append(capsys.readouterr().out)
    assert texts[1] == texts[0] and texts[2] == texts[0]
    assert printed[0] and printed[1] == printed[0] and printed[2] == printed[0]


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
        run_replications([scenario], 3, FLOOD_SEED)
    assert str(error.value) == FLOOD_ERROR
    assert_no_child()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_reports_the_lowest_failing_replication(workers, flood, tmp_path, monkeypatch, capsys):
    force_workers(monkeypatch, workers)
    assert main(run_argv(flood, tmp_path, seed=FLOOD_SEED)) == 3
    assert capsys.readouterr().err == f"error: {FLOOD_ERROR}\n"
    assert not (tmp_path / "o.csv").exists()
    assert_no_child()


# adaptive fails its replication 1 and acb every replication, so with three
# workers the share holding acb's replication 0 fails on a lower replication
# than any of adaptive's: the first controller's error must still win
FLOOD_BY_KIND = {
    "adaptive": "frame 27: 142 pending devices plus 59 arrivals exceed the pool bound of 180",
    "acb": "frame 5: 138 pending devices plus 47 arrivals exceed the pool bound of 180",
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kinds", [("adaptive", "acb"), ("acb", "adaptive")])
def test_the_first_failing_controller_is_raised(kinds, workers, flood, monkeypatch):
    variants = [parse_scenario(flood).with_controller(kind) for kind in kinds]
    force_workers(monkeypatch, 1)
    for variant in variants:  # each fails alone, as the one-call-per-controller loop saw it
        with pytest.raises(ValueError, match=FLOOD_BY_KIND[variant.controller.kind.value]):
            run_replications([variant], 3, FLOOD_SEED)
    force_workers(monkeypatch, workers)
    with pytest.raises(ValueError) as error:
        run_replications(variants, 3, FLOOD_SEED)
    assert str(error.value) == FLOOD_BY_KIND[kinds[0]]
    assert_no_child()


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_reports_the_first_failing_controller(
    workers, flood, tmp_path, monkeypatch, capsys
):
    force_workers(monkeypatch, workers)
    out = tmp_path / "o.csv"
    assert main(["compare", "--scenario", str(flood), "--controllers", "adaptive,acb",
                 "--reps", "3", "--seed", str(FLOOD_SEED), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {FLOOD_BY_KIND['adaptive']}\n"
    assert not out.exists()
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
        run_replications([parse_scenario(STOCK)], 3)
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
        "error: the process running adaptive replications 1 was killed by signal 9"
        " without reporting\n"
    )
    assert not (tmp_path / "o.csv").exists()
    assert_no_child()


@forks
def test_a_dead_child_names_its_controllers_and_replications(monkeypatch):
    test_pid = os.getpid()

    def fail():  # replication 1 of the second controller runs here: it passes
        if os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)

    fail_replication_1(monkeypatch, fail)
    force_workers(monkeypatch, 2)
    stock = parse_scenario(STOCK)
    with pytest.raises(ChildProcessError) as error:
        run_replications([stock.with_controller("fixed"), stock.with_controller("max")], 3)
    # the child's share is jobs 1, 3 and 5 of (controller, replication) order
    assert str(error.value) == (
        "the process running fixed replications 1 and max replications 0, 2"
        " was killed by signal 9 without reporting"
    )
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
        "error: the process running adaptive replications 1 exited with status 1"
        " without reporting\n"
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
        run_replications([parse_scenario(TM2)], 3)
    assert forked and forked[0] > 0
    assert_no_child()


@forks
@pytest.mark.parametrize(
    "argv, forked",
    [
        # 4 controllers x 5 reps x 20 frames = 400 frame rows: two workers
        (["compare", "--scenario", str(STOCK), "--controllers", "adaptive,fixed,acb,max",
          "--reps", "5"], 1),
        (["compare", "--scenario", str(STOCK), "--controllers", "adaptive,fixed,acb,max",
          "--reps", "1"], 0),
        (["run", "--scenario", str(STOCK), "--reps", "5"], 0),
        (["run", "--scenario", str(TM2), "--reps", "5"], 1),
    ],
)
def test_forks_per_command_on_two_cpus(argv, forked, tmp_path, monkeypatch):
    fork = os.fork
    pids = []

    def counted_fork():
        pids.append(fork())  # the child appends to its own copy
        return pids[-1]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted_fork)
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0
    assert len(pids) == forked
    assert_no_child()
