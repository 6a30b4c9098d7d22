"""run_replications across worker processes: same results and bytes, same errors, no child left."""

import errno
import importlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import rachsim.simulator
from rachsim.cli import main
from rachsim.model import SettingError
from rachsim.scenario import parse_scenario
from rachsim.simulator import run_replications, run_scenario
from conftest import force_workers, rachsim_env

SCENARIOS = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios"
TM2 = SCENARIOS / "tm2_beta.scn"
STOCK = SCENARIOS / "stock_wave.scn"

# run_replications forks only where _usable_cpus reads the affinity set
forks = pytest.mark.skipif(sys.platform != "linux", reason="run_replications forks only on Linux")

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
    fds = os.listdir("/proc/self/fd")
    with pytest.raises(OSError, match="no second fork"):
        run_replications([parse_scenario(TM2)], 3)
    assert forked and forked[0] > 0
    assert_no_child()
    assert os.listdir("/proc/self/fd") == fds  # nor the failed fork's pipe left open


@forks
def test_a_pipe_that_fails_to_open_leaves_no_child_and_no_descriptor(monkeypatch):
    # an error between the pipe and the recorded child (here the read end's
    # file) must leave no child unreaped and no descriptor open
    def no_file_for_a_descriptor(file, *args, **kwargs):
        if isinstance(file, int):
            raise OSError(errno.EMFILE, "Too many open files")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(rachsim.simulator, "open", no_file_for_a_descriptor, raising=False)
    force_workers(monkeypatch, 2)
    fds = os.listdir("/proc/self/fd")
    with pytest.raises(OSError, match="Too many open files"):
        run_replications([parse_scenario(TM2)], 2)
    assert_no_child()
    assert os.listdir("/proc/self/fd") == fds


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


# `python -m rachsim` with two usable CPUs whatever the affinity of the test,
# so that a run of enough frame rows forks a worker
ON_TWO_CPUS = (
    "import os, sys\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "from rachsim.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


INTERRUPTS = [signal.SIGTERM, signal.SIGHUP, signal.SIGINT]


@contextmanager
def forked_run(tmp_path, reps=300, ignored=None):
    """A forked TM2 `run` (300 replications take about 4 s) in a new process, once its
    worker exists: (process, workers).

    The process starts with SIGTERM, SIGHUP and SIGINT at their defaults, as a
    terminal's command does (a background job of a non-interactive shell
    starts with SIGINT ignored), but for the signal ignored, which it starts
    ignoring, as nohup does SIGHUP. It is killed, if it still runs, when the
    block ends.
    """
    def start_with_defaults():
        for signum in INTERRUPTS:
            signal.signal(signum, signal.SIG_IGN if signum == ignored else signal.SIG_DFL)

    argv = ["run", "--scenario", str(TM2), "--reps", str(reps), "--out", str(tmp_path / "o.csv")]
    proc = subprocess.Popen(
        [sys.executable, "-c", ON_TWO_CPUS, *argv], env=rachsim_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=start_with_defaults,
    )
    with proc:
        try:
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            deadline = time.monotonic() + 30
            while not (workers := children.read_text().split()) and proc.poll() is None:
                assert time.monotonic() < deadline, "no worker within 30 s"
                time.sleep(0.001)
            assert workers, "no worker was forked"
            yield proc, [int(pid) for pid in workers]
        finally:
            proc.kill()


def live(pid):
    """Whether the process runs: it exists and is no zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def end_within_a_second(proc, signum, workers) -> int:
    """Send signum to the process; its exit code, once it and its workers are gone.

    The worker's share takes seconds, so a process that waits for it fails.
    """
    proc.send_signal(signum)
    deadline = time.monotonic() + 1.0
    # the workers hold the output pipes too, so wait for the process alone
    code = proc.wait(timeout=60)
    while any(map(live, workers)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert time.monotonic() < deadline and not any(map(live, workers)), workers
    return code


@forks
@pytest.mark.parametrize("signum", INTERRUPTS)
def test_a_signal_ends_a_forked_run_in_one_line(signum, tmp_path):
    out = tmp_path / "o.csv"
    out.write_text("earlier\n")
    with forked_run(tmp_path) as (proc, workers):
        assert end_within_a_second(proc, signum, workers) == 128 + signum
        assert proc.communicate() == ("", f"error: interrupted by {signum.name}\n")
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "earlier\n"


@forks
@pytest.mark.parametrize("signum", INTERRUPTS)
def test_a_forked_run_started_with_a_signal_ignored_keeps_ignoring_it(
    signum, tmp_path, capsys
):
    # as `nohup rachsim run ...` does at a hangup, which reaches the whole job
    out = tmp_path / "o.csv"
    with forked_run(tmp_path, reps=40, ignored=signum) as (proc, workers):
        for pid in [proc.pid, *workers]:
            os.kill(pid, signum)
        stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (0, "")
    assert stdout == f"wrote {out}: 40 replications x 1000 frames (adaptive)\n"
    # the same file as a run that no signal reached
    argv = ["run", "--scenario", str(TM2), "--reps", "40", "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 0
    assert out.read_bytes() == (tmp_path / "p.csv").read_bytes()


@forks
def test_an_interrupted_mask_call_leaves_the_mask_as_it_was(monkeypatch):
    # pthread_sigmask runs pending signals' handlers after its system call,
    # so a Ctrl-C's KeyboardInterrupt can leave it with SIGINT just blocked
    force_workers(monkeypatch, 2)
    block = signal.pthread_sigmask

    def block_then_interrupt(how, signals):
        mask = block(how, signals)
        if how == signal.SIG_BLOCK and set(signals) == {signal.SIGINT, signal.SIGTERM, signal.SIGHUP}:
            raise KeyboardInterrupt
        return mask

    before = block(signal.SIG_BLOCK, [])
    fds = os.listdir("/proc/self/fd")
    monkeypatch.setattr(signal, "pthread_sigmask", block_then_interrupt)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_replications([parse_scenario(STOCK)], 2)
        assert block(signal.SIG_BLOCK, []) == before
    finally:
        block(signal.SIG_SETMASK, before)
    assert os.listdir("/proc/self/fd") == fds  # no pipe was left open
    assert_no_child()


@forks
def test_a_signal_during_the_numpy_random_import_is_raised_after_it(monkeypatch):
    # a bare except in numpy.random's Cython module code swallows the
    # exception a handler raises during the import; the stand-in swallows every
    # one. raise_signal aims at this thread, whose block holds it, as it holds a
    # signal sent to the process: a forking process has no other thread
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    def import_swallowing(name):
        try:
            signal.raise_signal(signal.SIGTERM)
        except BaseException:
            pass

    monkeypatch.setattr(importlib, "import_module", import_swallowing)
    force_workers(monkeypatch, 2)
    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        with pytest.raises(Interrupted):
            run_replications([parse_scenario(STOCK)], 2)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert_no_child()


IMPORT = (
    "import json, os\n"
    "before = dict(os.environ)\n"
    "import rachsim.cli\n"
    "print(json.dumps([os.listdir('/proc/self/task'), dict(os.environ) == before]))\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="lists the process's threads in /proc")
@pytest.mark.parametrize("openblas_threads", [None, "2"])
def test_importing_rachsim_starts_no_thread_and_leaves_the_environment(openblas_threads):
    # numpy's OpenBLAS starts a thread per usable CPU beyond the first unless
    # OPENBLAS_NUM_THREADS says 1 as it loads; the package sets the variable
    # over its numpy import, then puts back the caller's value or deletes it.
    # On one usable CPU (taskset -c 0) OpenBLAS starts no thread either way.
    env = rachsim_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT], env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    threads, unchanged = json.loads(proc.stdout)
    assert len(threads) == 1
    assert unchanged


@forks
def test_one_usable_cpu_off_linux_forks_nothing(monkeypatch):
    # off Linux, where _usable_cpus reads neither the affinity set nor the
    # thread list, every job runs in this process, with the same results
    stock = parse_scenario(STOCK)
    variants = [stock.with_controller(kind) for kind in ("adaptive", "fixed", "acb", "max")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = run_replications(variants, 5)  # 400 frame rows: two workers on two CPUs

    def no_fork():
        raise AssertionError("a worker was forked")

    with monkeypatch.context() as patch:  # numpy.testing reads sys.platform too
        patch.setattr(sys, "platform", "darwin")
        assert rachsim.simulator._usable_cpus() == 1
        patch.setattr(os, "fork", no_fork)
        alone = run_replications(variants, 5)
    for repset, expected in zip(alone, forked, strict=True):
        assert_same_set(repset, expected, 5)
    assert_no_child()


@forks
def test_a_second_thread_leaves_one_usable_cpu(monkeypatch):
    # a fork copies only the calling thread, and Python 3.12 and later warn on
    # it in a process with threads, so while a second thread lives, be it the
    # caller's or numpy's OpenBLAS's, every job runs in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert rachsim.simulator._usable_cpus() == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert rachsim.simulator._usable_cpus() == 1
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


@forks
def test_a_worker_dies_with_its_killed_parent(tmp_path):
    with forked_run(tmp_path) as (proc, workers):
        assert end_within_a_second(proc, signal.SIGKILL, workers) == -signal.SIGKILL


@forks
def test_a_worker_ends_at_its_own_sigterm(tmp_path):
    # at the default action, not by the parent's handler, which would unwind
    # the worker's copy of the command as an interrupted command
    with forked_run(tmp_path, reps=40) as (proc, [worker]):
        os.kill(worker, signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stdout) == (3, "")
    assert stderr.startswith("error: the process running adaptive replications 1, 3, 5, ..., 39")
    assert stderr.endswith(" was killed by signal 15 without reporting\n")
