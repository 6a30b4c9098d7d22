"""Mutants the tier-1 suite must kill: one-line changes of src/rachsim, each run through it.

Each entry of MUTANTS names a module of the package, one line of it (its text
without the indentation, which must occur exactly once), the line that
replaces it, and, for a mutant no test can tell from the code, the reason it
is equivalent. The script first runs the suite on an unmutated copy of src/,
which must pass, then each mutant on a fresh copy: the tree itself is never
written. The suite runs with -x, so a run stops at the first test that kills
the mutant. The golden digests (tests/test_golden.py, tests/test_readme.py)
and acceptance criteria 8a-c are left out: the digests fail under any change
of an output byte and 8a-c fail at the unmutated code, so neither tells
which behaviour a mutant broke.

Run from the repository root, on Linux with at least two usable CPUs: with
one, numpy's OpenBLAS starts no thread whatever OPENBLAS_NUM_THREADS says,
so no test can kill the mutants that let it start one.

    PYTHONPATH=src python tests/mutants.py

It prints one row per mutant, the kill matrix, and exits 1 if an old line
does not occur exactly once, if the unmutated suite fails, if a mutant
expected to die survives, or if a mutant called equivalent dies. Off Linux
or on one usable CPU it runs nothing and exits 2. On a 2-vCPU VM the whole
matrix takes about four minutes. A surviving mutant is mended by a test
that kills it, not by dropping it from the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rachsim"

PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
    "--ignore=tests/test_golden.py", "--ignore=tests/test_readme.py",
    *(
        f"--deselect=tests/test_acceptance.py::test_criterion_{name}"
        for name in (
            "8a_aggregate_utility_improvement",
            "8b_frame_with_doubled_positive_utility",
            "8c_per_frame_win_fraction",
        )
    ),
]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a file of src/rachsim
    old: str  # the line, without its indentation
    new: str  # its replacement, indented as the old line
    equivalent: str | None = None  # why no test can kill it, if none can


MUTANTS = [
    Mutant(
        "_backoff: a device retries after its last allowed failure", "simulator.py",
        "retriers = attempts[attempts < retry_limit]",
        "retriers = attempts[attempts <= retry_limit]",
    ),
    Mutant(
        "_defer: delays over window + 1 frames", "simulator.py",
        "return frame + 1 + (rng.random(n) * window).astype(np.int64)",
        "return frame + 1 + (rng.random(n) * (window + 1)).astype(np.int64)",
    ),
    Mutant(
        "barred devices gain an attempt", "simulator.py",
        "attempts = np.concatenate((attempts, barred, retriers + 1))",
        "attempts = np.concatenate((attempts, barred + 1, retriers + 1))",
    ),
    Mutant(
        "classify_load_branch: light only above pairs / e", "estimator.py",
        "if idle >= pairs / math.e:",
        "if idle > pairs / math.e:",
        equivalent="no pair count 1..MAX_PAIRS makes pairs / e an integer float",
    ),
    Mutant(
        "_winners: the largest tied count wins", "optimizer.py",
        "return (utilities >= utilities.max(axis=0) - slack).argmax(axis=0)",
        "return len(utilities) - 1 - (utilities >= utilities.max(axis=0) - slack)[::-1]"
        ".argmax(axis=0)",
    ),
    Mutant(
        "LOAD_CAP_FACTOR 4 -> 3", "estimator.py",
        "LOAD_CAP_FACTOR = 4.0",
        "LOAD_CAP_FACTOR = 3.0",
    ),
    Mutant(
        "decide_subframes: the table bound itself saturates", "optimizer.py",
        "if load > table_max_load:",
        "if load >= table_max_load:",
    ),
    Mutant(
        "smoothing takes the last estimate only", "simulator.py",
        "smoothed = sum(history) / len(history)",
        "smoothed = raw",
    ),
    Mutant(
        "a fallback keeps the current n_s", "simulator.py",
        "self.n_s = self._config.n_s_max",
        "pass",
    ),
    Mutant(
        "win fraction counts only strict wins", "cli.py",
        "wins = {(a, b): float(np.mean(means[a] >= means[b])) for a, b in pairs}",
        "wins = {(a, b): float(np.mean(means[a] > means[b])) for a, b in pairs}",
    ),
    Mutant(
        "CI halfwidth with ddof=0", "simulator.py",
        '1.96 * columns["utility"].std(axis=0, ddof=1) / math.sqrt(len(runs)) if len(runs) > 1',
        '1.96 * columns["utility"].std(axis=0, ddof=0) / math.sqrt(len(runs)) if len(runs) > 1',
    ),
    Mutant(
        "_usable_cpus: forks with any number of threads", "simulator.py",
        'if sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1:',
        'if sys.platform == "linux" and len(os.listdir("/proc/self/task")) >= 1:',
    ),
    Mutant(
        "numpy imported without OPENBLAS_NUM_THREADS=1", "__init__.py",
        'if "numpy" not in sys.modules:',
        'if "numpy" in sys.modules:',
    ),
    Mutant(
        "the caller's OPENBLAS_NUM_THREADS used over its numpy import", "__init__.py",
        'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
        'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")',
    ),
    Mutant(
        "OPENBLAS_NUM_THREADS left set when the caller had none", "__init__.py",
        'del os.environ["OPENBLAS_NUM_THREADS"]',
        "pass",
    ),
    Mutant(
        "the caller's OPENBLAS_NUM_THREADS not put back", "__init__.py",
        'os.environ["OPENBLAS_NUM_THREADS"] = _caller',
        "pass",
    ),
]


def mutated(mutant: Mutant) -> str | None:
    """The module's text with the mutant applied, or None if its old line does not
    occur exactly once."""
    lines = (PACKAGE / mutant.module).read_text(encoding="utf-8").splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(at) != 1:
        return None
    line = lines[at[0]]
    lines[at[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    return "".join(lines)


def run_suite(mutant: Mutant | None) -> tuple[bool, str, float]:
    """Run the suite on a fresh copy of src/ with the mutant applied, if any:
    (whether the suite failed, the first failing test or why the run ended, seconds).

    The unmutated suite passes first, so any failure of a mutant's run, an
    import error included, is the mutant's doing."""
    with tempfile.TemporaryDirectory(prefix="rachsim-mutant-") as tmp:
        package = Path(tmp) / "rachsim"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            (package / mutant.module).write_text(mutated(mutant), encoding="utf-8")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=tmp + (os.pathsep + path if path else ""))
        start = time.monotonic()
        proc = subprocess.run(
            PYTEST, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        seconds = time.monotonic() - start
    if proc.returncode == 0:
        return False, "", seconds
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    if failed:
        return True, failed[0].split(" - ")[0].split(" ", 1)[1], seconds
    return True, f"pytest exit status {proc.returncode}: {lines[-1] if lines else ''}", seconds


def main() -> int:
    if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
        print("mutants.py needs Linux and at least two usable CPUs", file=sys.stderr)
        return 2
    stale = [mutant.name for mutant in MUTANTS if mutated(mutant) is None]
    if stale:
        print("old line not found exactly once: " + "; ".join(stale))
        return 1
    failed, first, seconds = run_suite(None)
    if failed:
        print(f"the unmutated suite fails: {first}")
        return 1
    print(f"unmutated suite passes ({seconds:.0f} s)")
    width = max(len(mutant.name) for mutant in MUTANTS)
    print(f"{'mutant':<{width}}  {'expected':<10}  outcome")
    wrong = 0
    for mutant in MUTANTS:
        killed, first, seconds = run_suite(mutant)
        expected = "equivalent" if mutant.equivalent else "killed"
        if killed:
            outcome = f"killed by {first}"
        else:
            outcome = "survived" + (f" ({mutant.equivalent})" if mutant.equivalent else "")
        ok = killed != bool(mutant.equivalent)
        wrong += not ok
        print(f"{mutant.name:<{width}}  {expected:<10}  {outcome} ({seconds:.0f} s)"
              + ("" if ok else "  <- WRONG"))
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
