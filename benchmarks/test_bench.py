"""Self-test of the benchmark: metric names and units, and the output checks.

Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", "all", "--smoke",
         "--seconds", "0.5", "--trace", str(trace), "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_workloads():
    assert SPEC["command"] == ["python3", "benchmarks/bench.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    result = smoke(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for workload in bench.WORKLOADS:
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {
            key.split(".", 1)[1]: metric["unit"]
            for key, metric in result["metrics"].items()
            if key.startswith(workload + ".")
        }
        assert got == want, workload


def test_reference_kernel_does_fixed_work():
    assert reference.kernel() == reference.kernel()


@pytest.fixture(scope="module")
def run_csv(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("run") / "run.csv"
    rc = bench.import_rachsim().main(
        ["run", "--scenario", str(HERE / "scenarios" / "tm2_beta.scn"),
         "--controller", "adaptive", "--seed", "3", "--reps", "1", "--out", str(out)]
    )
    assert rc == 0
    return out.read_text(encoding="utf-8")


def corrupt(text: str, line: int, column: str, delta: int) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    k = checks.RUN_HEADER.index(column)
    cells[k] = str(int(cells[k]) + delta)
    lines[line] = ",".join(cells) + "\n"
    return "".join(lines)


def test_clean_run_output_passes(run_csv):
    problems, attempts = checks.check_run(run_csv, 1, 1000, 25.0, 64)
    assert problems == [] and attempts > 25_000


@pytest.mark.parametrize("column", ["successes", "collided_devices", "contenders"])
def test_corrupted_row_counts_as_failure(run_csv, column):
    problems, _ = checks.check_run(corrupt(run_csv, 400, column, 1), 1, 1000, 25.0, 64)
    assert any(p.startswith("row 401:") for p in problems)  # file line 401


def test_missing_row_counts_as_failure(run_csv):
    text = "".join(run_csv.splitlines(keepends=True)[:-1])
    problems, _ = checks.check_run(text, 1, 1000, 25.0, 64)
    assert problems


def test_corrupted_invocation_is_counted(run_csv, tmp_path):
    runner = bench.Runner(None, bench.WORKLOADS["tm2_run"], 1, True, tmp_path)
    out = tmp_path / "run.csv"
    out.write_text(corrupt(run_csv, 400, "successes", 1), encoding="utf-8")
    assert runner.verify(3, [out]) is None
    assert runner.failed == 1


def test_table_check_uses_its_own_argmax():
    rows = [(float(i), checks.brute_argmax(float(i), 25.0, 64, 2, 8)) for i in range(701)]
    table = [rows[0]] + [r for prev, r in zip(rows, rows[1:]) if r[1] != prev[1]]

    def csv_text(header, pairs):
        return header + "\n" + "".join(f"{load!r},{n}\n" for load, n in pairs)

    thresholds = csv_text("load_threshold,n_s", table)
    assert checks.check_table(thresholds, csv_text("load,n_s", rows), 25.0, 700.0, 1.0, 1)[0] == []
    load, n_s = rows[350]
    rows[350] = (load, 8 if n_s != 8 else 2)  # a wrong argmax on one row
    problems, _ = checks.check_table(thresholds, csv_text("load,n_s", rows), 25.0, 700.0, 1.0, 1)
    assert any(p.startswith("sweep row 352:") for p in problems)


def test_eta_tolerance_flags_a_biased_total():
    assert checks._eta_gap("x", 10_000.0, 10_000.0) == []
    assert checks._eta_gap("x", 9_000.0, 10_000.0)
