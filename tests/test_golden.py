"""Golden outputs: SHA-256 digests of CLI files for a fixed seed.

The digests pin the exact bytes of the run, compare and table outputs, so
a refactor that is meant to keep behaviour shows here if it does not. A
deliberate change of the random stream or of the output format updates
these digests together with a CHANGES.md entry saying why.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

from rachsim.cli import main
from rachsim.scenario import default_scenario, format_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios"
TM2 = SCENARIOS / "tm2_beta.scn"

GOLDEN = {
    "run.csv": "0c94b93673a4ad5ca041084fbbc85e7bba6865ed994709e0c4597f4404664bde",
    "compare.csv": "f5a6df8fc1d3e62b734b3694497589260742bd718699171f92a9c5493115bf47",
    "table.csv": "70c8cec2250b8a213f44370b5a2964ecd5f5a93e9e485a8dd21e25899039326f",
    "table_sweep.csv": "e72806c5369ef21cb237e961aaf2da0584073b6f48df5ada77919c2784948a8f",
    # the benchmark's table workload: 70 001 sweep points
    "fine.csv": "b68c8d010e8c6ebe619b0fe1fe66d9e68ab3679d144539ce10f89647ab04c671",
    "fine_sweep.csv": "15c73afe1538645fdb1266ba0a6adffca1acc5eaa274e06ff921882c2aa18652",
    # the adaptive controller's memos: 1000 TM2 frames, whose observations
    # and decision loads recur, and a window of 3, whose smoothed loads are
    # arbitrary floats
    "tm2.csv": "31e0033cd8db2ad9e35f4f02ef6c7192d0c2336e500154d880949720c88bee8b",
    "window3.csv": "18e885783bda953cb9b52eeec4811f1a174f1bc873b8554d09eea9b85cde5651",
    # the pending devices' order: barring deferrals longer than the
    # backoff window, and every retrier due again the next frame
    "acb9.csv": "c6b85a24dd3cc3cc085eb06a598c4290aeccc7a100020796e947ea1dc491b30f",
    "backoff1.csv": "488925f8b56b56c16291122d198bbc076d28d6686ca8e2609d00c786488efc6b",
    # the sweep's runs of one n_s: a free subframe, whose load 0 ties every
    # count, with reprs such as 1.1099999999999999; and one count, one run
    "zero.csv": "e5e9f0d9ed9683698353619c69a27d7129963ca322124cb11bee19b09cf5ad3c",
    "zero_sweep.csv": "009747a89739de58e274f7099bb891c0ee71e88fd47c1a19ecf2ad4d73e6e634",
    "single.csv": "e18156465c57a8f0a7f5ef702311bdf6313fd05b4ae898193eeeebfa72563233",
    "single_sweep.csv": "d1ac866ca63e0047bf507d4befe55fa832bf63e5ade2ec8532656b3ffda06963",
    # the benchmark's run and compare invocations, over its 5 replications
    "tm2_bench.csv": "c2e04c3c9afd780a738f0e22f1850e148a11222eb6d74da7a4fa75f2a8542b55",
    "stock_bench.csv": "98d78f10ea00fa74460a2616c7c6397ee89f522861d957d3d23a217b6ef2193f",
}


def test_golden_output_digests(tmp_path, capsys):
    scenario = default_scenario()
    stock = tmp_path / "stock.scn"
    stock.write_text(format_scenario(scenario))
    window3 = tmp_path / "window3.scn"
    window3.write_text(
        format_scenario(replace(scenario, controller=replace(scenario.controller, window=3)))
    )
    acb9 = tmp_path / "acb9.scn"
    acb9.write_text(format_scenario(replace(
        scenario, backoff_window=2, controller=replace(scenario.controller, acb_window=9)
    )))
    backoff1 = tmp_path / "backoff1.scn"
    backoff1.write_text(format_scenario(replace(scenario, backoff_window=1)))
    assert main(["run", "--scenario", str(stock), "--controller", "adaptive",
                 "--seed", "1", "--reps", "3", "--out", str(tmp_path / "run.csv")]) == 0
    assert main(["compare", "--scenario", str(stock),
                 "--controllers", "adaptive,fixed,acb,max", "--seed", "1",
                 "--reps", "3", "--out", str(tmp_path / "compare.csv")]) == 0
    assert main(["table", "--alpha", "25", "--step", "1",
                 "--out", str(tmp_path / "table.csv")]) == 0
    assert main(["table", "--alpha", "25", "--max-load", "700", "--step", "0.01",
                 "--out", str(tmp_path / "fine.csv")]) == 0
    assert main(["table", "--alpha", "0", "--max-load", "50", "--step", "0.37",
                 "--out", str(tmp_path / "zero.csv")]) == 0
    assert main(["table", "--alpha", "25", "--ns-min", "4", "--ns-max", "4", "--step", "1",
                 "--out", str(tmp_path / "single.csv")]) == 0
    assert main(["run", "--scenario", str(TM2), "--seed", "1", "--reps", "2",
                 "--out", str(tmp_path / "tm2.csv")]) == 0
    assert main(["run", "--scenario", str(window3), "--controller", "adaptive",
                 "--seed", "1", "--reps", "3", "--out", str(tmp_path / "window3.csv")]) == 0
    assert main(["run", "--scenario", str(acb9), "--controller", "acb",
                 "--seed", "1", "--reps", "3", "--out", str(tmp_path / "acb9.csv")]) == 0
    assert main(["run", "--scenario", str(backoff1), "--controller", "fixed",
                 "--seed", "1", "--reps", "3", "--out", str(tmp_path / "backoff1.csv")]) == 0
    assert main(["run", "--scenario", str(TM2), "--controller", "adaptive", "--seed", "1",
                 "--reps", "5", "--out", str(tmp_path / "tm2_bench.csv")]) == 0
    assert main(["compare", "--scenario", str(SCENARIOS / "stock_wave.scn"),
                 "--controllers", "adaptive,fixed,acb,max", "--seed", "1",
                 "--reps", "5", "--out", str(tmp_path / "stock_bench.csv")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }
    assert digests == GOLDEN
