"""Subframe optimizer: integer argmax oracle, closed form, lookup table."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import rachsim.optimizer
from rachsim.cli import main
from rachsim.model import RachConfig, utility_of_load
from rachsim.optimizer import (
    CERTIFIED_RUN,
    MAX_GRID_POINTS,
    NEAR_TIE_RTOL,
    SWEEP_BLOCK,
    LoadGrid,
    LookupTable,
    closed_form_decision,
    decide_subframes,
    optimal_subframes_closed_form,
    optimal_subframes_integer,
    stationary_alpha_limit,
    subframe_lookup_table,
)

from conftest import bisect_root

ALPHA2 = RachConfig(alpha=2.0)
ALPHA25 = RachConfig(alpha=25.0)


def tie_slack(load, config):
    """How close to the best utility a count must come to tie with it."""
    return NEAR_TIE_RTOL * (1.0 + load + config.alpha * config.n_s_max)


def reference_argmax(load, config):
    """The tie rule by math.exp, count by count: the smallest count tied with the best."""
    utilities = [
        (load * math.exp(-load / (n_s * config.n_preambles)) - config.alpha * n_s, n_s)
        for n_s in config.subframe_range
    ]
    best = max(u for u, _ in utilities)
    return next(n_s for u, n_s in utilities if u >= best - tie_slack(load, config))


def test_low_alpha_anchor_points():
    assert optimal_subframes_integer(10, ALPHA2).n_s == 2
    assert optimal_subframes_integer(70, ALPHA2).n_s == 6
    assert optimal_subframes_integer(100, ALPHA2).n_s == 8


def test_high_alpha_forces_minimum():
    cfg = RachConfig(alpha=100.0)
    assert all(
        optimal_subframes_integer(load, cfg).n_s == 2 for load in range(0, 701, 7)
    )


def test_zero_alpha_forces_maximum_for_positive_load():
    cfg = RachConfig(alpha=0.0)
    assert all(
        optimal_subframes_integer(load, cfg).n_s == 8 for load in range(1, 701, 7)
    )
    # at zero load every count ties at utility 0; ties break low
    assert optimal_subframes_integer(0, cfg).n_s == 2


def test_decision_reports_achieved_utility():
    d = optimal_subframes_integer(70, ALPHA2)
    assert d.achieved_utility == utility_of_load(70, 6, ALPHA2)
    assert not d.clamped


def test_argmax_dominates_every_other_count():
    # the tie rule: the choice comes within the slack of every count, and
    # each smaller count falls short of the best by more than the slack
    rng = np.random.default_rng(5)
    for _ in range(300):
        load = float(rng.uniform(0, 2000))
        cfg = RachConfig(alpha=float(rng.uniform(0, 60)))
        d = optimal_subframes_integer(load, cfg)
        utilities = {n_s: utility_of_load(load, n_s, cfg) for n_s in cfg.subframe_range}
        best = max(utilities.values())
        assert d.achieved_utility == utilities[d.n_s]
        assert d.achieved_utility >= best - tie_slack(load, cfg)
        assert all(utilities[n_s] < best - tie_slack(load, cfg) for n_s in range(2, d.n_s))


def test_closed_form_anchor_interval():
    r = optimal_subframes_closed_form(70, ALPHA2)
    assert 5.0 < r < 7.0
    assert closed_form_decision(70, ALPHA2).n_s == 6


def test_closed_form_no_real_solution():
    assert optimal_subframes_closed_form(100, RachConfig(alpha=50.0)) is None
    # just above the limit: no interior maximum either
    cfg = RachConfig(alpha=stationary_alpha_limit(64) + 0.01)
    assert optimal_subframes_closed_form(100, cfg) is None


def test_closed_form_constructed_inverse():
    # pick the small root x* of x^2 exp(-x) = alpha/n_p via an independent
    # bisection, place the load at 2 * n_p * x*, and the closed form must
    # unwind to exactly 2 subframes
    alpha, n_p = 25.0, 64
    c = alpha / n_p
    x_star = bisect_root(lambda x: x * x * math.exp(-x) - c, 1e-9, 2.0)
    load = 2 * n_p * x_star
    r = optimal_subframes_closed_form(load, RachConfig(alpha=alpha))
    assert r == pytest.approx(2.0, rel=1e-9)


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        optimal_subframes_closed_form(0, ALPHA2)
    with pytest.raises(ValueError):
        optimal_subframes_closed_form(-5, ALPHA2)
    with pytest.raises(ValueError):
        optimal_subframes_closed_form(100, RachConfig(alpha=0.0))


def test_closed_form_agrees_with_integer_argmax():
    rng = np.random.default_rng(17)
    for _ in range(400):
        load = float(rng.uniform(1, 700))
        alpha = float(rng.uniform(1e-3, 34))
        cfg = RachConfig(alpha=alpha)
        assert closed_form_decision(load, cfg).n_s == optimal_subframes_integer(load, cfg).n_s


def test_closed_form_is_stationary():
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(100):
        load = float(rng.uniform(1, 700))
        cfg = RachConfig(alpha=float(rng.uniform(1e-2, 34)))
        r = optimal_subframes_closed_form(load, cfg)

        def u_at(s):
            return load * math.exp(-load / (s * cfg.n_preambles)) - cfg.alpha * s

        fd = (u_at(r + h) - u_at(r - h)) / (2 * h)
        assert abs(fd) <= 1e-6 * max(1.0, abs(u_at(r)))


def test_decide_saturates_beyond_table_range():
    d = decide_subframes(1e6, ALPHA25, table_max_load=700.0)
    assert d.n_s == 8
    assert d.clamped
    d = decide_subframes(70, ALPHA2, table_max_load=700.0)
    assert d.n_s == 6
    assert not d.clamped


def test_decide_zero_load():
    d = decide_subframes(0, ALPHA25)
    assert d.n_s == 2
    assert d.achieved_utility == -50.0


def test_lookup_table_alpha25_saturation_threshold():
    table = subframe_lookup_table(ALPHA25, 1.0, 700.0)
    first_max = next(t for t, n in table.entries if n == 8)
    assert 500 <= first_max <= 600


def test_lookup_table_degenerate_alphas():
    assert subframe_lookup_table(RachConfig(alpha=50.0), 1.0, 700.0).entries == ((0.0, 2),)
    assert subframe_lookup_table(RachConfig(alpha=100.0), 1.0, 700.0).entries == ((0.0, 2),)
    # alpha = 0: zero load ties at utility 0 and breaks low, every
    # positive load wants the maximum
    table = subframe_lookup_table(RachConfig(alpha=0.0), 1.0, 700.0)
    assert table.entries == ((0.0, 2), (1.0, 8))


def test_lookup_table_round_trip():
    # thresholds live on the sweep grid; deployment loads are integral, so
    # the round trip is exact at grid resolution
    table = subframe_lookup_table(ALPHA25, 1.0, 700.0)
    rng = np.random.default_rng(29)
    for _ in range(500):
        load = float(rng.integers(0, 701))
        assert table.lookup(load) == optimal_subframes_integer(load, ALPHA25).n_s


def test_lookup_table_between_grid_points_matches_grid_decision():
    # off-grid queries resolve to the decision at the grid point below
    table = subframe_lookup_table(ALPHA25, 1.0, 700.0)
    for threshold, n_s in table.entries:
        assert table.lookup(threshold + 0.5) == n_s


def test_lookup_table_validation():
    with pytest.raises(ValueError):
        LookupTable(entries=())
    with pytest.raises(ValueError):
        LookupTable(entries=((0.0, 2), (0.0, 3)))
    with pytest.raises(ValueError):
        subframe_lookup_table(ALPHA25, 0.0, 700.0)
    with pytest.raises(ValueError):
        subframe_lookup_table(ALPHA25, 1.0, -1.0)


def test_load_grid_point_bound():
    # the check runs on the point count, before any point is generated
    grid = LoadGrid.up_to(MAX_GRID_POINTS - 1, 1.0)  # exactly MAX_GRID_POINTS points
    assert next(iter(grid)) == 0.0
    with pytest.raises(ValueError, match="points"):
        LoadGrid.up_to(float(MAX_GRID_POINTS), 1.0)
    with pytest.raises(ValueError, match="points"):
        LoadGrid.up_to(1e300, 1e-300)  # the quotient overflows to inf


def test_largest_grid_builds_in_memory_bounded_per_block():
    # one float per point of the whole grid would take 80 MB
    tracemalloc.start()
    try:
        table = subframe_lookup_table(ALPHA25, 1.0, MAX_GRID_POINTS - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.grid.points == MAX_GRID_POINTS
    # past a load of 935 two subframes win throughout
    assert table.entries == subframe_lookup_table(ALPHA25, 1.0, 2000.0).entries
    assert peak < 16e6


# ---------------------------------------------------------------------------
# The vectorised table sweep against a math.exp argmax, point by point


def scalar_sweep(config, grid):
    """The tie rule by math.exp at every point of the grid."""
    return [reference_argmax(load, config) for load in grid]


def assert_table_is_scalar_sweep(config, step, max_load, points):
    table = subframe_lookup_table(config, step, max_load)
    assert table.grid == LoadGrid(step, points)
    loads = list(table.grid)
    expected = scalar_sweep(config, table.grid)
    changes = [
        (load, n_s)
        for i, (load, n_s) in enumerate(zip(loads, expected))
        if i == 0 or n_s != expected[i - 1]
    ]
    assert table.entries == tuple(changes)
    assert [table.lookup(load) for load in loads] == expected


SWEEP_CONFIGS = [
    RachConfig(alpha=0.0),  # every count ties at load 0
    RachConfig(alpha=2.0),
    RachConfig(alpha=25.0),
    RachConfig(alpha=50.0),  # above stationary_alpha_limit: the boundary wins
    RachConfig(alpha=25.0, n_s_min=4, n_s_max=4),  # one candidate, no runner-up
    RachConfig(alpha=0.2, n_preambles=1),
    RachConfig(alpha=10.0, n_preambles=64, n_s_min=1, n_s_max=10),
]


@pytest.mark.parametrize("config", SWEEP_CONFIGS)
@pytest.mark.parametrize("points", [15, 16, 17, 50])
def test_vectorised_sweep_matches_scalar_argmax(monkeypatch, config, points):
    # blocks of 16 points: grids of block - 1, block and block + 1 points
    # and one of several blocks, so the last n_s is carried across blocks
    monkeypatch.setattr(rachsim.optimizer, "SWEEP_BLOCK", 16)
    step = 12.0 * config.n_preambles / (points - 1)
    assert_table_is_scalar_sweep(config, step, step * (points - 1), points)


@pytest.mark.parametrize("points", [SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1])
def test_vectorised_sweep_at_the_real_block_size(points):
    step = 700.0 / SWEEP_BLOCK
    assert_table_is_scalar_sweep(ALPHA25, step, step * (points - 1), points)


def test_count_winning_on_fewer_points_than_a_run():
    # alpha just below the peak of the gap between one and two subframes,
    # so two wins only on the three grid points nearest that peak: inside
    # one run, whose first point one subframe wins
    config = RachConfig(alpha=0.0, n_preambles=64, n_s_min=1, n_s_max=2)
    gaps = [utility_of_load(load, 2, config) - utility_of_load(load, 1, config)
            for load in range(301)]
    third, fourth = sorted(gaps)[-3:-5:-1]
    config = RachConfig(alpha=(third + fourth) / 2, n_preambles=64, n_s_min=1, n_s_max=2)
    start, *_, end = (load for load, gap in enumerate(gaps) if gap > config.alpha)
    assert end - start == 2
    assert start // CERTIFIED_RUN == end // CERTIFIED_RUN and start % CERTIFIED_RUN > 0
    table = subframe_lookup_table(config, 1.0, 300.0)
    assert table.entries == ((0.0, 1), (start, 2), (end + 1.0, 1))
    assert_table_is_scalar_sweep(config, 1.0, 300.0, 301)


def test_no_run_is_certified_within_rounding_of_a_change():
    # runs of one load each, within 1024 ULPs of where three subframes
    # take over from two: every margin is far below the tie slack the
    # certificate allows for rounding, so none is certified
    edge = bisect_root(
        lambda n: utility_of_load(n, 3, ALPHA25) - utility_of_load(n, 2, ALPHA25)
        - tie_slack(n, ALPHA25),
        50.0, 250.0, tol=0.0,
    )
    loads = edge + np.arange(-1024, 1025) * math.ulp(edge)
    counts = np.array(ALPHA25.subframe_range)
    rows, certified = rachsim.optimizer._certified_runs(loads, loads, ALPHA25, counts)
    assert set(counts[rows].tolist()) == {2, 3}
    assert not certified.any()


def test_grid_blocks_are_the_grid_bit_for_bit():
    grid = LoadGrid.up_to(700.0, 0.37)
    blocks = list(grid.blocks())
    assert all(len(b) <= SWEEP_BLOCK for b in blocks)
    assert np.concatenate(blocks).tolist() == list(grid)


def test_table_sweep_file_is_table_lookup(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["table", "--alpha", "25", "--step", "0.37", "--out", str(out)]) == 0
    table = subframe_lookup_table(ALPHA25, 0.37, 700.0)
    with (tmp_path / "t_sweep.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [float(load) for load, _ in rows] == list(table.grid)
    assert [int(n_s) for _, n_s in rows] == [table.lookup(float(load)) for load, _ in rows]
    assert [int(n_s) for _, n_s in rows] == scalar_sweep(ALPHA25, table.grid)


@pytest.mark.parametrize("config,step,max_load,on_first_point", [
    # one change at the second point, then blocks without a threshold
    (RachConfig(alpha=0.0), 1.0, 100.0, False),
    # thresholds on the first point of a block and three in the next block
    (ALPHA2, 2.0, 700.0, True),
    # every count from 1 to 10, a threshold on the first point of block 1
    (RachConfig(alpha=10.0, n_s_min=1, n_s_max=10), 3.0, 700.0, True),
])
def test_sweep_file_across_blocks_is_table_lookup(
    tmp_path, capsys, monkeypatch, config, step, max_load, on_first_point
):
    # blocks of 16 points, so a block holds no, one or several thresholds;
    # an empty stretch between two thresholds must write no row
    monkeypatch.setattr(rachsim.optimizer, "SWEEP_BLOCK", 16)
    table = subframe_lookup_table(config, step, max_load)
    cuts = [round(t / step) for t, _ in table.entries[1:]]
    assert any(i % 16 == 0 for i in cuts) == on_first_point
    assert len({i // 16 for i in cuts}) < -(-table.grid.points // 16)
    out = tmp_path / "t.csv"
    assert main([
        "table", "--alpha", repr(config.alpha), "--ns-min", str(config.n_s_min),
        "--ns-max", str(config.n_s_max), "--step", repr(step), "--max-load", repr(max_load),
        "--out", str(out),
    ]) == 0
    lines = (tmp_path / "t_sweep.csv").read_text().splitlines()
    assert lines[0] == "load,n_s"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(load) for load, _ in rows] == list(table.grid)
    assert [int(n_s) for _, n_s in rows] == [table.lookup(load) for load in table.grid]


def test_zero_load_tie_goes_to_n_s_min():
    # every count scores exactly 0 there
    config = RachConfig(alpha=0.0)
    assert subframe_lookup_table(config, 1.0, 700.0).entries == ((0.0, 2), (1.0, 8))
    assert optimal_subframes_integer(0.0, config).n_s == 2
    assert optimal_subframes_integer(0.0, RachConfig(alpha=0.0, n_s_min=5, n_s_max=9)).n_s == 5


def test_utility_crossing_goes_to_the_smaller_count():
    # the load where 2 and 3 subframes score the same, to float resolution
    crossing = bisect_root(
        lambda n: utility_of_load(n, 3, ALPHA25) - utility_of_load(n, 2, ALPHA25),
        50.0, 250.0, tol=0.0,
    )
    gap = utility_of_load(crossing, 3, ALPHA25) - utility_of_load(crossing, 2, ALPHA25)
    assert abs(gap) <= tie_slack(crossing, ALPHA25)
    assert subframe_lookup_table(ALPHA25, crossing, crossing).lookup(crossing) == 2
    assert optimal_subframes_integer(crossing, ALPHA25).n_s == 2
    # a millionth further on, 3 wins by far more than the slack
    assert optimal_subframes_integer(crossing * (1 + 1e-6), ALPHA25).n_s == 3


# Loads where np.exp and math.exp order the best two counts differently on
# some machines (seen with numpy 2.4 on x86-64 with AVX-512), and the count
# the tie rule chooses there.
REORDER_LOADS = {
    (2.0, 55.80951205494506): 4, (2.0, 80.84905140949351): 6,
    (10.0, 211.76576921966128): 6, (5.5, 122.45161462547944): 5,
    (5.5, 167.2404486480442): 7,
}


@pytest.mark.parametrize("alpha, load", list(REORDER_LOADS))
def test_near_ties_where_numpy_exp_reorders_the_counts(alpha, load):
    config = RachConfig(alpha=alpha)
    n_s = REORDER_LOADS[alpha, load]
    assert optimal_subframes_integer(load, config).n_s == n_s
    assert subframe_lookup_table(config, load, load).lookup(load) == n_s
    assert reference_argmax(load, config) == n_s


def test_alpha25_fine_grid_has_no_near_ties():
    # so on the benchmark's table, whose checker takes the strict math.exp
    # argmax, the tie rule never decides a point
    loads = np.concatenate(list(LoadGrid.up_to(700.0, 0.01).blocks()))
    counts = np.arange(ALPHA25.n_s_min, ALPHA25.n_s_max + 1, dtype=float)[:, None]
    capacity = counts * ALPHA25.n_preambles
    utilities = np.sort(loads * np.exp(-loads / capacity) - ALPHA25.alpha * counts, axis=0)
    assert (utilities[-1] - utilities[-2] > tie_slack(loads, ALPHA25)).all()


def test_decisions_do_not_depend_on_numpy_exp_dispatch(capsys):
    # a child with every SIMD feature numpy dispatches to switched off
    # answers the reorder loads and a table as this process does
    dispatched = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    script = (
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from rachsim.cli import main\n"
        "from rachsim.model import RachConfig\n"
        "from rachsim.optimizer import subframe_lookup_table\n"
        f"print([name for name in {dispatched!r} if __cpu_features__[name]])\n"
        f"for alpha, load in {list(REORDER_LOADS)!r}:\n"
        "    main(['optimize', '--alpha', repr(alpha), '--load', repr(load)])\n"
        "print(subframe_lookup_table(RachConfig(alpha=2.0), 0.01, 700.0).entries)\n"
    )
    src = str(Path(rachsim.optimizer.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatched),
        PYTHONPATH=src + (os.pathsep + path if path else ""),
    )
    child = subprocess.run([sys.executable, "-W", "error", "-c", script],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    for alpha, load in REORDER_LOADS:
        assert main(["optimize", "--alpha", repr(alpha), "--load", repr(load)]) == 0
    table = subframe_lookup_table(RachConfig(alpha=2.0), 0.01, 700.0).entries
    expected = f"[]\n{capsys.readouterr().out}{table}\n"
    assert child.stdout == expected
    assert [line.split()[0] for line in child.stdout.splitlines()[1:6]] == [
        f"n_s={n_s}" for n_s in REORDER_LOADS.values()
    ]


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.0, 60.0),
    n_preambles=st.integers(1, 128),
    n_s_min=st.integers(1, 10),
    width=st.integers(0, 9),
    step=st.floats(1e-3, 50.0),
    points=st.integers(2, 300),
    block=st.sampled_from([1, 7, 64, SWEEP_BLOCK]),
    run=st.sampled_from([1, 7, CERTIFIED_RUN, SWEEP_BLOCK]),
)
def test_vectorised_sweep_property(alpha, n_preambles, n_s_min, width, step, points, block, run):
    # every point is checked, in certified and uncertified runs alike
    config = RachConfig(
        n_preambles=n_preambles,
        n_s_min=n_s_min,
        n_s_max=min(n_s_min + width, 10),
        alpha=alpha,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rachsim.optimizer, "SWEEP_BLOCK", block)
        patch.setattr(rachsim.optimizer, "CERTIFIED_RUN", run)
        table = subframe_lookup_table(config, step, step * (points - 1))
    expected = scalar_sweep(config, table.grid)
    assert [table.lookup(load) for load in table.grid] == expected
    assert len(table.entries) == 1 + sum(a != b for a, b in zip(expected, expected[1:]))
