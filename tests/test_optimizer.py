"""Subframe optimizer: integer argmax oracle, closed form, lookup table."""

import math

import numpy as np
import pytest

from rachsim.model import RachConfig, utility_of_load
from rachsim.optimizer import (
    MAX_GRID_POINTS,
    LookupTable,
    closed_form_decision,
    decide_subframes,
    load_grid,
    optimal_subframes_closed_form,
    optimal_subframes_integer,
    stationary_alpha_limit,
    subframe_lookup_table,
)

from conftest import bisect_root

ALPHA2 = RachConfig(alpha=2.0)
ALPHA25 = RachConfig(alpha=25.0)


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
    rng = np.random.default_rng(5)
    for _ in range(300):
        load = float(rng.uniform(0, 2000))
        cfg = RachConfig(alpha=float(rng.uniform(0, 60)))
        d = optimal_subframes_integer(load, cfg)
        for n_s in cfg.subframe_range:
            assert d.achieved_utility >= utility_of_load(load, n_s, cfg)


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
        LookupTable(alpha=1.0, n_preambles=64, entries=())
    with pytest.raises(ValueError):
        LookupTable(alpha=1.0, n_preambles=64, entries=((0.0, 2), (0.0, 3)))
    with pytest.raises(ValueError):
        subframe_lookup_table(ALPHA25, 0.0, 700.0)
    with pytest.raises(ValueError):
        subframe_lookup_table(ALPHA25, 1.0, -1.0)


def test_load_grid_point_bound():
    # the check runs on the point count, before any point is generated
    grid = load_grid(1.0, MAX_GRID_POINTS - 1)  # exactly MAX_GRID_POINTS points
    assert next(grid) == 0.0
    with pytest.raises(ValueError, match="points"):
        load_grid(1.0, float(MAX_GRID_POINTS))
    with pytest.raises(ValueError, match="points"):
        load_grid(1e-300, 1e300)  # the quotient overflows to inf
