"""Throughput curve, utility, and the marginal-balance gradient."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from rachsim.model import (
    MAX_ALPHA,
    RachConfig,
    SettingError,
    throughput,
    utility,
    utility_gradient,
    utility_of_load,
)
from rachsim.estimator import LoadBranch, estimate_load
from rachsim.optimizer import (
    LoadGrid,
    LookupTable,
    decide_subframes,
    optimal_subframes_closed_form,
    optimal_subframes_integer,
    stationary_alpha_limit,
)
from rachsim.scenario import default_scenario
from rachsim.simulator import (
    MAX_POOL,
    MAX_WINDOW,
    DeviceState,
    ProfileSegment,
    acb_gate,
    contend,
    resolve_backoff,
    run_replications,
    run_scenario,
)


def test_throughput_zero_load():
    assert throughput(0, 2, 64) == 0.0


def test_throughput_peak_value_and_location():
    # sweep oracle: the integer argmax of the curve sits at N = n_s * n_p
    values = {n: throughput(n, 2, 64) for n in range(0, 513)}
    best = max(values, key=values.get)
    assert best == 128
    assert values[128] == pytest.approx(128 / math.e, rel=1e-12)


def test_throughput_direct_evaluation():
    assert throughput(300, 2, 64) == pytest.approx(300 * math.exp(-2.34375), rel=1e-12)
    assert throughput(300, 2, 64) == pytest.approx(28.79, abs=0.01)


def test_throughput_bounded_by_peak():
    for n_s, n_p in [(1, 64), (2, 64), (8, 64), (3, 10)]:
        cap = n_s * n_p / math.e
        for n in range(0, 4 * n_s * n_p, 7):
            assert throughput(n, n_s, n_p) <= cap + 1e-9


def test_throughput_monotone_up_then_down():
    pairs = 128
    vals = [throughput(n, 2, 64) for n in range(0, 3 * pairs)]
    for n in range(1, pairs):
        assert vals[n] > vals[n - 1]
    for n in range(pairs + 1, 3 * pairs - 1):
        assert vals[n + 1] < vals[n]


def test_throughput_domain_errors():
    with pytest.raises(ValueError):
        throughput(10, 0, 64)
    with pytest.raises(ValueError):
        throughput(10, 2, 0)
    with pytest.raises(ValueError):
        throughput(-1, 2, 64)


def test_utility_arithmetic():
    assert utility(47.0874, 0.0, 8) == 47.0874
    assert utility(28.79, 25.0, 2) == pytest.approx(-21.21)
    assert utility(0.0, 25.0, 2) == -50.0


def test_utility_of_load_values():
    cfg = RachConfig(alpha=2.0)
    assert utility_of_load(70, 6, cfg) == pytest.approx(70 * math.exp(-70 / 384) - 12, rel=1e-12)
    assert utility_of_load(70, 6, cfg) == pytest.approx(46.335, abs=1e-3)
    assert utility_of_load(70, 2, cfg) == pytest.approx(36.513, abs=1e-3)
    assert utility_of_load(0, 2, RachConfig(alpha=25.0)) == -50.0


def test_utility_of_load_consistency_with_throughput():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = float(rng.uniform(0, 2000))
        n_s = int(rng.integers(1, 11))
        alpha = float(rng.uniform(0, 100))
        cfg = RachConfig(n_s_min=1, n_s_max=10, alpha=alpha)
        u = utility_of_load(n, n_s, cfg)
        t = throughput(n, n_s, 64)
        assert abs((u + alpha * n_s) - t) <= 1e-12 * max(1.0, abs(t))


def test_gradient_trivial_and_direct():
    cfg = RachConfig(alpha=25.0)
    assert utility_gradient(0, 3.0, cfg) == 25.0
    cfg0 = RachConfig(alpha=0.0)
    assert utility_gradient(128, 2.0, cfg0) == pytest.approx(-64 / math.e, rel=1e-12)


def test_gradient_is_negated_finite_difference():
    # utility_gradient returns alpha - collision_term, the negative of
    # d(utility)/d(n_s); central differences of utility_of_load confirm
    # the magnitude and the flipped sign.
    rng = np.random.default_rng(11)
    h = 1e-5
    checked = 0
    for _ in range(100):
        n = float(rng.uniform(1, 2000))
        n_s = float(rng.uniform(1, 10))
        alpha = float(rng.uniform(0, 100))
        cfg = RachConfig(n_s_min=1, n_s_max=10, alpha=alpha)

        def u_at(s):
            return n * math.exp(-n / (s * 64)) - alpha * s

        fd = (u_at(n_s + h) - u_at(n_s - h)) / (2 * h)
        g = utility_gradient(n, n_s, cfg)
        assert g == pytest.approx(-fd, rel=1e-6, abs=1e-6)
        checked += 1
    assert checked == 100


def test_gradient_zero_at_stationary_point():
    cfg = RachConfig(alpha=2.0)
    n_s_opt = optimal_subframes_closed_form(70, cfg)
    assert abs(utility_gradient(70, n_s_opt, cfg)) < 1e-8


def test_gradient_collision_term_bound():
    # the collision term never exceeds n_p * 4 * exp(-2), so above that
    # alpha the returned balance stays positive at every load
    limit = stationary_alpha_limit(64)
    assert limit == pytest.approx(64 * 4 * math.exp(-2), rel=1e-12)
    cfg = RachConfig(alpha=0.0)
    worst = max(
        -utility_gradient(n, n_s, cfg)
        for n in range(1, 3000, 13)
        for n_s in [1.0, 2.0, 3.5, 8.0, 10.0]
    )
    assert worst <= limit + 1e-9
    cfg_hi = RachConfig(alpha=35.0)
    assert all(
        utility_gradient(n, n_s, cfg_hi) > 0
        for n in range(0, 3000, 13)
        for n_s in [1.0, 2.0, 3.5, 8.0, 10.0]
    )


def test_gradient_domain_error():
    with pytest.raises(ValueError):
        utility_gradient(10, 0.0, RachConfig())
    with pytest.raises(ValueError):
        utility_gradient(10, -1.0, RachConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        RachConfig(n_s_min=0)
    with pytest.raises(ValueError):
        RachConfig(n_s_min=5, n_s_max=3)
    with pytest.raises(ValueError):
        RachConfig(n_s_max=11)
    with pytest.raises(ValueError):
        RachConfig(n_preambles=0)
    with pytest.raises(ValueError):
        RachConfig(alpha=-0.1)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            RachConfig(alpha=alpha)
    assert list(RachConfig().subframe_range) == [2, 3, 4, 5, 6, 7, 8]


def test_alpha_bound():
    # utilities, their sums and squared deviations stay finite below it
    assert RachConfig(alpha=MAX_ALPHA).alpha == 1e100
    for alpha in (1e101, 1e308):
        with pytest.raises(ValueError, match=r"^alpha must be in \[0\.0, 1e\+100\], got"):
            RachConfig(alpha=alpha)


# Each library entry point's range-checked argument, as (call, argument name,
# the range its message states for a finite value out of it).
RNG = np.random.default_rng(0)
VALUE_ENTRY_POINTS = {
    "throughput": (lambda x: throughput(x, 2, 64), "n_devices", ">= 0"),
    "throughput_n_s": (lambda x: throughput(10, x, 64), "n_s", ">= 1"),
    "throughput_n_preambles": (lambda x: throughput(10, 2, x), "n_preambles", ">= 1"),
    "utility_of_load": (lambda x: utility_of_load(x, 2, RachConfig()), "n_devices", ">= 0"),
    "utility_gradient": (lambda x: utility_gradient(x, 2.0, RachConfig()), "n_devices", ">= 0"),
    "utility_gradient_n_s": (lambda x: utility_gradient(10.0, x, RachConfig()), "n_s", "> 0"),
    "decide_subframes": (lambda x: decide_subframes(x, RachConfig()), "load", ">= 0"),
    "decide_subframes_table_max_load": (
        lambda x: decide_subframes(800.0, RachConfig(), x), "table_max_load", "> 0"
    ),
    "optimal_subframes_integer": (
        lambda x: optimal_subframes_integer(x, RachConfig()), "load", ">= 0"
    ),
    "optimal_subframes_closed_form": (
        lambda x: optimal_subframes_closed_form(x, RachConfig()), "load", "> 0"
    ),
    # RachConfig refuses these prices itself, so a stand-in carries them
    "optimal_subframes_closed_form_alpha": (
        lambda x: optimal_subframes_closed_form(10.0, SimpleNamespace(alpha=x, n_preambles=64)),
        "alpha", "> 0",
    ),
    "estimate_load": (lambda x: estimate_load(x, 2, 64, LoadBranch.LIGHT), "eta_obs", ">= 0"),
    "estimate_load_n_s": (lambda x: estimate_load(5, x, 64, LoadBranch.LIGHT), "n_s", ">= 1"),
    "estimate_load_n_preambles": (
        lambda x: estimate_load(5, 2, x, LoadBranch.LIGHT), "n_preambles", ">= 1"
    ),
    "contend": (lambda x: contend([], x, 64, RNG), "n_s", ">= 1"),
    "contend_n_preambles": (lambda x: contend([], 2, x, RNG), "n_preambles", ">= 1"),
    "resolve_backoff": (
        lambda x: resolve_backoff([], 0, x, 10, RNG), "backoff_window", "in [1, 2147483647]"
    ),
    "resolve_backoff_retry_limit": (
        lambda x: resolve_backoff([], 0, 4, x, RNG), "retry_limit", ">= 0"
    ),
    "resolve_backoff_frame": (
        lambda x: resolve_backoff([], x, 4, 10, RNG), "frame", f"in [0, {2**63 - 1 - MAX_WINDOW}]"
    ),
    "acb_gate": (lambda x: acb_gate([], x, 4, 0, RNG), "p_barring", "in (0, 1]"),
    "acb_gate_window": (
        lambda x: acb_gate([], 0.5, x, 0, RNG), "barring_window", "in [1, 2147483647]"
    ),
    "acb_gate_frame": (
        lambda x: acb_gate([], 0.5, 4, x, RNG), "frame", f"in [0, {2**63 - 1 - MAX_WINDOW}]"
    ),
    "load_grid_step": (lambda x: LoadGrid.up_to(700.0, x), "step", "> 0"),
    "load_grid_max_load": (lambda x: LoadGrid.up_to(x, 1.0), "max_load", "> 0"),
    "run_replications": (
        lambda x: run_replications(default_scenario("fixed"), x), "n_reps", ">= 1"
    ),
    "run_replications_base_seed": (
        lambda x: run_replications(default_scenario("fixed"), 1, x), "base_seed", ">= 0"
    ),
    "run_scenario": (lambda x: run_scenario(default_scenario("fixed"), x), "seed", ">= 0"),
    "profile_segment_rate_start": (
        lambda x: ProfileSegment(0, 5, x, 1.0), "rate_start", f"in [0, {MAX_POOL}]"
    ),
    "profile_segment_rate_end": (
        lambda x: ProfileSegment(0, 5, 1.0, x), "rate_end", f"in [0, {MAX_POOL}]"
    ),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", VALUE_ENTRY_POINTS)
def test_entry_points_refuse_nan_inf_and_negative_loads(name, x):
    call, argument, bound = VALUE_ENTRY_POINTS[name]
    with pytest.raises(SettingError) as exc:
        call(x)
    requirement = bound if math.isfinite(x) else "finite"
    assert str(exc.value) == f"{argument} must be {requirement}, got {x}"
    assert exc.value.fields == (argument,)


# The entry points above whose argument is an integer.
INTEGER_ENTRY_POINTS = [
    "throughput_n_s", "throughput_n_preambles", "estimate_load_n_s", "estimate_load_n_preambles",
    "contend", "contend_n_preambles", "resolve_backoff", "resolve_backoff_retry_limit",
    "resolve_backoff_frame", "acb_gate_window", "acb_gate_frame", "run_replications",
    "run_replications_base_seed", "run_scenario",
]


@pytest.mark.parametrize("name", INTEGER_ENTRY_POINTS)
def test_integer_entry_points_refuse_non_integers(name):
    call, argument, _ = VALUE_ENTRY_POINTS[name]
    with pytest.raises(SettingError) as exc:
        call(2.5)
    assert str(exc.value) == f"{argument} must be an integer, got 2.5"
    assert exc.value.fields == (argument,)
    with pytest.raises(SettingError, match="must be an integer, got 2.0"):
        call(2.0)


def test_integer_entry_points_take_numpy_integers():
    devices = [DeviceState(id=i) for i in range(3)]
    assert contend(devices, np.int64(2), np.int32(64), RNG).idle >= 125
    resolve_backoff(devices, np.int64(3), np.int64(4), np.int16(10), RNG)
    assert all(4 <= dev.backoff_until <= 7 for dev in devices)
    acb_gate(devices, 0.5, np.uint8(4), np.int64(3), RNG)
    assert len(run_replications(default_scenario("fixed"), np.int64(1), np.int64(3)).runs) == 1


def test_lookup_refuses_only_nan():
    table = LookupTable(entries=((0.0, 2), (100.0, 5)))
    with pytest.raises(ValueError, match="load must not be NaN"):
        table.lookup(math.nan)
    # a load outside the thresholds takes the nearest end's entry
    assert table.lookup(-1.0) == 2
    assert table.lookup(math.inf) == 5
