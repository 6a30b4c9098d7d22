"""Exact identities of a run, held bit for bit in every column.

Each needs no law to test against, only a second run:
- truncation: a run of the first f frames is the first f rows of the full run;
- with retry_limit = 0 the backoff window changes nothing;
- with n_s_min == n_s_max, adaptive and max give fixed's columns but for
  est_load and estimator_fallback;
- replication i is the same at every replication count, and is replication
  0 of base seed + i;
- permuting the scenarios of one run_replications call permutes its sets.

The scenarios are small: a few segments of a few frames, every controller
kind, preamble counts down to 1, and rates from idle to twice the pairs of
the largest allocation.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rachsim.model import FRAME_SUBFRAMES, RachConfig
from rachsim.simulator import (
    KIND_NAMES,
    ControllerSpec,
    LoadProfile,
    ProfileSegment,
    Scenario,
    run_replications,
    run_scenario,
)

IDENTITY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def scenarios(draw):
    n_s_min = draw(st.integers(1, 4))
    config = RachConfig(
        n_preambles=draw(st.integers(1, 64)),
        n_s_min=n_s_min,
        n_s_max=draw(st.integers(n_s_min, 8)),
        alpha=draw(st.sampled_from([0.5, 2.0, 25.0])),
    )
    rates = st.floats(0.0, 2.0 * config.n_s_max * config.n_preambles)
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        start = segments[-1].end_frame if segments else 0
        end = start + draw(st.integers(1, 8))
        segments.append(ProfileSegment(start, end, draw(rates), draw(rates)))
    controller = ControllerSpec(
        kind=draw(st.sampled_from(KIND_NAMES)),
        window=draw(st.integers(1, 3)),
        table_max_load=draw(st.sampled_from([20.0, 700.0])),
        acb_p=draw(st.floats(0.05, 1.0)),
        acb_window=draw(st.integers(1, 4)),
    )
    return Scenario(
        config=config,
        profile=LoadProfile(tuple(segments)),
        controller=controller,
        backoff_window=draw(st.integers(1, 5)),
        retry_limit=draw(st.integers(0, 4)),
    )


def assert_same(got: dict, expected: dict, skip=()) -> None:
    """Two tables of arrays hold the same bits under the same names, but for skip."""
    assert got.keys() == expected.keys()
    for name in got.keys() - set(skip):
        a, b = np.asarray(got[name]), np.asarray(expected[name])
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def replication(repset, i: int) -> dict:
    return {name: column[i] for name, column in repset.columns.items()}


@IDENTITY
@given(scenario=scenarios(), seed=SEEDS, data=st.data())
def test_a_shorter_run_is_the_start_of_the_full_run(scenario, seed, data):
    frames = data.draw(st.integers(1, scenario.frames))
    full = run_scenario(scenario, seed).columns
    short = run_scenario(replace(scenario, frames=frames), seed).columns
    assert_same(short, {name: column[:frames] for name, column in full.items()})


@IDENTITY
@given(scenario=scenarios(), seed=SEEDS, windows=st.lists(st.integers(1, 6), min_size=2))
def test_without_retries_the_backoff_window_changes_nothing(scenario, seed, windows):
    first, *others = (
        run_scenario(replace(scenario, retry_limit=0, backoff_window=w), seed).columns
        for w in windows
    )
    for other in others:
        assert_same(other, first)


@IDENTITY
@given(scenario=scenarios(), n_s=st.integers(1, FRAME_SUBFRAMES), seed=SEEDS)
def test_one_admissible_count_makes_adaptive_and_max_fixed(scenario, n_s, seed):
    scenario = replace(scenario, config=replace(scenario.config, n_s_min=n_s, n_s_max=n_s))
    fixed = run_scenario(scenario.with_controller("fixed"), seed).columns
    for kind in ("adaptive", "max"):
        columns = run_scenario(scenario.with_controller(kind), seed).columns
        assert_same(columns, fixed, skip=("est_load", "estimator_fallback"))


@IDENTITY
@given(scenario=scenarios(), base=SEEDS, counts=st.lists(st.integers(1, 4), min_size=2))
def test_replication_i_is_replication_0_of_base_seed_plus_i(scenario, base, counts):
    sets = [run_replications([scenario], n, base)[0] for n in counts]
    for i in range(max(counts)):
        [alone] = run_replications([scenario], 1, base + i)
        for repset in sets:
            if i < len(repset.replication_ids):
                assert_same(replication(repset, i), replication(alone, 0))


@IDENTITY
@given(scenario_list=st.lists(scenarios(), min_size=2, max_size=4), base=SEEDS, data=st.data())
def test_permuting_a_calls_scenarios_permutes_its_sets(scenario_list, base, data):
    order = data.draw(st.permutations(range(len(scenario_list))))
    sets = run_replications(scenario_list, 2, base)
    permuted = run_replications([scenario_list[k] for k in order], 2, base)
    for k, repset in zip(order, permuted, strict=True):
        expected = sets[k]
        assert repset.replication_ids == expected.replication_ids
        assert_same(repset.columns, expected.columns)
        assert_same(repset.means, expected.means)
        assert_same({"ci95": repset.ci95_utility}, {"ci95": expected.ci95_utility})
