import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamspan import BudgetExceededError, MachinePark, MachineTimeline, make_ledger, run_stream
from streamspan.capacity import capacity_at, park_capacity_at, search_bounds
from streamspan.cli import generate_instance, main, parse_machine_config_text
from streamspan.grouping import LargeJobSet
from streamspan.search import (
    crossing_allowance,
    enumerate_and_select,
    makespan_value,
)

from _support import (
    brute_force_selection,
    grid_scan_t,
    identity_park,
    integer_loads_fit,
    ordinal,
    quiet_params,
    random_timeline,
    time_grid,
)


def large_set(jobs, small_bound=0.5, band_offset=0, saturated_band=-1):
    jobs = tuple(jobs)
    return LargeJobSet(
        saturated_band=saturated_band,
        jobs=jobs,
        total_load=float(sum(p for _, p in jobs)),
        small_bound=small_bound,
        band_offset=band_offset,
    )


class TestTimeGrid:
    def test_hand_traced_grid(self):
        park = identity_park(2, m1=1, e0=1.0)
        assert time_grid(park, 6.0, 1.0) == [3.0, 4.5, 6.75]

    def test_zero_load_degenerates(self):
        park = identity_park(2, m1=1, e0=1.0)
        assert time_grid(park, 0.0, 1.0) == [0.0]

    @settings(max_examples=150)
    @given(
        m=st.integers(1, 5),
        e0=st.sampled_from([0.25, 0.5, 1.0]),
        load=st.integers(1, 10_000),
        eps=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_grid_brackets_the_bounds(self, m, e0, load, eps):
        park = identity_park(m, m1=1, e0=e0)
        grid = time_grid(park, float(load), eps)
        lower, upper = search_bounds(park, float(load))
        assert grid[0] == lower
        assert grid[-1] >= upper
        base = 1.0 + eps / 2.0
        for x in range(1, len(grid)):
            assert grid[x] == grid[0] * base**x


@st.composite
def sharing_parks(draw):
    """(park, epsilon): 1-4 machines sharing at ratios such as 0.3, 0.35 and
    0.7, with e0 = (1 + eps/2)**-k, so that P/e0 can land on a grid point."""
    epsilon = draw(st.one_of(st.sampled_from([0.1, 0.2, 0.5, 1.0]), st.floats(0.1, 1.0)))
    e0 = (1.0 + epsilon / 2.0) ** -draw(st.integers(0, 6))
    m = draw(st.integers(1, 4))
    m1 = draw(st.integers(1, m))
    machines = []
    for i in range(1, m + 1):
        ratios = [r for r in (0.3, 0.35, 0.7, 1.0, e0) if i > m1 or r >= e0]
        bps = sorted(draw(st.sets(st.sampled_from([1, 5, 40, 150, 600, 10**9]), max_size=3)))
        machines.append(MachineTimeline(
            i, tuple(float(b) for b in bps), tuple(draw(st.sampled_from(ratios)) for _ in bps)
        ))
    return MachinePark(tuple(machines), m1, e0), epsilon


@settings(max_examples=200, deadline=None)
@given(
    shape=sharing_parks(),
    sizes=st.lists(st.integers(1, 100), min_size=1, max_size=6),
    scale=st.sampled_from([1.0, 0.37]),
)
# P/e0 is grid point 4, where machine 1 delivers 182.99999999999997 of P = 183
@example(
    shape=(MachinePark((MachineTimeline(1, (1e9,), (1.1**-4,)),), 1, 1.1**-4), 0.2),
    sizes=[92, 90, 1],
    scale=1.0,
)
def test_the_last_grid_point_covers_the_load_and_takes_every_retained_job(shape, sizes, scale):
    park, epsilon = shape
    params = quiet_params(park.m, park.floor_machines, park.ratio_floor, epsilon)
    led = make_ledger(params)
    led.ingest_many(np.array(sizes, np.float64) * scale)
    large = led.finalize()
    fold = 0.0
    for _, p in large.jobs:
        fold += p
    last = time_grid(park, large.total_load, epsilon, fold)[-1]
    assert park_capacity_at(park, last) >= large.total_load
    assert capacity_at(park.machines[0], last) >= fold
    assert enumerate_and_select(park, large, epsilon).t <= last


class TestSmallestGridT:
    """The smallest feasible grid time the search selects, traced by hand."""

    def test_single_machine_exact_fit(self):
        park = identity_park(1)
        assert enumerate_and_select(park, large_set([(0, 4.0)]), 1.0).t == 4.0

    def test_unbalanced_assignment_pays(self):
        # one job of 6 must sit on one machine: grid 3, 4.5, 6.75
        park = identity_park(2, m1=1, e0=1.0)
        out = enumerate_and_select(park, large_set([(0, 6.0)]), 1.0)
        assert (out.t, out.grid_exponent) == (6.75, 2)

    def test_zero_load(self):
        park = identity_park(2, m1=1, e0=1.0)
        assert enumerate_and_select(park, large_set([]), 1.0).t == 0.0

    def test_starved_machine_is_infeasible(self):
        # machine 2 delivers only t/4 for a very long time, so within the
        # grid (which tops out near P/e0) its own load never fits
        park = MachinePark(
            (MachineTimeline(1, (), ()), MachineTimeline(2, (1e6,), (0.25,))),
            1,
            1.0,
        )
        out = enumerate_and_select(park, large_set([(0, 8.0)]), 1.0)
        assert out.machine_of == (1,)


def test_crossing_allowance():
    assert crossing_allowance(identity_park(1)) == 0
    assert crossing_allowance(identity_park(2, m1=1)) == 1
    assert crossing_allowance(identity_park(5, m1=2)) == 2
    assert crossing_allowance(identity_park(3, m1=3)) == 1


def test_makespan_value_adds_late_tail():
    park = identity_park(2, m1=1, e0=0.5)
    large = large_set([(0, 4.0)], small_bound=2.0)
    assert makespan_value(park, large, 6.0) == 6.0 + 1 * (2.0 / 0.5)


class TestEnumerateAndSelect:
    def test_balanced_beats_stacked(self):
        park = identity_park(2, m1=1, e0=1.0)
        large = large_set([(0, 4.0), (1, 4.0)])
        out = enumerate_and_select(park, large, 1.0)
        assert out.t == 4.0
        assert out.grid_exponent == 0
        assert out.machine_of == (2, 1)
        assert sorted(out.per_machine_load) == [4.0, 4.0]

    def test_empty_large_set_with_load_uses_aggregate_floor(self):
        park = identity_park(2, m1=1, e0=1.0)
        large = LargeJobSet(
            saturated_band=2, jobs=(), total_load=32.0, small_bound=8.0, band_offset=0
        )
        out = enumerate_and_select(park, large, 1.0)
        # grid starts at 16 and A(16) = 32 covers P immediately
        assert out.t == 16.0
        assert out.grid_exponent == 0
        assert out.machine_of == ()

    def test_empty_stream_reports_zero(self):
        park = identity_park(2, m1=1, e0=1.0)
        large = LargeJobSet(
            saturated_band=-1, jobs=(), total_load=0.0, small_bound=0.0, band_offset=None
        )
        out = enumerate_and_select(park, large, 1.0)
        assert out.t == 0.0
        assert out.value == 0.0

    def test_budget_guard(self):
        # room 6 per machine at x_floor cannot take three 4s, so the search
        # bisects on and backtracks: more nodes than jobs
        park = identity_park(2, m1=1, e0=1.0)
        large = large_set([(0, 4.0), (1, 4.0), (2, 4.0)])
        nodes = enumerate_and_select(park, large, 1.0).nodes
        assert nodes > large.job_count
        assert enumerate_and_select(park, large, 1.0, budget=nodes).nodes == nodes
        with pytest.raises(BudgetExceededError, match=f"node budget {nodes - 1}$"):
            enumerate_and_select(park, large, 1.0, budget=nodes - 1)

    def test_recorded_loads_match_mapping(self):
        park = identity_park(3, m1=2, e0=0.5)
        large = large_set([(0, 5.0), (1, 3.0), (2, 2.0), (3, 7.0)])
        out = enumerate_and_select(park, large, 0.5)
        loads = [0.0] * park.m
        for (job_id, p), machine in zip(out.jobs, out.machine_of):
            loads[machine - 1] += p
        assert tuple(loads) == out.per_machine_load


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_selection_matches_brute_force(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    m = data.draw(st.integers(1, 3))
    m1 = data.draw(st.integers(1, m))
    e0 = data.draw(st.sampled_from([0.5, 1.0]))
    machines = []
    for i in range(1, m + 1):
        choices = [r for r in (0.25, 0.5, 1.0) if i > m1 or r >= e0]
        machines.append(random_timeline(rng, index=i, ratio_choices=tuple(choices)))
    park = MachinePark(tuple(machines), m1, e0)
    njobs = data.draw(st.integers(0, 4))
    jobs = [(j, float(rng.randint(1, 12))) for j in range(njobs)]
    epsilon = data.draw(st.sampled_from([0.5, 1.0]))
    large = large_set(jobs)
    out = enumerate_and_select(park, large, epsilon)
    want = brute_force_selection(park, large, epsilon)
    assert want is not None
    assert (out.grid_exponent, ordinal(out.machine_of, park.m)) == want
    grid = time_grid(park, large.total_load, epsilon)
    assert out.t == grid[out.grid_exponent]
    assert grid_scan_t(park, out.per_machine_load, large.total_load, epsilon) == out.t
    assert out.value == makespan_value(park, large, out.t)


def test_selection_skips_unreachable_exponents_below_aggregate_floor():
    # both machines throttled early on: the aggregate condition alone
    # pushes x past 0, and the per-machine searches must not undercut it
    park = MachinePark(
        (MachineTimeline(1, (8.0,), (0.5,)), MachineTimeline(2, (8.0,), (0.5,))),
        2,
        0.5,
    )
    large = large_set([(0, 4.0), (1, 4.0)])
    out = enumerate_and_select(park, large, 1.0)
    want = brute_force_selection(park, large, 1.0)
    assert (out.grid_exponent, ordinal(out.machine_of, park.m)) == want


def test_search_consumes_ledger_output():
    params = quiet_params(2, 1, 1.0, 1.0)
    led = make_ledger(params, pmax=4.0)
    led.ingest_many(np.array([4.0, 1.0, 3.0, 2.0, 4.0]))
    out = enumerate_and_select(identity_park(2, m1=1, e0=1.0), led.finalize(), 1.0)
    assert out.t == 7.0  # P=14, LB=7, balanced split 7/7 fits exactly
    assert out.grid_exponent == 0


@pytest.mark.parametrize("n", range(20, 301, 20))
def test_generated_streams_settle_within_the_default_budget(n, tmp_path, capsys):
    # default flags retain up to 300 jobs here, far beyond enumerating 3**J
    params = quiet_params(3, 1, 0.5, 0.5)
    for seed in range(5):
        config_text, jobs_text = generate_instance(seed, 3, 1, 0.5, n)
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text(config_text)
        jobs.write_text(jobs_text)
        assert main(["run", "--config", str(cfg), "--jobs", str(jobs)]) == 0, seed
        printed = capsys.readouterr().out
        park = parse_machine_config_text(config_text)
        ledger = make_ledger(params)
        report, artifacts = run_stream(park, ledger, [[float(p) for p in jobs_text.split()]])
        def untimed(lines):
            return [ln for ln in lines if not ln.split(":", 1)[0].endswith("_seconds")]

        assert untimed(printed.splitlines()) == untimed(report.as_lines())
        outcome = artifacts.outcome
        grid = time_grid(park, report.total_load, 0.5)
        assert outcome.t == grid[outcome.grid_exponent]
        caps = [capacity_at(tl, outcome.t) for tl in park.machines]
        assert all(load <= cap for load, cap in zip(outcome.per_machine_load, caps))
        x_floor = next(x for x, t in enumerate(grid) if park_capacity_at(park, t) >= report.total_load)
        if outcome.grid_exponent > x_floor:
            below = grid[outcome.grid_exponent - 1]
            limits = [math.floor(capacity_at(tl, below)) for tl in park.machines]
            sizes = [int(p) for _, p in outcome.jobs]
            assert not integer_loads_fit(sizes, limits), (n, seed)
