import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamspan import (
    BudgetExceededError,
    MachinePark,
    MachineTimeline,
    exact_optimum,
    make_ledger,
)
from streamspan.capacity import capacity_at
from streamspan.oracle import completion_from_zero, naive_capacity_at
from streamspan.search import enumerate_and_select

from _support import (
    brute_force_selection,
    completion_time,
    grid_scan_t,
    identity_park,
    make_instance,
    ordinal,
    quiet_params,
    random_timeline,
)


def ramp():
    return MachineTimeline(1, (2.0, 4.0), (0.5, 1.0))


class TestNaiveCapacity:
    def test_matches_fast_lookup_on_ramp(self):
        tl = ramp()
        for t in (0.0, 1.0, 2.0, 3.0, 4.0, 7.5, 100.0):
            assert naive_capacity_at(tl, t) == capacity_at(tl, t)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_fast_lookup_on_random_timelines(self, seed):
        rng = random.Random(seed)
        tl = random_timeline(rng, 1)
        probes = [rng.uniform(0.0, 30.0) for _ in range(50)]
        probes += list(tl.breakpoints) + [0.0]
        for t in probes:
            assert naive_capacity_at(tl, t) == capacity_at(tl, t)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1e6, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_agreement_is_exact_not_approximate(self, seed, t):
        tl = random_timeline(random.Random(seed), 1)
        assert naive_capacity_at(tl, t) == capacity_at(tl, t)


def test_completion_from_zero_inverts_by_definition_whatever_the_timeline_caches():
    tl = ramp()
    object.__setattr__(tl, "seg_cap", np.array([0.0, 10.0, 30.0]))  # a wrong table
    loads = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
    done = completion_from_zero(tl, loads)
    assert done.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]
    assert [naive_capacity_at(tl, t) for t in done] == loads.tolist()


def _brute_makespan(park, jobs):
    """Slowest possible reference: chain completion_time per machine."""
    if not jobs:
        return 0.0
    best = math.inf
    for assign in itertools.product(range(park.m), repeat=len(jobs)):
        span = 0.0
        for i, tl in enumerate(park.machines):
            clock = 0.0
            for j, machine in enumerate(assign):
                if machine == i:
                    clock = completion_time(tl, clock, jobs[j])
            span = max(span, clock)
        best = min(best, span)
    return best


class TestExactOptimum:
    def test_two_equal_jobs_on_identity_machines(self):
        park = identity_park(2, m1=1, e0=1.0)
        res = exact_optimum(park, [4.0, 4.0])
        assert res.makespan == 4.0
        assert sorted(res.machine_of) == [1, 2]

    def test_single_job_on_ramp(self):
        park = MachinePark((ramp(),), 1, 0.5)
        res = exact_optimum(park, [3.0])
        assert res.makespan == completion_time(ramp(), 0.0, 3.0)
        assert res.machine_of == (1,)

    def test_empty_instance(self):
        park = identity_park(2, m1=1, e0=1.0)
        res = exact_optimum(park, [])
        assert res.makespan == 0.0
        assert res.machine_of == ()
        assert res.ordinal == 0

    def test_budget_guard(self):
        park = identity_park(2, m1=1, e0=1.0)
        with pytest.raises(BudgetExceededError, match=r"2\*\*4 assignments exceeds the budget 15"):
            exact_optimum(park, [1.0, 1.0, 1.0, 1.0], budget=15)

    def test_zero_width_jobs_complete_at_zero(self):
        # completion of a zero load is the start time itself
        park = identity_park(1)
        res = exact_optimum(park, [2.0])
        assert res.makespan == 2.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_itertools_brute_force(self, seed):
        rng = random.Random(seed)
        m = rng.choice([1, 2, 3])
        m1 = rng.randint(1, m)
        park, jobs = make_instance(seed + 3000, m, m1, 0.5, rng.randint(0, 5))
        res = exact_optimum(park, jobs)
        assert res.makespan == _brute_makespan(park, jobs)

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_assignment_reproduces_the_makespan(self, seed):
        rng = random.Random(seed)
        park, jobs = make_instance(seed + 4000, 2, 1, 0.5, rng.randint(1, 6))
        res = exact_optimum(park, jobs)
        spans = []
        for i, tl in enumerate(park.machines):
            clock = 0.0
            for j, machine in enumerate(res.machine_of):
                if machine == i + 1:
                    clock = completion_time(tl, clock, jobs[j])
            spans.append(clock)
        assert max(spans) == res.makespan

    def test_vectorized_chunking_is_invisible(self, monkeypatch):
        # force tiny enumeration chunks and confirm the argmin is unchanged
        import streamspan.oracle as oracle_mod

        park, jobs = make_instance(77, 2, 1, 0.5, 6)
        want = exact_optimum(park, jobs)
        monkeypatch.setattr(oracle_mod, "_CHUNK_CELLS", 7)
        assert exact_optimum(park, jobs) == want


class TestGridScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_binary_search_selection(self, seed):
        rng = random.Random(seed)
        m = rng.choice([1, 2, 3])
        m1 = rng.randint(1, m)
        e0 = rng.choice([0.25, 0.5, 1.0])
        park, jobs = make_instance(seed + 5000, m, m1, e0, rng.randint(1, 8))
        params = quiet_params(m, m1, e0, 0.5)
        led = make_ledger(params, pmax=max(jobs))
        led.ingest_many(jobs)
        large = led.finalize()
        out = enumerate_and_select(park, large, 0.5)
        assert (out.grid_exponent, ordinal(out.machine_of, park.m)) == brute_force_selection(
            park, large, 0.5
        )

    def test_zero_load_scans_to_zero(self):
        park = identity_park(2, m1=1, e0=1.0)
        assert grid_scan_t(park, (0.0, 0.0), 0.0, 0.5) == 0.0

    def test_infeasible_instance_returns_none(self):
        # the overloaded machine sits beyond the floor, so its ratio may
        # undercut ratio_floor and its capacity never reaches the demand
        # inside the grid window
        slow = MachineTimeline(2, (1e6,), (0.25,))
        park = MachinePark((MachineTimeline(1, (), ()), slow), 1, 1.0)
        assert grid_scan_t(park, (0.0, 8.0), 8.0, 0.5) is None
