import dataclasses
import random

import pytest

from streamspan import (
    JobValueError,
    MachinePark,
    MachineTimeline,
    ScheduleContractError,
    TwoPassMismatchError,
    exact_optimum,
    run_stream,
    second_pass,
    validate_schedule,
)
from streamspan.capacity import completion_time
from streamspan.grouping import KnownPmaxLedger
from streamspan.schedule import FirstPassArtifacts, crossing_counts
from streamspan.search import crossing_allowance, enumerate_and_select

from _support import identity_park, make_instance, offline, quiet_params


def _machine_sequences(schedule):
    seqs = {}
    for pl in sorted(schedule.placements, key=lambda pl: (pl.machine, pl.position)):
        seqs.setdefault(pl.machine, []).append(pl.job_id)
    return seqs


def _run(park, params, jobs, epsilon):
    led = KnownPmaxLedger(params, max(jobs))
    led.ingest_many(jobs)
    large = led.finalize()
    outcome = enumerate_and_select(park, large, epsilon)
    return large, outcome


class TestPlaceSmallJobs:
    def test_only_large_jobs_meets_the_target(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 4.0]
        sched, report = offline(park, params, jobs)
        assert report.search_jobs == 2
        assert sched.makespan <= report.selected_t
        validate_schedule(park, sched, jobs)

    def test_single_machine_is_sequential(self):
        park = identity_park(1)
        params = quiet_params(1, 1, 1.0, 1.0)
        jobs = [3.0, 1.0, 2.0]
        sched, report = offline(park, params, jobs)
        assert sched.makespan == completion_time(park.machines[0], 0.0, 6.0)
        assert [pl.machine for pl in sched.placements] == [1, 1, 1]
        validate_schedule(park, sched, jobs)

    def test_crossing_job_moves_to_floor_machine(self):
        # identity machines, target t=4, large job of 4 fills machine 1;
        # machine 2 takes one 3, the next 3 crosses and must move
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 3.0, 3.0]
        sched, report = offline(park, params, jobs)
        validate_schedule(park, sched, jobs)
        opt = exact_optimum(park, jobs)
        assert opt.makespan <= sched.makespan <= report.value
        counts = crossing_counts(park, sched, jobs, report.selected_t)
        assert counts[1] == 0  # machines above the floor end clean
        assert counts[0] <= crossing_allowance(park)

    def test_empty_instance(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        sched, report = offline(park, params, [])
        assert sched.placements == ()
        assert sched.makespan == 0.0
        assert report.value == 0.0
        validate_schedule(park, sched, [])


class TestOfflineAgainstOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_schedule_contract_on_random_instances(self, seed):
        rng = random.Random(seed)
        m = rng.choice([2, 3])
        m1 = rng.randint(1, m)
        e0 = rng.choice([0.5, 1.0])
        epsilon = rng.choice([0.5, 1.0])
        park, jobs = make_instance(seed + 1000, m, m1, e0, rng.randint(0, 8))
        params = quiet_params(m, m1, e0, epsilon)
        sched, report = offline(park, params, jobs)
        validate_schedule(park, sched, jobs)
        assert sched.makespan <= report.value
        if jobs:
            counts = crossing_counts(park, sched, jobs, report.selected_t)
            allowance = crossing_allowance(park)
            for i in range(park.m):
                if i < m1:
                    assert counts[i] <= allowance
                else:
                    assert counts[i] == 0


class TestSecondPass:
    def _artifacts(self, park, params, jobs, epsilon):
        large, outcome = _run(park, params, jobs, epsilon)
        return FirstPassArtifacts(
            outcome=outcome,
            large_ids=frozenset(j for j, _ in large.jobs),
            job_count=len(jobs),
            max_seen=max(jobs),
        )

    def test_matches_offline_placement_exactly(self):
        for seed in range(20):
            rng = random.Random(seed)
            m = rng.choice([2, 3])
            m1 = rng.randint(1, m)
            park, jobs = make_instance(seed + 2000, m, m1, 0.5, rng.randint(1, 8))
            params = quiet_params(m, m1, 0.5, 0.5)
            whole, _ = offline(park, params, jobs)
            art = self._artifacts(park, params, jobs, 0.5)
            one_by_one = second_pass(park, art, [[p] for p in jobs])
            assert one_by_one == whole

    def test_large_jobs_are_skipped_not_replaced(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 1.0, 4.0]
        art = self._artifacts(park, params, jobs, 1.0)
        sched = second_pass(park, art, [jobs])
        validate_schedule(park, sched, jobs)
        seqs = _machine_sequences(sched)
        placed = sorted(j for ids in seqs.values() for j in ids)
        assert placed == [0, 1, 2]

    def test_longer_stream_rejected(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 2.0]
        art = self._artifacts(park, params, jobs, 1.0)
        with pytest.raises(TwoPassMismatchError, match="longer"):
            second_pass(park, art, [jobs, [1.0]])

    def test_shorter_stream_rejected(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 2.0]
        art = self._artifacts(park, params, jobs, 1.0)
        with pytest.raises(TwoPassMismatchError, match="ended after 1"):
            second_pass(park, art, [jobs[:1]])

    def test_grown_maximum_rejected(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 2.0]
        art = self._artifacts(park, params, jobs, 1.0)
        with pytest.raises(TwoPassMismatchError, match="maximum"):
            second_pass(park, art, [[4.0, 5.0]])

    def test_bad_value_rejected_with_position(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 2.0]
        art = self._artifacts(park, params, jobs, 1.0)
        with pytest.raises(JobValueError, match="position 1"):
            second_pass(park, art, [[4.0, -2.0]])

    def test_the_earliest_fault_wins(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 2.0]
        art = self._artifacts(park, params, jobs, 1.0)
        with pytest.raises(JobValueError, match="position 1"):
            second_pass(park, art, [[4.0, -2.0, 1.0]])
        with pytest.raises(TwoPassMismatchError, match="position 0"):
            second_pass(park, art, [[5.0, -2.0]])
        with pytest.raises(TwoPassMismatchError, match="longer"):
            second_pass(park, art, [[4.0, 2.0, -1.0]])

    def test_roundtrip_through_pipeline_chunks(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 1.0, 3.0, 2.0, 4.0]
        led = KnownPmaxLedger(params, 4.0)
        report, art = run_stream(park, params, led, [jobs])
        sched = second_pass(park, art, [jobs])
        validate_schedule(park, sched, jobs)
        assert sched.makespan <= report.value


class TestValidator:
    def _valid(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 3.0, 1.0, 2.0]
        sched, _ = offline(park, params, jobs)
        return park, jobs, sched

    def test_detects_missing_job(self):
        park, jobs, sched = self._valid()
        broken = dataclasses.replace(sched, placements=sched.placements[:-1])
        with pytest.raises(ScheduleContractError, match="covers 3 jobs"):
            validate_schedule(park, broken, jobs)

    def test_detects_duplicate_job(self):
        park, jobs, sched = self._valid()
        broken = dataclasses.replace(
            sched, placements=sched.placements[:-1] + (sched.placements[0],)
        )
        with pytest.raises(ScheduleContractError, match="twice"):
            validate_schedule(park, broken, jobs)

    def test_detects_unknown_machine(self):
        park, jobs, sched = self._valid()
        bad = dataclasses.replace(sched.placements[0], machine=9)
        broken = dataclasses.replace(sched, placements=(bad,) + sched.placements[1:])
        with pytest.raises(ScheduleContractError, match="machine 9"):
            validate_schedule(park, broken, jobs)

    def test_detects_idle_gap(self):
        park, jobs, sched = self._valid()
        seqs = _machine_sequences(sched)
        victim_machine = next(m for m, ids in seqs.items() if len(ids) >= 2)
        mutated = []
        bumped = False
        for pl in sched.placements:
            if pl.machine == victim_machine and pl.position == 1 and not bumped:
                mutated.append(
                    dataclasses.replace(pl, start=pl.start + 0.5, completion=pl.completion + 0.5)
                )
                bumped = True
            else:
                mutated.append(pl)
        broken = dataclasses.replace(sched, placements=tuple(mutated))
        with pytest.raises(ScheduleContractError, match="no idle time"):
            validate_schedule(park, broken, jobs)

    def test_detects_wrong_completion(self):
        park, jobs, sched = self._valid()
        bad = dataclasses.replace(sched.placements[0], completion=sched.placements[0].completion + 1.0)
        broken = dataclasses.replace(sched, placements=(bad,) + sched.placements[1:])
        with pytest.raises(ScheduleContractError):
            validate_schedule(park, broken, jobs)

    def test_detects_wrong_makespan(self):
        park, jobs, sched = self._valid()
        broken = dataclasses.replace(sched, makespan=sched.makespan + 1.0)
        with pytest.raises(ScheduleContractError, match="makespan"):
            validate_schedule(park, broken, jobs)

    def test_detects_noncontiguous_positions(self):
        park, jobs, sched = self._valid()
        seqs = _machine_sequences(sched)
        victim_machine = next(m for m, ids in seqs.items() if len(ids) >= 1)
        mutated = []
        bumped = False
        for pl in sched.placements:
            if pl.machine == victim_machine and not bumped:
                mutated.append(dataclasses.replace(pl, position=pl.position + 5))
                bumped = True
            else:
                mutated.append(pl)
        broken = dataclasses.replace(sched, placements=tuple(mutated))
        with pytest.raises(ScheduleContractError):
            validate_schedule(park, broken, jobs)


def test_crossing_counts_by_hand():
    # machine 1 delivers t/2 up to t=8: A_1(4) = 2, so with jobs 1,1,1 the
    # third job tips the cumulative load past the capacity at t=4
    park = MachinePark(
        (MachineTimeline(1, (8.0,), (0.5,)), MachineTimeline(2, (), ())),
        2,
        0.5,
    )
    params = quiet_params(2, 2, 0.5, 1.0)
    jobs = [1.0, 1.0, 1.0, 1.0, 1.0]
    sched, _ = offline(park, params, jobs)
    validate_schedule(park, sched, jobs)
    counts = crossing_counts(park, sched, jobs, 4.0)
    per_machine_load = {m: len(ids) for m, ids in _machine_sequences(sched).items()}
    # machine 1 crosses once per whole unit past 2.0 of load
    expected_m1 = max(0, per_machine_load.get(1, 0) - 2)
    assert counts[0] == expected_m1
