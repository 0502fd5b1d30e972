import dataclasses
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamspan import (
    ConfigError,
    JobValueError,
    MachinePark,
    MachineTimeline,
    ScheduleContractError,
    TwoPassMismatchError,
    exact_optimum,
    make_ledger,
    run_stream,
    second_pass,
    validate_schedule,
)
from streamspan.pipeline import fingerprint_update
from streamspan.schedule import SecondPass, _GreedyFill
from streamspan.search import crossing_allowance
from streamspan.textio import write_schedule_csv

from _support import (
    column_bytes,
    completion_time,
    crossing_counts,
    hand_artifacts,
    identity_park,
    make_instance,
    offline,
    quiet_params,
    random_timeline,
    reference_second_pass,
)


def _machine_sequences(schedule):
    """{machine: job ids in run order} for machines that run anything."""
    return {i: run.tolist() for i, run in enumerate(schedule.runs, start=1) if run.size}


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
        assert sched.machine.tolist() == [1, 1, 1]
        assert sorted(sched.runs[0].tolist()) == [0, 1, 2]
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

    def test_one_chunk_placed_by_hand(self):
        # identity machines, so each capacity at t=5 is 5; machines 1 and 2
        # are floor machines, and machine 1 starts with a large load of 1
        park = identity_park(3, m1=2, e0=1.0)
        fill = _GreedyFill(park, 5.0, [1.0, 0.0, 0.0])
        sizes = np.array([1.0, 2.0, 2.0, 5.0, 1.0, 3.0, 2.0, 1.0])
        taken, targets = fill.place(sizes)
        # machine 1 takes jobs 0-1 and keeps job 2, which crosses, as its
        # late job; job 3 fills machine 2 exactly; machine 3 takes jobs 4-5
        # and reroutes job 6, which crosses, to machine 2, the floor
        # machine with fewer late jobs; job 7 finds every machine full and
        # goes to machine 1, the lower index of a tie
        assert taken == [[range(0, 3), range(7, 8)], [range(3, 4), range(6, 7)], [range(4, 6)]]
        assert targets.tolist() == [2.0, 4.0, 6.0, 5.0, 1.0, 4.0, 7.0, 7.0]
        for load, parts in zip([1.0, 0.0, 0.0], taken):
            pos = [q for part in parts for q in part]
            assert targets[pos].tolist() == np.add.accumulate([load, *sizes[pos]])[1:].tolist()
        assert fill.loads == [7.0, 7.0, 4.0]
        assert fill.late == [2, 1, 0] and fill.open == 3

    def test_empty_instance(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        sched, report = offline(park, params, [])
        assert sched.machine.size == sched.start.size == sched.completion.size == 0
        assert [run.size for run in sched.runs] == [0, 0]
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
        assert params.epsilon == epsilon
        _, artifacts = run_stream(park, make_ledger(params, "pmax-given", pmax=max(jobs)), [jobs],
                                  mode="two-pass")
        return artifacts

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
        led = make_ledger(params, "pmax-given", pmax=4.0)
        report, art = run_stream(park, led, [jobs], mode="two-pass")
        sched = second_pass(park, art, [jobs])
        validate_schedule(park, sched, jobs)
        assert sched.makespan <= report.value


class TestStreamFingerprint:
    def test_a_changed_stream_of_the_same_length_and_maximum_is_rejected(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 0.5)
        first = [5.0, 3.0, 8.0, 2.0, 7.0, 1.0]
        _, art = run_stream(park, make_ledger(params, "pmax-given", pmax=8.0), [first],
                            mode="two-pass")
        with pytest.raises(TwoPassMismatchError):
            second_pass(park, art, [[1.0, 1.0, 8.0, 1.0, 1.0, 1.0]])

    def test_swapped_small_jobs_fail_the_fingerprint(self):
        park = identity_park(2, m1=1, e0=1.0)
        jobs = [1.0, 2.0, 3.0]
        art = hand_artifacts(park, jobs, {}, 4.0)
        second_pass(park, art, [jobs])
        with pytest.raises(TwoPassMismatchError, match="fingerprint"):
            second_pass(park, art, [[2.0, 1.0, 3.0]])

    def test_a_changed_large_job_is_named_by_position(self):
        park = identity_park(2, m1=1, e0=1.0)
        jobs = [1.0, 4.0, 2.0]
        art = hand_artifacts(park, jobs, {1: 1}, 4.0)
        with pytest.raises(TwoPassMismatchError, match="position 1 .* large job of size 4.0"):
            second_pass(park, art, [[1.0], [3.0, 2.0]])
        # a bad value earlier in the chunk still wins
        with pytest.raises(JobValueError, match="position 0"):
            second_pass(park, art, [[-1.0, 3.0, 2.0]])

    def test_a_one_pass_run_keeps_no_fingerprint_and_cannot_be_replayed(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 0.5)
        jobs = [5.0, 3.0, 8.0, 2.0]
        lines = {}
        for mode in ("one-pass", "two-pass"):
            report, art = run_stream(park, make_ledger(params, "pmax-unknown"), [jobs], mode=mode)
            # the same report but for its mode line and timings
            lines[mode] = [ln for ln in report.as_lines(stats=True)[1:] if "_seconds" not in ln]
        assert lines["one-pass"] == lines["two-pass"]
        assert art.fingerprint == fingerprint_update(0, np.array(jobs), 0)
        _, art = run_stream(park, make_ledger(params, "pmax-unknown"), [jobs])
        assert art.fingerprint is None
        with pytest.raises(ConfigError, match="one-pass run keeps no fingerprint"):
            second_pass(park, art, [jobs])
        with pytest.raises(ConfigError, match="one-pass run keeps no fingerprint"):
            SecondPass(park, art, [jobs])

    def test_the_fingerprint_ignores_chunking_and_sees_order(self):
        values = np.random.default_rng(3).uniform(0.1, 9.0, 50)
        whole = fingerprint_update(0, values, 0)
        for size in (1, 7, 49):
            folded = 0
            for lo in range(0, values.size, size):
                folded = fingerprint_update(folded, values[lo : lo + size], lo)
            assert folded == whole
        swapped = values.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        assert fingerprint_update(0, swapped, 0) != whole
        assert 0 <= whole < 2**64


_RATIOS = (0.3, 0.7, 0.25, 0.5, 1.0)


def _random_case(seed):
    """A park, real-valued jobs, hand-placed large jobs and a target time
    that is tight as often as it is loose."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    m1 = rng.randint(1, m)
    machines = tuple(
        random_timeline(rng, i, max_intervals=5, bp_max=30, ratio_choices=_RATIOS)
        for i in range(1, m + 1)
    )
    e0 = min((r for tl in machines[:m1] for r in tl.ratios), default=1.0)
    park = MachinePark(machines, m1, e0)
    n = rng.randint(0, 60)
    jobs = [rng.choice([rng.uniform(0.05, 9.0), float(rng.randint(1, 8))]) for _ in range(n)]
    large = {j: rng.randint(1, m) for j in rng.sample(range(n), min(n, rng.randint(0, 3)))}
    t = rng.choice([0.0, rng.uniform(0.0, 1.3 * sum(jobs) / m)])
    return park, jobs, hand_artifacts(park, jobs, large, t)


def _chunked(jobs, size):
    return [jobs[lo : lo + size] for lo in range(0, len(jobs), size)]


class TestColumnarMatchesPerJob:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([1, 7, 65536]))
    def test_random_streams_bit_for_bit(self, seed, size):
        park, jobs, art = _random_case(seed)
        chunks = _chunked(jobs, size)
        fast = second_pass(park, art, chunks)
        assert column_bytes(fast) == column_bytes(reference_second_pass(park, art, jobs))
        validate_schedule(park, fast, jobs)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([1, 7, 65536]),
        dyadic=st.booleans(),
        room=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    def test_floor_machines_and_full_parks_bit_for_bit(self, seed, size, dyadic, room):
        # m1 >= 2, and a target time that leaves room for only a share of
        # the load, so every machine fills and the late jobs are dealt over
        # the floor machines
        rng = random.Random(seed)
        m = rng.randint(2, 4)
        m1 = rng.randint(2, m)
        ratios = (0.25, 0.5, 1.0) if dyadic else _RATIOS
        machines = tuple(
            random_timeline(rng, i, max_intervals=5, bp_max=30, ratio_choices=ratios)
            for i in range(1, m + 1)
        )
        e0 = min((r for tl in machines[:m1] for r in tl.ratios), default=1.0)
        park = MachinePark(machines, m1, e0)
        n = rng.randint(0, 200)
        jobs = [float(rng.randint(1, 8)) if dyadic else rng.uniform(0.05, 9.0) for _ in range(n)]
        large = {j: rng.randint(1, m) for j in rng.sample(range(n), min(n, rng.randint(0, 3)))}
        art = hand_artifacts(park, jobs, large, room * sum(jobs) / m)
        ref = reference_second_pass(park, art, jobs)
        fast = second_pass(park, art, _chunked(jobs, size))
        assert column_bytes(fast) == column_bytes(ref)
        validate_schedule(park, fast, jobs)

    def _check(self, park, jobs, art, runs):
        ref = reference_second_pass(park, art, jobs)
        assert [run.tolist() for run in ref.runs] == runs
        for size in (1, 7, len(jobs)):
            fast = second_pass(park, art, _chunked(jobs, size))
            assert column_bytes(fast) == column_bytes(ref)

    def test_jobs_after_every_machine_is_full_go_to_the_floor(self):
        park = identity_park(3, m1=2, e0=1.0)
        jobs = [1.0] * 10
        art = hand_artifacts(park, jobs, {}, 2.0)
        # the fewest late jobs first, the lowest index on ties
        self._check(park, jobs, art, [[0, 1, 6, 8], [2, 3, 7, 9], [4, 5]])

    def test_an_exact_fill_closes_the_machine_without_a_late_job(self):
        park = identity_park(2, m1=1, e0=1.0)
        jobs = [2.0, 2.0, 1.0]
        art = hand_artifacts(park, jobs, {}, 4.0)
        self._check(park, jobs, art, [[0, 1], [2]])
        # 2**53 + 1 rounds back to 2**53: the machine is full all the same
        jobs = [2.0**53 - 2.0, 2.0, 1.0]
        art = hand_artifacts(park, jobs, {}, 2.0**53)
        self._check(park, jobs, art, [[0, 1], [2]])

    def test_a_machine_above_the_floor_closes_and_reroutes(self):
        park = identity_park(2, m1=1, e0=1.0)
        jobs = [4.0, 3.0, 3.0, 1.0]
        art = hand_artifacts(park, jobs, {}, 4.0)
        # job 2 would cross on machine 2: it moves to machine 1, and so
        # does job 3, since machine 2 accepts nothing after closing
        self._check(park, jobs, art, [[0, 2, 3], [1]])

    def test_large_jobs_run_first_and_are_masked_out(self):
        park = identity_park(2, m1=1, e0=1.0)
        jobs = [1.0, 5.0, 1.0, 5.0, 1.0]
        art = hand_artifacts(park, jobs, {3: 1, 1: 2}, 6.0)
        # jobs 0 and 2 fill the machines to 6; job 4 is late on the floor
        self._check(park, jobs, art, [[3, 0, 4], [1, 2]])


class TestChunkingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([1, 2, 3, 11]),
        room=st.sampled_from([0.2, 0.6, 1.0, 1.5]),
        dyadic=st.booleans(),
    )
    def test_every_chunking_gives_one_schedule_and_one_csv(self, seed, m, room, dyadic):
        # large jobs inside chunks, machines above the floor rerouting the
        # job that closes them, and targets tight enough that every machine
        # fills: a chunk places runs on several machines, in several ranges
        rng = random.Random(seed)
        m1 = rng.randint(1, m)
        ratios = (0.25, 0.5, 1.0) if dyadic else _RATIOS
        machines = tuple(
            random_timeline(rng, i, max_intervals=5, bp_max=30, ratio_choices=ratios)
            for i in range(1, m + 1)
        )
        park = MachinePark(machines, m1, min((r for tl in machines[:m1] for r in tl.ratios),
                                             default=1.0))
        n = rng.randint(50, 400)
        jobs = [float(rng.randint(1, 8)) if dyadic else rng.uniform(0.05, 9.0) for _ in range(n)]
        large = {j: rng.randint(1, m) for j in rng.sample(range(n), rng.randint(1, 6))}
        art = hand_artifacts(park, jobs, large, room * sum(jobs) / m)
        schedules, csvs = [], []
        for size in (1, 7, 64, n):
            schedules.append(second_pass(park, art, _chunked(jobs, size)))
            out = io.BytesIO()
            write_schedule_csv(out, SecondPass(park, art, _chunked(jobs, size)))
            csvs.append(out.getvalue())
        assert all(schedule == schedules[0] for schedule in schedules[1:])
        assert len(set(csvs)) == 1


class TestValidator:
    def _valid(self):
        park = identity_park(2, m1=1, e0=1.0)
        params = quiet_params(2, 1, 1.0, 1.0)
        jobs = [4.0, 3.0, 1.0, 2.0]
        sched, _ = offline(park, params, jobs)
        return park, jobs, sched

    def _edited(self, sched, **columns):
        """sched with copies of its columns, edited by the given functions."""
        fields = {}
        for name, edit in columns.items():
            value = getattr(sched, name)
            value = [run.copy() for run in value] if name == "runs" else value.copy()
            fields[name] = edit(value)
        return dataclasses.replace(sched, **fields)

    def test_detects_missing_job(self):
        park, jobs, sched = self._valid()
        broken = self._edited(sched, machine=lambda c: c[:-1], start=lambda c: c[:-1],
                              completion=lambda c: c[:-1])
        with pytest.raises(ScheduleContractError, match="covers 3 jobs"):
            validate_schedule(park, broken, jobs)
        # a job left out of every run
        dropped = self._edited(sched, runs=lambda runs: tuple(run[run != 3] for run in runs))
        with pytest.raises(ScheduleContractError, match="job 3 is in no machine's run"):
            validate_schedule(park, dropped, jobs)

    def test_detects_duplicate_job(self):
        park, jobs, sched = self._valid()
        victim = next(i for i, run in enumerate(sched.runs) if run.size)

        def twice(runs):
            runs[victim] = np.append(runs[victim], runs[victim][0])
            return tuple(runs)

        broken = self._edited(sched, runs=twice)
        with pytest.raises(ScheduleContractError, match="twice"):
            validate_schedule(park, broken, jobs)

    def test_detects_unknown_machine(self):
        park, jobs, sched = self._valid()

        def nine(col):
            col[0] = 9
            return col

        broken = self._edited(sched, machine=nine)
        with pytest.raises(ScheduleContractError, match="machine 9"):
            validate_schedule(park, broken, jobs)

    def test_detects_idle_gap(self):
        park, jobs, sched = self._valid()
        second = next(run[1] for run in sched.runs if run.size >= 2)

        def later(col):
            col[second] += 0.5
            return col

        broken = self._edited(sched, start=later, completion=later)
        with pytest.raises(ScheduleContractError, match="no idle time"):
            validate_schedule(park, broken, jobs)

    def test_detects_wrong_completion(self):
        park, jobs, sched = self._valid()

        def off_by_one(col):
            col[0] += 1.0
            return col

        broken = self._edited(sched, completion=off_by_one)
        with pytest.raises(ScheduleContractError, match="job 0 completion"):
            validate_schedule(park, broken, jobs)

    def test_validation_does_not_rerun_the_chain(self, monkeypatch):
        # each run is recomputed from its prefix loads by the oracle's inversion
        park, jobs = make_instance(4, 3, 1, 0.5, 400, ratio_choices=(0.3, 0.7, 1.0))
        jobs = [p * 0.37 for p in jobs]
        sched, _ = offline(park, quiet_params(3, 1, 0.5, 0.5, retain_limit=3), jobs)

        def refuse(*args):
            raise AssertionError("validate_schedule ran the completion chain")

        for name in ("completion_chain", "completions_at"):
            monkeypatch.setattr(f"streamspan.schedule.{name}", refuse)
        validate_schedule(park, sched, jobs)
        last = sched.runs[0][-1]
        broken = self._edited(sched, completion=lambda c: np.where(np.arange(c.size) == last,
                                                                    np.nextafter(c, np.inf), c))
        with pytest.raises(ScheduleContractError, match=f"job {last} completion"):
            validate_schedule(park, broken, jobs)

    def test_detects_wrong_makespan(self):
        park, jobs, sched = self._valid()
        broken = dataclasses.replace(sched, makespan=sched.makespan + 1.0)
        with pytest.raises(ScheduleContractError, match="makespan"):
            validate_schedule(park, broken, jobs)

    def test_detects_noncontiguous_positions(self):
        # the run order broken: two jobs of one machine swapped in its run
        park, jobs, sched = self._valid()
        victim = next(i for i, run in enumerate(sched.runs) if run.size >= 2)

        def swapped(runs):
            runs[victim][[0, 1]] = runs[victim][[1, 0]]
            return tuple(runs)

        broken = self._edited(sched, runs=swapped)
        with pytest.raises(ScheduleContractError, match="no idle time"):
            validate_schedule(park, broken, jobs)

    def test_detects_a_run_on_the_wrong_machine(self):
        park, jobs, sched = self._valid()
        broken = self._edited(sched, runs=lambda runs: tuple(reversed(runs)))
        with pytest.raises(ScheduleContractError, match="run but placed on machine"):
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
