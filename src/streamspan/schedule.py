"""Explicit schedule construction and its independent validator.

The search fixes the large-job placement and a target time t with
capacity to spare for everything else.  Small jobs then fill machines
greedily: each goes to the lowest-indexed machine whose committed load
is still under its capacity at t.  The job that pushes a machine over
closes it; on a floor machine it stays as that machine's late job, on
any other machine it is rerouted to the floor machine carrying the
fewest late jobs so far.  Machines close in index order under this
greedy, so reroute decisions never lack information and the second pass
can place each job the moment it arrives.

The second pass is columnar: the open machine takes a whole run of a
chunk's small jobs at once, found by a running sum of their sizes, and
only the job at a run's end goes through the per-job rule.  Start and
completion times then come from one completion chain per machine: each
job completes where the machine has delivered the run's prefix load
(see streamspan.capacity).

The validator does not rerun that chain: it checks every job's start
against the completion before it in its run, and recomputes every
completion from the run's prefix loads with the oracle's independent
inversion of A_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .capacity import MachinePark, capacity_at, completion_chain
from .errors import JobValueError, ScheduleContractError, TwoPassMismatchError
from .oracle import completion_from_zero
from .search import SearchOutcome

__all__ = [
    "Schedule",
    "FirstPassArtifacts",
    "fingerprint_update",
    "second_pass",
    "validate_schedule",
    "crossing_counts",
]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Every job's machine and back-to-back run times as columns indexed
    by job id; runs[i] lists machine i+1's job ids in run order.  Two
    schedules are equal when every column matches bit for bit."""

    machine: np.ndarray  # int64, 1-based
    start: np.ndarray  # float64
    completion: np.ndarray  # float64
    runs: tuple[np.ndarray, ...]
    makespan: float

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.machine, self.start, self.completion, *self.runs)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        mine, theirs = self._columns(), other._columns()
        return (
            self.makespan == other.makespan
            and len(mine) == len(theirs)
            and all(
                a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                for a, b in zip(mine, theirs)
            )
        )


@dataclass(frozen=True)
class FirstPassArtifacts:
    """What the streaming pass must remember to build the schedule later.

    fingerprint is the fingerprint_update fold over the whole stream, so
    the second pass can tell a changed stream from the one it replays.
    """

    outcome: SearchOutcome
    job_count: int
    max_seen: float
    fingerprint: int

    @property
    def large_ids(self) -> frozenset[int]:
        return frozenset(job_id for job_id, _ in self.outcome.assignment.jobs)


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_POSITION_KEY = np.uint64(0x9E3779B97F4A7C15)


def fingerprint_update(fingerprint: int, values: np.ndarray, start: int) -> int:
    """Fold the float64 values at stream positions start.. into fingerprint.

    Each value's bits, xor-ed with its position times a key, go through
    the splitmix64 finalizer; the hashes add up mod 2**64.  The sum does
    not depend on how the stream is chunked, and a change of any value or
    of the order of two different values changes it.
    """
    positions = np.arange(start, start + values.size, dtype=np.uint64)
    z = values.view(np.uint64) ^ (positions * _POSITION_KEY)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return (fingerprint + int(z.sum(dtype=np.uint64))) % (1 << 64)


class _GreedyFill:
    """The second pass's greedy filler, one run of jobs at a time.

    Machines fill in index order, so `open` only moves forward: past a
    machine whose committed load reached its capacity at t, and past a
    machine above the floor that closed by rerouting its crossing job.
    """

    def __init__(self, park: MachinePark, t: float, committed: Sequence[float]):
        self.floor = park.floor_machines
        self.cap = [capacity_at(tl, t) for tl in park.machines]
        self.committed = list(committed)
        self.open = 0
        self.late = [0] * park.m
        self.smalls: list[list[np.ndarray]] = [[] for _ in range(park.m)]
        self.movers: list[list[int]] = [[] for _ in range(park.m)]

    def _reroute(self, job_id: int) -> None:
        late = self.late
        dest = late.index(min(late[: self.floor]))  # lowest index among the fewest
        self.movers[dest].append(job_id)
        late[dest] += 1

    def place(self, ids: np.ndarray, sizes: np.ndarray) -> None:
        """Place the small jobs ids (stream order) of the given sizes."""
        m, cap, committed = len(self.cap), self.cap, self.committed
        k, n = 0, sizes.size
        while k < n:
            i = self.open
            while i < m and committed[i] >= cap[i]:
                i += 1
            self.open = i
            if i == m:
                # every machine is full at t; each job is late wherever it goes
                for job_id in ids[k:].tolist():
                    self._reroute(job_id)
                return
            # loads[q] is the committed load before job k+q: an exact left fold
            loads = np.empty(n - k + 1)
            loads[0] = committed[i]
            loads[1:] = sizes[k:]
            np.add.accumulate(loads, out=loads)
            # job k+q fits while loads[q] < cap and loads[q+1] <= cap
            below = int(np.searchsorted(loads, cap[i], side="left"))
            within = int(np.searchsorted(loads, cap[i], side="right"))
            took = min(below, within - 1)
            self.smalls[i].append(ids[k : k + took])
            committed[i] = float(loads[took])
            k += took
            if k < n and committed[i] < cap[i]:
                # job k crosses the capacity and closes machine i
                if i < self.floor:
                    committed[i] = float(loads[took + 1])
                    self.smalls[i].append(ids[k : k + 1])
                    self.late[i] += 1
                else:
                    self.open = i + 1
                    self._reroute(int(ids[k]))
                k += 1

    def runs(self, large_runs: Sequence[Sequence[int]]) -> tuple[np.ndarray, ...]:
        """Per machine: its large jobs, its small jobs, then rerouted jobs."""
        return tuple(
            np.concatenate([np.array(large, np.int64), *smalls, np.array(movers, np.int64)])
            for large, smalls, movers in zip(large_runs, self.smalls, self.movers)
        )


def _timed(park: MachinePark, runs: tuple[np.ndarray, ...], sizes: np.ndarray) -> Schedule:
    """The schedule that runs each machine's jobs back to back from 0."""
    n = sizes.size
    machine = np.empty(n, np.int64)
    start = np.empty(n, np.float64)
    completion = np.empty(n, np.float64)
    makespan = 0.0
    for index, (tl, run) in enumerate(zip(park.machines, runs), start=1):
        if not run.size:
            continue
        done = completion_chain(tl, 0.0, sizes[run])
        machine[run] = index
        completion[run] = done
        start[run[0]] = 0.0
        start[run[1:]] = done[:-1]
        makespan = max(makespan, float(done[-1]))
    return Schedule(machine, start, completion, runs, makespan)


def second_pass(
    park: MachinePark,
    artifacts: FirstPassArtifacts,
    chunks: Iterable,
) -> Schedule:
    """Replay the stream, chunk by chunk, and route each small job.

    The replayed stream must match the first pass: same length, no
    processing time above the recorded maximum, every retained large job
    at its id with its size, and the same fingerprint.  Of the faults at
    positions, the earliest is reported.
    """
    outcome = artifacts.outcome
    assignment = outcome.assignment
    n = artifacts.job_count
    large_runs: list[list[int]] = [[] for _ in range(park.m)]
    for (job_id, _), machine in zip(assignment.jobs, assignment.machine_of):
        large_runs[machine - 1].append(job_id)
    order = sorted(assignment.jobs)
    large_ids = np.array([job_id for job_id, _ in order], np.int64)
    large_sizes = np.array([p for _, p in order], np.float64)
    fill = _GreedyFill(park, outcome.t, assignment.per_machine_load)
    sizes = np.empty(n, np.float64)
    fingerprint = 0
    seen = 0
    lo = 0  # large_ids[lo:] lie at or after the current chunk
    for chunk in chunks:
        arr = np.asarray(chunk, dtype=np.float64)
        start = seen
        seen += arr.size
        head = arr[:max(n - start, 0)]
        hi = lo + int(np.searchsorted(large_ids[lo:], start + head.size))
        here = large_ids[lo:hi] - start
        bad = ~(head > 0) | (head > artifacts.max_seen)
        bad[here[head[here] != large_sizes[lo:hi]]] = True
        first = np.flatnonzero(bad)
        if first.size:
            _raise_fault(artifacts, head, start, int(first[0]), here, large_sizes[lo:hi])
        if head.size < arr.size:
            raise TwoPassMismatchError(
                f"second stream is longer than the first pass ({n} jobs)"
            )
        sizes[start:seen] = arr
        fingerprint = fingerprint_update(fingerprint, arr, start)
        if here.size:
            small = np.ones(arr.size, bool)
            small[here] = False
            fill.place(np.flatnonzero(small) + start, arr[small])
        else:
            fill.place(np.arange(start, seen), arr)
        lo = hi
    if seen != n:
        raise TwoPassMismatchError(
            f"second stream ended after {seen} jobs; first pass saw {n}"
        )
    if fingerprint != artifacts.fingerprint:
        raise TwoPassMismatchError(
            "second stream has the first pass's length and maximum but not its "
            "values in the same order (fingerprint mismatch)"
        )
    return _timed(park, fill.runs(large_runs), sizes)


def _raise_fault(artifacts, head, start, q, here, kept) -> None:
    """Raise for the fault at chunk offset q."""
    job_id = start + q
    p = float(head[q])
    if not p > 0:
        raise JobValueError(
            f"processing time must be > 0, got {p} at position {job_id}",
            position=job_id,
        )
    if p > artifacts.max_seen:
        raise TwoPassMismatchError(
            f"job at position {job_id} has processing time {p} above the "
            f"first-pass maximum {artifacts.max_seen}"
        )
    size = float(kept[int(np.searchsorted(here, q))])
    raise TwoPassMismatchError(
        f"job at position {job_id} has processing time {p}; the first pass "
        f"kept it as a large job of size {size}"
    )


def validate_schedule(park: MachinePark, schedule: Schedule, jobs: Sequence[float]) -> None:
    """Check the schedule against the instance; raise on any inconsistency.

    Each run starts at 0 and runs back to back, and each completion is
    where the machine has delivered the run's prefix load, with the
    chain's running max, recomputed by the oracle's inversion.
    """
    sizes = np.asarray(jobs, dtype=np.float64)
    n = sizes.size
    for column in (schedule.machine, schedule.start, schedule.completion):
        if column.shape != (n,):
            raise ScheduleContractError(
                f"schedule covers {column.size} jobs, instance has {n}"
            )
    if len(schedule.runs) != park.m:
        raise ScheduleContractError(
            f"schedule has runs for {len(schedule.runs)} machines, park has {park.m}"
        )
    listed = np.concatenate([np.asarray(run, np.int64) for run in schedule.runs])
    unknown = listed[(listed < 0) | (listed >= n)]
    if unknown.size:
        raise ScheduleContractError(f"unknown job id {unknown[0]}")
    count = np.bincount(listed, minlength=n)
    if (count > 1).any():
        raise ScheduleContractError(f"job {int(np.argmax(count > 1))} placed twice")
    if (count == 0).any():
        raise ScheduleContractError(f"job {int(np.argmin(count))} is in no machine's run")
    off_park = np.flatnonzero((schedule.machine < 1) | (schedule.machine > park.m))
    if off_park.size:
        j = int(off_park[0])
        raise ScheduleContractError(f"job {j} on unknown machine {schedule.machine[j]}")
    top = 0.0
    for index, (tl, run) in enumerate(zip(park.machines, schedule.runs), start=1):
        run = np.asarray(run, np.int64)
        elsewhere = np.flatnonzero(schedule.machine[run] != index)
        if elsewhere.size:
            j = int(run[elsewhere[0]])
            raise ScheduleContractError(
                f"job {j} is in machine {index}'s run but placed on machine "
                f"{schedule.machine[j]}"
            )
        if not run.size:
            continue
        start, completion = schedule.start[run], schedule.completion[run]
        clock = np.concatenate(([0.0], completion[:-1]))
        done = np.maximum.accumulate(completion_from_zero(tl, np.add.accumulate(sizes[run])))
        wrong = np.flatnonzero((start != clock) | (completion != done))
        if wrong.size:
            k = int(wrong[0])
            j = int(run[k])
            if start[k] != clock[k]:
                raise ScheduleContractError(
                    f"job {j} starts at {start[k]}, expected {clock[k]} (no idle time)"
                )
            raise ScheduleContractError(
                f"job {j} completion {completion[k]} != recomputed {done[k]}"
            )
        top = max(top, float(completion[-1]))
    if schedule.makespan != top:
        raise ScheduleContractError(
            f"makespan {schedule.makespan} != recomputed {top}"
        )


def crossing_counts(
    park: MachinePark,
    schedule: Schedule,
    jobs: Sequence[float],
    t: float,
) -> list[int]:
    """Per machine, how many jobs finish after t (exact load comparison)."""
    sizes = np.asarray(jobs, dtype=np.float64)
    return [
        int(np.count_nonzero(np.add.accumulate(sizes[run]) > capacity_at(tl, t)))
        for tl, run in zip(park.machines, schedule.runs)
    ]
