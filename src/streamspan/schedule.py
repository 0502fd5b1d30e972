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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .capacity import MachinePark, capacity_at, completion_time
from .errors import JobValueError, ScheduleContractError, TwoPassMismatchError
from .search import SearchOutcome

__all__ = [
    "JobPlacement",
    "Schedule",
    "FirstPassArtifacts",
    "second_pass",
    "validate_schedule",
    "crossing_counts",
]


@dataclass(frozen=True)
class JobPlacement:
    job_id: int
    machine: int  # 1-based
    position: int  # 0-based slot within the machine's run order
    start: float
    completion: float


@dataclass(frozen=True)
class Schedule:
    """Every job's machine and back-to-back run times, sorted by job id."""

    placements: tuple[JobPlacement, ...]
    makespan: float


@dataclass(frozen=True)
class FirstPassArtifacts:
    """What the streaming pass must remember to build the schedule later."""

    outcome: SearchOutcome
    large_ids: frozenset[int]
    job_count: int
    max_seen: float


class _SmallPlacer:
    """Greedy filler of the second pass."""

    def __init__(self, park: MachinePark, t: float, per_machine_large: Sequence[float]):
        self.park = park
        self.cap_at_t = [capacity_at(tl, t) for tl in park.machines]
        self.committed = list(per_machine_large)
        self.closed = [False] * park.m
        self.smalls: list[list[tuple[int, float]]] = [[] for _ in range(park.m)]
        self.movers: list[list[tuple[int, float]]] = [[] for _ in range(park.m)]
        self.late_count = [0] * park.m
        self._first_open = 0

    def _reroute(self, job_id: int, p: float) -> None:
        floor = self.park.floor_machines
        dest = 0
        for i in range(1, floor):
            if self.late_count[i] < self.late_count[dest]:
                dest = i
        self.movers[dest].append((job_id, p))
        self.late_count[dest] += 1

    def place(self, job_id: int, p: float) -> None:
        m = self.park.m
        while self._first_open < m and (
            self.closed[self._first_open]
            or self.committed[self._first_open] >= self.cap_at_t[self._first_open]
        ):
            self._first_open += 1
        if self._first_open >= m:
            # every machine is full at t; the job is late wherever it goes
            self._reroute(job_id, p)
            return
        dest = self._first_open
        new_load = self.committed[dest] + p
        if new_load > self.cap_at_t[dest]:
            if dest < self.park.floor_machines:
                self.committed[dest] = new_load
                self.smalls[dest].append((job_id, p))
                self.late_count[dest] += 1
            else:
                # keep the machine's sub-t load; the closing job moves to a
                # floor machine, and this machine accepts nothing further
                self.closed[dest] = True
                self._reroute(job_id, p)
        else:
            self.committed[dest] = new_load
            self.smalls[dest].append((job_id, p))

    def sequences(self, large_per_machine: Sequence[Sequence[tuple[int, float]]]):
        return [
            list(large_per_machine[i]) + self.smalls[i] + self.movers[i]
            for i in range(self.park.m)
        ]


def _large_sequences(park: MachinePark, outcome: SearchOutcome):
    seqs: list[list[tuple[int, float]]] = [[] for _ in range(park.m)]
    for (job_id, p), machine in zip(outcome.assignment.jobs, outcome.assignment.machine_of):
        seqs[machine - 1].append((job_id, p))
    return seqs


def _assemble(park: MachinePark, sequences) -> Schedule:
    placements = []
    makespan = 0.0
    for i, seq in enumerate(sequences):
        tl = park.machines[i]
        clock = 0.0
        for position, (job_id, p) in enumerate(seq):
            done = completion_time(tl, clock, p)
            placements.append(JobPlacement(job_id, i + 1, position, clock, done))
            clock = done
        if clock > makespan:
            makespan = clock
    placements.sort(key=lambda pl: pl.job_id)
    return Schedule(tuple(placements), makespan)


def second_pass(
    park: MachinePark,
    artifacts: FirstPassArtifacts,
    chunks: Iterable,
) -> Schedule:
    """Replay the stream, chunk by chunk, and route each small job.

    The replayed stream must match the first pass: same length, and no
    processing time above the recorded maximum.  Of the faults in a
    stream, the one at the earliest position is reported.
    """
    placer = _SmallPlacer(park, artifacts.outcome.t, artifacts.outcome.assignment.per_machine_load)
    large_ids = artifacts.large_ids
    seen = 0
    for chunk in chunks:
        arr = np.asarray(chunk, dtype=np.float64)
        start = seen
        seen += arr.size
        head = arr[:max(artifacts.job_count - start, 0)]
        bad = np.flatnonzero(~(head > 0) | (head > artifacts.max_seen))
        if bad.size:
            job_id = start + int(bad[0])
            p = float(head[bad[0]])
            if not p > 0:
                raise JobValueError(
                    f"processing time must be > 0, got {p} at position {job_id}",
                    position=job_id,
                )
            raise TwoPassMismatchError(
                f"job at position {job_id} has processing time {p} above the "
                f"first-pass maximum {artifacts.max_seen}"
            )
        if head.size < arr.size:
            raise TwoPassMismatchError(
                f"second stream is longer than the first pass ({artifacts.job_count} jobs)"
            )
        for job_id, p in enumerate(arr.tolist(), start):
            if job_id not in large_ids:
                placer.place(job_id, p)
    if seen != artifacts.job_count:
        raise TwoPassMismatchError(
            f"second stream ended after {seen} jobs; first pass saw {artifacts.job_count}"
        )
    return _assemble(park, placer.sequences(_large_sequences(park, artifacts.outcome)))


def validate_schedule(park: MachinePark, schedule: Schedule, jobs: Sequence[float]) -> None:
    """Recompute everything from scratch; raise on any inconsistency."""
    if len(schedule.placements) != len(jobs):
        raise ScheduleContractError(
            f"schedule covers {len(schedule.placements)} jobs, instance has {len(jobs)}"
        )
    seen_ids = set()
    by_machine: dict[int, list[JobPlacement]] = {}
    for pl in schedule.placements:
        if pl.job_id in seen_ids:
            raise ScheduleContractError(f"job {pl.job_id} placed twice")
        seen_ids.add(pl.job_id)
        if not (0 <= pl.job_id < len(jobs)):
            raise ScheduleContractError(f"unknown job id {pl.job_id}")
        if not (1 <= pl.machine <= park.m):
            raise ScheduleContractError(f"job {pl.job_id} on unknown machine {pl.machine}")
        by_machine.setdefault(pl.machine, []).append(pl)
    top = 0.0
    for machine, pls in by_machine.items():
        pls.sort(key=lambda pl: pl.position)
        tl = park.machines[machine - 1]
        clock = 0.0
        for position, pl in enumerate(pls):
            if pl.position != position:
                raise ScheduleContractError(
                    f"machine {machine}: positions not contiguous at {pl.position}"
                )
            if pl.start != clock:
                raise ScheduleContractError(
                    f"job {pl.job_id} starts at {pl.start}, expected {clock} (no idle time)"
                )
            done = completion_time(tl, pl.start, jobs[pl.job_id])
            if pl.completion != done:
                raise ScheduleContractError(
                    f"job {pl.job_id} completion {pl.completion} != recomputed {done}"
                )
            clock = done
        if clock > top:
            top = clock
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
    by_machine: dict[int, list[JobPlacement]] = {}
    for pl in schedule.placements:
        by_machine.setdefault(pl.machine, []).append(pl)
    counts = [0] * park.m
    for machine, pls in by_machine.items():
        pls.sort(key=lambda pl: pl.position)
        cap = capacity_at(park.machines[machine - 1], t)
        running = 0.0
        for pl in pls:
            running += jobs[pl.job_id]
            if running > cap:
                counts[machine - 1] += 1
    return counts
