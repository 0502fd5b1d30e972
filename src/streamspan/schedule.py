"""Explicit schedule construction and its independent validator.

The search fixes the large-job placement and a target time t with
capacity to spare for everything else.  Small jobs then fill machines
greedily: each goes to the lowest-indexed machine whose load is still
under its capacity at t.  The job that pushes a machine over
closes it; on a floor machine it stays as that machine's late job, on
any other machine it is rerouted to the floor machine carrying the
fewest late jobs so far.  Machines close in index order under this
greedy, so reroute decisions never lack information and the second pass
can place each job the moment it arrives.

The second pass streams: SecondPass reads back the first pass's spill,
the stream's own parsed chunks, and yields one ScheduleBlock per chunk,
the rows of that chunk's jobs.
In a chunk the open machine takes a whole run of small jobs at once,
found by a left fold of its load over their sizes, and only the job at
a run's end goes through the per-job rule, so a machine's share of a
chunk is a few ranges, filled by slices.  Each machine runs its large
jobs first, then its small jobs in stream order, then its rerouted
jobs; since every floor machine is closed before the first reroute,
that is stream order after the large jobs.  So a machine's greedy load
is its run's prefix load, and each job completes where the machine has
delivered the load it reached with that job (see streamspan.capacity):
a job's machine, start and completion are final when the replay reaches
it.  Memory does not grow with the stream.  second_pass concatenates
the blocks into one Schedule for library use.

The validator does not rerun that chain: it checks every job's start
against the completion before it in its run, and recomputes every
completion from the run's prefix loads with the oracle's independent
inversion of A_i.  It loads streamspan.oracle on first call, which a
two-pass run never makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .capacity import MachinePark, capacity_at, completion_chain, completions_at
from .errors import ConfigError, ScheduleContractError
from .pipeline import FirstPassArtifacts

__all__ = [
    "Schedule",
    "ScheduleBlock",
    "SecondPass",
    "second_pass",
    "validate_schedule",
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


class _GreedyFill:
    """The second pass's greedy filler, one chunk of small jobs at a time.

    loads[i] is machine i's run load so far, folded in run order.
    Machines fill in index order, so `open` only moves forward: past a
    machine whose load reached its capacity at t, and past a machine above
    the floor that closed by rerouting its crossing job.  Every floor
    machine is therefore closed before the first reroute: a rerouted job
    runs after every small job its floor machine takes, and its size adds
    to a load that stays closed.
    """

    def __init__(self, park: MachinePark, t: float, loads: Sequence[float]):
        self.floor = park.floor_machines
        self.cap = [capacity_at(tl, t) for tl in park.machines]
        self.loads = list(loads)
        self.open = 0
        self.late = [0] * park.m

    def place(self, sizes: np.ndarray) -> tuple[list[list[range]], np.ndarray]:
        """Place a chunk's small jobs, of the given sizes in stream order.

        Returns per machine the ranges of positions in sizes of the jobs
        it takes, in order, and each job's completion target: its
        machine's load once the job is done.
        """
        m, cap, loads, late = len(self.cap), self.cap, self.loads, self.late
        taken: list[list[range]] = [[] for _ in range(m)]
        targets = np.empty(sizes.size)

        def reroute(q: int) -> None:
            dest = late.index(min(late[: self.floor]))  # lowest index among the fewest
            taken[dest].append(range(q, q + 1))
            late[dest] += 1
            loads[dest] += float(sizes[q])
            targets[q] = loads[dest]

        k, n = 0, sizes.size
        while k < n:
            i = self.open
            while i < m and loads[i] >= cap[i]:
                i += 1
            self.open = i
            if i == m:
                # every machine is full at t; each job is late wherever it goes
                for q in range(k, n):
                    reroute(q)
                break
            # fold[q] is the load before job k+q: an exact left fold
            fold = np.concatenate(([loads[i]], sizes[k:]))
            np.add.accumulate(fold, out=fold)
            # job k+q fits while fold[q] < cap and fold[q+1] <= cap
            below = int(np.searchsorted(fold, cap[i], side="left"))
            within = int(np.searchsorted(fold, cap[i], side="right"))
            took = min(below, within - 1)
            # job k+took, if any, crosses the capacity and closes machine i;
            # a floor machine keeps it as its late job
            crosses = k + took < n and bool(fold[took] < cap[i])
            kept = took + (crosses and i < self.floor)
            if kept:
                taken[i].append(range(k, k + kept))
                targets[k : k + kept] = fold[1 : kept + 1]
            loads[i] = float(fold[kept])
            if crosses:
                if i < self.floor:
                    late[i] += 1
                else:
                    self.open = i + 1
                    reroute(k + took)
            k += took + crosses
        return taken, targets


class ScheduleBlock(NamedTuple):
    """The schedule's rows for the jobs of one replayed chunk, first to
    first + len - 1, as columns indexed by row."""

    first: int
    machine: np.ndarray  # int64, 1-based
    start: np.ndarray  # float64
    completion: np.ndarray  # float64


class SecondPass:
    """The second pass as a stream of ScheduleBlocks, one per replayed chunk.

    Iterating reads the first pass's spill once, in the first pass's
    chunks.  Each chunk's small jobs are placed, and each machine's run is
    continued through them from the completion it reached in the chunk
    before; the large jobs, which open the runs, are timed up front.
    A job's machine, start and completion are final when the replay
    reaches it, so blocks hold only their own chunk's jobs.

    Every retained large job must be in its chunk at its id with its
    size, an internal contract (ScheduleContractError).  When the
    iteration ends, makespan holds the schedule's makespan; seconds is the
    time spent inside the iteration, reading the spill included.
    """

    def __init__(self, park: MachinePark, artifacts: FirstPassArtifacts):
        if artifacts.spill is None:
            raise ConfigError("a one-pass run keeps no spill for a second pass to read")
        self.park = park
        self.artifacts = artifacts
        self.makespan: float | None = None
        self.seconds = 0.0

    def __iter__(self) -> Iterator[ScheduleBlock]:
        began = time.perf_counter()
        park, artifacts = self.park, self.artifacts
        outcome = artifacts.outcome
        fill = _GreedyFill(park, outcome.t, outcome.per_machine_load)
        # a machine runs its large jobs first, in the search's job order
        large_sizes = np.array([p for _, p in outcome.jobs], np.float64)
        large_machine = np.array(outcome.machine_of, np.int64)
        large_start, large_completion = np.zeros(large_sizes.size), np.empty(large_sizes.size)
        clocks = []  # each machine's last completion so far
        for i, tl in enumerate(park.machines):
            run = np.flatnonzero(large_machine == i + 1)
            done = completion_chain(tl, 0.0, large_sizes[run])
            large_completion[run] = done
            large_start[run[1:]] = done[:-1]
            clocks.append(float(done[-1]) if run.size else 0.0)
        large_ids = np.array([job_id for job_id, _ in outcome.jobs], np.int64)
        order = np.argsort(large_ids)
        large_ids, large_sizes, large_machine, large_start, large_completion = (
            column[order] for column in
            (large_ids, large_sizes, large_machine, large_start, large_completion)
        )
        seen = lo = 0  # large_ids[lo:] lie at or after the current chunk
        for arr in artifacts.spill:
            first, seen = seen, seen + arr.size
            hi = lo + int(np.searchsorted(large_ids[lo:], seen))
            here = large_ids[lo:hi] - first
            wrong = np.flatnonzero(arr[here] != large_sizes[lo:hi])
            if wrong.size:
                q = int(here[wrong[0]])
                raise ScheduleContractError(
                    f"job at position {first + q} has processing time {arr[q]}; the first "
                    f"pass kept it as a large job of size {large_sizes[lo + wrong[0]]}"
                )
            sizes = np.delete(arr, here) if here.size else arr  # the small jobs
            taken, targets = fill.place(sizes)
            # the small jobs' columns, a machine's ranges at a time
            machine = np.empty(sizes.size, np.int64)
            start, completion = np.empty(sizes.size), np.empty(sizes.size)
            for i, parts in enumerate(taken):
                if not parts:
                    continue
                done = completions_at(park.machines[i], clocks[i],
                                      np.concatenate([targets[p.start : p.stop] for p in parts]))
                begin = np.concatenate(([clocks[i]], done[:-1]))  # where each job starts
                at = 0
                for p in parts:
                    machine[p.start : p.stop] = i + 1
                    completion[p.start : p.stop] = done[at : at + len(p)]
                    start[p.start : p.stop] = begin[at : at + len(p)]
                    at += len(p)
                clocks[i] = float(done[-1])
            if here.size:  # the large jobs' rows go back in, job k after here[k] - k small ones
                machine, start, completion = (
                    np.insert(small, here - np.arange(here.size), large[lo:hi]) for small, large in
                    ((machine, large_machine), (start, large_start), (completion, large_completion))
                )
            lo = hi
            self.seconds += time.perf_counter() - began
            yield ScheduleBlock(first, machine, start, completion)
            began = time.perf_counter()
        self.makespan = max(clocks)
        self.seconds += time.perf_counter() - began


def second_pass(park: MachinePark, artifacts: FirstPassArtifacts) -> Schedule:
    """Replay the first pass's spill, chunk by chunk, and route each small
    job: the blocks of SecondPass, concatenated into one Schedule."""
    stage = SecondPass(park, artifacts)
    blocks = list(stage)
    machine, start, completion = (
        np.concatenate([getattr(b, name) for b in blocks]) if blocks else np.empty(0, dtype)
        for name, dtype in (("machine", np.int64), ("start", np.float64),
                            ("completion", np.float64))
    )
    outcome = artifacts.outcome
    small = np.ones(machine.size, bool)
    small[[job_id for job_id, _ in outcome.jobs]] = False
    runs = tuple(
        np.concatenate((
            np.array([job_id for (job_id, _), on in zip(outcome.jobs, outcome.machine_of)
                      if on == i], np.int64),
            np.flatnonzero(small & (machine == i)),
        ))
        for i in range(1, park.m + 1)
    )
    return Schedule(machine, start, completion, runs, stage.makespan)


def validate_schedule(park: MachinePark, schedule: Schedule, jobs: Sequence[float]) -> None:
    """Check the schedule against the instance; raise on any inconsistency.

    Each run starts at 0 and runs back to back, and each completion is
    where the machine has delivered the run's prefix load, with the
    chain's running max, recomputed by the oracle's inversion.
    """
    from .oracle import completion_from_zero  # the reference, which a run never loads

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
