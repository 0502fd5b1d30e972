"""Piecewise-linear machine capacity and its inversion.

A machine alternates between shared and exclusive processing.  Its capacity
curve A_i(t) maps wall-clock time to the amount of processing delivered:
slope e_k on the interval (t_{k-1}, t_k] between consecutive breakpoints,
slope 1 beyond the last breakpoint.  All ratios lie in (0, 1], so A_i is
strictly increasing and invertible.

A machine's run completes job by job where A_i has delivered the run's
prefix load, its target: A_i(start) plus the left fold of the sizes so
far (completion_chain).  completions_at inverts the targets in one
vectorized expression, with a running max that keeps the completions
non-decreasing: a target on an entry of seg_cap can invert an ulp later
than the next target does.  That is rare, so one comparison of each
completion with the one before decides whether the running max runs at
all.  Whoever folds the targets can invert them piece by piece, each
piece from the last completion of the one before, bit for bit the
whole run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "MachineTimeline",
    "MachinePark",
    "capacity_at",
    "park_capacity_at",
    "completion_chain",
    "completions_at",
    "search_bounds",
]


@dataclass(frozen=True)
class MachineTimeline:
    """One machine's shared-interval structure.

    breakpoints are strictly increasing positive times; ratios[k] is the
    processing rate on (breakpoints[k-1], breakpoints[k]].  Past the last
    breakpoint the machine runs exclusively at rate 1.  Empty breakpoints
    mean the machine was never shared.
    """

    machine_index: int  # 1-based
    breakpoints: tuple[float, ...]
    ratios: tuple[float, ...]
    # Segment k (k = 0..len(breakpoints)) starts at time seg_time[k] with
    # capacity seg_cap[k] and runs at rate seg_rate[k]; the last segment is
    # the exclusive tail at rate 1.  Read-only float64 arrays.
    seg_time: np.ndarray = field(init=False, compare=False, repr=False)
    seg_cap: np.ndarray = field(init=False, compare=False, repr=False)
    seg_rate: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        rs = tuple(float(r) for r in self.ratios)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "ratios", rs)
        if self.machine_index < 1:
            raise ConfigError(f"machine index must be >= 1, got {self.machine_index}")
        if len(bps) != len(rs):
            raise ConfigError(
                f"machine {self.machine_index}: {len(bps)} breakpoints vs {len(rs)} ratios"
            )
        prev = 0.0
        for k, b in enumerate(bps):
            if not b > prev:  # NaN compares false both ways
                raise ConfigError(
                    f"machine {self.machine_index}: breakpoint {k + 1} ({b}) "
                    f"not greater than previous ({prev})"
                )
            prev = b
        for k, r in enumerate(rs):
            if not (0.0 < r <= 1.0):
                raise ConfigError(
                    f"machine {self.machine_index}: ratio {k + 1} ({r}) outside (0, 1]"
                )
        # Capacity at each breakpoint, one left fold of (b - prev) * r.
        # capacity_at recomputes the last step with this exact expression,
        # so boundary lookups agree bit for bit.
        seg_time = np.array((0.0,) + bps)
        seg_rate = np.array(rs + (1.0,))
        seg_cap = np.cumsum(np.diff(seg_time, prepend=0.0) * np.array((0.0,) + rs))
        for name, table in (("seg_time", seg_time), ("seg_cap", seg_cap), ("seg_rate", seg_rate)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)


@dataclass(frozen=True)
class MachinePark:
    """The m machines plus the sharing guarantees the algorithms rely on.

    The first floor_machines machines never share below ratio_floor:
    every one of their ratios is >= ratio_floor, which lies in (0, 1].
    """

    machines: tuple[MachineTimeline, ...]
    floor_machines: int
    ratio_floor: float

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        m = len(self.machines)
        if m < 1:
            raise ConfigError("need at least one machine")
        if not (1 <= self.floor_machines <= m):
            raise ConfigError(
                f"m1 must be in [1, {m}], got {self.floor_machines}"
            )
        if not (0.0 < self.ratio_floor <= 1.0):
            raise ConfigError(f"e0 must be in (0, 1], got {self.ratio_floor}")
        for i, tl in enumerate(self.machines, start=1):
            if tl.machine_index != i:
                raise ConfigError(
                    f"machine at slot {i} carries index {tl.machine_index}"
                )
            if i <= self.floor_machines:
                for k, r in enumerate(tl.ratios):
                    if r < self.ratio_floor:
                        raise ConfigError(
                            f"machine {i}: ratio {k + 1} ({r}) below e0 "
                            f"({self.ratio_floor}) but machine is within the "
                            f"first m1={self.floor_machines}"
                        )

    @property
    def m(self) -> int:
        return len(self.machines)


def capacity_at(timeline: MachineTimeline, t: float) -> float:
    """Processing delivered by time t (A_i(t)).  t must be >= 0."""
    if t < 0:
        raise ConfigError(f"time must be >= 0, got {t}")
    i = bisect_left(timeline.breakpoints, t)  # t lies in segment i
    return float(timeline.seg_cap[i] + (t - timeline.seg_time[i]) * timeline.seg_rate[i])


def park_capacity_at(park: MachinePark, t: float) -> float:
    """Aggregate capacity A(t), summed over machines in index order."""
    total = 0.0
    for tl in park.machines:
        total += capacity_at(tl, t)
    return total


def completion_chain(
    timeline: MachineTimeline, start: float, amounts: Sequence[float]
) -> np.ndarray:
    """Completion times (float64) of amounts run back to back from start.

    Job i completes at A_i^{-1}(A_i(start) + amounts[0] + ... + amounts[i]),
    the targets summed as one left fold, and never before the completion
    before it.  Amounts must be > 0; start >= 0.
    """
    targets = np.empty(len(amounts) + 1)
    targets[0] = capacity_at(timeline, start)
    targets[1:] = amounts
    np.add.accumulate(targets, out=targets)
    return completions_at(timeline, start, targets[1:])


def completions_at(timeline: MachineTimeline, start: float, targets: np.ndarray) -> np.ndarray:
    """Completion times (float64) of a run from start whose jobs end where
    the machine has delivered the non-decreasing float64 targets, each
    never before start or the completion before it."""
    seg_time, seg_cap, seg_rate = timeline.seg_time, timeline.seg_cap, timeline.seg_rate
    cum = seg_cap[1:]
    # a target equal to seg_cap[k + 1] ends segment k: bisect_left, not
    # right.  The targets do not decrease, so k steps up at each entry's
    # place among them, found by one search per entry instead of per target.
    steps = np.searchsorted(targets, cum, side="right")
    k = np.repeat(np.arange(cum.size + 1), np.diff(steps, prepend=0, append=targets.size))
    t = seg_time[k] + (targets - seg_cap[k]) / seg_rate[k]
    if t.size:
        # a target on a seg_cap entry can invert an ulp past the next one's;
        # the running max, a slow scan, runs only when one does
        t[0] = max(t[0], start)
        if (t[1:] < t[:-1]).any():
            np.maximum.accumulate(t, out=t)
    return t


def search_bounds(park: MachinePark, total_load: float) -> tuple[float, float]:
    """(lower, upper) bracket for the optimal makespan given total load P.

    P/m is a lower bound (aggregate rate never exceeds m); P/ratio_floor
    is an upper bound because machine 1 alone finishes everything at a
    rate never below ratio_floor.
    """
    if total_load < 0:
        raise ConfigError(f"total load must be >= 0, got {total_load}")
    return total_load / park.m, total_load / park.ratio_floor
