"""Grid search for the smallest feasible finishing time.

A candidate time t is feasible for an assignment of the large jobs when
the park's aggregate capacity covers the total load and each machine's
own capacity covers its assigned large load.  Both conditions are
monotone in t, so per assignment the kernels binary-search a geometric
grid LB * (1+eps/2)^x for the first feasible point, and the returned
value adds the worst-case tail of small jobs that may finish after t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .capacity import MachinePark, capacity_at, park_capacity_at, search_bounds
from .errors import BudgetExceededError, JobValueError, StreamspanError
from .grouping import LargeJobSet

__all__ = [
    "LargeAssignment",
    "SearchOutcome",
    "DEFAULT_BUDGET",
    "time_grid",
    "crossing_allowance",
    "makespan_value",
    "enumerate_and_select",
]

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class LargeAssignment:
    """One mapping of the retained large jobs onto machines.

    jobs and machine_of run parallel (machine indices 1-based);
    per_machine_load[i-1] is the left fold of the sizes sent to machine i,
    in jobs order.  ordinal is the mixed-radix rank of the mapping with
    job 0 varying fastest.
    """

    jobs: tuple[tuple[int, float], ...]
    machine_of: tuple[int, ...]
    per_machine_load: tuple[float, ...]
    ordinal: int


@dataclass(frozen=True)
class SearchOutcome:
    assignment: LargeAssignment
    t: float
    grid_exponent: int
    value: float
    lower_bound: float
    upper_bound: float


def time_grid(park: MachinePark, total_load: float, epsilon: float) -> list[float]:
    """Geometric candidate times from P/m up to at least P/e0."""
    lower, upper = search_bounds(park, total_load)
    if total_load <= 0:
        return [0.0]
    base = 1.0 + epsilon / 2.0
    top = math.ceil(math.log(park.m / park.ratio_floor, base))
    if top < 0:
        top = 0
    while lower * base**top < upper:  # guard against log() rounding short
        top += 1
    return [lower * base**x for x in range(top + 1)]


def crossing_allowance(park: MachinePark) -> int:
    """Max small jobs that may finish late on any one floor machine."""
    return -(-(park.m - 1) // park.floor_machines)


def makespan_value(park: MachinePark, large: LargeJobSet, t: float) -> float:
    """t plus the worst-case tail: each late small job is at most
    small_bound long and runs at ratio >= the floor after t."""
    return t + crossing_allowance(park) * (large.small_bound / park.ratio_floor)


def enumerate_and_select(
    park: MachinePark,
    large: LargeJobSet,
    epsilon: float,
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Try every machine assignment of the large jobs; keep the one with
    the smallest feasible grid time, earliest ordinal on ties."""
    m = park.m
    njobs = large.job_count
    total_assignments = m**njobs
    if total_assignments > budget:
        raise BudgetExceededError(
            f"enumerating m**|large jobs| = {m}**{njobs} = {total_assignments} "
            f"assignments exceeds the budget {budget}"
        )
    total_load = large.total_load
    grid = time_grid(park, total_load, epsilon)
    if not math.isfinite(grid[-1]):
        raise JobValueError(
            f"total load {total_load} is too large: the search grid overflows"
        )
    grid_size = len(grid)
    # aggregate-coverage floor: first grid point whose park capacity
    # reaches the total load (machine 1 alone guarantees one exists)
    x_floor = -1
    for x, t in enumerate(grid):
        if park_capacity_at(park, t) >= total_load:
            x_floor = x
            break
    if x_floor < 0:
        raise StreamspanError("no grid point covers the total load")

    if njobs == 0:
        best_x, best_ord = x_floor, 0
    else:
        capgrid = np.empty((m, grid_size), np.float64)
        for i, tl in enumerate(park.machines):
            for x, t in enumerate(grid):
                capgrid[i, x] = capacity_at(tl, t)
        job_ps = np.array([p for _, p in large.jobs], np.float64)
        best_x, best_ord = _kernels.search_assignments(
            job_ps, m, capgrid, x_floor, total_assignments
        )
        best_x = int(best_x)
        best_ord = int(best_ord)
        if best_ord < 0 or best_x >= grid_size:
            raise StreamspanError("no feasible assignment within the grid")

    digits = []
    rem = best_ord
    for _ in range(njobs):
        digits.append(rem % m)
        rem //= m
    loads = [0.0] * m
    for j, (_, p) in enumerate(large.jobs):
        loads[digits[j]] += p
    assignment = LargeAssignment(
        jobs=large.jobs,
        machine_of=tuple(d + 1 for d in digits),
        per_machine_load=tuple(loads),
        ordinal=best_ord,
    )
    t = grid[best_x]
    value = makespan_value(park, large, t)
    if not math.isfinite(value):
        raise JobValueError(f"the makespan value overflows at t = {t}")
    lower, upper = search_bounds(park, total_load)
    return SearchOutcome(
        assignment=assignment,
        t=t,
        grid_exponent=best_x,
        value=value,
        lower_bound=lower,
        upper_bound=upper,
    )
