"""Grid search for the smallest feasible finishing time.

A candidate time t is feasible for an assignment of the large jobs when
the park's aggregate capacity covers the total load and each machine's
own capacity covers its assigned large load.  Both conditions are
monotone in t, so the search works on a geometric grid LB * (1+eps/2)^x
whose points it computes only where it looks: a bisection finds the
first point the aggregate covers, and the kernel's branch and bound
finds the first point some assignment fits.  The returned value adds the
worst-case tail of small jobs that may finish after t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .capacity import MachinePark, capacity_at, park_capacity_at, search_bounds
from .errors import JobValueError, StreamspanError
from .grouping import LargeJobSet

__all__ = [
    "LargeAssignment",
    "SearchOutcome",
    "DEFAULT_BUDGET",
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
    nodes: int  # partial assignments the search examined
    value: float
    lower_bound: float
    upper_bound: float


def _grid_shape(park: MachinePark, total_load: float, epsilon: float) -> tuple[float, float, int]:
    """(lower, base, size) of the candidate times: point x is
    lower * base**x for 0 <= x < size, from P/m up to at least P/e0."""
    lower, upper = search_bounds(park, total_load)
    base = 1.0 + epsilon / 2.0
    if total_load <= 0:
        return lower, base, 1
    top = math.ceil(math.log(park.m / park.ratio_floor, base))
    if top < 0:
        top = 0
    while lower * base**top < upper:  # guard against log() rounding short
        top += 1
    return lower, base, top + 1


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
    """The machine assignment of the large jobs with the smallest feasible
    grid time, earliest ordinal on ties, found by exact branch and bound
    within budget search nodes."""
    m = park.m
    njobs = large.job_count
    total_load = large.total_load
    lower, base, grid_size = _grid_shape(park, total_load, epsilon)

    def point(x: int) -> float:
        return lower * base**x

    job_ps = [p for _, p in large.jobs]
    fold = 0.0
    for p in job_ps:
        fold += p
    # P/e0 can fall an ulp short of the large jobs' job-order fold: extend
    # the grid until they all fit on machine 1, a floor machine
    while capacity_at(park.machines[0], point(grid_size - 1)) < fold:
        grid_size += 1
    if not math.isfinite(point(grid_size - 1)):
        raise JobValueError(
            f"total load {total_load} is too large: the search grid overflows"
        )
    # aggregate-coverage floor: first grid point whose park capacity
    # reaches the total load (machine 1 alone guarantees one exists)
    lo, hi = 0, grid_size
    while lo < hi:
        mid = (lo + hi) // 2
        if park_capacity_at(park, point(mid)) >= total_load:
            hi = mid
        else:
            lo = mid + 1
    if lo == grid_size:
        raise StreamspanError("no grid point covers the total load")
    x_floor = lo

    def capacities(x: int) -> list[float]:
        t = point(x)
        return [capacity_at(tl, t) for tl in park.machines]

    best_x, best_ord, nodes = _kernels.search_assignments(
        job_ps, m, capacities, x_floor, grid_size, budget
    )
    if best_ord < 0:
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
    t = point(best_x)
    value = makespan_value(park, large, t)
    if not math.isfinite(value):
        raise JobValueError(f"the makespan value overflows at t = {t}")
    _, upper = search_bounds(park, total_load)
    return SearchOutcome(
        assignment=assignment,
        t=t,
        grid_exponent=best_x,
        nodes=nodes,
        value=value,
        lower_bound=lower,
        upper_bound=upper,
    )
