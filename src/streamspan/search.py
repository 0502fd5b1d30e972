"""Grid search for the smallest feasible finishing time.

A candidate time t is feasible for an assignment of the large jobs when
the park's aggregate capacity covers the total load and each machine's
own capacity covers its assigned large load.  Both conditions are
monotone in t, so the search works on a geometric grid LB * (1+eps/2)^x
whose points it computes only where it looks.  _grid_shape ends the grid
where the aggregate covers the total load and every large job fits on
machine 1, so some point qualifies, unless the grid overflows first.
_first finds the first point the aggregate covers, and then the branch
and bound in search_assignments the first point some assignment fits.
The returned value adds the worst-case tail of small jobs that may
finish after t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capacity import MachinePark, capacity_at, park_capacity_at, search_bounds
from .errors import BudgetExceededError, JobValueError
from .grouping import LargeJobSet

__all__ = [
    "SearchOutcome",
    "DEFAULT_BUDGET",
    "crossing_allowance",
    "makespan_value",
    "search_assignments",
    "enumerate_and_select",
]

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchOutcome:
    """The selected assignment of the large jobs and the time it yields.

    jobs and machine_of run parallel (machine indices 1-based);
    per_machine_load[i-1] is the left fold of the sizes sent to machine i,
    in jobs order.
    """

    jobs: tuple[tuple[int, float], ...]
    machine_of: tuple[int, ...]
    per_machine_load: tuple[float, ...]
    t: float
    grid_exponent: int
    nodes: int  # partial assignments the search examined
    value: float
    lower_bound: float
    upper_bound: float


def _grid_shape(
    park: MachinePark, total_load: float, fold: float, epsilon: float
) -> tuple[float, float, float, int]:
    """(lower, upper, base, size) of the candidate times: point x is
    lower * base**x for 0 <= x < size, from lower = P/m up to the first
    point that is at least upper = P/e0, where the park covers P and
    machine 1, a floor machine, alone takes fold, the large jobs' job-order
    left fold.  So at the last point the aggregate condition holds and
    every large job on machine 1 is an assignment that fits.  A grid that
    overflows before that point ends at its last finite point instead."""
    lower, upper = search_bounds(park, total_load)
    base = 1.0 + epsilon / 2.0
    if total_load <= 0:
        return lower, upper, base, 1
    if lower == 0:  # base**top would overflow before reaching upper
        raise JobValueError(f"total load {total_load} is too small: P/m rounds to 0")
    top = max(0, math.ceil(math.log(park.m / park.ratio_floor, base)))
    while True:  # log() can round short, and P/e0 fall an ulp short of P or fold
        t = lower * base**top
        if t == math.inf:
            while lower * base ** (top - 1) == math.inf:  # point 0, P/m, is finite
                top -= 1
            return lower, upper, base, top
        if (t >= upper and park_capacity_at(park, t) >= total_load
                and capacity_at(park.machines[0], t) >= fold):
            return lower, upper, base, top + 1
        top += 1


def _first(lo: int, hi: int, holds) -> int:
    """The least x in [lo, hi) at which holds(x), for holds monotone in
    x, or hi when there is none.  lo is tried first, then the rest is
    bisected."""
    if holds(lo):
        return lo
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def crossing_allowance(park: MachinePark) -> int:
    """Max small jobs that may finish late on any one floor machine."""
    return -(-(park.m - 1) // park.floor_machines)


def makespan_value(park: MachinePark, large: LargeJobSet, t: float) -> float:
    """t plus the worst-case tail: each late small job is at most
    small_bound long and runs at ratio >= the floor after t.  A park
    whose floor machines take no late job has no tail, even when
    small_bound is inf."""
    late = crossing_allowance(park)
    return t + late * (large.small_bound / park.ratio_floor) if late else t


# --- exact assignment search ----------------------------------------------
#
# The J retained large jobs go to m machines.  Assignments are ordered by
# job J-1's machine, then job J-2's, down to job 0's.  capacity(x) returns
# the m machine capacities at grid point x, each nondecreasing in x.  An
# assignment fits at x when the left fold of every machine's sizes, in job
# order, is at most that machine's capacity.  The answer is the smallest
# x >= x_floor at which some assignment fits and the earliest assignment
# that fits there: what trying all m**J assignments in order would select.
#
# Fit is monotone in x, so _first bisects x, x_floor first.  Each probe is a
# depth-first search that places job J-1 first and job 0 last, trying
# machines in index order, so it meets leaves in that order and the
# first leaf whose exact fold fits is the earliest.  A branch is cut only
# when none of its leaves can be that one:
#   - a machine's partial load, or the open jobs' load, exceeds what the
#     machines can still take: their largest subset sum within each
#     machine's room (integer sizes whose total is below 2**53, so every
#     sum is exact), else their room where it fits the smallest open job,
#     with a margin that covers the rounding of partial sums;
#   - the machine is a later twin of one with the same capacity and the
#     same jobs so far (the same load, when sums are exact; none, else):
#     swapping the two machines' open jobs gives an earlier leaf that fits
#     exactly when this one does;
#   - the job has the size of a later job (the next one, unless sums are
#     exact) and would take a lower machine than it: swapping the two
#     jobs gives an earlier leaf with the same folds.

_EXACT_TOTAL = 2**53
_SUBSET_BITS = 1 << 26  # cap on the bits of the prefix subset-sum tables


def search_assignments(job_ps, m, capacity, x_floor, grid_size, budget):
    """(best_x, machines, nodes) for the J = len(job_ps) positive sizes.

    machines[j] is job j's 0-based machine in the earliest assignment
    that fits at best_x.  best_x is grid_size and machines None when
    nothing fits below grid_size.  nodes counts the partial assignments
    examined, over every probe; examining more than budget raises
    BudgetExceededError.
    """
    ps = [float(p) for p in job_ps]
    njobs = len(ps)
    exact = all(p.is_integer() for p in ps) and math.fsum(ps) < _EXACT_TOTAL
    if exact:
        ps = [int(p) for p in ps]
    zero = 0 if exact else 0.0
    # jobs 0..d-1 are still open below job d: their load, smallest size and
    # (exact sizes only) reachable subset sums as a bitset
    open_load = [zero]
    open_min = [math.inf]
    for p in ps:
        open_load.append(open_load[-1] + p)
        open_min.append(min(open_min[-1], p))
    reach = None
    if exact and (njobs + 1) * (open_load[-1] + 1) <= _SUBSET_BITS:
        reach = [1]
        for p in ps:
            reach.append(reach[-1] | reach[-1] << p)
    # job j may not take a machine below that of the later job twin[j]
    twin = [-1] * njobs
    if exact:
        later = {}
        for j in reversed(range(njobs)):
            twin[j] = later.get(ps[j], -1)
            later[ps[j]] = j
    else:
        for j in range(njobs - 1):
            if ps[j] == ps[j + 1]:
                twin[j] = j + 1
    nodes = 0
    best = None

    def fits(x):
        """Whether some assignment fits at grid point x; if so, best is
        each job's machine in the earliest one."""
        nonlocal nodes, best
        caps = [float(c) for c in capacity(x)]
        if exact:
            limits = [math.floor(c) for c in caps]
        else:
            # partial sums and the final folds each err by under J ulps; the
            # sum is halved, exactly, so that near the largest float it stays finite
            half = math.fsum(c / 2 for c in caps) + open_load[-1] / 2
            tol = (njobs + m + 2) * 2.0**-49 * half
            limits = [c + tol for c in caps]
        same_cap = [[a for a in range(i) if caps[a] == caps[i]] for i in range(m)]
        loads = [zero] * m
        machines = [0] * njobs
        before = [0] * njobs  # load of job d's machine before job d
        d = njobs - 1
        i = 0 if d < 0 or twin[d] < 0 else machines[twin[d]]
        while d >= 0:
            if i == m:  # every machine tried for job d: back up to job d+1
                d += 1
                if d == njobs:
                    return False
                i = machines[d]
                loads[i] = before[d]
                i += 1
                continue
            load = loads[i]
            if (exact or not load) and any(loads[a] == load for a in same_cap[i]):
                i += 1
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"the search over {njobs} large jobs on {m} machines needs "
                    f"more than the node budget {budget}"
                )
            load += ps[d]
            if load > limits[i]:
                i += 1
                continue
            machines[d] = i
            before[d] = loads[i]
            loads[i] = load
            if d == 0:
                if exact or all(f <= c for f, c in zip(_folds(ps, machines, m), caps)):
                    break
                loads[i] = before[0]
                i += 1
            elif _room(loads, limits, open_load[d], open_min[d], reach[d] if reach else 0):
                d -= 1
                i = 0 if twin[d] < 0 else machines[twin[d]]
            else:
                loads[i] = before[d]
                i += 1
        best = machines
        return True

    best_x = _first(x_floor, grid_size, fits)
    return best_x, best, nodes


def _room(loads, limits, rest, smallest, reach):
    """Whether the machines can still take the open jobs' load rest."""
    room = 0
    for load, limit in zip(loads, limits):
        slack = limit - load
        if slack >= rest:
            return True
        if reach:
            room += (reach & ((2 << slack) - 1)).bit_length() - 1
        elif slack >= smallest:
            room += slack
        if room >= rest:
            return True
    return False


def _folds(ps, machines, m):
    """The left fold of each machine's sizes, in job order."""
    folds = [0.0] * m
    for p, i in zip(ps, machines):
        folds[i] += p
    return folds


def enumerate_and_select(
    park: MachinePark,
    large: LargeJobSet,
    epsilon: float,
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """The machine assignment of the large jobs with the smallest feasible
    grid time, earliest assignment on ties, found by exact branch and bound
    within budget search nodes."""
    m = park.m
    total_load = large.total_load
    job_ps = [p for _, p in large.jobs]
    fold = 0.0
    for p in job_ps:
        fold += p
    lower, upper, base, grid_size = _grid_shape(park, total_load, fold, epsilon)

    def point(x: int) -> float:
        return lower * base**x

    x_floor = _first(0, grid_size, lambda x: park_capacity_at(park, point(x)) >= total_load)

    def capacities(x: int) -> list[float]:
        t = point(x)
        return [capacity_at(tl, t) for tl in park.machines]

    machines = None  # the grid overflowed before the aggregate covers P
    if x_floor < grid_size:
        best_x, machines, nodes = search_assignments(
            job_ps, m, capacities, x_floor, grid_size, budget
        )
    if machines is None:  # only a grid that ends at its last finite point
        raise JobValueError(
            f"the search grid overflows before any point fits (total load {total_load}, "
            f"epsilon {epsilon})"
        )
    t = point(best_x)
    value = makespan_value(park, large, t)
    if not math.isfinite(value):
        raise JobValueError(f"the makespan value overflows at t = {t}")
    return SearchOutcome(
        jobs=large.jobs,
        machine_of=tuple(i + 1 for i in machines),
        per_machine_load=tuple(_folds(job_ps, machines, m)),
        t=t,
        grid_exponent=best_x,
        nodes=nodes,
        value=value,
        lower_bound=lower,
        upper_bound=upper,
    )
