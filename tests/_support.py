"""Helpers shared across test modules."""

from __future__ import annotations

import dataclasses
import math
import random
import warnings

import numpy as np

from streamspan import (
    MachinePark,
    MachineTimeline,
    Schedule,
    derive_params,
    make_ledger,
    run_stream,
    second_pass,
)
from streamspan.capacity import capacity_at, completion_chain
from streamspan.cli import generate_instance, parse_machine_config_text
from streamspan.oracle import completion_from_zero, naive_capacity_at
from streamspan.pipeline import FirstPassArtifacts, Spill
from streamspan.search import SearchOutcome, _grid_shape


def quiet_params(m, m1, e0, epsilon, **fields):
    """derive_params without the epsilon >= 1 warning cluttering output,
    with the given fields (top_band=, retain_limit=) replaced, so a few
    jobs can saturate a band.  A field given as None keeps its derived
    value."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        params = derive_params(m, m1, e0, epsilon)
    return dataclasses.replace(params, **{k: v for k, v in fields.items() if v is not None})


def make_instance(seed, m, m1, e0, n, **kw):
    """Seeded (park, jobs) pair via the CLI generator and parser."""
    config_text, jobs_text = generate_instance(seed, m, m1, e0, n, **kw)
    park = parse_machine_config_text(config_text)
    jobs = [float(tok) for tok in jobs_text.split()]
    return park, jobs


def identity_park(m, m1=None, e0=1.0):
    """m machines that never share (capacity is the identity)."""
    tls = tuple(MachineTimeline(i, (), ()) for i in range(1, m + 1))
    return MachinePark(machines=tls, floor_machines=m1 if m1 is not None else m, ratio_floor=e0)


def random_timeline(rng: random.Random, index=1, max_intervals=4, bp_max=20,
                    ratio_choices=(0.25, 0.5, 1.0)):
    k = rng.randint(0, max_intervals)
    bps = sorted(rng.sample(range(1, bp_max + 1), k))
    return MachineTimeline(
        machine_index=index,
        breakpoints=tuple(float(b) for b in bps),
        ratios=tuple(float(rng.choice(ratio_choices)) for _ in bps),
    )


def two_pass(park, params, jobs):
    """Two-pass run of the jobs, in one chunk, on the default pmax-unknown
    ledger: (schedule, report)."""
    report, artifacts = run_stream(park, make_ledger(params), [jobs],
                                   mode="two-pass")
    with artifacts.spill:
        return second_pass(park, artifacts), report


def completion_time(timeline, start, amount):
    """Smallest t >= start with A_i(t) - A_i(start) >= amount: a one-job
    completion_chain."""
    return float(completion_chain(timeline, start, (amount,))[0])


def crossing_counts(park, schedule, jobs, t):
    """Per machine, how many jobs finish after t (exact load comparison)."""
    sizes = np.asarray(jobs, dtype=np.float64)
    return [
        int(np.count_nonzero(np.add.accumulate(sizes[run]) > capacity_at(tl, t)))
        for tl, run in zip(park.machines, schedule.runs)
    ]


def time_grid(park, total_load, epsilon, fold=0.0):
    """Every candidate time of the search, as a list; fold is the large
    jobs' job-order left fold, which machine 1 takes at the last point."""
    lower, _, base, size = _grid_shape(park, total_load, fold, epsilon)
    return [lower * base**x for x in range(size)]


def grid_scan_t(park, per_machine_load, total_load, epsilon, fold=0.0):
    """The first point of the search's grid at which the park covers
    total_load and each machine its load, by linear walk with the
    oracle's capacity scan; None when none is."""
    for t in time_grid(park, total_load, epsilon, fold):
        caps = [naive_capacity_at(tl, t) for tl in park.machines]
        agg = 0.0
        for cap in caps:
            agg += cap
        if agg >= total_load and all(c >= load for c, load in zip(caps, per_machine_load)):
            return t
    return None


def assignment_grid_exponents(park, large, epsilon):
    """Per mixed-radix ordinal (job 0 fastest), the linear walk's first
    feasible grid exponent for that assignment of large.jobs, or None."""
    fold = 0.0
    for _, p in large.jobs:
        fold += p
    grid = time_grid(park, large.total_load, epsilon, fold)
    m = park.m
    for ordinal in range(m**large.job_count):
        loads = [0.0] * m
        rem = ordinal
        for _, p in large.jobs:
            loads[rem % m] += p
            rem //= m
        t = grid_scan_t(park, loads, large.total_load, epsilon, fold)
        yield None if t is None else grid.index(t)


def ordinal(machine_of, m):
    """The mixed-radix rank of an assignment, job 0 varying fastest;
    machine_of holds 1-based machines, as SearchOutcome does."""
    rank = 0
    for machine in reversed(machine_of):
        rank = rank * m + machine - 1
    return rank


def brute_force_selection(park, large, epsilon):
    """Reference selection: (smallest exponent, earliest ordinal) by trying
    every ordinal in order; None when no assignment is feasible."""
    best = None
    for ordinal, x in enumerate(assignment_grid_exponents(park, large, epsilon)):
        if x is not None and (best is None or x < best[0]):
            best = (x, ordinal)
    return best


def reference_search(job_ps, m, capgrid, x_floor, n_total):
    """The search by enumeration: for each of the n_total = m**J assignments
    in mixed-radix order (job 0 varies fastest), fold each machine's sizes
    in job order and binary-search the first x >= x_floor at which every
    capgrid[i, x] covers machine i's load; keep the smallest x, earliest
    ordinal on ties.  (grid size, -1) when none fits."""
    njobs = job_ps.shape[0]
    grid_size = capgrid.shape[1]
    digits = np.zeros(njobs, np.int64)
    loads = np.zeros(m, np.float64)
    best_x = grid_size
    best_ord = -1
    for ordinal in range(n_total):
        if ordinal > 0:
            d = 0
            while True:
                digits[d] += 1
                if digits[d] < m:
                    break
                digits[d] = 0
                d += 1
        for i in range(m):
            loads[i] = 0.0
        for j in range(njobs):
            loads[digits[j]] += job_ps[j]
        lo = x_floor
        hi = grid_size
        while lo < hi:
            mid = (lo + hi) >> 1
            ok = True
            for i in range(m):
                if capgrid[i, mid] < loads[i]:
                    ok = False
                    break
            if ok:
                hi = mid
            else:
                lo = mid + 1
        if lo < best_x:
            best_x = lo
            best_ord = ordinal
    return best_x, best_ord


def reference_ingest(jobs, params):
    """The unknown-maximum ledger one job at a time in a plain dict: the
    reference for how arrivals fill bands, how a rebase folds sunk bands
    into the low band, and for the peaks.  Returns (snapshot, retained
    total, peak retained, peak group records), the ledger's snapshot and
    fields after the stream.  Each band is recomputed from p."""
    offset, low_count = None, 0
    bands: dict[int, list] = {}  # band top exponent -> [count, retained]
    retained = peak_retained = 0
    peak_records = 1
    for job_id, p in enumerate(float(p) for p in jobs):
        frac, ex = math.frexp(p)
        top = ex - 1 if frac == 0.5 else ex  # exact ceil(log2 p)
        if offset is None or top - offset - 1 > params.top_band:
            offset = top - params.top_band - 1
            for key in sorted(k for k in bands if k <= offset):
                count, kept = bands.pop(key)
                low_count += count
                retained -= len(kept)
        if top <= offset:
            low_count += 1
            continue
        rec = bands.setdefault(top, [0, []])
        peak_records = max(peak_records, 1 + len(bands))
        rec[0] += 1
        if rec[0] >= params.retain_limit:
            retained -= len(rec[1])
            rec[1] = []
        else:
            rec[1].append((job_id, p))
            retained += 1
            peak_retained = max(peak_retained, retained)
    entries = tuple((top, c, tuple(kept)) for top, (c, kept) in sorted(bands.items()))
    return (offset, low_count, entries), retained, peak_retained, peak_records


def integer_loads_fit(sizes, limits):
    """Whether the integer sizes split over len(limits) machines with machine
    i's load at most limits[i]: a DP over reachable load vectors, keyed by
    the first m-2 loads with machine m-1's loads as a bitset, machine m's
    load implied by the total placed so far."""
    m = len(limits)
    if m == 1:
        return sum(sizes) <= limits[0]
    keep = (2 << limits[m - 2]) - 1
    states = {(0,) * (m - 2): 1}
    placed = 0
    for p in sizes:
        placed += p
        grown = {}
        for key, bits in states.items():
            moves = [(key, (bits | bits << p) & keep)]
            for i in range(m - 2):
                if key[i] + p <= limits[i]:
                    moves.append((key[:i] + (key[i] + p,) + key[i + 1:], bits))
            for new_key, new_bits in moves:
                low = placed - sum(new_key) - limits[m - 1]  # least load for machine m-1
                if low > 0:
                    new_bits = new_bits >> low << low
                if new_bits:
                    grown[new_key] = grown.get(new_key, 0) | new_bits
        states = grown
        if not states:
            return False
    return True


def hand_artifacts(park, jobs, large, t, chunks=None):
    """First-pass artifacts for jobs with a chosen placement of large jobs
    (a {job id: machine} dict, 1-based machines) and target time t, whose
    spill holds the jobs in the given chunks (default: one chunk)."""
    pairs = tuple((j, float(jobs[j])) for j in large)
    loads = [0.0] * park.m
    for j, p in pairs:
        loads[large[j] - 1] += p
    outcome = SearchOutcome(
        jobs=pairs, machine_of=tuple(large.values()), per_machine_load=tuple(loads),
        t=t, grid_exponent=0, nodes=0, value=t, lower_bound=0.0, upper_bound=t,
    )
    spill = Spill()
    for chunk in [jobs] if chunks is None else chunks:
        spill.append(np.asarray(chunk, np.float64))
    return FirstPassArtifacts(outcome=outcome, spill=spill)


class _PerJobPlacer:
    """The greedy filler one job at a time: the reference for second_pass."""

    def __init__(self, park, t, per_machine_large):
        self.park = park
        self.cap_at_t = [capacity_at(tl, t) for tl in park.machines]
        self.committed = list(per_machine_large)
        self.closed = [False] * park.m
        self.smalls = [[] for _ in range(park.m)]
        self.movers = [[] for _ in range(park.m)]
        self.late_count = [0] * park.m
        self._first_open = 0

    def _reroute(self, job_id, p):
        dest = 0
        for i in range(1, self.park.floor_machines):
            if self.late_count[i] < self.late_count[dest]:
                dest = i
        self.movers[dest].append((job_id, p))
        self.late_count[dest] += 1

    def place(self, job_id, p):
        m = self.park.m
        while self._first_open < m and (
            self.closed[self._first_open]
            or self.committed[self._first_open] >= self.cap_at_t[self._first_open]
        ):
            self._first_open += 1
        if self._first_open >= m:
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
                self.closed[dest] = True
                self._reroute(job_id, p)
        else:
            self.committed[dest] = new_load
            self.smalls[dest].append((job_id, p))


def prefix_chain(tl, start, amounts):
    """The completion chain recomputed apart from streamspan.capacity: the
    oracle's A^{-1} at naive A(start) plus each prefix of the amounts, as
    one left fold, then a running max from start."""
    targets = np.add.accumulate(np.concatenate(([naive_capacity_at(tl, start)], amounts)))
    done = np.maximum(completion_from_zero(tl, targets[1:]), start)
    return np.maximum.accumulate(done)


def reference_second_pass(park, artifacts, jobs):
    """second_pass rebuilt per job: place each small job on its own, then
    time each machine's run with prefix_chain."""
    outcome = artifacts.outcome
    placer = _PerJobPlacer(park, outcome.t, outcome.per_machine_load)
    large_ids = {job_id for job_id, _ in outcome.jobs}
    for job_id, p in enumerate(jobs):
        if job_id not in large_ids:
            placer.place(job_id, float(p))
    n = len(jobs)
    machine = np.empty(n, np.int64)
    start = np.empty(n, np.float64)
    completion = np.empty(n, np.float64)
    runs = []
    makespan = 0.0
    for i, tl in enumerate(park.machines):
        seq = [(j, p) for (j, p), mach in zip(outcome.jobs, outcome.machine_of)
               if mach == i + 1]
        seq += placer.smalls[i] + placer.movers[i]
        run = np.array([j for j, _ in seq], np.int64)
        runs.append(run)
        if not seq:
            continue
        done = prefix_chain(tl, 0.0, np.array([p for _, p in seq], np.float64))
        machine[run] = i + 1
        completion[run] = done
        start[run] = np.concatenate(([0.0], done[:-1]))
        makespan = max(makespan, float(done[-1]))
    return Schedule(machine, start, completion, tuple(runs), makespan)


def column_bytes(schedule):
    """A schedule's columns, runs and makespan as bytes and text, for
    bit-for-bit comparisons that do not go through Schedule.__eq__."""
    columns = (schedule.machine, schedule.start, schedule.completion, *schedule.runs)
    return [(c.dtype.str, c.tobytes()) for c in columns] + [repr(schedule.makespan)]
