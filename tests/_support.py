"""Helpers shared across test modules."""

from __future__ import annotations

import random
import warnings

from streamspan import (
    MachinePark,
    MachineTimeline,
    derive_params,
    make_ledger,
    run_stream,
    second_pass,
)
from streamspan.cli import generate_instance, parse_machine_config_text
from streamspan.oracle import grid_scan_t
from streamspan.search import time_grid


def quiet_params(m, m1, e0, epsilon, **kw):
    """derive_params without the epsilon >= 1 warning cluttering output."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return derive_params(m, m1, e0, epsilon, **kw)


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


def offline(park, params, jobs):
    """In-memory two-pass run anchored at the stream maximum: (schedule, report)."""
    ledger = (make_ledger(params, "pmax-given", pmax=max(jobs)) if len(jobs)
              else make_ledger(params, "pmax-unknown"))
    report, artifacts = run_stream(park, params, ledger, [jobs])
    return second_pass(park, artifacts, [jobs]), report


def assignment_grid_exponents(park, large, epsilon):
    """Per mixed-radix ordinal (job 0 fastest), the oracle's first feasible
    grid exponent for that assignment of large.jobs, or None."""
    grid = time_grid(park, large.total_load, epsilon)
    m = park.m
    for ordinal in range(m**large.job_count):
        loads = [0.0] * m
        rem = ordinal
        for _, p in large.jobs:
            loads[rem % m] += p
            rem //= m
        t = grid_scan_t(park, loads, large.total_load, epsilon)
        yield None if t is None else grid.index(t)


def brute_force_selection(park, large, epsilon):
    """Reference selection: (smallest exponent, earliest ordinal) by trying
    every ordinal in order; None when no assignment is feasible."""
    best = None
    for ordinal, x in enumerate(assignment_grid_exponents(park, large, epsilon)):
        if x is not None and (best is None or x < best[0]):
            best = (x, ordinal)
    return best
