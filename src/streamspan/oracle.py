"""Slow, by-definition recomputations used to cross-check the fast paths.

Nothing here shares code with the streaming ledgers or the search kernels:
capacities are linear scans instead of bisects, the optimum enumerates
assignments directly, and the band replay works a plain dict one job at
a time.
Floating-point folds deliberately mirror the production order so agreement
can be asserted exactly, not within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capacity import MachinePark, MachineTimeline
from .errors import BudgetExceededError
from .grouping import SchedulingParams

__all__ = [
    "naive_capacity_at",
    "completion_from_zero",
    "OracleResult",
    "exact_optimum",
    "group_index",
    "replay_grouping",
]


def naive_capacity_at(timeline: MachineTimeline, t: float) -> float:
    """Capacity at t by scanning segments left to right (t >= 0)."""
    total = 0.0
    prev = 0.0
    for b, r in zip(timeline.breakpoints, timeline.ratios):
        if t <= b:
            return total + (t - prev) * r
        total = total + (b - prev) * r
        prev = b
    return total + (t - prev)


@dataclass(frozen=True)
class OracleResult:
    """Best assignment found by full enumeration.

    machine_of[j] is the 1-based machine of job j; ordinal is the
    mixed-radix rank (job 0 fastest) of the first assignment attaining
    the optimum.
    """

    makespan: float
    machine_of: tuple[int, ...]
    ordinal: int


# cells = assignments per chunk times n*m scatter slots
_CHUNK_CELLS = 1 << 22


def completion_from_zero(timeline: MachineTimeline, loads: np.ndarray) -> np.ndarray:
    """A_i^{-1} of each load: its completion from 0, written apart from
    capacity.completion_chain and equal to that chain's inversion.  The
    capacity at each breakpoint is folded here, as naive_capacity_at
    folds it, not read from the timeline's table."""
    bps = np.asarray(timeline.breakpoints, np.float64)
    rs = np.asarray(timeline.ratios, np.float64)
    if bps.size == 0:
        return loads.copy()
    cum = np.cumsum(np.diff(bps, prepend=0.0) * rs)
    j = np.searchsorted(cum, loads, side="left")
    jj = np.minimum(j, cum.size - 1)
    left_t = np.where(jj > 0, bps[jj - 1], 0.0)
    left_c = np.where(jj > 0, cum[jj - 1], 0.0)
    inside = left_t + (loads - left_c) / rs[jj]
    beyond = bps[-1] + (loads - cum[-1])
    out = np.where(j == cum.size, beyond, inside)
    return np.where(loads == 0.0, 0.0, out)


def exact_optimum(
    park: MachinePark,
    jobs: Sequence[float],
    budget: int = 10_000_000,
) -> OracleResult:
    """Minimum makespan over every assignment of every job.

    Order within a machine is irrelevant: back-to-back jobs finish when
    the machine's capacity first covers their summed load.
    """
    m = park.m
    n = len(jobs)
    if n == 0:
        return OracleResult(0.0, (), 0)
    total = m**n
    if total > budget:  # m**n unexpanded: its decimal can pass int's digit limit
        raise BudgetExceededError(
            f"enumerating m**n = {m}**{n} assignments exceeds the budget {budget}"
        )
    ps = np.asarray(jobs, np.float64)
    cols_per_chunk = max(1, _CHUNK_CELLS // max(1, n * m))
    best_span = math.inf
    best_ord = -1
    for start in range(0, total, cols_per_chunk):
        ordinals = np.arange(start, min(start + cols_per_chunk, total), dtype=np.int64)
        ncols = ordinals.shape[0]
        loads = np.zeros((m, ncols), np.float64)
        cols = np.arange(ncols)
        radix = 1
        for j in range(n):
            d = (ordinals // radix) % m
            loads[d, cols] += ps[j]
            radix *= m
        spans = None
        for i, tl in enumerate(park.machines):
            done = completion_from_zero(tl, loads[i])
            spans = done if spans is None else np.maximum(spans, done)
        k = int(np.argmin(spans))  # first minimum within the chunk
        if float(spans[k]) < best_span:
            best_span = float(spans[k])
            best_ord = start + k
    digits = []
    rem = best_ord
    for _ in range(n):
        digits.append(rem % m)
        rem //= m
    return OracleResult(best_span, tuple(d + 1 for d in digits), best_ord)


def _exponent(p: float) -> int:
    """The least g with p <= 2^g, for p > 0."""
    frac, ex = math.frexp(p)
    return ex - 1 if frac == 0.5 else ex


def group_index(p: float, band_offset: int) -> int:
    """Band index of a job: -1 for the open low band, else k with
    p in (2^(band_offset+k), 2^(band_offset+k+1)]."""
    k = _exponent(p) - band_offset - 1
    return k if k >= 0 else -1


def replay_grouping(
    ps: Sequence[float],
    params: SchedulingParams,
    p_max: float | None = None,
):
    """Band statistics recomputed one job at a time in a plain dict.

    Returns (offset, low_count, low_load, entries), each entry (top,
    count, load, retained): the ledgers' (offset, low_count, entries)
    snapshot, each entry (top, count, retained), with every band's load,
    the left fold of its sizes in arrival order, added.  Anchored at p_max
    when given, else at the stream maximum.  Assumes a valid stream (all
    sizes positive, none above the anchor).
    """
    vals = [float(p) for p in ps]
    if not vals:
        return (None, 0, 0.0, ())
    anchor = _exponent(p_max if p_max is not None else max(vals))
    offset = anchor - params.top_band - 1
    low_count = 0
    low_load = 0.0
    bands: dict[int, list] = {}
    for job_id, p in enumerate(vals):
        k = group_index(p, offset)
        if k < 0:
            low_count += 1
            low_load += p
            continue
        rec = bands.setdefault(offset + k + 1, [0, 0.0, []])
        rec[0] += 1
        rec[1] += p
        if rec[0] >= params.retain_limit:
            rec[2] = []
        else:
            rec[2].append((job_id, p))
    entries = tuple(
        (top, rec[0], rec[1], tuple(rec[2])) for top, rec in sorted(bands.items())
    )
    return (offset, low_count, low_load, entries)
