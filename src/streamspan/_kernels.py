"""Hot numeric kernels.

Two entry points: bulk band-statistics ingest and the exact assignment
search.  Ingest is one vectorized numpy kernel that accounts a block's
band counts and retained jobs, bit for bit what the per-job loop kept as
the reference in tests/_support.py leaves; per-band work runs only for
bands that still retain.  The search is a plain-Python branch and bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError

__all__ = [
    "ingest_block",
    "search_assignments",
]


# --- bulk band ingest ------------------------------------------------------
#
# Band state owned by grouping._BandedLedger:
#   counts[0]       open low band (every p <= 2^offset)
#   counts[k+1]     bounded band k, i.e. p in (2^(offset+k), 2^(offset+k+1)]
#   ret_len[k], ret_ids[k,:], ret_ps[k,:]   retained jobs of bounded band k
#
# A bounded band appends arrivals while its count stays below
# retain_limit; the arrival that reaches the limit empties the band's
# retained list for good, and from then on the band costs no per-band work.
# The caller guarantees 0 < p, that tops holds each p's exact
# ceil(log2 p), and that every p fits the window (band index <=
# ret_len.size - 1).  The stream's total, maximum and job count are the
# caller's.


def ingest_block(ps, tops, start_id, offset, retain_limit, counts, ret_len, ret_ids, ret_ps,
                 retained_total):
    """Account the jobs ps, with ids from start_id on, into the band state
    in place.  Returns the retained total after the block and the largest
    it reached, counting the retained_total it started from."""
    b = tops - offset
    np.maximum(b, 0, out=b)  # slot: 0 for the low band, else k + 1
    added = np.bincount(b, minlength=counts.shape[0])
    # bounded bands that take arrivals while still retaining
    live = np.flatnonzero((added[1:] > 0) & (counts[1:] < retain_limit)) + 1
    if live.size == 0:
        counts += added
        return retained_total, retained_total
    # running[0] is the retained total before the block; running[i+1]
    # changes by job i's delta, for exact running-peak tracking
    running = np.zeros(ps.shape[0] + 1, np.int64)
    running[0] = retained_total
    deltas = running[1:]
    for band in live:
        pos = np.flatnonzero(b == band)
        bk = band - 1
        prior_l = int(ret_len[bk])
        # arrivals retained before one reaches the limit
        keep = min(retain_limit - int(counts[band]) - 1, pos.shape[0])
        ret_ids[bk, prior_l:prior_l + keep] = start_id + pos[:keep]
        ret_ps[bk, prior_l:prior_l + keep] = ps[pos[:keep]]
        deltas[pos[:keep]] = 1
        ret_len[bk] = prior_l + keep
        if keep < pos.shape[0]:  # arrival keep saturates: the band stops retaining
            deltas[pos[keep]] = -(prior_l + keep)
            ret_len[bk] = 0
    counts += added
    np.cumsum(running, out=running)
    return int(running[-1]), int(running.max())


# --- exact assignment search ----------------------------------------------
#
# The J retained large jobs go to m machines; an assignment's ordinal is its
# mixed-radix rank with job 0 varying fastest.  capacity(x) returns the m
# machine capacities at grid point x, each nondecreasing in x.  An
# assignment fits at x when the left fold of every machine's sizes, in job
# order, is at most that machine's capacity.  The answer is the smallest
# x >= x_floor at which some assignment fits and the earliest ordinal that
# fits there: what trying all m**J assignments would select.
#
# Fit is monotone in x, so x is bisected, x_floor first.  Each probe is a
# depth-first search that places job J-1 first and job 0 last, trying
# machines in index order, so it meets leaves in ordinal order and the
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
    """(best_x, best_ordinal, nodes) for the J = len(job_ps) positive sizes.

    best_x is grid_size and best_ordinal -1 when nothing fits below
    grid_size.  nodes counts the partial assignments examined, over every
    probe; examining more than budget raises BudgetExceededError.
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

    def first_fit(x):
        """Earliest ordinal that fits at grid point x, or -1."""
        nonlocal nodes
        caps = [float(c) for c in capacity(x)]
        if exact:
            limits = [math.floor(c) for c in caps]
        else:
            # partial sums and the final folds each err by under J ulps
            tol = (njobs + m + 2) * 2.0**-50 * (math.fsum(caps) + open_load[-1])
            limits = [c + tol for c in caps]
        same_cap = [[a for a in range(i) if caps[a] == caps[i]] for i in range(m)]
        loads = [zero] * m
        digits = [0] * njobs
        before = [0] * njobs  # load of job d's machine before job d
        d = njobs - 1
        i = 0 if d < 0 or twin[d] < 0 else digits[twin[d]]
        while d >= 0:
            if i == m:  # every machine tried for job d: back up to job d+1
                d += 1
                if d == njobs:
                    return -1
                i = digits[d]
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
            digits[d] = i
            before[d] = loads[i]
            loads[i] = load
            if d == 0:
                if exact or _folds_fit(ps, digits, caps):
                    break
                loads[i] = before[0]
                i += 1
            elif _room(loads, limits, open_load[d], open_min[d], reach[d] if reach else 0):
                d -= 1
                i = 0 if twin[d] < 0 else digits[twin[d]]
            else:
                loads[i] = before[d]
                i += 1
        ordinal = 0
        for digit in reversed(digits):
            ordinal = ordinal * m + digit
        return ordinal

    best = first_fit(x_floor)
    if best >= 0:
        return x_floor, best, nodes
    lo, hi = x_floor + 1, grid_size
    while lo < hi:
        mid = (lo + hi) // 2
        found = first_fit(mid)
        if found >= 0:
            hi, best = mid, found
        else:
            lo = mid + 1
    return hi, best, nodes


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


def _folds_fit(ps, digits, caps):
    """Whether the left fold of each machine's sizes, in job order, fits."""
    folds = [0.0] * len(caps)
    for p, digit in zip(ps, digits):
        folds[digit] += p
    return all(f <= c for f, c in zip(folds, caps))

