"""Hot numeric kernels with selectable backends.

Two entry points: bulk band-statistics ingest and assignment-enumeration
search.  Each exists as a scalar loop (jitted with numba when available)
and as a vectorized numpy fallback.  Set STREAMSPAN_NUMBA=0 to force the
numpy path.  Both paths are written to produce bit-identical results --
same fold order for every floating-point accumulation -- and the test
suite asserts that.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "backend",
    "ingest_block",
    "search_assignments",
]

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is optional (the `jit` extra)
    njit = None
    _HAVE_NUMBA = False


def _env_wants_numba() -> bool:
    val = os.environ.get("STREAMSPAN_NUMBA", "1").strip().lower()
    return val not in ("0", "false", "no", "off")


NUMBA_ENABLED = _HAVE_NUMBA and _env_wants_numba()


def backend() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


# --- bulk band ingest ------------------------------------------------------
#
# State layout shared with grouping._BandedLedger:
#   counts[0] / loads[0]        open low band (every p <= 2^offset)
#   counts[k+1] / loads[k+1]    bounded band k, i.e. p in (2^(offset+k), 2^(offset+k+1)]
#   ret_len[k], ret_ids[k,:], ret_ps[k,:]   retained jobs of bounded band k
#   fstate = [total_load, max_seen]
#   istate = [job_count, retained_total, peak_retained]
#
# A bounded band appends arrivals while its count stays below retain_limit;
# the arrival that reaches the limit empties the band's retained list for
# good.  The caller guarantees 0 < p and that every p fits the window
# (band index <= ret_len.size - 1).


def _ingest_scalar(ps, start_id, offset, retain_limit, counts, loads, ret_len, ret_ids, ret_ps, fstate, istate):
    total = fstate[0]
    max_seen = fstate[1]
    job_count = istate[0]
    retained_total = istate[1]
    peak_retained = istate[2]
    for i in range(ps.shape[0]):
        p = ps[i]
        frac, ex = math.frexp(p)
        top = ex - 1 if frac == 0.5 else ex  # exact ceil(log2 p)
        k = top - offset - 1
        if k < 0:
            counts[0] += 1
            loads[0] += p
        else:
            b = k + 1
            counts[b] += 1
            loads[b] += p
            if counts[b] >= retain_limit:
                retained_total -= ret_len[k]
                ret_len[k] = 0
            else:
                slot = ret_len[k]
                ret_ids[k, slot] = start_id + i
                ret_ps[k, slot] = p
                ret_len[k] = slot + 1
                retained_total += 1
                if retained_total > peak_retained:
                    peak_retained = retained_total
        total += p
        if p > max_seen:
            max_seen = p
        job_count += 1
    fstate[0] = total
    fstate[1] = max_seen
    istate[0] = job_count
    istate[1] = retained_total
    istate[2] = peak_retained


def _ingest_numpy(ps, start_id, offset, retain_limit, counts, loads, ret_len, ret_ids, ret_ps, fstate, istate):
    n = ps.shape[0]
    if n == 0:
        return
    mant, ex = np.frexp(ps)
    top = ex.astype(np.int64) - (mant == 0.5)
    k = top - offset - 1
    b = np.where(k < 0, 0, k + 1)
    prior_counts = counts.copy()
    counts += np.bincount(b, minlength=counts.shape[0]).astype(np.int64)
    # retained-total deltas per element, for exact running-peak tracking
    deltas = np.zeros(n, np.int64)
    for band in np.unique(b):
        band = int(band)
        pos = np.flatnonzero(b == band)
        vals = ps[pos]
        # seed the cumulative sum with the prior load so the fold order
        # matches the scalar loop bit for bit
        acc = np.empty(vals.shape[0] + 1)
        acc[0] = loads[band]
        acc[1:] = vals
        loads[band] = np.cumsum(acc)[-1]
        if band == 0:
            continue
        bk = band - 1
        prior_c = int(prior_counts[band])
        prior_l = int(ret_len[bk])
        cnt = vals.shape[0]
        sat_rank = retain_limit - prior_c  # 1-based arrival rank that saturates
        if sat_rank > cnt:
            ret_ids[bk, prior_l:prior_l + cnt] = start_id + pos
            ret_ps[bk, prior_l:prior_l + cnt] = vals
            ret_len[bk] = prior_l + cnt
            deltas[pos] = 1
        elif sat_rank >= 1:
            keep = sat_rank - 1
            ret_ids[bk, prior_l:prior_l + keep] = start_id + pos[:keep]
            ret_ps[bk, prior_l:prior_l + keep] = vals[:keep]
            deltas[pos[:keep]] = 1
            deltas[pos[keep]] = -(prior_l + keep)
            ret_len[bk] = 0
        # else: saturated before this chunk; retained stays empty
    running = istate[1] + np.cumsum(deltas)
    chunk_peak = int(running.max())
    istate[1] = int(running[-1])
    if chunk_peak > istate[2]:
        istate[2] = chunk_peak
    acc = np.empty(n + 1)
    acc[0] = fstate[0]
    acc[1:] = ps
    fstate[0] = np.cumsum(acc)[-1]
    mx = float(ps.max())
    if mx > fstate[1]:
        fstate[1] = mx
    istate[0] += n


# --- assignment-enumeration search -----------------------------------------
#
# Enumerates all m^J machine assignments of the J large jobs in mixed-radix
# order (job 0 varies fastest).  capgrid[i, x] holds machine i's capacity at
# grid point x (rows nondecreasing).  For each assignment the smallest grid
# exponent x >= x_floor with capgrid[i, x] >= load[i] for all i is found;
# the result is the assignment minimizing x, earliest ordinal on ties.
# Returns (best_x, best_ordinal); best_x == grid size means infeasible.
#
# Per-machine loads are recomputed as a fresh left fold per assignment so
# they match LargeAssignment/validator folds exactly; incremental updates
# would drift.


def _search_scalar(job_ps, m, capgrid, x_floor, n_total):
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


def _search_numpy(job_ps, m, capgrid, x_floor, n_total):
    njobs = job_ps.shape[0]
    grid_size = capgrid.shape[1]
    radix = m ** np.arange(njobs, dtype=np.int64)
    block = max(1024, (1 << 22) // max(1, njobs * m))
    machines = np.arange(m, dtype=np.int64)
    best_x = grid_size
    best_ord = -1
    for lo in range(0, n_total, block):
        ordinals = np.arange(lo, min(lo + block, n_total), dtype=np.int64)
        if njobs == 0:
            loads = np.zeros((ordinals.shape[0], m), np.float64)
        else:
            digits = (ordinals[:, None] // radix[None, :]) % m
            contrib = np.where(
                digits[:, :, None] == machines[None, None, :],
                job_ps[None, :, None],
                0.0,
            )
            # cumsum reproduces the scalar left fold; adding 0.0 is exact
            loads = np.cumsum(contrib, axis=1)[:, -1, :]
        xneed = np.empty((ordinals.shape[0], m), np.int64)
        for i in range(m):
            xneed[:, i] = np.searchsorted(capgrid[i], loads[:, i], side="left")
        xreq = xneed.max(axis=1)
        np.maximum(xreq, x_floor, out=xreq)
        bi = int(np.argmin(xreq))  # first minimum within the block
        bx = int(xreq[bi])
        if bx < best_x:
            best_x = bx
            best_ord = lo + bi
    return best_x, best_ord


if NUMBA_ENABLED:
    _ingest_numba = njit(cache=True)(_ingest_scalar)
    _search_numba = njit(cache=True)(_search_scalar)
    ingest_block = _ingest_numba
    search_assignments = _search_numba
else:  # pragma: no cover - exercised via STREAMSPAN_NUMBA=0 runs
    _ingest_numba = None
    _search_numba = None
    ingest_block = _ingest_numpy
    search_assignments = _search_numpy
