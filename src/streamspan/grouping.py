"""Streaming job-size bands and the bounded-memory large-job ledger.

derive_params sizes the bands; _BandedLedger keeps them over one pass,
and its finalize hands the search a LargeJobSet.
The three REGIMES share one window and differ only in the contract they
check: a maximum given exactly, given as an overestimate, or not given at
all.  make_ledger builds the ledger for a regime.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, JobValueError, PmaxContractError

__all__ = [
    "SchedulingParams",
    "derive_params",
    "ceil_log2",
    "LargeJobSet",
    "REGIMES",
    "make_ledger",
]

REGIMES = ("pmax-given", "pmax-estimate", "pmax-unknown")


def ceil_log2(p: float) -> int:
    """Exact ceil(log2 p) for p > 0, read off the float representation."""
    if not (p > 0) or math.isinf(p):
        raise JobValueError(f"need a finite positive value, got {p}")
    frac, ex = math.frexp(p)
    return ex - 1 if frac == 0.5 else ex


def _pow2(top: int) -> float:
    """2^top as a float, inf for 2^1024, which is past every float."""
    return math.ldexp(1.0, top) if top < 1024 else math.inf


def _ceil_log2s(ps: np.ndarray) -> np.ndarray:
    mant, ex = np.frexp(ps)  # ceil_log2 of each finite positive p
    return ex.astype(np.int64) - (mant == 0.5)


@dataclass(frozen=True)
class SchedulingParams:
    """Derived knobs shared by grouping and search.

    top_band: highest bounded band index; 2^top_band is the smallest power
        of two at least (m + m1 - 1) / ((eps/2) * m1 * e0), so every job
        below the banded window is provably small.
    retain_limit: a band stops retaining jobs once its count reaches this.
    """

    m: int
    floor_machines: int
    ratio_floor: float
    epsilon: float
    top_band: int
    retain_limit: int

    @property
    def bounded_bands(self) -> int:
        return self.top_band + 1


def derive_params(
    m: int,
    floor_machines: int,
    ratio_floor: float,
    epsilon: float,
) -> SchedulingParams:
    """Pick the band count and retain limit for a (1+epsilon) guarantee."""
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if not (1 <= floor_machines <= m):
        raise ConfigError(f"floor machine count must be in [1, {m}], got {floor_machines}")
    if not (0.0 < ratio_floor <= 1.0):
        raise ConfigError(f"ratio floor must be in (0, 1], got {ratio_floor}")
    if not (epsilon > 0) or math.isinf(epsilon):
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")
    if epsilon >= 1:
        warnings.warn(
            f"epsilon = {epsilon} is outside the analyzed range (0, 1); "
            "the approximation guarantee is only proven below 1",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        need = math.ceil((m + floor_machines - 1) / ((epsilon / 2.0) * floor_machines * ratio_floor))
        retain_limit = math.ceil(
            m * (m + floor_machines - 1) / ((epsilon / 4.0) * ratio_floor * floor_machines)
        )
    except (OverflowError, ZeroDivisionError):
        raise ConfigError(
            f"epsilon {epsilon} with ratio floor {ratio_floor} is too small: "
            "the derived band count or retain limit is not finite"
        ) from None
    if 1.0 + epsilon / 2.0 == 1.0:
        raise ConfigError(
            f"epsilon {epsilon} is too small: the candidate grid ratio 1 + epsilon/2 "
            "rounds to 1"
        )
    return SchedulingParams(
        m=m,
        floor_machines=floor_machines,
        ratio_floor=ratio_floor,
        epsilon=epsilon,
        top_band=(need - 1).bit_length(),  # minimal g with 2^g >= need
        retain_limit=retain_limit,
    )


@dataclass(frozen=True)
class LargeJobSet:
    """What the search needs after one pass over the stream.

    saturated_band: largest band whose count reached retain_limit (-1 when
        none did).  jobs: the retained (id, p) pairs of every band above
        it, band-ascending then arrival order.  Every job not listed has
        p <= small_bound, inf when the saturated band is band 1024, past
        every float.  band_offset is None only for an empty stream.
    """

    saturated_band: int
    jobs: tuple[tuple[int, float], ...]
    total_load: float
    small_bound: float
    band_offset: int | None

    @property
    def job_count(self) -> int:
        return len(self.jobs)


class _BandedLedger:
    """Array-backed band statistics over a window of bounded bands.

    Slot 0 of counts is the open low band, every p <= 2^offset; slot k+1
    is bounded band k, p in (2^(offset+k), 2^(offset+k+1)].  A bounded
    band retains each arrival until its count reaches retain_limit; that
    arrival drops the band's retain_limit - 1 jobs for good, because a
    band that full makes every job at or below its upper edge "small" for
    the search.  So a band is only its count: the retained jobs of all
    bands are one list in arrival order, the first retained_total entries
    of ids and ps, each entry's band read off its size.  The small jobs'
    mass is in the stream's total load.

    The window follows the largest job seen: its offset is None until the
    first job, each chunk is split where its running maximum passes the
    top, and between the pieces the window rebases, shifting up and
    folding the bands that sink below it into the low band.  A regime is
    only a contract: no job may exceed limit, the declared maximum or its
    overestimate, and at the end the observed maximum's band may lie at
    most reach bands below limit's.  label names limit in messages.

    job_count, total_load (the left fold of the jobs in arrival order),
    max_seen, retained_total and peak_retained are plain fields.
    """

    def __init__(
        self,
        params: SchedulingParams,
        regime: str = "pmax-unknown",
        limit: float = math.inf,
        reach: int = 0,
        label: str = "p_max",
    ):
        self.params = params
        self.regime = regime
        n = params.bounded_bands
        self._offset = None
        self._p_limit = limit
        self._lowest_top = -math.inf if math.isinf(limit) else ceil_log2(limit) - reach
        self._limit_label = label
        try:  # numpy refuses shapes past its size limit with ValueError
            self._counts = np.zeros(n + 1, np.int64)
            self._ids = np.zeros(n * (params.retain_limit - 1), np.int64)
            self._ps = np.zeros(self._ids.size, np.float64)
        except (MemoryError, ValueError):
            raise ConfigError(
                f"cannot allocate {n} bounded bands with room for retained_job_bound = "
                f"{self.retained_bound} jobs; raise epsilon or the ratio floor"
            ) from None
        self.job_count = 0
        self.total_load = 0.0
        self.max_seen = 0.0
        self.retained_total = 0
        self.peak_retained = 0
        self._peak_records = 1  # the low band always exists

    # -- reading -------------------------------------------------------

    @property
    def band_offset(self) -> int | None:
        """Offset of the streaming window; None before the first job."""
        return self._offset

    @property
    def peak_group_records(self) -> int:
        """1 (the low band) plus the peak number of bounded bands holding
        a job.  Bands appear only between rebases, so sampling before each
        rebase and now sees every peak."""
        return max(self._peak_records, 1 + int(np.count_nonzero(self._counts[1:])))

    @property
    def retained_bound(self) -> int:
        return self.params.bounded_bands * self.params.retain_limit

    @property
    def group_record_bound(self) -> int:
        return self.params.bounded_bands + 1

    def _slots(self) -> np.ndarray:
        """Each list entry's counts slot, k + 1 for bounded band k."""
        return _ceil_log2s(self._ps[: self.retained_total]) - self._offset

    # -- streaming -----------------------------------------------------

    def ingest_many(self, ps) -> None:
        """Account a chunk of jobs, all validated before any is accounted."""
        arr = np.ascontiguousarray(ps, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigError("job chunk must be one-dimensional")
        if arr.size == 0:
            return
        start = self.job_count
        # one seeded left fold: the new total load, finite when every job is
        folds = np.concatenate(([self.total_load], arr))
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(folds, out=folds)
        chunk_max = float(arr.max())
        # a NaN fails both comparisons; each fault is searched for only then
        if not (arr.min() > 0 and chunk_max <= self._p_limit and math.isfinite(folds[-1])):
            bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0)))
            over = np.flatnonzero(arr > self._p_limit)
            if bad.size:
                pos = start + int(bad[0])
                raise JobValueError(
                    f"processing time must be finite and > 0, got {float(arr[bad[0]])} "
                    f"at position {pos}",
                    position=pos,
                )
            if over.size:
                pos = start + int(over[0])
                raise PmaxContractError(
                    f"job at position {pos} has processing time {float(arr[over[0]])} above "
                    f"the declared {self._limit_label} {self._p_limit}",
                    position=pos,
                )
            pos = start + int(np.argmax(np.isinf(folds[1:])))
            raise JobValueError(f"total load overflows to infinity at position {pos}", position=pos)
        tops = _ceil_log2s(arr)
        n = self.params.bounded_bands
        if self._offset is None:  # the window rises to meet the first job
            self._rebase(int(tops[0]) - n)
        cut = 0
        window_top = self._offset + n
        if ceil_log2(chunk_max) > window_top:
            running = np.maximum.accumulate(np.maximum(tops, window_top))
            for rise in np.flatnonzero(np.diff(running, prepend=window_top) > 0):
                self._ingest_segment(arr[cut:rise], tops[cut:rise], start + cut)
                self._rebase(int(running[rise]) - n)
                cut = rise
        self._ingest_segment(arr[cut:], tops[cut:], start + cut)
        self.job_count += arr.size
        self.total_load = float(folds[-1])
        self.max_seen = max(self.max_seen, chunk_max)

    def _ingest_segment(self, ps: np.ndarray, tops: np.ndarray, start: int) -> None:
        """Account the jobs ps, ids from start on and exact ceil(log2 p) in
        tops, inside the window.  An arrival into a band below the limit
        joins the list, unless the band fills here: then the filling
        arrival drops the band's entries, this segment's among them."""
        slots = np.maximum(tops - self._offset, 0)  # 0 for the low band, else k + 1
        added = np.bincount(slots, minlength=self._counts.size)
        room = self.params.retain_limit - 1 - self._counts  # arrivals a band still retains
        room[0] = -1  # the low band retains none
        self._counts += added
        if not ((added > 0) & (room >= 0)).any():
            return
        joins = (room >= added)[slots]
        fills = np.flatnonzero((room >= 0) & (added > room))
        if fills.size:  # the running retained total peaks before a filling arrival
            steps = joins.astype(np.int64)
            for slot in fills.tolist():
                pos = np.flatnonzero(slots == slot)
                steps[pos[: room[slot]]] = 1
                steps[pos[room[slot]]] = -(self.params.retain_limit - 1)
            self.peak_retained = max(self.peak_retained,
                                     self.retained_total + int(np.cumsum(steps).max()))
            for top in (fills + self._offset).tolist():
                self._drop(top - 1, top)
        new = np.flatnonzero(joins)
        end = self.retained_total + new.size
        self._ids[self.retained_total:end] = new + start
        self._ps[self.retained_total:end] = ps[new]
        self.retained_total = end
        self.peak_retained = max(self.peak_retained, end)

    def _drop(self, low: int, top: int) -> None:
        """Drop the list entries with 2^low < p <= 2^top, in place."""
        total = self.retained_total
        gone = (self._ps[:total] > math.ldexp(1.0, low)) & (self._ps[:total] <= _pow2(top))
        at = np.flatnonzero(gone)
        if at.size:
            first, end = at[0], total - at.size
            for a in (self._ids, self._ps):  # the entries after first slide down
                a[first:end] = a[first:total][~gone[first:]]
            self.retained_total = end

    def _rebase(self, offset: int) -> None:
        """Move the window up to a larger offset: the sunk bands' counts
        fold into the low band and their entries leave the list."""
        if self._offset is not None:
            self._peak_records = self.peak_group_records
            sunk = min(offset - self._offset, self.params.bounded_bands)
            low = self._counts[: sunk + 1].sum()
            self._counts = np.concatenate(
                ([low], self._counts[sunk + 1 :], np.zeros(sunk, np.int64)))
            self._drop(self._offset, offset)
        self._offset = offset

    # -- state extraction ------------------------------------------------

    def snapshot(self):
        """Canonical (offset, low_count, entries) of the window, each entry
        (top, count, retained) of a band holding a job: what finalize reads
        and equality tests compare.  The window's top is the observed
        maximum's band; a limit more than reach bands above it breaks the
        declared contract.
        """
        if self.job_count == 0:
            return (None, 0, ())
        if ceil_log2(self.max_seen) < self._lowest_top:
            raise PmaxContractError(
                f"the declared {self._limit_label} {self._p_limit} is too far above the "
                f"observed maximum {self.max_seen}; for an upper bound use "
                f"--regime pmax-estimate with alpha >= {self._p_limit / self.max_seen!r}"
            )
        slots = self._slots()
        order = np.argsort(slots, kind="stable")  # band-ascending, then arrival order
        jobs = list(zip(self._ids[order].tolist(), self._ps[order].tolist()))
        ends = np.searchsorted(slots[order], np.arange(self._counts.size), side="right")
        entries = tuple(
            (self._offset + s, int(self._counts[s]), tuple(jobs[ends[s - 1]:ends[s]]))
            for s in (np.flatnonzero(self._counts[1:]) + 1).tolist()
        )
        return (self._offset, int(self._counts[0]), entries)

    def finalize(self) -> LargeJobSet:
        offset, _, entries = self.snapshot()
        saturated, jobs = -1, []
        for top, count, retained in entries:  # band-ascending
            jobs.extend(retained)
            if count >= self.params.retain_limit:  # every job so far is small
                saturated, jobs = top - offset - 1, []
        return LargeJobSet(
            saturated_band=saturated,
            jobs=tuple(jobs),
            total_load=self.total_load,
            small_bound=0.0 if offset is None else _pow2(offset + saturated + 1),
            band_offset=offset,
        )


# the arguments each regime reads, its declared maximum first
_READS = {"pmax-given": ("pmax",), "pmax-estimate": ("pmax_estimate", "alpha"), "pmax-unknown": ()}
_ARGUMENTS = {
    "pmax": "a largest processing time (--pmax)",
    "pmax_estimate": "an overestimate (--pmax-estimate)",
    "alpha": "an estimate factor (--alpha)",
}


def make_ledger(
    params: SchedulingParams,
    regime: str,
    pmax: float | None = None,
    pmax_estimate: float | None = None,
    alpha: float | None = None,
) -> _BandedLedger:
    """The ledger for one of REGIMES: the same window, and the regime's
    contract.  pmax-given: no job exceeds pmax, which lies in the band of
    the stream's maximum; pmax-estimate: no job exceeds pmax_estimate,
    whose band lies at most ceil(log2 alpha) bands above the maximum's
    (alpha defaults to 1); pmax-unknown: none.  A regime refuses the
    arguments it does not read.
    """
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}; expected one of {', '.join(REGIMES)}")
    given = {"pmax": pmax, "pmax_estimate": pmax_estimate, "alpha": alpha}
    for arg, value in given.items():
        if value is not None and arg not in _READS[regime]:
            raise ConfigError(f"regime {regime} does not take {_ARGUMENTS[arg]}")
    if regime == "pmax-unknown":
        return _BandedLedger(params, regime)
    limit_arg = _READS[regime][0]
    limit = given[limit_arg]
    if limit is None:
        raise ConfigError(f"regime {regime} needs {_ARGUMENTS[limit_arg]}")
    label = "p_max" if regime == "pmax-given" else "p_max estimate"
    if not (limit > 0) or math.isinf(limit):
        raise ConfigError(f"{label} must be finite and > 0, got {limit}")
    alpha = 1.0 if alpha is None else alpha
    if not alpha >= 1.0 or math.isinf(alpha):
        raise ConfigError(f"estimate factor alpha must be finite and >= 1, got {alpha}")
    return _BandedLedger(params, regime, float(limit), ceil_log2(alpha), label)
