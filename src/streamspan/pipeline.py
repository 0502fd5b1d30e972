"""One streaming pass: ingest chunks, finalize, search, report, and keep
what a second pass needs (FirstPassArtifacts).

The report carries every figure a run is judged by (value, selected time,
band state, memory peaks, timings) as plain fields so the CLI can print
them and tests can compare runs with the timing fields masked out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .capacity import MachinePark
from .errors import ConfigError
from .search import DEFAULT_BUDGET, SearchOutcome, enumerate_and_select

__all__ = ["RunReport", "FirstPassArtifacts", "fingerprint_update", "run_stream"]


_STATS = {"stats": True}


@dataclass(frozen=True, kw_only=True)
class RunReport:
    """Everything one run exposes, one field per key, in print order.  A
    field whose default is None prints only when set; one with _STATS
    metadata prints only with --stats.  Keys ending in _seconds are timing
    and excluded from determinism comparisons."""

    mode: str
    regime: str
    value: float
    selected_t: float
    grid_exponent: int
    saturated_band: int
    band_offset: int | None
    search_jobs: int
    total_load: float
    job_count: int
    peak_retained_jobs: int
    peak_group_records: int
    wall_seconds: float
    mean_ingest_seconds: float
    makespan: float | None = None
    schedule_path: str | None = None
    max_seen: float = field(metadata=_STATS)
    small_bound: float = field(metadata=_STATS)
    assignments: int = field(metadata=_STATS)
    search_nodes: int = field(metadata=_STATS)
    lower_bound: float = field(metadata=_STATS)
    upper_bound: float = field(metadata=_STATS)
    epsilon: float = field(metadata=_STATS)
    top_band: int = field(metadata=_STATS)
    retain_limit: int = field(metadata=_STATS)
    retained_job_bound: int = field(metadata=_STATS)
    group_record_bound: int = field(metadata=_STATS)
    ingest_seconds: float = field(metadata=_STATS)
    parse_seconds: float = field(metadata=_STATS)
    search_seconds: float = field(metadata=_STATS)
    # stage times of a run that wrote a schedule
    second_pass_seconds: float | None = field(default=None, metadata=_STATS)
    write_seconds: float | None = field(default=None, metadata=_STATS)

    def as_lines(self, stats: bool = False) -> list[str]:
        out = []
        for f in fields(self):
            val = getattr(self, f.name)
            if (val is None and f.default is None) or (f.metadata.get("stats") and not stats):
                continue
            try:
                text = repr(val) if isinstance(val, str) else str(val)
            except ValueError:  # assignments, an int past int's decimal digit limit
                import decimal

                text = str(decimal.Decimal(val))
            out.append(f"{f.name}: {text}")
        return out


@dataclass(frozen=True)
class FirstPassArtifacts:
    """What the streaming pass must remember to build the schedule later.

    fingerprint, the fingerprint_update fold over the whole stream, tells
    a second pass a changed stream; a one-pass run keeps None.
    """

    outcome: SearchOutcome
    job_count: int
    max_seen: float
    fingerprint: int | None


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_POSITION_KEY = np.uint64(0x9E3779B97F4A7C15)


def fingerprint_update(fingerprint: int, values: np.ndarray, start: int) -> int:
    """Fold the float64 values at stream positions start.. into fingerprint.

    Each value's bits, xor-ed with its position times a key, go through
    the splitmix64 finalizer; the hashes add up mod 2**64.  The sum does
    not depend on how the stream is chunked, and a change of any value or
    of the order of two different values changes it.
    """
    positions = np.arange(start, start + values.size, dtype=np.uint64)
    z = values.view(np.uint64) ^ (positions * _POSITION_KEY)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return (fingerprint + int(z.sum(dtype=np.uint64))) % (1 << 64)


def run_stream(
    park: MachinePark,
    ledger,
    chunks: Iterable,
    mode: str = "one-pass",
    budget: int = DEFAULT_BUDGET,
) -> tuple[RunReport, FirstPassArtifacts]:
    """Feed every chunk to the ledger, then search the retained jobs.

    The parameters and the regime are the ledger's.  Returns the run
    report plus what a second pass needs; mode "one-pass", the default,
    keeps no fingerprint.  An empty stream takes the same path to value 0.
    """
    params = ledger.params
    if params.m != park.m:
        raise ConfigError(
            f"parameters were derived for {params.m} machines, park has {park.m}"
        )
    if (params.floor_machines, params.ratio_floor) != (park.floor_machines, park.ratio_floor):
        raise ConfigError(
            f"parameters were derived for m1 {params.floor_machines}, e0 {params.ratio_floor}; "
            f"park has m1 {park.floor_machines}, e0 {park.ratio_floor}"
        )
    t0 = time.perf_counter()
    parse = ingest = 0.0
    fingerprint = None if mode == "one-pass" else 0  # only a second pass reads it
    seen = 0
    chunks = iter(chunks)
    while True:
        s = time.perf_counter()
        chunk = next(chunks, None)
        parse += time.perf_counter() - s
        if chunk is None:
            break
        arr = np.asarray(chunk, dtype=np.float64)
        s = time.perf_counter()
        ledger.ingest_many(arr)
        ingest += time.perf_counter() - s
        fingerprint = None if fingerprint is None else fingerprint_update(fingerprint, arr, seen)
        seen += arr.size
    large = ledger.finalize()
    s = time.perf_counter()
    outcome = enumerate_and_select(park, large, params.epsilon, budget=budget)
    search = time.perf_counter() - s
    wall = time.perf_counter() - t0
    n = ledger.job_count
    report = RunReport(
        mode=mode,
        regime=ledger.regime,
        value=outcome.value,
        selected_t=outcome.t,
        grid_exponent=outcome.grid_exponent,
        saturated_band=large.saturated_band,
        band_offset=large.band_offset,
        search_jobs=large.job_count,
        total_load=large.total_load,
        job_count=n,
        max_seen=ledger.max_seen,
        small_bound=large.small_bound,
        assignments=park.m ** large.job_count,
        search_nodes=outcome.nodes,
        lower_bound=outcome.lower_bound,
        upper_bound=outcome.upper_bound,
        epsilon=params.epsilon,
        top_band=params.top_band,
        retain_limit=params.retain_limit,
        peak_retained_jobs=ledger.peak_retained,
        retained_job_bound=ledger.retained_bound,
        peak_group_records=ledger.peak_group_records,
        group_record_bound=ledger.group_record_bound,
        ingest_seconds=ingest,
        parse_seconds=parse,
        search_seconds=search,
        wall_seconds=wall,
        mean_ingest_seconds=ingest / n if n else 0.0,
    )
    artifacts = FirstPassArtifacts(
        outcome=outcome,
        job_count=n,
        max_seen=ledger.max_seen,
        fingerprint=fingerprint,
    )
    return report, artifacts
