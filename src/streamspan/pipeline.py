"""One streaming pass: ingest chunks, finalize, search, report.

The report carries every figure a run is judged by (value, selected time,
band state, memory peaks, timings) as plain fields so the CLI can print
them and tests can compare runs with the timing fields masked out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .capacity import MachinePark
from .errors import ConfigError
from .schedule import FirstPassArtifacts, fingerprint_update
from .search import DEFAULT_BUDGET, enumerate_and_select

__all__ = ["RunReport", "run_stream"]


@dataclass(frozen=True)
class RunReport:
    """Everything one run exposes.  Keys ending in _seconds are timing
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
    max_seen: float
    small_bound: float
    assignments: int
    search_nodes: int
    lower_bound: float
    upper_bound: float
    epsilon: float
    top_band: int
    retain_limit: int
    override_mode: bool
    peak_retained_jobs: int
    retained_job_bound: int
    peak_group_records: int
    group_record_bound: int
    ingest_seconds: float
    parse_seconds: float
    search_seconds: float
    wall_seconds: float
    mean_ingest_seconds: float
    makespan: float | None = None
    schedule_path: str | None = None
    second_pass_seconds: float | None = None
    write_seconds: float | None = None

    _CORE = (
        "mode",
        "regime",
        "value",
        "selected_t",
        "grid_exponent",
        "saturated_band",
        "band_offset",
        "search_jobs",
        "total_load",
        "job_count",
        "peak_retained_jobs",
        "peak_group_records",
        "wall_seconds",
        "mean_ingest_seconds",
    )
    _EXTRA = (
        "max_seen",
        "small_bound",
        "assignments",
        "search_nodes",
        "lower_bound",
        "upper_bound",
        "epsilon",
        "top_band",
        "retain_limit",
        "override_mode",
        "retained_job_bound",
        "group_record_bound",
        "ingest_seconds",
        "parse_seconds",
        "search_seconds",
    )
    # stage times of a run that wrote a schedule, after the extras
    _SCHEDULE_STAGES = ("second_pass_seconds", "write_seconds")

    def as_lines(self, stats: bool = False) -> list[str]:
        keys = list(self._CORE)
        if self.makespan is not None:
            keys.append("makespan")
        if self.schedule_path is not None:
            keys.append("schedule_path")
        if stats:
            keys.extend(self._EXTRA)
            keys.extend(k for k in self._SCHEDULE_STAGES if getattr(self, k) is not None)
        out = []
        for key in keys:
            val = getattr(self, key)
            out.append(f"{key}: {val!r}" if isinstance(val, str) else f"{key}: {val}")
        return out


def run_stream(
    park: MachinePark,
    ledger,
    chunks: Iterable,
    mode: str = "one-pass",
    budget: int = DEFAULT_BUDGET,
) -> tuple[RunReport, FirstPassArtifacts]:
    """Feed every chunk to the ledger, then search the retained jobs.

    The parameters and the regime are the ledger's.  Returns the run
    report plus what a second pass needs.  An empty stream reports value 0
    through the same code path.
    """
    params = ledger.params
    if params.m != park.m:
        raise ConfigError(
            f"parameters were derived for {params.m} machines, park has {park.m}"
        )
    t0 = time.perf_counter()
    parse = ingest = 0.0
    fingerprint = 0
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
        fingerprint = fingerprint_update(fingerprint, arr, seen)
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
        override_mode=params.override_mode,
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
