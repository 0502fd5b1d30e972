"""One streaming pass: ingest chunks, finalize, search, report, and keep
what a second pass needs (FirstPassArtifacts).

The report carries every figure a run is judged by (value, selected time,
band state, memory peaks, timings) as plain fields so the CLI can print
them and tests can compare runs with the timing fields masked out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator

import numpy as np

from .capacity import MachinePark
from .errors import ConfigError, ScheduleContractError
from .search import DEFAULT_BUDGET, SearchOutcome, enumerate_and_select

__all__ = ["RunReport", "FirstPassArtifacts", "Spill", "run_stream"]


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

    spill holds the stream's parsed chunks for the second pass to read
    back; a one-pass run keeps None.
    """

    outcome: SearchOutcome
    spill: Spill | None


class Spill:
    """The chunks of a stream, each appended behind its length to an
    unlinked temporary file in TMPDIR, and read back in the same chunks.

    Process memory does not grow with the stream: the file holds 8 bytes
    a job in TMPDIR, which is RAM when TMPDIR is a tmpfs.  A file that
    cannot be made, written or read is a ConfigError that names its
    directory; one that gives back fewer jobs than were appended is a
    ScheduleContractError.  Iterating reads the chunks from the start, one
    iteration at a time.  close(), or leaving a with block, deletes the
    file; so does collecting the spill.
    """

    def __init__(self):
        import tempfile  # only a run with a second pass spills
        import weakref

        # TMPDIR as given: tempfile would pass over a missing one unnoticed
        self.folder = os.environ.get("TMPDIR") or tempfile.gettempdir()
        try:
            self.file = tempfile.TemporaryFile(dir=self.folder)
        except OSError as exc:
            raise self._fault(exc) from None
        # closes a collected spill without the ResourceWarning an unclosed
        # file gives
        self.close = weakref.finalize(self, self.file.close)
        self.jobs = 0

    def __enter__(self) -> Spill:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fault(self, exc: OSError) -> ConfigError:
        return ConfigError(
            f"cannot use a spill file in {self.folder}: {exc.strerror or exc}"
        )

    def append(self, values: np.ndarray) -> None:
        """Append a contiguous float64 array."""
        try:
            self.file.write(values.size.to_bytes(8, "little"))
            self.file.write(values)
        except OSError as exc:
            raise self._fault(exc) from None
        self.jobs += values.size

    def __iter__(self) -> Iterator[np.ndarray]:
        file = self.file
        read = 0
        try:
            file.seek(0)  # flushes what append left buffered
            while head := file.read(8):
                values = np.empty(int.from_bytes(head, "little"))
                if len(head) < 8 or file.readinto(values) != values.nbytes:
                    raise ScheduleContractError("the spill file ends inside a chunk")
                read += values.size
                yield values
        except OSError as exc:
            raise self._fault(exc) from None
        if read != self.jobs:
            raise ScheduleContractError(
                f"the spill file ends after {read} of its {self.jobs} jobs"
            )


def run_stream(
    park: MachinePark,
    ledger,
    chunks: Iterable,
    mode: str = "one-pass",
    budget: int = DEFAULT_BUDGET,
) -> tuple[RunReport, FirstPassArtifacts]:
    """Feed every chunk to the ledger, then search the retained jobs.

    The parameters and the regime are the ledger's.  Returns the run
    report plus what a second pass needs: any mode but "one-pass", the
    default, spills the parsed chunks for it.  An empty stream takes the
    same path to value 0.
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
    spill = None if mode == "one-pass" else Spill()  # only a second pass reads it
    try:
        chunks = iter(chunks)
        while True:
            s = time.perf_counter()
            chunk = next(chunks, None)
            parse += time.perf_counter() - s
            if chunk is None:
                break
            arr = np.ascontiguousarray(chunk, dtype=np.float64)
            s = time.perf_counter()
            ledger.ingest_many(arr)
            ingest += time.perf_counter() - s
            if spill is not None:
                spill.append(arr)
        large = ledger.finalize()
        s = time.perf_counter()
        outcome = enumerate_and_select(park, large, params.epsilon, budget=budget)
        search = time.perf_counter() - s
    except BaseException:
        if spill is not None:
            spill.close()
        raise
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
    return report, FirstPassArtifacts(outcome=outcome, spill=spill)
