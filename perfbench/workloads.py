"""The benchmark's workloads and the seeded inputs they feed `streamspan run`.

Inputs come from `numpy.random.default_rng(seed)` here, not from
`streamspan generate`, so a change to the program's own generator cannot
move a workload.  The same seed always gives the same files.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# One park shape for every workload: 3 machines, machine 1 never shares
# below ratio 0.5, about 400 shared intervals per machine.
PARK_M = 3
PARK_M1 = 1
PARK_E0 = 0.5
INTERVALS_PER_MACHINE = 400
FLOOR_RATIOS = (0.5, 1.0)
SHARED_RATIOS = (0.25, 0.5, 1.0)
PMAX = 1024


def uniform_jobs(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(1, PMAX + 1, size=1_000_000)


def search_jobs(rng: np.random.Generator) -> np.ndarray:
    small = rng.integers(1, PMAX // 2 + 1, size=100_000)
    large = rng.integers(PMAX // 2 + 1, PMAX + 1, size=14)
    jobs = np.concatenate([small, large])
    rng.shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    why: str
    make_jobs: Callable[[np.random.Generator], np.ndarray]
    flags: tuple[str, ...] = ()
    writes_schedule: bool = False
    pmax_given: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="onepass-uniform-1m",
            size="1,000,000 integer jobs uniform in [1, 1024]; 3-machine park",
            why=(
                "Default flags (pmax-unknown, eps 0.5). Every band saturates, so the "
                "search sees 0 jobs and the run is stream parse plus dict-ledger "
                "ingest_many: it shows ledger and parse changes."
            ),
            make_jobs=uniform_jobs,
        ),
        Workload(
            name="search-j14",
            size="100,000 jobs in [1, 512] plus 14 in (512, 1024], shuffled; 3-machine park",
            why=(
                "Default flags. The lower bands saturate and the top band keeps the 14 "
                "large jobs, so the search enumerates 3**14 assignments and ingest is "
                "nearly idle: it shows search changes."
            ),
            make_jobs=search_jobs,
        ),
        Workload(
            name="twopass-dense-1m",
            size="the 1M-job uniform stream; two-pass, pmax-given 1024, schedule CSV",
            why=(
                "Second pass, completion_time over dense shared intervals and CSV write "
                "dominate; pmax-given ingests through the array ledger, so it guards "
                "ledger changes made for pmax-unknown."
            ),
            make_jobs=uniform_jobs,
            flags=("--mode", "two-pass", "--regime", "pmax-given", "--pmax", str(PMAX)),
            writes_schedule=True,
            pmax_given=float(PMAX),
        ),
    )
}


@dataclass(frozen=True)
class Park:
    """The generated park as the benchmark knows it, independent of the CLI's parser."""

    breakpoints: tuple[np.ndarray, ...]
    ratios: tuple[np.ndarray, ...]

    def config_text(self) -> str:
        lines = [f"m {PARK_M}", f"m1 {PARK_M1}", f"e0 {PARK_E0!r}"]
        for i, (bps, rs) in enumerate(zip(self.breakpoints, self.ratios), start=1):
            pairs = " ".join(f"{int(b)} {float(r)!r}" for b, r in zip(bps, rs))
            lines.append(f"machine {i} {pairs}")
        return "\n".join(lines) + "\n"


def make_park(rng: np.random.Generator, total_load: float) -> Park:
    """Breakpoints spread over twice the mean per-machine load, so a schedule's
    completions fall among them and `completion_time` bisects for real."""
    horizon = max(int(2 * total_load / PARK_M), INTERVALS_PER_MACHINE)
    breakpoints, ratios = [], []
    for i in range(1, PARK_M + 1):
        bps = np.sort(rng.choice(horizon, size=INTERVALS_PER_MACHINE, replace=False) + 1)
        pool = FLOOR_RATIOS if i <= PARK_M1 else SHARED_RATIOS
        breakpoints.append(bps.astype(np.float64))
        ratios.append(rng.choice(pool, size=INTERVALS_PER_MACHINE))
    return Park(tuple(breakpoints), tuple(ratios))


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    seed: int
    jobs: np.ndarray  # float64, stream order
    park: Park
    config: Path
    jobs_file: Path
    empty_jobs: Path
    schedule_out: Path

    def argv(self, jobs_file: Path | None = None) -> list[str]:
        """`streamspan run` arguments; --stats adds the counts the checks read."""
        argv = [
            "run", "--config", str(self.config),
            "--jobs", str(jobs_file or self.jobs_file), "--stats",
            *self.workload.flags,
        ]
        if self.workload.writes_schedule:
            argv += ["--schedule-out", str(self.schedule_out)]
        return argv


def prepare(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate (or reuse) the workload's files for this seed under workdir."""
    rng = np.random.default_rng(seed)
    jobs = workload.make_jobs(rng)
    park = make_park(rng, float(jobs.sum()))
    wdir = workdir / workload.name
    stamp = wdir / "stamp"
    config_text = park.config_text()
    stamp_text = f"{seed} {jobs.size} {hashlib.sha256(config_text.encode()).hexdigest()}"
    inputs = Inputs(
        workload=workload,
        seed=seed,
        jobs=jobs.astype(np.float64),
        park=park,
        config=wdir / "park.cfg",
        jobs_file=wdir / "jobs.txt",
        empty_jobs=wdir / "empty.txt",
        schedule_out=wdir / "schedule.csv",
    )
    if not (stamp.is_file() and stamp.read_text() == stamp_text):
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        inputs.config.write_text(config_text)
        inputs.jobs_file.write_text("\n".join(map(str, jobs.tolist())) + "\n")
        inputs.empty_jobs.write_text("")
        stamp.write_text(stamp_text)
    # warm the page cache so the first timed run reads from memory like the rest
    inputs.jobs_file.read_bytes()
    return inputs
