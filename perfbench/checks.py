"""Output checks that share no code with the timed path.

Reports are recomputed with `streamspan.oracle.replay_grouping`, a plain
dict replay of the band ledgers.  Schedules are checked with this
module's own numpy code against the park the benchmark generated.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from pathlib import Path

import numpy as np

from streamspan.capacity import MachineTimeline
from streamspan.grouping import derive_params
from streamspan.oracle import naive_capacity_at, replay_grouping

from workloads import PARK_E0, PARK_M, PARK_M1, Inputs, Park

# A job of size p started at s and completed at c must satisfy
# |A(c) - A(s) - p| <= CAPACITY_ULPS * spacing(A(c)), where A is the machine's
# capacity.  With integer sizes and breakpoints and ratios 1/4, 1/2 and 1,
# every value involved is exact today; the margin allows a rounding or two.
CAPACITY_ULPS = 4


def parse_report(text: str) -> dict[str, str]:
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def masked(report: dict[str, str]) -> dict[str, str]:
    """The report without timings: identical runs must agree on the rest."""
    return {k: v for k, v in report.items() if not k.endswith("_seconds")}


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_report(report: dict[str, str], inputs: Inputs) -> list[str]:
    """Compare the report's stream figures with an oracle replay."""
    jobs = inputs.jobs.tolist()
    params = derive_params(m=PARK_M, floor_machines=PARK_M1, ratio_floor=PARK_E0, epsilon=0.5)
    offset, _, _, entries = replay_grouping(jobs, params, p_max=inputs.workload.pmax_given)
    saturated = max(
        (top - offset - 1 for top, count, _, _ in entries if count >= params.retain_limit),
        default=-1,
    )
    search_jobs = sum(len(kept) for top, _, _, kept in entries if top - offset - 1 > saturated)
    expected = {
        "job_count": str(len(jobs)),
        "total_load": str(functools.reduce(operator.add, jobs, 0.0)),
        "saturated_band": str(saturated),
        "search_jobs": str(search_jobs),
        "top_band": str(params.top_band),
        "retain_limit": str(params.retain_limit),
    }
    return [
        f"report {key} is {report.get(key)!r}, oracle replay gives {want!r}"
        for key, want in expected.items()
        if report.get(key) != want
    ]


def capacity(park: Park, machine: int, t: np.ndarray) -> np.ndarray:
    """A_i(t) by the same left fold as oracle.naive_capacity_at, vectorized."""
    bps, rs = park.breakpoints[machine], park.ratios[machine]
    prev = np.concatenate([[0.0], bps[:-1]])
    cum = np.cumsum((bps - prev) * rs)
    j = np.searchsorted(bps, t, side="left")  # first breakpoint >= t
    inside = np.minimum(j, bps.size - 1)
    before = np.where(j > 0, cum[inside - 1], 0.0)
    out = before + (t - prev[inside]) * rs[inside]
    return np.where(j == bps.size, cum[-1] + (t - bps[-1]), out)


def check_capacity_against_oracle(park: Park, rng: np.random.Generator) -> list[str]:
    """The vectorized capacity must equal the oracle's scan bit for bit."""
    errors = []
    for i, (bps, rs) in enumerate(zip(park.breakpoints, park.ratios)):
        timeline = MachineTimeline(i + 1, tuple(bps), tuple(rs))
        t = np.concatenate([[0.0], bps, bps + 0.5, rng.uniform(0, 1.2 * bps[-1], 1000)])
        fast = capacity(park, i, t)
        slow = np.array([naive_capacity_at(timeline, float(x)) for x in t])
        bad = np.flatnonzero(fast != slow)
        if bad.size:
            k = int(bad[0])
            errors.append(f"machine {i + 1}: capacity({t[k]}) = {fast[k]}, oracle {slow[k]}")
    return errors


def read_schedule_csv(path: Path) -> tuple[np.ndarray, str]:
    """(rows as an n x 4 float array, makespan field) of a schedule CSV."""
    text = path.read_text(encoding="utf-8")
    header, _, rest = text.partition("\n")
    if header != "job_id,machine,start,completion":
        raise ValueError(f"unexpected header {header!r}")
    body, _, tail = rest.rpartition("makespan,")
    fields = body.replace("\n", ",").split(",")[:-1]
    return np.array(fields, dtype=np.float64).reshape(-1, 4), tail.strip()


def check_schedule(path: Path, report: dict[str, str], inputs: Inputs) -> list[str]:
    try:
        rows, makespan_field = read_schedule_csv(path)
    except (OSError, ValueError) as exc:
        return [f"schedule CSV unreadable: {exc}"]
    jobs, park = inputs.jobs, inputs.park
    n = jobs.size
    ids = rows[:, 0].astype(np.int64)
    machine = rows[:, 1].astype(np.int64)
    start, done = rows[:, 2], rows[:, 3]
    if rows.shape[0] != n or not np.array_equal(np.sort(ids), np.arange(n)):
        return [f"job ids are not a permutation of 0..{n - 1}"]
    if not np.isin(machine, np.arange(1, PARK_M + 1)).all():
        return ["a job runs on a machine outside 1..m"]
    errors = check_capacity_against_oracle(park, np.random.default_rng(inputs.seed))
    for i in range(PARK_M):
        on = np.flatnonzero(machine == i + 1)
        if on.size == 0:
            continue
        order = on[np.argsort(start[on], kind="stable")]
        s, c = start[order], done[order]
        if s[0] != 0.0 or not np.array_equal(s[1:], c[:-1]):
            errors.append(f"machine {i + 1} does not run back to back from 0")
        a_done = capacity(park, i, c)
        used = a_done - capacity(park, i, s)
        slack = np.abs(used - jobs[ids[order]]) - CAPACITY_ULPS * np.spacing(a_done)
        if (slack > 0).any():
            k = int(np.argmax(slack))
            errors.append(
                f"machine {i + 1}: job {ids[order][k]} consumes {used[k]} of capacity, "
                f"its size is {jobs[ids[order][k]]}"
            )
    top = float(done.max()) if n else 0.0
    try:
        makespans = (float(makespan_field), float(report["makespan"]))
        value = float(report["value"])
    except (KeyError, ValueError):
        return errors + ["makespan row or report makespan/value missing"]
    if makespans != (top, top):
        errors.append(
            f"makespan row {makespans[0]}, report {makespans[1]} and largest "
            f"completion {top} differ"
        )
    if not top <= value:
        errors.append(f"makespan {top} exceeds the reported value {value}")
    return errors
