#!/usr/bin/env python3
"""Time the hot kernels and the stages around them.

parse: textio's job-stream parser over the ingest stream as text, once
as integers (the digit path), once times 0.37 written with repr (the
split-and-convert path), and once as integers of 9 to 18 digits, evenly
spread over the widths (the digit path's second and third lanes).
ingest: the same stream, as integers, through make_ledger(...).ingest_many
per regime, in --chunk chunks.
schedule: the streamed second pass, a SecondPass written by
write_schedule_csv, over 1M jobs on a 3-machine park with 400 shared
intervals per machine: the whole stage, and its second pass (the time
inside the stage's iteration) and CSV write (the rest) apart.
chain: completion_chain of one machine's share of those jobs on machine 2
of that park, for their integer sizes and for the sizes times 0.37.
search: enumerate_and_select's branch and bound on J large jobs with
aggregate slack (J = --search-jobs, m**J assignments) and on the retained
jobs of a generated n=300 stream: nodes, wall time, nodes/s.

Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
    PYTHONPATH=src python3 benchmarks/bench_kernels.py --jobs 4000000 --search-jobs 20
    PYTHONPATH=src python3 benchmarks/bench_kernels.py --json benchmarks/BENCH_kernels.json --label after

--json adds this run's figures to the file under --label, keeping the
other labels' entries, so one file holds a change's before and after.
"""

import argparse
import io
import math
import os
import platform
import tempfile
import time

import numpy as np

from _figures import save_runs
from streamspan import make_ledger, run_stream
from streamspan.capacity import MachinePark, MachineTimeline, completion_chain
from streamspan.cli import generate_instance, parse_machine_config_text
from streamspan.grouping import LargeJobSet, derive_params
from streamspan.schedule import SecondPass
from streamspan.search import enumerate_and_select
from streamspan.textio import float_chunks, write_schedule_csv

SCHEDULE_JOBS = 1_000_000
SCHEDULE_INTERVALS = 400


def make_park(m):
    """m machines, a shared ramp on each beyond the first."""
    machines = [MachineTimeline(1, (), ())]
    for i in range(2, m + 1):
        machines.append(MachineTimeline(i, (4.0 * i, 8.0 * i), (0.5, 1.0)))
    return MachinePark(tuple(machines), 1, 0.5)


def bench_parse(text, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _chunk in float_chunks(io.StringIO(text)):
            pass
        best = min(best, time.perf_counter() - t0)
    return best


def bench_ledger(params, regime, ledger_args, stream, chunk, repeats):
    best = math.inf
    for _ in range(repeats):
        ledger = make_ledger(params, regime, **ledger_args)
        t0 = time.perf_counter()
        for lo in range(0, stream.size, chunk):
            ledger.ingest_many(stream[lo : lo + chunk])
        best = min(best, time.perf_counter() - t0)
    return best


def make_dense_park(rng, total_load):
    """3 machines, machine 1 never below ratio 0.5, SCHEDULE_INTERVALS shared
    intervals each spread over twice the mean per-machine load."""
    horizon = max(int(2 * total_load / 3), SCHEDULE_INTERVALS)
    machines = []
    for i in range(1, 4):
        bps = np.sort(rng.choice(horizon, size=SCHEDULE_INTERVALS, replace=False) + 1)
        ratios = rng.choice((0.5, 1.0) if i == 1 else (0.25, 0.5, 1.0), size=bps.size)
        machines.append(MachineTimeline(i, tuple(bps.tolist()), tuple(ratios.tolist())))
    return MachinePark(tuple(machines), 1, 0.5)


def bench_chain(timeline, amounts, repeats):
    """Best completion_chain seconds over amounts, run back to back from 0."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        completion_chain(timeline, 0.0, amounts)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_schedule(park, stream, chunk, repeats):
    """Best (second pass, CSV write, whole stage) seconds of the streamed
    second pass over a two-pass run."""
    params = derive_params(m=3, floor_machines=1, ratio_floor=0.5, epsilon=0.5)
    chunks = [stream[lo : lo + chunk] for lo in range(0, stream.size, chunk)]
    ledger = make_ledger(params, "pmax-given", pmax=float(stream.max()))
    _, artifacts = run_stream(park, ledger, chunks, mode="two-pass")
    best_pass = best_write = best_stage = math.inf
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "schedule.csv")
        for _ in range(repeats):
            stage = SecondPass(park, artifacts, chunks)
            with open(path, "wb") as fh:
                t0 = time.perf_counter()
                write_schedule_csv(fh, stage)
                total = time.perf_counter() - t0
            best_pass = min(best_pass, stage.seconds)
            best_write = min(best_write, total - stage.seconds)
            best_stage = min(best_stage, total)
    return best_pass, best_write, best_stage


def bench_search(park, large, repeats):
    """Best enumerate_and_select seconds and the search's node count."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        outcome = enumerate_and_select(park, large, 0.5)
        best = min(best, time.perf_counter() - t0)
    return best, outcome.nodes


def sweep_instance(n, seed=0):
    """(park, retained jobs) of a `streamspan generate` stream on 3 machines
    (m1 1, e0 0.5) under default flags."""
    config_text, jobs_text = generate_instance(seed, 3, 1, 0.5, n)
    params = derive_params(m=3, floor_machines=1, ratio_floor=0.5, epsilon=0.5)
    ledger = make_ledger(params, "pmax-unknown")
    ledger.ingest_many(np.array(jobs_text.split(), np.float64))
    return parse_machine_config_text(config_text), ledger.finalize()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2_000_000, help="stream length for ingest")
    ap.add_argument("--chunk", type=int, default=1 << 16)
    ap.add_argument("--search-jobs", type=int, default=14, help="large jobs J of the m**J search case")
    ap.add_argument("--machines", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", default=None, help="add the figures to this JSON file")
    ap.add_argument("--label", default="current", help="entry name in the --json file")
    args = ap.parse_args()
    figures = {}

    params = derive_params(m=2, floor_machines=1, ratio_floor=0.5, epsilon=0.5)
    rng = np.random.default_rng(7)
    stream = rng.integers(1, 1025, size=args.jobs).astype(np.float64)

    # one job per line, as `streamspan generate` and the benchmark inputs write them
    print(f"parse: float_chunks, {args.jobs} tokens")
    widths = np.random.default_rng(8).integers(9, 19, size=stream.size)
    wide = np.random.default_rng(9).integers(10 ** (widths - 1), 10**widths)
    for key, sizes in (("digits", stream.astype(np.int64)), ("real", stream * 0.37),
                       ("wide", wide)):
        text = "\n".join(map(repr, sizes.tolist())) + "\n"
        secs = bench_parse(text, args.repeats)
        figures[f"parse_{key}_ns_per_token"] = secs / stream.size * 1e9
        print(f"  {key:>6}: {figures[f'parse_{key}_ns_per_token']:7.1f} ns/token")

    ledgers = (
        ("pmax-given", {"pmax": 1024.0}),
        ("pmax-estimate", {"pmax_estimate": 8192.0, "alpha": 8.0}),
        ("pmax-unknown", {}),
    )
    print(f"ingest: make_ledger(...).ingest_many, {args.jobs} jobs, chunk {args.chunk}, "
          f"retain_limit {params.retain_limit}")
    given = None
    for regime, ledger_args in ledgers:
        secs = bench_ledger(params, regime, ledger_args, stream, args.chunk, args.repeats)
        per_job = secs / stream.size
        given = given or per_job
        figures[f"ledger_{regime}_ns_per_job"] = per_job * 1e9
        print(f"  {regime:>13}: {per_job * 1e9:7.1f} ns/job   ({per_job / given:.2f}x pmax-given)")

    schedule_stream = stream[:SCHEDULE_JOBS]
    park = make_dense_park(rng, float(schedule_stream.sum()))
    pass_s, write_s, stage_s = bench_schedule(park, schedule_stream, args.chunk, args.repeats)
    figures["second_pass_ns_per_job"] = pass_s / schedule_stream.size * 1e9
    figures["schedule_csv_ns_per_job"] = write_s / schedule_stream.size * 1e9
    figures["schedule_stage_ns_per_job"] = stage_s / schedule_stream.size * 1e9
    print(f"schedule: {schedule_stream.size} jobs, 3 machines x {SCHEDULE_INTERVALS} shared intervals")
    print(f"  streamed stage: {figures['schedule_stage_ns_per_job']:7.1f} ns/job, of which")
    print(f"     second pass: {figures['second_pass_ns_per_job']:7.1f} ns/job")
    print(f"    schedule CSV: {figures['schedule_csv_ns_per_job']:7.1f} ns/job")
    share = schedule_stream[: schedule_stream.size // 3]
    for key, amounts in (("integer", share), ("real", share * 0.37)):
        secs = bench_chain(park.machines[1], amounts, args.repeats)
        figures[f"chain_{key}_ns_per_job"] = secs / amounts.size * 1e9
        print(f"  chain {key:>7}: {figures[f'chain_{key}_ns_per_job']:7.1f} ns/job   "
              f"(completion_chain, {amounts.size} jobs on machine 2)")

    m = args.machines
    job_ps = rng.integers(8, 17, size=args.search_jobs).astype(np.float64)
    # small jobs carry twice the large load, as in a long stream
    slack = LargeJobSet(-1, tuple(enumerate(job_ps.tolist())), float(job_ps.sum()) * 3, 8.0, 3)
    cases = (
        (f"j{args.search_jobs}", f"{m}**{args.search_jobs} assignments", make_park(m), slack),
        ("sweep300", "generated n=300 stream", *sweep_instance(300)),
    )
    print("search: enumerate_and_select, epsilon 0.5")
    for key, what, park, large in cases:
        secs, nodes = bench_search(park, large, args.repeats)
        figures[f"search_{key}_seconds"] = secs
        figures[f"search_{key}_nodes"] = nodes
        figures[f"search_{key}_nodes_per_s"] = nodes / secs
        print(f"  {what:>24}: {large.job_count:3d} jobs  {nodes:6d} nodes  "
              f"{secs * 1e3:8.3f} ms  ({nodes / secs:,.0f} nodes/s)")

    if args.json:
        save_runs(args.json, {args.label: {
            "env": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
            },
            "options": {k: v for k, v in vars(args).items() if k not in ("json", "label")},
            "figures": figures,
        }})


if __name__ == "__main__":
    main()
