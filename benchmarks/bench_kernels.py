#!/usr/bin/env python3
"""Time the hot kernels across their three implementations.

parse: the CLI's job-stream parser over the ingest stream as text.
ingest: plain-python scalar loop, vectorized numpy, jitted scalar loop.
ledgers: the same stream through make_ledger(...).ingest_many per regime.
search: same trio over the m**J assignment enumeration.

Run from the repo root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --jobs 4000000 --search-jobs 14

The numba rows need the default backend (STREAMSPAN_NUMBA unset or 1);
with the fallback forced the script still reports the other two.
"""

import argparse
import io
import math
import time

import numpy as np

from streamspan import _kernels
from streamspan.capacity import MachinePark, MachineTimeline, capacity_at
from streamspan.cli import _float_chunks
from streamspan.grouping import derive_params
from streamspan.pipeline import make_ledger
from streamspan.search import time_grid


def make_park(m):
    """m machines, a shared ramp on each beyond the first."""
    machines = [MachineTimeline(1, (), ())]
    for i in range(2, m + 1):
        machines.append(MachineTimeline(i, (4.0 * i, 8.0 * i), (0.5, 1.0)))
    return MachinePark(tuple(machines), 1, 0.5)


def _fresh_state(n_bounded, retain_limit):
    cap = max(retain_limit - 1, 1)
    return (
        np.zeros(n_bounded + 1, np.int64),
        np.zeros(n_bounded + 1, np.float64),
        np.zeros(n_bounded, np.int64),
        np.zeros((n_bounded, cap), np.int64),
        np.zeros((n_bounded, cap), np.float64),
        np.zeros(2, np.float64),
        np.zeros(3, np.int64),
    )


def bench_parse(text, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _chunk in _float_chunks(io.StringIO(text)):
            pass
        best = min(best, time.perf_counter() - t0)
    return best


def bench_ingest(fn, stream, offset, retain_limit, n_bounded, chunk, repeats):
    best = math.inf
    for _ in range(repeats):
        state = _fresh_state(n_bounded, retain_limit)
        t0 = time.perf_counter()
        start = 0
        for lo in range(0, stream.size, chunk):
            block = stream[lo : lo + chunk]
            fn(block, start, offset, retain_limit, *state)
            start += block.size
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


def bench_search(fn, job_ps, m, capgrid, repeats):
    n_total = m ** job_ps.size
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(job_ps, m, capgrid, 0, n_total)
        best = min(best, time.perf_counter() - t0)
    return best, n_total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2_000_000, help="stream length for ingest")
    ap.add_argument("--chunk", type=int, default=1 << 16)
    ap.add_argument("--search-jobs", type=int, default=12, help="large jobs J; search visits m**J")
    ap.add_argument("--machines", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    params = derive_params(m=2, floor_machines=1, ratio_floor=0.5, epsilon=0.5)
    n_bounded = params.bounded_bands
    retain_limit = params.retain_limit
    rng = np.random.default_rng(7)
    stream = rng.integers(1, 1025, size=args.jobs).astype(np.float64)
    offset = 10 - params.top_band - 1  # anchor for p_max 1024

    # one job per line, as `streamspan generate` and the benchmark inputs write them
    text = "\n".join(map(str, stream.astype(np.int64).tolist())) + "\n"
    secs = bench_parse(text, args.repeats)
    print(f"parse: {secs / stream.size * 1e9:.1f} ns/token   (_float_chunks, {args.jobs} tokens)")

    impls = [
        ("python", _kernels._ingest_scalar, 1),
        ("numpy", _kernels._ingest_numpy, args.repeats),
    ]
    if _kernels.NUMBA_ENABLED:
        _kernels.ingest_block(stream[:8].copy(), 0, offset, retain_limit,
                              *_fresh_state(n_bounded, retain_limit))  # compile
        impls.append(("numba", _kernels.ingest_block, args.repeats))

    print(f"ingest: {args.jobs} jobs, chunk {args.chunk}, retain_limit {retain_limit}")
    for name, fn, repeats in impls:
        # the pure-python row gets one pass over a 1/20 slice, scaled up
        data = stream if name != "python" else stream[: max(args.jobs // 20, 1)]
        secs = bench_ingest(fn, data, offset, retain_limit, n_bounded, args.chunk, repeats)
        per_job = secs / data.size
        print(f"  {name:>6}: {per_job * 1e9:9.1f} ns/job   ({1.0 / per_job:,.0f} jobs/s)")

    ledgers = (
        ("pmax-given", {"pmax": 1024.0}),
        ("pmax-estimate", {"pmax_estimate": 8192.0, "alpha": 8.0}),
        ("pmax-unknown", {}),
    )
    print(f"ledgers: make_ledger(...).ingest_many, {_kernels.backend()} backend")
    given = None
    for regime, ledger_args in ledgers:
        secs = bench_ledger(params, regime, ledger_args, stream, args.chunk, args.repeats)
        per_job = secs / stream.size
        given = given or per_job
        print(f"  {regime:>13}: {per_job * 1e9:7.1f} ns/job   ({per_job / given:.2f}x pmax-given)")

    m = args.machines
    park = make_park(m)
    job_ps = rng.integers(8, 17, size=args.search_jobs).astype(np.float64)
    grid = time_grid(park, float(job_ps.sum()) * 3, 0.5)
    capgrid = np.array([[capacity_at(tl, t) for t in grid] for tl in park.machines])

    search_impls = [
        ("python", _kernels._search_scalar, 1),
        ("numpy", _kernels._search_numpy, args.repeats),
    ]
    if _kernels.NUMBA_ENABLED:
        _kernels.search_assignments(job_ps[:2].copy(), m, capgrid, 0, m**2)  # compile
        search_impls.append(("numba", _kernels.search_assignments, args.repeats))

    total = m**args.search_jobs
    print(f"search: {m}**{args.search_jobs} = {total} assignments, grid {len(grid)}")
    for name, fn, repeats in search_impls:
        if name == "python" and total > 200_000:
            js = job_ps[: max(1, int(math.log(200_000, m)))]
        else:
            js = job_ps
        secs, n_total = bench_search(fn, js, m, capgrid, repeats)
        rate = n_total / secs
        print(f"  {name:>6}: {rate:15,.0f} assignments/s")


if __name__ == "__main__":
    main()
