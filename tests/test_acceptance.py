"""What the package promises, checked end to end.

Every test here exercises the public surface the way a user would and
pins the guarantee it relies on: the approximation sandwich, regime
equivalence, bounded memory, flat per-job cost, exact feasibility
arithmetic, and the schedule contract.
"""

import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import streamspan
from streamspan import exact_optimum, make_ledger, run_stream, second_pass, validate_schedule
from streamspan.capacity import capacity_at
from streamspan.grouping import LargeJobSet
from streamspan.oracle import naive_capacity_at
from streamspan.search import crossing_allowance, enumerate_and_select

from _support import (
    assignment_grid_exponents,
    brute_force_selection,
    crossing_counts,
    grid_scan_t,
    make_instance,
    offline,
    ordinal,
    quiet_params,
    random_timeline,
)

# float slack on the multiplicative guarantee, pinned once for the suite
REL_TOL = 1e-9


# --- shared corpus of solved instances --------------------------------------


def _corpus_specs():
    rng = random.Random(20260814)
    specs = []
    for i in range(200):
        m = rng.choice([2, 3])
        m1 = rng.randint(1, m)
        e0 = rng.choice([0.5, 1.0])
        epsilon = rng.choice([0.5, 1.0])
        n = rng.randint(0, 10)
        specs.append((1000 + i, m, m1, e0, epsilon, n))
    return specs


class SolvedInstance:
    def __init__(self, seed, m, m1, e0, epsilon, n):
        self.epsilon = epsilon
        self.park, self.jobs = make_instance(seed, m, m1, e0, n)
        self.params = quiet_params(m, m1, e0, epsilon)
        pmax = max(self.jobs) if self.jobs else 1.0
        ledgers = {
            "pmax-given": make_ledger(self.params, "pmax-given", pmax=pmax),
            "estimate-exact": make_ledger(
                self.params, "pmax-estimate", pmax_estimate=pmax, alpha=1.0),
            "estimate-loose": make_ledger(
                self.params, "pmax-estimate", pmax_estimate=8.0 * pmax, alpha=8.0),
            "pmax-unknown": make_ledger(self.params, "pmax-unknown"),
        }
        self.values = {}
        for name, ledger in ledgers.items():
            report, artifacts = run_stream(self.park, ledger, [self.jobs])
            self.values[name] = report.value
            if name == "pmax-given":
                self.artifacts = artifacts
        self.offline, report = offline(self.park, self.params, self.jobs)
        self.offline_value = report.value
        self.two_pass = second_pass(self.park, self.artifacts, [self.jobs])
        self.optimum = exact_optimum(self.park, self.jobs).makespan


@pytest.fixture(scope="module")
def corpus():
    return [SolvedInstance(*spec) for spec in _corpus_specs()]


# --- the approximation guarantee ---------------------------------------------


def test_value_is_sandwiched_by_the_true_optimum(corpus):
    assert len(corpus) == 200
    nontrivial = 0
    for rec in corpus:
        value = rec.values["pmax-given"]
        assert rec.optimum <= value * (1.0 + REL_TOL)
        assert value <= (1.0 + rec.epsilon) * rec.optimum * (1.0 + REL_TOL) + (
            0.0 if rec.jobs else REL_TOL
        )
        nontrivial += bool(rec.jobs)
    assert nontrivial >= 150  # the corpus is not a pile of empty streams


def test_every_regime_reports_the_same_value(corpus):
    for rec in corpus:
        vals = set(rec.values.values())
        vals.add(rec.offline_value)
        assert len(vals) == 1, rec.values


# --- online discovery of the maximum ------------------------------------------


def test_discovering_the_maximum_online_matches_declaring_it():
    rng = random.Random(77)
    for _ in range(50):
        m = rng.choice([2, 3])
        m1 = rng.randint(1, m)
        params = quiet_params(m, m1, 0.5, 0.5)
        n = rng.randint(1, 300)
        stream = [float(rng.randint(1, 4096)) for _ in range(n)]
        checkpoints = set(range(1, n + 1)) if n <= 60 else (
            set(range(1, n + 1, 13)) | {n}
        )
        online = make_ledger(params, "pmax-unknown")
        for i, p in enumerate(stream, start=1):
            online.ingest_many([p])
            if i in checkpoints:
                declared = make_ledger(params, "pmax-given", pmax=max(stream[:i]))
                declared.ingest_many(stream[:i])
                assert online.snapshot() == declared.snapshot(), (i, stream[:i])


# --- the schedule contract ------------------------------------------------------


def test_two_pass_schedule_is_valid_and_within_the_value(corpus):
    for rec in corpus:
        validate_schedule(rec.park, rec.two_pass, rec.jobs)
        assert rec.two_pass == rec.offline
        value = rec.values["pmax-given"]
        assert rec.two_pass.makespan <= value * (1.0 + REL_TOL)
        if rec.jobs:
            assert rec.optimum <= rec.two_pass.makespan * (1.0 + REL_TOL)


def test_late_jobs_stay_on_floor_machines_within_the_allowance(corpus):
    for rec in corpus:
        if not rec.jobs:
            continue
        counts = crossing_counts(
            rec.park, rec.two_pass, rec.jobs, rec.artifacts.outcome.t
        )
        allowance = crossing_allowance(rec.park)
        for i in range(rec.park.m):
            if i < rec.park.floor_machines:
                assert counts[i] <= allowance
            else:
                assert counts[i] == 0


# --- bounded memory over a long stream -----------------------------------------


def _million_job_stream():
    rng = np.random.default_rng(2024)
    return rng.integers(1, 1025, size=10**6).astype(np.float64)


def _ledgers_for(params, stream):
    pmax = float(stream.max())
    return {
        "pmax-given": lambda: make_ledger(params, "pmax-given", pmax=pmax),
        "estimate-loose": lambda: make_ledger(
            params, "pmax-estimate", pmax_estimate=8.0 * pmax, alpha=8.0),
        "pmax-unknown": lambda: make_ledger(params, "pmax-unknown"),
    }


def test_streaming_memory_stays_within_the_declared_bounds():
    params = quiet_params(2, 1, 0.5, 0.5)
    stream = _million_job_stream()
    for name, build in _ledgers_for(params, stream).items():
        ledger = build()
        for start in range(0, stream.size, 1 << 16):
            ledger.ingest_many(stream[start : start + (1 << 16)])
        assert ledger.job_count == stream.size
        # the peaks are maintained per job inside the kernels, so a final
        # check certifies the whole stream, not just the end state
        assert ledger.peak_retained <= ledger.retained_bound, name
        assert ledger.peak_group_records <= ledger.group_record_bound, name
        assert ledger.retained_bound <= 1024, name  # independent of n
        assert ledger.group_record_bound <= 16, name


# a launcher that imports nothing big: a child's ru_maxrss starts from the
# memory of the process that started it
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "streamspan.cli", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_a_few_jobs_on_many_machines_cost_what_no_jobs_cost(tmp_path):
    # 32 identical full-speed machines at eps 0.02: 14 bands with room for
    # 409,599 retained jobs each.  One job in each of 12 bands must cost
    # memory for 12 jobs, not for the bands' room
    cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
    cfg.write_text("m 32\nm1 1\ne0 0.5\n" + "".join(f"machine {i}\n" for i in range(1, 33)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(streamspan.__file__)))
    peaks = []
    for sizes in ([], [2**i for i in range(12)]):
        jobs.write_text(" ".join(map(str, sizes)) + "\n")
        out = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "run", "--config", str(cfg), "--jobs", str(jobs),
             "--epsilon", "0.02"], capture_output=True, text=True, env=env, check=True).stdout
        code, kib = map(int, out.split())
        assert code == 0
        peaks.append(kib / 1024)
    assert peaks[1] - peaks[0] <= 5.0, peaks


def test_ingest_cost_per_job_is_flat():
    params = quiet_params(2, 1, 0.5, 0.5)
    stream = _million_job_stream()
    small, big = stream[: 10**5], stream

    def mean_per_job(build, data):
        best = float("inf")
        for _ in range(3):
            ledger = build()
            t0 = time.perf_counter()
            for start in range(0, data.size, 1 << 16):
                ledger.ingest_many(data[start : start + (1 << 16)])
            best = min(best, time.perf_counter() - t0)
        return best / data.size

    for name, build in _ledgers_for(params, stream).items():
        build()  # construction aside, warm any lazy compilation
        ledger = build()
        ledger.ingest_many(small[:1000])
        at_small = mean_per_job(build, small)
        at_big = mean_per_job(build, big)
        assert at_big <= 3.0 * at_small + 1e-7, (name, at_small, at_big)


# --- search arithmetic against linear scans ---------------------------------------


def test_feasibility_search_matches_a_linear_scan():
    # each case's machine loads become large jobs, so the search kernel
    # weighs every assignment of them against the oracle's linear scans
    rng = random.Random(4242)
    infeasible = 0
    for case in range(1000):
        m = rng.choice([1, 2, 3])
        m1 = rng.randint(1, m)
        e0 = rng.choice([0.25, 0.5, 1.0])
        park, _ = make_instance(9000 + case, m, m1, e0, 0)
        loads = [0.25 * rng.randint(0, 160) for _ in range(m)]
        total = sum(loads) + 0.25 * rng.randint(0, 80)
        epsilon = rng.choice([0.5, 1.0])
        large = LargeJobSet(
            saturated_band=-1,
            jobs=tuple(enumerate(loads)),
            total_load=total,
            small_bound=0.0,
            band_offset=0,
        )
        out = enumerate_and_select(park, large, epsilon)
        want = brute_force_selection(park, large, epsilon)
        assert (out.grid_exponent, ordinal(out.machine_of, park.m)) == want, (case, loads, total)
        infeasible += list(assignment_grid_exponents(park, large, epsilon)).count(None)
    assert infeasible > 0  # the kernel had infeasible assignments to skip
    park, _ = make_instance(1, 2, 1, 0.5, 0)
    zero = LargeJobSet(-1, ((0, 0.0), (1, 0.0)), 0.0, 0.0, 0)
    assert enumerate_and_select(park, zero, 0.5).t == 0.0
    assert grid_scan_t(park, (0.0, 0.0), 0.0, 0.5) == 0.0


def test_capacity_lookup_matches_a_linear_scan():
    rng = random.Random(1717)
    for case in range(1000):
        tl = random_timeline(rng, 1)
        probes = [rng.uniform(0.0, 40.0) for _ in range(3)]
        probes += list(tl.breakpoints[:2]) + [0.0]
        for t in probes:
            assert capacity_at(tl, t) == naive_capacity_at(tl, t), (case, t)


# --- saturation semantics -----------------------------------------------------------


def test_saturated_band_evicts_it_and_everything_below():
    params = quiet_params(2, 1, 1.0, 1.0)
    assert (params.top_band, params.retain_limit) == (2, 16)

    ledger = make_ledger(params, "pmax-given", pmax=16.0)
    ledger.ingest_many([4.0] * 16 + [16.0] * 3)
    large = ledger.finalize()
    assert large.saturated_band == 0
    assert large.small_bound == 4.0
    assert [job_id for job_id, _ in large.jobs] == [16, 17, 18]
    assert [p for _, p in large.jobs] == [16.0, 16.0, 16.0]

    ledger = make_ledger(params, "pmax-given", pmax=16.0)
    ledger.ingest_many([16.0] * 16)
    large = ledger.finalize()
    assert large.saturated_band == params.top_band  # the top band itself
    assert large.jobs == ()
    assert large.small_bound == 16.0
