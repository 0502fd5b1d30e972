#!/usr/bin/env python3
"""Count two-pass runs whose schedule's makespan exceeds the reported value.

README promises a second-pass makespan of at most V.  On real-valued
streams it can exceed V by ulps (ROADMAP item 1).  This script runs
`streamspan run --mode two-pass` in-process on a fixed seeded corpus of
real-valued streams and prints how many runs break the promise and by how
much.  Each run's schedule is also rebuilt with second_pass from the
run's first-pass artifacts, checked against the reported makespan and
passed through validate_schedule.

Corpus entry i comes from numpy.random.default_rng([3, i]) and from
nothing else:
- m from 1 to 3 machines, m1 from 1 to m, e0 0.1;
- 0 to 3 breakpoints per machine, uniform over twice the mean load per
  machine, with ratios from 0.1, 0.3, 0.7, 1/3, 0.5 and 1;
- 1 to 39 sizes uniform in [0.05, 10), written with repr;
- eps from 0.1, 0.5 and 1.

Run from the repo root:

    PYTHONPATH=src python3 benchmarks/makespan_gap.py
    PYTHONPATH=src python3 benchmarks/makespan_gap.py --runs 300 --budget 200000

Runs that exceed the search budget exit 5 and are counted apart.
"""

import argparse
import contextlib
import io
import os
import tempfile
import warnings

import numpy as np

import streamspan.cli as cli
from streamspan import ScheduleContractError, second_pass, validate_schedule

RATIOS = (0.1, 0.3, 0.7, 1 / 3, 0.5, 1.0)
E0 = 0.1


def corpus_entry(i):
    """(config text, jobs text, epsilon) of corpus entry i."""
    rng = np.random.default_rng([3, i])
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 40))
    sizes = rng.uniform(0.05, 10.0, n).tolist()
    m1 = int(rng.integers(1, m + 1))
    horizon = max(2.0 * sum(sizes) / m, 4.0)
    lines = [f"m {m}", f"m1 {m1}", f"e0 {E0!r}"]
    for k in range(1, m + 1):
        bps = np.unique(rng.uniform(0.01, horizon, int(rng.integers(0, 4))))
        rs = rng.choice(RATIOS, bps.size)
        pairs = " ".join(f"{b!r} {r!r}" for b, r in zip(bps.tolist(), rs.tolist()))
        lines.append(f"machine {k} {pairs}")
    eps = float(rng.choice([0.1, 0.5, 1.0]))
    return "\n".join(lines) + "\n", " ".join(map(repr, sizes)) + "\n", eps


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=2400, help="corpus entries 0..RUNS-1")
    ap.add_argument("--budget", type=int, default=1_000_000, help="search nodes per run")
    args = ap.parse_args()

    captured = {}
    run_stream = cli.run_stream

    def capture(park, *args, **kwargs):
        report, artifacts = run_stream(park, *args, **kwargs)
        # the run deletes the spill when it ends: replay it first
        captured["park"], captured["schedule"] = park, second_pass(park, artifacts)
        return report, artifacts

    cli.run_stream = capture
    counts = {"completed": 0, "over budget": 0, "makespan > value": 0, "invalid": 0}
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        cfg, jobs, out = (os.path.join(tmp, name) for name in ("park.cfg", "jobs.txt", "out.csv"))
        for i in range(args.runs):
            config_text, jobs_text, eps = corpus_entry(i)
            with open(cfg, "w") as fh:
                fh.write(config_text)
            with open(jobs, "w") as fh:
                fh.write(jobs_text)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = cli.main([
                    "run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
                    "--epsilon", str(eps), "--budget", str(args.budget), "--schedule-out", out,
                ])
            if code == 5:
                counts["over budget"] += 1
                continue
            if code != 0:
                raise SystemExit(f"corpus entry {i} exited {code}")
            counts["completed"] += 1
            report = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines())
            makespan, value = float(report["makespan"]), float(report["value"])
            if makespan > value:
                counts["makespan > value"] += 1
                worst = max(worst, makespan / value - 1.0)
            sizes = [float(tok) for tok in jobs_text.split()]
            schedule = captured["schedule"]
            if schedule.makespan != makespan:
                raise SystemExit(f"corpus entry {i}: the schedule's makespan is not the report's")
            try:
                validate_schedule(captured["park"], schedule, sizes)
            except ScheduleContractError as exc:
                counts["invalid"] += 1
                print(f"entry {i}: {exc}")
    print(f"{args.runs} runs: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    print(f"worst makespan / value: 1 + {worst:.3g}")


if __name__ == "__main__":
    main()
