#!/usr/bin/env python3
"""Peak resident memory of whole `streamspan run` processes, by job count.

For each job count the script writes a seeded instance like the
benchmark's two-pass workload: integer sizes uniform in [1, 1024], one
per line, on 3 machines (m1 1, e0 0.5) with 400 shared intervals each
and ratios 1/4, 1/2 and 1.  It then runs `streamspan run` on it in
`one-pass` mode and in `two-pass` mode with a schedule CSV (pmax-given
1024), each --repeats times, and reports the process's own peak RSS
(ru_maxrss from os.wait4) per mode and job count, the median of the
repeats.  It also reports each case's minor page faults (ru_minflt from
the same os.wait4), the median of the repeats: a page the process
touched for the first time, or again after handing it back to the OS.

For each job count it also runs a rising stream: the 16-machine park of
`generate --seed 1 --m 16 --m1 1 --e0 0.5` with sizes 1, 2, ..., n in
ascending order, so the band window rebases as the maximum rises, one-pass
at epsilon 0.01, in the default regime and with the maximum declared
(`--regime pmax-given --pmax n`).

Once per run it also reads a ledger with much room and few jobs: 32
identical full-speed machines (m1 1, e0 0.5) at epsilon 0.02, 14 bands
with room for 409,599 retained jobs each, fed the 12 jobs 1, 2, 4, ...,
2048 and the empty stream, figure keys many-machines_12_peak_rss_mb and
many-machines_0_peak_rss_mb.

The launcher imports no numpy and holds no instance: the instance is
written by a child process, and each timed run is started from this
small process.  A child's ru_maxrss starts from the memory its launcher
had when it started it, so a launcher that holds the instance or the
previous results would read as the child's floor.

Run from the repo root:

    python3 benchmarks/peak_rss.py
    python3 benchmarks/peak_rss.py --jobs 1000000 4000000 --repeats 3 \\
        --json benchmarks/BENCH_memory.json --label NAME
    python3 benchmarks/peak_rss.py --src ../other-checkout/src --label other

--src runs the package found there instead of this checkout's `src`, so
one launcher measures two versions.  --json adds this run's figures to
the file under --label, keeping the other labels' entries.
"""

import argparse
import os
import platform
import statistics
import subprocess
import sys
import tempfile

from _figures import save_runs

HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = "import sys; from streamspan.cli import main; sys.exit(main())"
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux

# run in a child process: write the uniform park.cfg and jobs.txt for n jobs into a folder
GENERATE = """
import sys
import numpy as np
folder, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(seed)
jobs = rng.integers(1, 1025, size=n)
horizon = max(int(2 * jobs.sum() / 3), 400)
lines = ["m 3", "m1 1", "e0 0.5"]
for i in range(1, 4):
    bps = np.sort(rng.choice(horizon, size=400, replace=False) + 1)
    ratios = rng.choice((0.5, 1.0) if i == 1 else (0.25, 0.5, 1.0), size=400)
    lines.append(f"machine {i} " + " ".join(f"{b} {r!r}" for b, r in zip(bps.tolist(), ratios.tolist())))
with open(f"{folder}/park.cfg", "w") as fh:
    fh.write("\\n".join(lines) + "\\n")
with open(f"{folder}/jobs.txt", "w") as fh:
    fh.write("\\n".join(map(str, jobs.tolist())) + "\\n")
"""

# run in a child process: the rising instance for n jobs into a folder
RISING = """
import sys
from streamspan.cli import generate_instance
folder, n = sys.argv[1], int(sys.argv[2])
with open(f"{folder}/park.cfg", "w") as fh:
    fh.write(generate_instance(1, 16, 1, 0.5, 0)[0])
with open(f"{folder}/jobs.txt", "w") as fh:
    fh.write("\\n".join(map(str, range(1, n + 1))) + "\\n")
"""

# run in a child process: 32 identical full-speed machines and the n jobs 1, 2, 4, ..., 2^(n-1)
DOUBLING = """
import sys
folder, n = sys.argv[1], int(sys.argv[2])
with open(f"{folder}/park.cfg", "w") as fh:
    fh.write("m 32\\nm1 1\\ne0 0.5\\n" + "".join(f"machine {i}\\n" for i in range(1, 33)))
with open(f"{folder}/jobs.txt", "w") as fh:
    fh.write(" ".join(str(2 ** i) for i in range(n)) + "\\n")
"""

GENERATORS = {"uniform": GENERATE, "rising": RISING, "doubling": DOUBLING}

# each case: the instance it runs on and its flags
CASES = {
    "one-pass": ("uniform", []),
    "two-pass": ("uniform", ["--mode", "two-pass", "--regime", "pmax-given", "--pmax", "1024",
                             "--schedule-out", "{folder}/schedule.csv"]),
    "rising-default": ("rising", ["--epsilon", "0.01"]),
    "rising-pmax-given": ("rising", ["--epsilon", "0.01", "--regime", "pmax-given",
                                     "--pmax", "{n}"]),
}
# each case run at its own job counts, whatever --jobs says
FIXED_CASES = {"many-machines": ("doubling", ["--epsilon", "0.02"], (0, 12))}


def peak_mb(argv, env):
    """The peak RSS in MB and the minor page faults of the process argv,
    which must exit 0."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode()  # to the end: the process has closed it
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {err}")
    return usage.ru_maxrss / KIB_PER_MB, usage.ru_minflt


def measure(src, job_counts, repeats, workdir, seed):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    runs = [(n, mode, family, flags) for n in job_counts
            for mode, (family, flags) in CASES.items()]
    runs += [(n, mode, family, flags) for mode, (family, flags, counts) in FIXED_CASES.items()
             for n in counts]
    figures = {}
    for n, mode, family, flags in runs:
        folder = os.path.join(workdir, f"{family}{n}")
        if not os.path.exists(os.path.join(folder, "jobs.txt")):
            os.makedirs(folder, exist_ok=True)
            subprocess.run([sys.executable, "-c", GENERATORS[family], folder, str(n),
                            str(seed)], env=env, check=True)
        argv = [sys.executable, "-c", ENTRY, "run", "--config", f"{folder}/park.cfg",
                "--jobs", f"{folder}/jobs.txt", *(f.format(folder=folder, n=n) for f in flags)]
        peaks, faults = zip(*(peak_mb(argv, env) for _ in range(repeats)))
        figures[f"{mode}_{n}_peak_rss_mb"] = statistics.median(peaks)
        figures[f"{mode}_{n}_minor_faults"] = statistics.median(faults)
        print(f"{mode:>17} {n:>9} jobs: peak RSS {statistics.median(peaks):7.1f} MB "
              f"(median of {repeats}: {', '.join(f'{r:.1f}' for r in peaks)}), "
              f"minor faults {statistics.median(faults):,.0f}")
    return figures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, nargs="+", default=[1_000_000, 4_000_000])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="the streamspan package's parent folder")
    ap.add_argument("--workdir", default=None,
                    help="keep the instances here (default: a temporary folder)")
    ap.add_argument("--json", default=None, help="add the figures to this JSON file")
    ap.add_argument("--label", default="current", help="entry name in the --json file")
    args = ap.parse_args()
    if args.workdir:
        figures = measure(args.src, args.jobs, args.repeats, args.workdir, args.seed)
    else:
        with tempfile.TemporaryDirectory() as workdir:
            figures = measure(args.src, args.jobs, args.repeats, workdir, args.seed)
    if args.json:
        save_runs(args.json, {args.label: {
            "env": {
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
            },
            "options": {k: v for k, v in vars(args).items()
                        if k not in ("json", "label", "workdir", "src")},
            "figures": figures,
        }})


if __name__ == "__main__":
    main()
