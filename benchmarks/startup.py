#!/usr/bin/env python3
"""The fixed cost of a `streamspan run` process: start, imports, teardown.

Each case is one whole process, timed from spawn to exit:

    python       `python -c pass`, the interpreter alone
    numpy        `import numpy`
    import       `import streamspan.cli`
    empty        `streamspan run` (one-pass) on an empty stream
    search       `streamspan run` on a stream shaped like the benchmark's
                 search-j14: 100K jobs in [1, 512] plus 14 in (512, 1024],
                 shuffled, on 3 machines (m1 1, e0 0.5) with 400 shared
                 intervals each
    search-exit  the same run ending in os._exit as soon as main returns,
                 so `search` minus `search-exit` is the interpreter's exit

Every case runs against two temporary copies of each package: "compiled",
byte-compiled first, and "uncompiled", with no bytecode, which pays the
compile on every run as a fresh checkout does when bytecode writing is
off.  Both run with PYTHONDONTWRITEBYTECODE=1, so neither copy changes
between runs and nothing is written under the source folders.  The
launcher pins itself, and so every process it starts, to one CPU.  Each
round runs every case once per copy and package, the packages in turn,
in reverse order every other round; the figures are each case's median
and quartiles over the rounds, in milliseconds.

Run from the repo root:

    python3 benchmarks/startup.py
    python3 benchmarks/startup.py --src parent=../parent/src --src change=src \\
        --rounds 15 --json benchmarks/BENCH_startup.json

--src NAME=PATH measures the package under PATH as NAME (default: this
checkout's `src` as "current"); with two or more, their runs alternate.
--json adds each NAME's figures to the file, keeping the other entries.
"""

import argparse
import compileall
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from _figures import save_runs

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = "import sys; from streamspan.cli import main; sys.exit(main())"
RUN_THEN_EXIT = ("import os, sys; from streamspan.cli import main; code = main(); "
                 "sys.stdout.flush(); os._exit(code)")
CASES = {
    "python": ["-c", "pass"],
    "numpy": ["-c", "import numpy"],
    "import": ["-c", "import streamspan.cli"],
    "empty": ["-c", RUN, "run", "--config", "{folder}/park.cfg", "--jobs", "{folder}/empty.txt"],
    "search": ["-c", RUN, "run", "--config", "{folder}/park.cfg", "--jobs", "{folder}/jobs.txt"],
    "search-exit": ["-c", RUN_THEN_EXIT, "run", "--config", "{folder}/park.cfg",
                    "--jobs", "{folder}/jobs.txt"],
}
COPIES = ("compiled", "uncompiled")


def write_instance(folder, seed):
    """park.cfg, jobs.txt (the search-j14 shape) and an empty empty.txt."""
    rng = random.Random(seed)
    jobs = [rng.randint(1, 512) for _ in range(100_000)]
    jobs += [rng.randint(513, 1024) for _ in range(14)]
    rng.shuffle(jobs)
    horizon = 2 * sum(jobs) // 3
    lines = ["m 3", "m1 1", "e0 0.5"]
    for i in range(1, 4):
        breakpoints = sorted(rng.sample(range(1, horizon + 1), 400))
        pool = (0.5, 1.0) if i == 1 else (0.25, 0.5, 1.0)
        pairs = " ".join(f"{b} {rng.choice(pool)!r}" for b in breakpoints)
        lines.append(f"machine {i} {pairs}")
    with open(os.path.join(folder, "park.cfg"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(folder, "jobs.txt"), "w") as fh:
        fh.write("\n".join(map(str, jobs)) + "\n")
    open(os.path.join(folder, "empty.txt"), "w").close()


def copy_package(src, dest, compiled):
    """A copy of the streamspan package under src, byte-compiled or not."""
    shutil.copytree(os.path.join(src, "streamspan"), os.path.join(dest, "streamspan"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if compiled and not compileall.compile_dir(dest, quiet=1):
        raise SystemExit(f"cannot byte-compile {dest}")


def wall_ms(argv, env):
    """Milliseconds from spawn to exit of argv, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode()  # to the end: the process has closed it
    _, status, _ = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"{' '.join(argv)} exited {os.waitstatus_to_exitcode(status)}: {err}")
    return 1000.0 * elapsed


def measure(sources, rounds, folder):
    """{name: {copy: {case: [ms per round]}}}, the names' runs alternating."""
    envs = {}
    for name, src in sources.items():
        for copy in COPIES:
            dest = os.path.join(folder, name, copy)
            copy_package(src, dest, copy == "compiled")
            envs[name, copy] = dict(
                os.environ, PYTHONPATH=dest, PYTHONDONTWRITEBYTECODE="1",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
            )
    times = {name: {copy: {case: [] for case in CASES} for copy in COPIES} for name in sources}
    names = list(sources)
    for r in range(rounds):
        for case, args in CASES.items():
            argv = [sys.executable] + [a.format(folder=folder) for a in args]
            for copy in COPIES:
                for name in names if r % 2 == 0 else names[::-1]:
                    times[name][copy][case].append(wall_ms(argv, envs[name, copy]))
    return times


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=None, metavar="NAME=PATH",
                    help="a streamspan package's parent folder, measured as NAME")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--json", default=None, help="add the figures to this JSON file")
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2, to give quartiles")
    sources = {}
    for spec in args.src or [f"current={os.path.join(HERE, '..', 'src')}"]:
        name, sep, path = spec.partition("=")
        if not sep or not os.path.isfile(os.path.join(path, "streamspan", "cli.py")):
            ap.error(f"--src {spec}: expected NAME=PATH with PATH/streamspan/cli.py")
        sources[name] = os.path.abspath(path)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as folder:
        write_instance(folder, args.seed)
        times = measure(sources, args.rounds, folder)
    figures = {
        name: {copy: {case: summary(runs) for case, runs in cases.items()}
               for copy, cases in by_copy.items()}
        for name, by_copy in times.items()
    }
    print(f"median ms over {args.rounds} rounds (q1-q3)")
    print(f"{'case':<12} {'copy':<11} " + " ".join(f"{name:>22}" for name in sources))
    for case in CASES:
        for copy in COPIES:
            cells = [figures[name][copy][case] for name in sources]
            print(f"{case:<12} {copy:<11} " + " ".join(
                f"{c['median_ms']:8.1f} ({c['q1_ms']:.1f}-{c['q3_ms']:.1f})".rjust(22)
                for c in cells))
    if args.json:
        env = {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        }
        save_runs(args.json, {name: {"env": env, "rounds": args.rounds, "figures": by_copy}
                              for name, by_copy in figures.items()})


if __name__ == "__main__":
    main()
