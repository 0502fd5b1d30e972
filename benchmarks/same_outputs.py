#!/usr/bin/env python3
"""Check that this checkout's `streamspan run` gives another revision's outputs.

    python3 benchmarks/same_outputs.py --parent REV
    python3 benchmarks/same_outputs.py --parent REV --mask search_nodes

REV's `src/` is extracted with a local `git archive` into a temporary
folder.  A fixed seeded corpus then runs through both trees, each run a
fresh `python -m streamspan.cli run` process with PYTHONDONTWRITEBYTECODE
set, so neither tree changes.  Per case the script compares stdout, with
the values of keys ending `_seconds` masked, stderr, the exit code and the
schedule CSV's bytes.  It prints each difference with its case and exits
1 when there is one.  --mask KEY masks one more key, for a change that
alters it on purpose.

The corpus depends on nothing but numpy's seeded generator:
- generated cases: m from 1 to 8 machines, m1 from 1 to m, e0 from 0.25,
  0.5 and 1, up to three shared intervals per machine; integer sizes, the
  same sizes times 0.37 written with repr, and sorted sizes; each case
  run one-pass, two-pass on the job file, two-pass fed on stdin, or,
  when m**n is small, oracle, with no regime, `--regime pmax-given
  --pmax` at the stream's maximum and an explicit `--regime pmax-unknown`,
  epsilon and --stats in turn;
- error streams: a bad token, a zero, a byte that is not UTF-8 and a load
  that overflows, each in every mode.
Every run has --budget 200000, so a case that outgrows the search exits
5 in seconds.  Each case runs in a folder of its own, with the config,
jobs and schedule named by relative paths, so both trees see the same
arguments.
"""

import argparse
import concurrent.futures
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from typing import NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODES = ("one-pass", "two-pass", "two-pass-stdin", "oracle")
ERROR_STREAMS = {
    "bad token": b"3 4 five 6\n",
    "zero": b"3 0 5\n",
    "not utf-8": b"3 \xff 4\n",
    "overflow": b"1e308 1e308 1e308\n",
}
ERROR_PARK = "m 2\nm1 1\ne0 0.5\nmachine 1 4 0.5\nmachine 2\n"


class Case(NamedTuple):
    name: str
    config: str
    jobs: bytes
    mode: str  # one of MODES
    flags: tuple[str, ...]


class Outputs(NamedTuple):
    code: int
    stdout: str
    stderr: str
    csv: bytes | None


def _generated(i: int) -> Case:
    rng = np.random.default_rng([19, i])
    m = 1 + i % 8
    m1 = int(rng.integers(1, m + 1))
    e0 = float(rng.choice([0.25, 0.5, 1.0]))
    lines = [f"m {m}", f"m1 {m1}", f"e0 {e0!r}"]
    for k in range(1, m + 1):
        bps = np.sort(rng.choice(np.arange(1, 60), int(rng.integers(0, 4)), replace=False))
        pool = [r for r in (0.25, 0.5, 1.0) if k > m1 or r >= e0]
        pairs = " ".join(f"{int(b)} {float(rng.choice(pool))!r}" for b in bps)
        lines.append(f"machine {k} {pairs}".rstrip())
    n = int(rng.choice([0, 1, 3, 6, 8, 20, 60, 400, 3000]))
    sizes = rng.integers(1, 65, n).astype(np.float64)
    family = ("integer", "scaled", "sorted")[i % 3]
    if family == "scaled":
        sizes *= 0.37
    elif family == "sorted":
        sizes.sort()
    if family == "integer":
        text = "\n".join(str(int(p)) for p in sizes)
    else:
        text = " ".join(repr(float(p)) for p in sizes)
    mode = MODES[i % 4]
    if mode == "oracle" and m**n > 5000:
        mode = "one-pass"
    flags = ["--epsilon", ("0.5", "0.2", "0.9")[i // 4 % 3]]
    top = float(sizes.max()) if n else 1.0
    regime = i // 12 % 3
    if mode != "oracle" and regime == 1:
        flags += ["--regime", "pmax-given", "--pmax", repr(top)]
    elif mode != "oracle" and regime == 2:
        flags += ["--regime", "pmax-unknown"]
    if i % 2:
        flags.append("--stats")
    name = f"generated {i}: m {m}, n {n}, {family}, {mode}"
    return Case(name, "\n".join(lines) + "\n", (text + "\n").encode() if n else b"",
                mode, tuple(flags))


def corpus(count: int = 160) -> list[Case]:
    """count generated cases, then each error stream in each mode."""
    cases = [_generated(i) for i in range(count)]
    for what, stream in ERROR_STREAMS.items():
        for mode in MODES:
            cases.append(Case(f"{what}, {mode}", ERROR_PARK, stream, mode, ("--stats",)))
    return cases


def run_case(src: str, case: Case, folder: str) -> Outputs:
    """The case's outputs from the package under src, run in folder."""
    os.makedirs(folder, exist_ok=True)
    for name, data in (("park.cfg", case.config.encode()), ("jobs.txt", case.jobs)):
        with open(os.path.join(folder, name), "wb") as fh:
            fh.write(data)
    csv = os.path.join(folder, "s.csv")
    if os.path.exists(csv):
        os.unlink(csv)
    stdin = case.mode == "two-pass-stdin"
    argv = [sys.executable, "-m", "streamspan.cli", "run", "--config", "park.cfg",
            "--jobs", "-" if stdin else "jobs.txt",
            "--mode", "two-pass" if stdin else case.mode, "--budget", "200000", *case.flags]
    if case.mode.startswith("two-pass"):
        argv += ["--schedule-out", "s.csv"]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, input=case.jobs if stdin else b"", capture_output=True,
                          cwd=folder, env=env, timeout=300)
    written = None
    if os.path.exists(csv):
        with open(csv, "rb") as fh:
            written = fh.read()
    # a warning names the file it comes from, which lies in the tree
    stderr = proc.stderr.decode(errors="replace").replace(src, "<src>")
    return Outputs(proc.returncode, proc.stdout.decode(errors="replace"), stderr, written)


def _masked(stdout: str, keys: frozenset) -> list[str]:
    out = []
    for line in stdout.splitlines():
        key, sep, _ = line.partition(": ")
        if sep and (key.endswith("_seconds") or key in keys):
            line = f"{key}: <masked>"
        out.append(line)
    return out


def differences(before: Outputs, after: Outputs, mask=()) -> list[str]:
    """What differs between two runs of a case, one line per part, with
    the values of keys ending _seconds and of the keys in mask masked."""
    keys = frozenset(mask)
    found = []
    if before.code != after.code:
        found.append(f"exit code {before.code} -> {after.code}")
    old, new = _masked(before.stdout, keys), _masked(after.stdout, keys)
    if old != new:
        changed = [f"    - {a}\n    + {b}" for a, b in zip(old, new) if a != b]
        if len(old) != len(new):
            changed.append(f"    {len(old)} -> {len(new)} lines")
        found.append("stdout:\n" + "\n".join(changed))
    if before.stderr != after.stderr:
        found.append(f"stderr:\n    - {before.stderr!r}\n    + {after.stderr!r}")
    if before.csv != after.csv:
        sizes = [None if c is None else len(c) for c in (before.csv, after.csv)]
        found.append(f"schedule CSV bytes differ (sizes {sizes[0]} -> {sizes[1]})")
    return found


def compare(parent_src: str, src: str, cases: list[Case], mask=(), workers: int = 2) -> dict:
    """{case name: differences} for the cases whose outputs differ between
    the package under parent_src and the one under src."""
    with tempfile.TemporaryDirectory() as tmp:

        def both(k: int) -> list[str]:
            folder = os.path.join(tmp, str(k))
            before = run_case(parent_src, cases[k], folder)
            return differences(before, run_case(src, cases[k], folder), mask)

        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            found = list(pool.map(both, range(len(cases))))
    return {case.name: diff for case, diff in zip(cases, found) if diff}


def extract_src(rev: str, folder: str) -> str:
    """Extract REV's src/ from this repository into folder; its path."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(folder, filter="data")
    return os.path.join(folder, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the revision to compare with")
    ap.add_argument("--mask", action="append", default=[], metavar="KEY",
                    help="a report key whose value may differ (repeatable)")
    args = ap.parse_args(argv)
    cases = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        parent_src = extract_src(args.parent, tmp)
        found = compare(parent_src, os.path.join(ROOT, "src"), cases, args.mask)
    for name, diff in found.items():
        print(f"case {name}:")
        for part in diff:
            print(f"  {part}")
    print(f"{len(cases)} cases against {args.parent}: {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
