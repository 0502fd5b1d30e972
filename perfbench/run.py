#!/usr/bin/env python3
"""Benchmark of whole `streamspan run` processes on seeded workloads.

One measurement, from the repository root:

    python3 perfbench/run.py --workload onepass-uniform-1m --seed 1 --seconds 40 --trace 0

generates the workload's inputs from the seed (cached per seed under
perfbench/_work), times fresh single-threaded `streamspan run` processes
one at a time for about --seconds, checks every output, prints each
metric with its unit and sample count, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they
are its per-layer ones, from runs of perfbench/tracer.py.

Steadiness, two independent sets of ten seeds on every workload:

    python3 perfbench/run.py --steadiness [--workload W]

prints each set's median and quartiles per workload and metric, flags a
spread (IQR / median) over the metric's bound in BENCHMARK.json, and says
whether the two sets' medians agree within that bound in either direction.
Sets measured on different kernel backends are never compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIME_LIMIT_S = 170.0
SETS = 2
RUNS_PER_SET = 10  # seeds per workload and set


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{med:.6g} (median of {len(values)}; min {min(values):.6g}, q1 {q1:.6g}, "
            f"q3 {q3:.6g}, max {max(values):.6g})")


def measure(args) -> int:
    src = ROOT / "src"
    if not (src / "streamspan" / "cli.py").is_file():
        print(f"error: no streamspan package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import streamspan

    if not Path(streamspan.__file__).resolve().is_relative_to(src):
        print(f"error: streamspan imported from {streamspan.__file__}", file=sys.stderr)
        return 2
    from measure import SCALED, WORKDIR, Session, end_to_end, environment, per_layer
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[args.workload]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    inputs = prepare(workload, args.seed, WORKDIR)
    session = Session(inputs, args.seconds)
    values = per_layer(session) if args.trace else end_to_end(session)

    print(f"workload: {workload.name} ({workload.size})")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(environment(inputs, session.reference)))
    metrics = {}
    missing = []
    for spec in SPEC["per_layer"] if args.trace else SPEC["end_to_end"]:
        vals = values.get(spec["name"])
        if not vals:
            missing.append(spec["name"])
            continue
        print(f"{spec['name']}: {summary(vals)} {spec['unit']}"
              + (" (scaled to the reference host speed)" if spec["name"] in SCALED else ""))
        metrics[spec["name"]] = {"value": statistics.median(vals), "unit": spec["unit"]}
    for name in [f"unscaled.{m}" for m in SCALED] + ["calibration_s"]:
        if not args.trace and values.get(name):
            print(f"{name}: {summary(values[name])} s")
    if missing and not session.failed:
        session.record("benchmark", [f"no samples of {', '.join(missing)}"])
    for message in session.messages:
        print(f"FAILED: {message}")
    attempted = max(session.attempted, session.failed, 1)
    print(f"error_rate: {session.failed / attempted:.6g} ({session.failed} of {attempted} runs)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if session.failed == 0 else 1


# --- steadiness -----------------------------------------------------------------------


def one_measurement(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIME_LIMIT_S + 30,
    )
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode, "env": env,
            "result": result}


def steadiness(workloads: list[str]) -> int:
    sets: list[list[dict]] = []
    for k in range(1, SETS + 1):
        runs = []
        for w in workloads:
            for seed in range(1000 * k, 1000 * k + RUNS_PER_SET):
                r = one_measurement(w, seed, SPEC["run_seconds"])
                runs.append(r)
                vals = {m: round(v["value"], 4) for m, v in r["result"].get("metrics", {}).items()}
                print(f"set {k} {w} seed {seed}: exit {r['exit']} {vals}", flush=True)
        sets.append(runs)
    backends = {(r["env"].get("backend"), r["env"].get("STREAMSPAN_NUMBA")) for s in sets for r in s}
    if len(backends) > 1:
        print(f"refused: the sets ran on different backends {sorted(map(str, backends))}")
        return 2
    ok = True
    for w in workloads:
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            row = []
            medians = []
            for k, runs in enumerate(sets, start=1):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and name in r["result"].get("metrics", {})]
                if len(vals) < 2:
                    row.append(f"set {k}: {len(vals)} values")
                    ok = False
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                medians.append(med)
                steady = "" if spread <= bound / 3 else " (over bound/3)"
                if spread > bound:
                    ok = False
                    steady = " (OVER BOUND)"
                row.append(f"set {k}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                           f"spread {spread:.3f}{steady}")
            # signed change of set 2 against set 1, positive when set 2 is worse
            change = [b / a - 1 if spec["better"] == "lower" else a / b - 1
                      for a, b in zip(medians, medians[1:])]
            agree = len(medians) == SETS and all(abs(x) <= bound for x in change)
            ok &= agree
            print(f"{w} {name} [bound {bound}]: " + "; ".join(row)
                  + f"; {'agree' if agree else 'DISAGREE'} ({', '.join(f'{x:+.3f}' for x in change)})")
    failed = sum(1 for s in sets for r in s if r["exit"] != 0 or not r["result"].get("correct"))
    print(f"failed measurements: {failed}")
    return 0 if ok and not failed else 1


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help=f"run {SETS} sets of {RUNS_PER_SET} seeds on each workload "
                             "(or only --workload) and compare them")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness([args.workload] if args.workload else names)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
