"""Timed `streamspan run` processes for one workload on one seed.

Imported by run.py only after it has put the checkout's `src` on the path.
"""

from __future__ import annotations

import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_report, check_schedule, file_digest, masked, parse_report
from workloads import Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
# The console-script entry point, run by the interpreter the benchmark runs on.
ENTRY = "import sys; from streamspan.cli import main; sys.exit(main())"
SETUP_RUNS = 7
# Host speed.  On a shared 2-vCPU VM the same work runs up to 2x slower for
# seconds at a time, and the slow share drifts over minutes: raw wall times
# of onepass-uniform-1m, as medians or minima of 40 s windows, spread 0.18 to
# 0.38 (IQR / median) between windows.  So the benchmark pins itself and its
# children to one CPU and runs a fixed calibration of its own (`calibrate`)
# on that CPU before and after every process, and every CALIBRATE_EVERY_S
# while the process is stopped with SIGSTOP.  It scales the process's wall
# time (pauses excluded) and CPU time by REFERENCE_CALIBRATION_S over the mean
# of those calibration times.  The scaled times are seconds on the host at
# the speed where the calibration takes REFERENCE_CALIBRATION_S (its fast
# state on the 2-vCPU Intel Xeon the benchmark was tuned on).  The
# calibration is not the program's code, so a change to the program moves
# the scaled times as it moves the raw ones.
REFERENCE_CALIBRATION_S = 0.06
CALIBRATE_EVERY_S = 0.5
SCALED = ("run_s", "cpu_s", "setup_s")
MIN_RUNS = 4  # a median of at least 4, also when twopass-dense-1m runs slow
TIME_LIMIT_S = 170.0  # every invocation must end well inside 180 s
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU, so the
    calibration measures the CPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Wall time of a fixed mix like the program's: integer text formatting
    and parsing, a dict fold in a Python loop and a numpy sort."""
    start = time.perf_counter()
    values = np.random.default_rng(0).integers(1, 1025, size=150_000)
    text = "\n".join(map(str, values.tolist()))
    parsed = np.array(text.split(), dtype=np.int64)
    bands: dict[int, int] = {}
    for v in parsed.tolist():
        k = v.bit_length()
        bands[k] = bands.get(k, 0) + v
    np.sort(parsed)
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    calibrations: list[float]  # taken while the process was stopped
    scale: float = 1.0  # REFERENCE_CALIBRATION_S over the mean calibration


def run_process(argv: list[str], timeout: float, calibrate_every: float | None) -> Sample:
    """Spawn and time from spawn to exit, less the pauses in which the process
    is stopped for a calibration (every `calibrate_every` seconds, or never
    when it is None); os.wait4 gives CPU time and peak RSS."""
    out_path, err_path = WORKDIR / "stdout.txt", WORKDIR / "stderr.txt"
    calibrations: list[float] = []
    paused = 0.0
    pidfd = None
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            pidfd = os.pidfd_open(proc.pid)
            while True:
                # readable once the process has exited
                if select.select([pidfd], [], [], calibrate_every)[0]:
                    wall = time.perf_counter() - start - paused
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                pause = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it exited before it stopped
                    wall = pause - start - paused
                    break
                calibrations.append(calibrate())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - pause
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            if pidfd is not None:
                os.close(pidfd)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / KIB_PER_MB,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        calibrations=calibrations,
    )


class Session:
    """Runs processes for one workload and seed; counts runs and failed runs."""

    def __init__(self, inputs: Inputs, seconds: float):
        self.inputs = inputs
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reference: dict[str, str] | None = None
        self.csv_digest: str | None = None
        self.csv_bytes = 0
        pin_to_one_cpu()
        calibrate()  # warm-up: first-call allocations and imports
        self.calibrations = [calibrate()]

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def record(self, label: str, errors: list[str]) -> None:
        """Count one failed run (or benchmark step) when errors is non-empty."""
        if errors:
            self.failed += 1
            self.messages.extend(f"{label}: {e}" for e in errors)

    def launch(self, argv: list[str], calibrate_during: bool = True) -> Sample:
        """Run one process; scale its times by the calibrations before, during
        and after it.  A traced run times itself, so it must not be paused."""
        self.attempted += 1
        before = self.calibrations[-1]
        every = CALIBRATE_EVERY_S if calibrate_during else None
        sample = run_process([sys.executable, *argv], self.remaining(), every)
        after = calibrate()
        around = [before, *sample.calibrations, after]
        self.calibrations += around[1:]
        sample.scale = REFERENCE_CALIBRATION_S / statistics.mean(around)
        return sample

    def setup_run(self) -> Sample:
        """Wall time on an empty stream: interpreter, imports, config, params."""
        sample = self.launch(["-c", ENTRY, *self.inputs.argv(self.inputs.empty_jobs)])
        report = parse_report(sample.stdout)
        errors = exit_errors(sample)
        if not errors and (report.get("job_count"), report.get("value")) != ("0", "0.0"):
            errors.append(f"empty stream reported {report.get('job_count')} jobs")
        self.record("setup run", errors)
        self.inputs.schedule_out.unlink(missing_ok=True)
        return sample

    def setup_runs(self) -> list[Sample]:
        self.setup_run()  # also compiles bytecode, which users pay once
        return [self.setup_run() for _ in range(SETUP_RUNS)]

    def check(self, sample: Sample) -> tuple[list[str], dict[str, str]]:
        """Errors in a full run's output; the first full run is also checked in depth."""
        report = parse_report(sample.stdout)
        errors = exit_errors(sample)
        if errors:
            return errors, report
        if self.reference is None:
            self.reference = report
            errors += check_report(report, self.inputs)
        elif masked(report) != masked(self.reference):
            errors.append("report differs from the first run's")
        if self.inputs.workload.writes_schedule:
            path = self.inputs.schedule_out
            if not path.is_file():
                return errors + ["no schedule CSV written"], report
            digest = file_digest(path)
            if self.csv_digest is None:
                self.csv_digest = digest
                self.csv_bytes = path.stat().st_size
                errors += check_schedule(path, report, self.inputs)
            elif digest != self.csv_digest:
                errors.append("schedule CSV differs from the first run's")
            path.unlink()
        return errors, report

    def run_checked(
        self, argv: list[str], label: str, calibrate_during: bool = True
    ) -> tuple[Sample, dict[str, str] | None]:
        """Launch and check one full run; the report is None when it failed."""
        sample = self.launch(argv, calibrate_during)
        errors, report = self.check(sample)
        self.record(label, errors)
        return sample, None if errors else report

    def repeat(self, step, seconds: float, min_steps: int = MIN_RUNS) -> None:
        """Call step() until another call would overrun `seconds`, or it fails."""
        t0 = time.perf_counter()
        took: list[float] = []
        while True:
            s = time.perf_counter()
            if not step():
                return
            took.append(time.perf_counter() - s)
            if self.remaining() < 2 * max(took):
                return
            elapsed = time.perf_counter() - t0
            if len(took) >= min_steps and elapsed + statistics.median(took) > seconds:
                return


def exit_errors(sample: Sample) -> list[str]:
    if sample.code == 0:
        return []
    return [f"exit {sample.code}: {sample.stderr.strip()[-300:]}"]


def end_to_end(session: Session) -> dict[str, list[float]]:
    """Samples of the end-to-end metrics, plus the unscaled times under
    "unscaled.<metric>" and the calibration times."""
    setup = session.setup_runs()
    argv = ["-c", ENTRY, *session.inputs.argv()]
    samples: list[Sample] = []

    def step() -> bool:
        sample, report = session.run_checked(argv, "run")
        if report is None:
            return False
        samples.append(sample)
        setup.append(session.setup_run())  # set-up samples span the whole window
        return True

    session.repeat(step, session.seconds)
    return {
        "run_s": [s.wall_s * s.scale for s in samples],
        "cpu_s": [s.cpu_s * s.scale for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
        "setup_s": [s.wall_s * s.scale for s in setup],
        "unscaled.run_s": [s.wall_s for s in samples],
        "unscaled.cpu_s": [s.cpu_s for s in samples],
        "unscaled.setup_s": [s.wall_s for s in setup],
        "calibration_s": session.calibrations,
    }


def layer_metrics(trace: dict, report: dict[str, str], csv_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced run; a layer that did not run reads 0."""
    spans, leaf_s, leaf_calls = trace["spans"], trace["leaf_s"], trace["leaf_calls"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        leaf = leaf_s[i] + leaf_calls[i] * trace["wrapper_s"]
        own[name] = own.get(name, 0.0) + end - start - child[i] - leaf
        calls[name] = calls.get(name, 0) + 1
    completion_calls, completion_s = trace["counters"].get("capacity.completion_time", [0, 0.0])
    jobs = int(report["job_count"])
    assignments = int(report["assignments"])
    ingest_s = total.get("grouping.ingest_many", 0.0)
    search_s = total.get("kernels.search_assignments", 0.0)
    return {
        "pipeline.run_stream.self_s": own.get("pipeline.run_stream", 0.0),
        "grouping.ingest_many.s": ingest_s,
        "grouping.ingest_ns_per_job": ingest_s / jobs * 1e9 if jobs else 0.0,
        "grouping.finalize.s": total.get("grouping.finalize", 0.0),
        "grouping.peak_retained_jobs": int(report["peak_retained_jobs"]),
        "grouping.peak_group_records": int(report["peak_group_records"]),
        "kernels.ingest_block.s": total.get("kernels.ingest_block", 0.0),
        "kernels.ingest_block.calls": calls.get("kernels.ingest_block", 0),
        "kernels.search_assignments.s": search_s,
        "search.enumerate_and_select.s": total.get("search.enumerate_and_select", 0.0),
        "search.assignments": assignments,
        "search.assignments_per_s": assignments / search_s if search_s else 0.0,
        "search.jobs": int(report["search_jobs"]),
        "schedule.second_pass.s": total.get("schedule.second_pass", 0.0),
        "schedule.second_pass.self_s": own.get("schedule.second_pass", 0.0),
        "capacity.completion_time.calls": completion_calls,
        "capacity.completion_time.s": completion_s,
        "cli.write_schedule_csv.s": total.get("cli.write_schedule_csv", 0.0),
        "cli.schedule_csv_bytes": csv_bytes,
        "cli.main.s": total.get("cli.main", 0.0),
    }


def per_layer(session: Session) -> dict[str, list[float]]:
    """Pairs of an untraced and a traced run; the traced one gives the layers,
    and the pair gives the tracing overhead."""
    setup = statistics.median(s.wall_s for s in session.setup_runs())
    inputs = session.inputs
    argv = ["-c", ENTRY, *inputs.argv()]
    spans_path = WORKDIR / "spans.json"
    traced_argv = [str(HERE / "tracer.py"), str(spans_path), *inputs.argv()]
    layers: dict[str, list[float]] = {}
    absent: set[str] = set()

    def step() -> bool:
        plain, report = session.run_checked(argv, "run")
        if report is None:
            return False
        _, report = session.run_checked(traced_argv, "traced run", calibrate_during=False)
        if report is None:
            return False
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        absent.update(trace["absent"])
        figures = layer_metrics(trace, report, session.csv_bytes)
        figures["trace.overhead_s"] = figures["cli.main.s"] - (plain.wall_s - setup)
        for name, value in figures.items():
            layers.setdefault(name, []).append(value)
        return True

    session.repeat(step, session.seconds, min_steps=2)
    for name in sorted(absent):
        print(f"absent: {name} is not in this version of the package; its layer reads 0")
    return layers


def environment(inputs: Inputs, report: dict[str, str] | None) -> dict:
    """What a result depends on besides the code; results from different
    backends are not comparable."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "backend": (report or {}).get("backend", "'unknown'").strip("'"),
        "STREAMSPAN_NUMBA": os.environ.get("STREAMSPAN_NUMBA", "unset"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": inputs.seed,
        "jobs": int(inputs.jobs.size),
        "jobs_file_bytes": inputs.jobs_file.stat().st_size,
        "intervals_per_machine": [int(b.size) for b in inputs.park.breakpoints],
    }
