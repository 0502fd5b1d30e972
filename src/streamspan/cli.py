"""Command-line front end.

Two subcommands: `run` executes a scheduling pass over a machine config
and a job stream; `generate` writes a seeded random instance.  Reports go
to stdout as `key: value` lines; schedules to a CSV file, written by
streamspan.textio.  The two-pass and offline modes share one path and
the default pmax-unknown ledger: a first pass over chunks parsed by one
timed reader, then a second pass over the same chunks, re-read from the
file (two-pass) or replayed from the chunks the first pass kept in
memory (offline, which reads the stream once), that writes each chunk's
schedule rows as it goes, to a temporary file renamed on success.
Every error class has its own exit code so pipelines can branch on
failures:

    0  success
    1  internal contract violation (should not happen)
    2  bad usage, config file, or machine park
    3  bad job value (position reported)
    4  declared maximum or estimate contract violated
    5  search budget exceeded
    6  second pass saw a different stream than the first
    7  an output was closed by its reader
"""

from __future__ import annotations

import gc

# The collector stays off from here to gc.freeze() below: the imports
# allocate many objects and free few, so a collection would only walk them.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import contextlib
    import ctypes
    import os
    import sys
    import time
    from dataclasses import replace
    from functools import partial
    from stat import S_IMODE, S_ISDIR, S_ISREG
    from typing import BinaryIO, Iterator, Sequence

    import numpy as np

    from .capacity import MachinePark, MachineTimeline
    from .errors import (
        BudgetExceededError,
        ConfigError,
        JobValueError,
        PmaxContractError,
        StreamspanError,
        TwoPassMismatchError,
    )
    from .grouping import REGIMES, derive_params, make_ledger
    from .pipeline import run_stream
    from .search import DEFAULT_BUDGET
    from .textio import float_chunks, write_schedule_csv

    # What the imports built lives until the process exits.  Frozen, it is
    # left out of every later collection, the one at exit included, which
    # would otherwise walk and free all of it: about a tenth of a short run.
    # Done once here, not in main, which tests call many times in one process.
    gc.freeze()
finally:
    if _collecting:
        gc.enable()

# Each block of the stream allocates and frees arrays and bytes of a few
# hundred KB.  By default glibc serves such sizes from fresh mmaps and
# trims the freed heap, so every block faults its pages in again; fixed
# thresholds keep the freed memory in the heap for the next block.  Both
# are set: setting either turns off glibc's dynamic mmap threshold.
# Without glibc's mallopt this does nothing.
with contextlib.suppress(AttributeError, OSError, TypeError):
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

__all__ = [
    "EXIT_CODES",
    "parse_machine_config",
    "parse_machine_config_text",
    "generate_instance",
    "main",
]

MODES = ("one-pass", "two-pass", "offline", "oracle")

EXIT_CODES = {
    ConfigError: 2,
    JobValueError: 3,
    PmaxContractError: 4,
    BudgetExceededError: 5,
    TwoPassMismatchError: 6,
}


# --- machine config ---------------------------------------------------------


# each scalar line's type and what its value must be, in the order that
# missing lines are reported
_SCALARS = {"m": (int, "an integer"), "m1": (int, "an integer"), "e0": (float, "a number")}


def parse_machine_config_text(text: str, source: str = "<config>") -> MachinePark:
    """Build a MachinePark from the structured text format.

    Scalar lines `m N`, `m1 N`, `e0 X` in any order, then one
    `machine <index> <breakpoint> <ratio> ...` line per machine; `#`
    starts a comment.  Every machine 1..m must appear exactly once.
    """
    scalars: dict[str, int | float] = {}
    machine_lines: dict[int, tuple[int, list[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        field, args = toks[0], toks[1:]

        def bad(msg: str):
            return ConfigError(f"{source}:{lineno}: {msg}")

        if field in _SCALARS:
            kind, what = _SCALARS[field]
            if len(args) != 1:
                raise bad(f"{field} takes exactly one value")
            try:
                val = kind(args[0])
            except ValueError:
                raise bad(f"{field} must be {what}, got {args[0]!r}") from None
            if field in scalars:
                raise bad(f"duplicate {field} line")
            scalars[field] = val
        elif field == "machine":
            if not args:
                raise bad("machine line needs an index")
            try:
                idx = int(args[0])
            except ValueError:
                raise bad(f"machine index must be an integer, got {args[0]!r}") from None
            if idx in machine_lines:
                raise bad(f"duplicate machine {idx} line")
            machine_lines[idx] = (lineno, args[1:])
        else:
            raise bad(f"unknown field {field!r}")
    for field in _SCALARS:
        if field not in scalars:
            raise ConfigError(f"{source}: missing {field} line")
    m, m1, e0 = (scalars[field] for field in _SCALARS)
    missing = m - sum(1 <= i <= m for i in machine_lines)
    if missing > 0:
        # the first few gaps lie among the first len(machine_lines) + 5 indices
        scan = range(1, min(m, len(machine_lines) + 5) + 1)
        shown = [i for i in scan if i not in machine_lines][:5]
        more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
        raise ConfigError(f"{source}: missing machine line(s) for {shown}{more}")
    extra = [i for i in machine_lines if not (1 <= i <= m)]
    if extra:
        raise ConfigError(f"{source}: machine index(es) {sorted(extra)} outside 1..{m}")
    timelines = []
    for idx in range(1, m + 1):
        lineno, rest = machine_lines[idx]
        if len(rest) % 2:
            raise ConfigError(
                f"{source}:{lineno}: machine {idx} needs (breakpoint, ratio) pairs, "
                f"got {len(rest)} values"
            )
        try:
            nums = [float(tok) for tok in rest]
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: machine {idx} has a non-numeric value"
            ) from None
        timelines.append(
            MachineTimeline(
                machine_index=idx,
                breakpoints=tuple(nums[0::2]),
                ratios=tuple(nums[1::2]),
            )
        )
    return MachinePark(machines=tuple(timelines), floor_machines=m1, ratio_floor=e0)


def parse_machine_config(path: str) -> MachinePark:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: byte {exc.object[exc.start]:#04x} at offset {exc.start} is not UTF-8"
        ) from None
    return parse_machine_config_text(text, source=path)


# --- job stream and output files ----------------------------------------------


def _job_chunks(path: str) -> Iterator[np.ndarray]:
    """float_chunks of the file at path, or of stdin for '-'.

    Bytes that are not UTF-8 are decoded as lone surrogates, so the token
    that holds one is refused at its position.  A file that cannot be
    opened or read is a ConfigError, so an OSError past this point comes
    from an output.
    """
    try:
        if path == "-":
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(errors="surrogateescape")
            yield from float_chunks(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                yield from float_chunks(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read job stream {path}: {exc.strerror}") from None


def _standard_stream_on(st: os.stat_result) -> int | None:
    """1 or 2 when standard output or error is open on the file st
    describes, else None."""
    for fd in (1, 2):
        try:
            if os.path.samestat(st, os.fstat(fd)):
                return fd
        except OSError:  # the stream is closed
            pass
    return None


@contextlib.contextmanager
def _replaced_on_success(path: str, label: str, inputs: dict[str, str]) -> Iterator[BinaryIO]:
    """A new binary file in path's directory that replaces path when the
    block exits normally and is deleted when it raises, so a failed run
    leaves no partial file and an existing file at path untouched.  Errors
    say "cannot write {label}".

    The file is made on entry: a path that cannot be written, or a regular
    file that is one of the inputs ({what: path}, '-' for standard input),
    fails before any work is done.  A symbolic link is followed, so its
    target is replaced, and an existing file's permission bits are kept.
    A path that exists but is no regular file or directory, such as a
    pipe or a terminal, is written in place: there is no file to replace.
    So is the file behind standard output or error (as /dev/stdout is),
    through that stream's own descriptor, so the report printed after the
    schedule follows it instead of going to a replaced file.
    """
    try:
        st = os.stat(path)
    except OSError:
        st = None  # made below, or refused there
    if st is not None and S_ISDIR(st.st_mode):
        raise ConfigError(f"cannot write {label}: it is a directory")
    if st is not None and S_ISREG(st.st_mode):
        for what, source in inputs.items():
            with contextlib.suppress(OSError):  # an input that cannot be read is refused later
                if os.path.samestat(st, os.fstat(0) if source == "-" else os.stat(source)):
                    raise ConfigError(f"cannot write {label}: it is the {what}")
    shared = _standard_stream_on(st) if st is not None else None
    if shared is not None:
        with os.fdopen(os.dup(shared), "wb") as fh:
            yield fh
        return
    if st is not None and not S_ISREG(st.st_mode):
        try:
            fh = open(path, "wb")
        except OSError as exc:
            raise ConfigError(f"cannot write {label}: {exc.strerror}") from None
        with fh:
            yield fh
        return
    import tempfile  # only runs that write a file need it

    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    try:
        fd, part = tempfile.mkstemp(prefix=f".{name}.", suffix=".part", dir=folder)
    except OSError as exc:
        raise ConfigError(f"cannot write {label}: {exc.strerror}") from None
    if st is not None:
        mode = S_IMODE(st.st_mode)
    else:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask  # as open() would have made it
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.chmod(part, mode)
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(part)
        raise


# --- instance generator --------------------------------------------------------


def generate_instance(
    seed: int,
    m: int,
    m1: int,
    e0: float,
    n: int,
    intervals: tuple[int, int] = (0, 3),
    breakpoint_max: int = 20,
    ratio_choices: Sequence[float] = (0.25, 0.5, 1.0),
    jobs_max: int = 16,
) -> tuple[str, str]:
    """Seed-determined (config text, jobs text) pair.

    Breakpoints are distinct integers in [1, breakpoint_max]; ratios come
    from ratio_choices, restricted to >= e0 on machines 1..m1; job times
    are integers in [1, jobs_max].
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if not (1 <= m1 <= m):
        raise ConfigError(f"m1 must be in [1, {m}], got {m1}")
    if n < 0:
        raise ConfigError(f"job count must be >= 0, got {n}")
    if not (0.0 < e0 <= 1.0):
        raise ConfigError(f"e0 must be in (0, 1], got {e0}")
    lo, hi = intervals
    if not (0 <= lo <= hi):
        raise ConfigError(f"interval count range must satisfy 0 <= lo <= hi, got {lo}:{hi}")
    if hi > breakpoint_max:
        raise ConfigError(
            f"up to {hi} distinct integer breakpoints cannot fit in [1, {breakpoint_max}]"
        )
    if jobs_max < 1:
        raise ConfigError(f"jobs-max must be >= 1, got {jobs_max}")
    if not ratio_choices:
        raise ConfigError("need at least one ratio choice")
    for r in ratio_choices:
        if not (0.0 < r <= 1.0):
            raise ConfigError(f"ratio choice {r} outside (0, 1]")
    floor_choices = [r for r in ratio_choices if r >= e0]
    if not floor_choices:
        raise ConfigError(f"no ratio choice is >= e0 ({e0})")
    import random  # only generate needs it

    rng = random.Random(seed)
    lines = [f"m {m}", f"m1 {m1}", f"e0 {e0!r}"]
    for i in range(1, m + 1):
        k = rng.randint(lo, hi)
        bps = sorted(rng.sample(range(1, breakpoint_max + 1), k))
        pool = floor_choices if i <= m1 else list(ratio_choices)
        parts = [f"machine {i}"]
        for b in bps:
            parts.append(str(b))
            parts.append(repr(float(rng.choice(pool))))
        lines.append(" ".join(parts))
    config_text = "\n".join(lines) + "\n"
    jobs = [str(rng.randint(1, jobs_max)) for _ in range(n)]
    rows = [" ".join(jobs[i : i + 16]) for i in range(0, len(jobs), 16)]
    jobs_text = "\n".join(rows) + ("\n" if rows else "")
    return config_text, jobs_text


# --- run subcommand -------------------------------------------------------------


def _cmd_run(args) -> int:
    park = parse_machine_config(args.config)
    params = derive_params(
        m=park.m,
        floor_machines=park.floor_machines,
        ratio_floor=park.ratio_floor,
        epsilon=args.epsilon,
    )
    needs_schedule = args.mode in ("two-pass", "offline")
    if needs_schedule and not args.schedule_out:
        raise ConfigError(f"mode {args.mode} writes a schedule; pass --schedule-out")
    if args.schedule_out and not needs_schedule:
        raise ConfigError("--schedule-out only applies to two-pass and offline modes")
    if args.mode == "two-pass" and args.jobs == "-":
        raise ConfigError("two-pass reads the stream twice; pass a file, not stdin")
    if args.budget < 1:
        raise ConfigError(f"--budget must be >= 1, got {args.budget}")
    if args.mode in ("offline", "oracle"):
        for flag in ("--regime", "--pmax", "--pmax-estimate", "--alpha"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ConfigError(f"{flag} only applies to one-pass and two-pass modes")

    if args.mode == "oracle":
        buffer = list(_job_chunks(args.jobs))
        # the ledger's value checks: finite, positive, no overflowing total
        checker = make_ledger(params, "pmax-unknown")
        for chunk in buffer:
            checker.ingest_many(chunk)
        jobs = np.concatenate(buffer) if buffer else np.empty(0, np.float64)
        from .oracle import exact_optimum  # the reference, loaded only by this mode

        result = exact_optimum(park, jobs, budget=args.budget)
        print(f"mode: {args.mode!r}")
        print(f"job_count: {len(jobs)}")
        print(f"optimal_makespan: {result.makespan}")
        if args.stats:
            print(f"witness_ordinal: {result.ordinal}")
        return 0

    if not needs_schedule:
        report = _run_passes(args, park, params, None)
    else:
        inputs = {"config": args.config, "job stream": args.jobs}
        label = f"the schedule to {args.schedule_out}"
        try:
            with _replaced_on_success(args.schedule_out, label, inputs) as out:
                report = _run_passes(args, park, params, out)
        except BrokenPipeError:
            raise
        except OSError as exc:  # writing, flushing or closing it; reads raise ConfigError
            raise ConfigError(f"cannot write {label}: {exc.strerror}") from None
    for line in report.as_lines(stats=args.stats):
        print(line)
    return 0


def _run_passes(args, park: MachinePark, params, out: BinaryIO | None):
    """The first pass, then, when out is a file, the second pass written to it."""
    read = partial(_job_chunks, args.jobs)
    chunks = read()
    if args.mode == "offline":  # the second pass replays the chunks the first one parsed
        kept = []
        chunks = (kept.append(chunk) or chunk for chunk in chunks)
        read = kept.__iter__
    ledger = make_ledger(
        params, args.regime or "pmax-unknown",
        pmax=args.pmax, pmax_estimate=args.pmax_estimate, alpha=args.alpha,
    )
    report, artifacts = run_stream(park, ledger, chunks, mode=args.mode, budget=args.budget)
    if out is None:
        return report
    from .schedule import SecondPass  # one-pass runs never load the second pass

    stage = SecondPass(park, artifacts, read())
    t0 = time.perf_counter()
    write_schedule_csv(out, stage)
    return replace(
        report,
        makespan=stage.makespan,
        schedule_path=args.schedule_out,
        second_pass_seconds=stage.seconds,
        write_seconds=time.perf_counter() - t0 - stage.seconds,
    )


def _cmd_generate(args) -> int:
    try:
        lo_s, hi_s = args.intervals.split(":")
        intervals = (int(lo_s), int(hi_s))
    except ValueError:
        raise ConfigError(
            f"--intervals must look like LO:HI, got {args.intervals!r}"
        ) from None
    try:
        ratio_choices = tuple(float(tok) for tok in args.ratios.split(","))
    except ValueError:
        raise ConfigError(f"--ratios must be comma-separated numbers, got {args.ratios!r}") from None
    config_text, jobs_text = generate_instance(
        seed=args.seed,
        m=args.m,
        m1=args.m1,
        e0=args.e0,
        n=args.n,
        intervals=intervals,
        breakpoint_max=args.breakpoint_max,
        ratio_choices=ratio_choices,
        jobs_max=args.jobs_max,
    )
    outs = (args.config_out, args.jobs_out)
    if (os.path.realpath(outs[0]) == os.path.realpath(outs[1])
            or all(map(os.path.exists, outs)) and os.path.samefile(*outs)):
        raise ConfigError(f"cannot write {args.jobs_out}: it is also the config output")
    # neither file is made or replaced unless both are written
    path = args.config_out
    try:
        with (_replaced_on_success(args.config_out, args.config_out, {}) as config_fh,
              _replaced_on_success(args.jobs_out, args.jobs_out, {}) as jobs_fh):
            for path, fh, text in ((args.config_out, config_fh, config_text),
                                   (args.jobs_out, jobs_fh, jobs_text)):
                fh.write(text.encode())
                fh.flush()  # so a failed write names this path
    except BrokenPipeError:
        raise
    except OSError as exc:  # a device that is full, say
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    print(f"config: {args.config_out}")
    print(f"jobs: {args.jobs_out}")
    return 0


# --- argument parsing -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamspan",
        description="Streaming approximate makespan for machines with shared intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scheduling pass over a job stream")
    run.add_argument("--config", required=True, help="machine config file")
    run.add_argument("--jobs", default="-", help="job stream file, or - for stdin")
    run.add_argument("--mode", choices=MODES, default="one-pass")
    run.add_argument("--regime", choices=REGIMES, default=None,
                     help="how the largest processing time is known (default pmax-unknown)")
    run.add_argument("--epsilon", type=float, default=0.5, help="approximation slack")
    run.add_argument("--pmax", type=float, default=None,
                     help="exact largest processing time (regime pmax-given)")
    run.add_argument("--pmax-estimate", type=float, default=None,
                     help="overestimate of the largest processing time")
    run.add_argument("--alpha", type=float, default=None,
                     help="estimate is at most alpha times the true maximum (default 1)")
    run.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="max search nodes (oracle mode: max assignments)")
    run.add_argument("--schedule-out", default=None,
                     help="schedule CSV path (two-pass and offline modes)")
    run.add_argument("--stats", action="store_true",
                     help="print derived parameters, bounds, and split timings")
    run.set_defaults(func=_cmd_run)

    gen = sub.add_parser("generate", help="write a seeded random instance")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--m", type=int, required=True, help="machine count")
    gen.add_argument("--m1", type=int, required=True, help="leading machines with ratio >= e0")
    gen.add_argument("--e0", type=float, required=True, help="ratio floor on machines 1..m1")
    gen.add_argument("--n", type=int, required=True, help="job count")
    gen.add_argument("--config-out", required=True)
    gen.add_argument("--jobs-out", required=True)
    gen.add_argument("--intervals", default="0:3", help="shared intervals per machine, LO:HI")
    gen.add_argument("--breakpoint-max", type=int, default=20)
    gen.add_argument("--ratios", default="0.25,0.5,1", help="comma-separated ratio choices")
    gen.add_argument("--jobs-max", type=int, default=16)
    gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # as the standard SIGPIPE recipe does: standard output goes nowhere,
        # so the interpreter's final flush of it stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 7
    except StreamspanError as exc:
        print(f"streamspan: error: {exc}", file=sys.stderr)
        for cls in type(exc).__mro__:
            if cls in EXIT_CODES:
                return EXIT_CODES[cls]
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
