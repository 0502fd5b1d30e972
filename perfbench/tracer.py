#!/usr/bin/env python3
"""Run `streamspan.cli.main(argv)` in this process with layer spans recorded.

    python3 perfbench/tracer.py SPANS_JSON run --config ... --jobs ...

The package is not changed: the module attributes that production calls
through are replaced by timing wrappers before `main` runs.  Spans
(name, start, end, parent) stay in memory and are written to SPANS_JSON
when `main` returns.  `capacity.completion_time` runs once per job, so it
is counted as (calls, seconds) instead of one span per call; its time is
still charged to the enclosing span for self-time accounting, and so is the
counting wrapper's own cost per call, measured on a no-op ("wrapper_s"),
so the enclosing span's self time does not absorb tracer overhead.  A name
the package no longer has is listed under "absent" rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); the attribute is looked up where its
# caller resolves it, so the wrapper is what production code calls.
SPANNED = (
    ("streamspan.cli", "run_stream", "pipeline.run_stream"),
    ("streamspan.cli", "second_pass", "schedule.second_pass"),
    ("streamspan.cli", "write_schedule_csv", "cli.write_schedule_csv"),
    ("streamspan.pipeline", "enumerate_and_select", "search.enumerate_and_select"),
    ("streamspan._kernels", "ingest_block", "kernels.ingest_block"),
    ("streamspan._kernels", "search_assignments", "kernels.search_assignments"),
)
COUNTED = (("streamspan.schedule", "completion_time", "capacity.completion_time"),)
LEDGER_METHODS = ("ingest_many", "finalize")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.leaf_s: list[float] = []  # per span: time of counted calls inside it
        self.leaf_calls: list[int] = []  # per span: number of counted calls inside it
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._stack: list[int] = []

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self.leaf_s.append(0.0)
            self.leaf_calls.append(0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end

        wrapper.__traced__ = True
        return wrapper

    def counted(self, name, fn):
        counter = self.counters.setdefault(name, [0, 0.0])
        stack, leaf_s, leaf_calls = self._stack, self.leaf_s, self.leaf_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                counter[0] += 1
                counter[1] += dt
                if stack:
                    leaf_s[stack[-1]] += dt
                    leaf_calls[stack[-1]] += 1

        wrapper.__traced__ = True
        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaf_s": self.leaf_s,
            "leaf_calls": self.leaf_calls,
            "counters": self.counters,
            "wrapper_s": wrapper_cost(),
        }


def wrapper_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one counted call adds outside its measured time, beyond a plain
    call: wrapped no-op calls minus their measured time minus plain no-op
    calls, per call, the least of a few repeats."""

    def noop(a, b, c):
        return None

    probe = Tracer()  # one open span, as around production calls
    probe.spans.append(["probe", 0.0, 0.0, -1])
    probe.leaf_s.append(0.0)
    probe.leaf_calls.append(0)
    probe._stack.append(0)
    wrapped = probe.counted("noop", noop)
    counter = probe.counters["noop"]
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop(1, 2, 3)
        t1 = clock()
        measured = counter[1]
        for _ in range(calls):
            wrapped(1, 2, 3)
        t2 = clock()
        best = min(best, (t2 - t1) - (counter[1] - measured) - (t1 - t0))
    return max(best, 0.0) / calls


def install(tracer: Tracer) -> tuple[list[str], list[str]]:
    """Wrap every layer boundary; return (wrapped, absent) names."""
    wrapped, absent = [], []

    def wrap(owner, attr, label, make):
        fn = getattr(owner, attr, None)
        if fn is None:
            absent.append(label)
        elif not getattr(fn, "__traced__", False):
            setattr(owner, attr, make(fn))
            wrapped.append(label)

    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for module, attr, name in table:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                absent.append(f"{module}.{attr}")
                continue
            wrap(owner, attr, f"{module}.{attr}", functools.partial(make, name))
    grouping = importlib.import_module("streamspan.grouping")
    ledgers = [
        cls for cls in vars(grouping).values()
        if isinstance(cls, type) and cls.__module__ == grouping.__name__
        and all(callable(getattr(cls, m, None)) for m in LEDGER_METHODS)
    ]
    if not ledgers:
        absent.append("streamspan.grouping.*Ledger")
    # base classes first, so a subclass that inherits a method finds it wrapped
    for cls in sorted(ledgers, key=lambda c: len(c.__mro__)):
        for method in LEDGER_METHODS:
            wrap(cls, method, f"{cls.__qualname__}.{method}",
                 functools.partial(tracer.spanned, f"grouping.{method}"))
    return wrapped, absent


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_JSON run ...", file=sys.stderr)
        return 2
    out, run_argv = argv[0], argv[1:]
    from streamspan import cli

    tracer = Tracer()
    wrapped, absent = install(tracer)
    code = tracer.spanned("cli.main", cli.main)(run_argv)
    sys.stdout.flush()
    result = tracer.dump()
    result.update(exit_code=code, wrapped=wrapped, absent=absent)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
