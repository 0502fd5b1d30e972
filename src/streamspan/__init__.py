"""Streaming approximate makespan for machines with shared intervals.

One pass over a job stream in bounded memory yields a (1+epsilon)
guarantee on the makespan; a second pass turns it into an explicit
schedule.  Machines deliver processing at piecewise-constant rates, so
capacities are piecewise linear and invertible.

The names below take a stream to a validated schedule; everything else
lives in its submodule.  The command line is `streamspan.cli`.
exact_optimum, Schedule, second_pass and validate_schedule load their
modules on first use: a one-pass run loads neither streamspan.schedule
nor streamspan.oracle, a two-pass run only streamspan.schedule.
"""

import importlib

from .capacity import MachinePark, MachineTimeline
from .errors import (
    BudgetExceededError,
    ConfigError,
    JobValueError,
    PmaxContractError,
    ScheduleContractError,
    StreamspanError,
)
from .grouping import SchedulingParams, derive_params, make_ledger
from .pipeline import RunReport, run_stream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MachineTimeline",
    "MachinePark",
    "StreamspanError",
    "ConfigError",
    "JobValueError",
    "PmaxContractError",
    "BudgetExceededError",
    "ScheduleContractError",
    "SchedulingParams",
    "derive_params",
    "RunReport",
    "make_ledger",
    "run_stream",
    "Schedule",
    "second_pass",
    "validate_schedule",
    "exact_optimum",
]

# name -> the submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    "exact_optimum": "oracle",
    "Schedule": "schedule",
    "second_pass": "schedule",
    "validate_schedule": "schedule",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
