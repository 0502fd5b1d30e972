"""Streaming approximate makespan for machines with shared intervals.

One pass over a job stream in bounded memory yields a (1+epsilon)
guarantee on the makespan; a second pass turns it into an explicit
schedule.  Machines deliver processing at piecewise-constant rates, so
capacities are piecewise linear and invertible.

The names below take a stream to a validated schedule; everything else
lives in its submodule.  The command line is `streamspan.cli`.
"""

from .capacity import MachinePark, MachineTimeline
from .errors import (
    BudgetExceededError,
    ConfigError,
    JobValueError,
    PmaxContractError,
    ScheduleContractError,
    StreamspanError,
    TwoPassMismatchError,
)
from .grouping import REGIMES, SchedulingParams, derive_params, make_ledger
from .oracle import exact_optimum
from .pipeline import RunReport, run_stream
from .schedule import Schedule, second_pass, validate_schedule

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
    "TwoPassMismatchError",
    "ScheduleContractError",
    "SchedulingParams",
    "derive_params",
    "RunReport",
    "REGIMES",
    "make_ledger",
    "run_stream",
    "Schedule",
    "second_pass",
    "validate_schedule",
    "exact_optimum",
]
