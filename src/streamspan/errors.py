"""Exception taxonomy shared across the package.

The CLI maps each class to a distinct exit code; see cli.EXIT_CODES.
"""


class StreamspanError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StreamspanError):
    """Invalid machine configuration, parameters, or flag combination."""


class JobValueError(StreamspanError):
    """A job processing time is unparsable or nonpositive.

    position is the 0-based stream position of the offending token.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class PmaxContractError(StreamspanError):
    """A processing time exceeded the declared p_max, or the stream's maximum
    ended below p_max's band."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BudgetExceededError(StreamspanError):
    """The search, or the oracle's enumeration, would exceed its budget."""


class ScheduleContractError(StreamspanError):
    """A constructed schedule violated an internal invariant."""
