"""Exception hierarchy shared across the package."""


class FedRotError(Exception):
    """Base class for all package errors."""


class UsageError(FedRotError):
    """Caller violated a precondition (bad shapes, bad arguments).

    ``key`` is the experiment-file key of the offending config value, when
    a config dataclass rejected one.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class NonFiniteError(UsageError):
    """A matrix holds NaN or Inf entries."""


class NumericError(FedRotError):
    """A numerical routine failed (an SVD did not converge)."""


class ConfigError(FedRotError):
    """Experiment file is malformed or fails validation.

    ``line`` / ``column`` are populated when the underlying parser
    reported a location.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class DivergenceError(FedRotError):
    """Training diverged.  Carries the round and local step it diverged at."""

    def __init__(self, message, round_index=None, step_index=None):
        super().__init__(message)
        self.round_index = round_index
        self.step_index = step_index
