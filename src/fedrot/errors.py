"""Exception hierarchy shared across the package, and the config value type checks."""

import dataclasses
import enum
import functools
import numbers
import types
import typing


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


_NUMBERS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def check_type(key: str, value, tp) -> None:
    """Reject ``value``, set as the file key ``key``, unless it is of the
    annotated type ``tp``: ``int`` takes any ``numbers.Integral``, ``float``
    any ``numbers.Real`` that ``float()`` does not overflow, a bool neither,
    and any other type its instances; an enum's message lists its values.
    No value is converted."""
    kind, what = _NUMBERS.get(tp, (tp, f"a {tp.__name__}"))
    if issubclass(tp, enum.Enum):
        what += f" (one of: {', '.join(m.value for m in tp)})"
    if not isinstance(value, kind) or (tp in _NUMBERS and isinstance(value, bool)):
        raise UsageError(f"{key} must be {what}, got {value!r}", key=key)
    if tp is float:
        try:
            float(value)
        except OverflowError:
            raise UsageError(f"{key} is out of range", key=key) from None


def file_key(f: dataclasses.Field) -> str:
    """The experiment-file key of a config dataclass field."""
    return f.metadata.get("key", f.name)


@functools.cache
def type_hints(cls) -> dict:
    """Field name -> resolved annotation of a config dataclass."""
    return typing.get_type_hints(cls)


def check_fields(config, prefix: str = "") -> None:
    """Check each field of the config dataclass ``config`` against its
    annotation, under its file key after ``prefix``."""
    hints = type_hints(type(config))
    for f in dataclasses.fields(config):
        _check_value(prefix + file_key(f), getattr(config, f.name), hints[f.name])


def _check_value(key: str, value, tp) -> None:
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:  # ``T | None``
        if value is not None:
            _check_value(key, value, args[0])
    elif typing.get_origin(tp) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, tuple) or not (variadic or len(value) == len(args)):
            size = "" if variadic else f" of {len(args)} values"
            raise UsageError(f"{key} must be a tuple{size}, got {value!r}", key=key)
        elements = args[:1] * len(value) if variadic else args
        for i, (v, t) in enumerate(zip(value, elements)):
            _check_value(f"{key}.{i}", v, t)
    else:
        check_type(key, value, tp)
        if dataclasses.is_dataclass(tp):
            check_fields(value, f"{key}.")


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
