"""Exception types shared across the package."""

import dataclasses
import numbers


class TranadError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TranadError):
    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class ShapeMismatch(TranadError):
    pass


class DimensionMismatch(TranadError):
    pass


class NonFiniteInput(TranadError):
    pass


class EmptySeries(TranadError):
    pass


class OverlapError(TranadError):
    pass


class NonFiniteLoss(TranadError):
    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class EmptyInput(TranadError):
    pass


class DegenerateTruth(TranadError):
    pass


class LengthMismatch(TranadError):
    pass


class NoAnomalousTimestamps(TranadError):
    pass


class ConfigMismatch(TranadError):
    pass


class CorruptCheckpoint(TranadError):
    pass


class InvalidConfig(TranadError):
    """A configuration value of the wrong type or out of range."""


def check_fields(cls, d, section, error=ConfigMismatch):
    """Return the mapping `d` once every key names a field of the dataclass
    `cls`; otherwise raise `error` naming the keys that do not."""
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise error(f"unknown {section} keys: {', '.join(unknown)}")
    return d


def check_int(section, name, value, low):
    """Raise InvalidConfig unless `value` is an integer (not a bool) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidConfig(f"{section} {name} must be an integer >= {low}, got {value!r}")


def check_real(section, name, value, ok, expected):
    """Raise InvalidConfig unless `value` is a real number (not a bool) with
    `ok(value)`; `expected` describes the allowed range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise InvalidConfig(f"{section} {name} must be {expected}, got {value!r}")
