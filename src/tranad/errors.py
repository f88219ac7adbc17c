"""Exception types shared across the package: one `TranadError` subclass per
kind of failure a caller can act on, and the config checks that raise them."""

import dataclasses
import numbers
import sys


class TranadError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TranadError):
    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class ShapeMismatch(TranadError):
    pass


class NonFiniteInput(TranadError):
    pass


class NonFiniteLoss(TranadError):
    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class EmptyInput(TranadError):
    pass


class DegenerateTruth(TranadError):
    """The labels leave this metric undefined."""


class CorruptCheckpoint(TranadError):
    pass


class InvalidConfig(TranadError):
    """A configuration that is not the expected object, or a value of the wrong
    type or out of range."""


def check_fields(cls, d, section, error=InvalidConfig):
    """Return `d` once it is a dict whose keys name fields of the dataclass
    `cls` and include every field without a default; otherwise raise `error`
    saying what is wrong."""
    if not isinstance(d, dict):
        raise error(f"{section} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(d) - {f.name for f in fields})
    if unknown:
        raise error(f"unknown {section} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in d and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"missing {section} keys: {', '.join(missing)}")
    return d


def check_int(section, name, value, low):
    """Raise InvalidConfig unless `value` is an integer (not a bool) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidConfig(f"{section} {name} must be an integer >= {low}, got {value!r}")


def check_real(section, name, value, ok, expected):
    """Raise InvalidConfig unless `value` is a finite real number (not a bool) that a
    float holds, with `ok(value)`; `expected` describes the allowed range."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max or not ok(value)):
        raise InvalidConfig(f"{section} {name} must be {expected}, got {value!r}")
