"""Exception hierarchy; every failure mode carries a stable machine-readable code.

checked_int is the one conversion of every integer argument (a degree, order
or count) of the public API.
"""

from __future__ import annotations

import operator


def checked_int(value, name, lo=None, hi=None):
    """value as an int by operator.index, so a float raises TypeError and a numpy
    integer passes, then checked against the inclusive range lo..hi (None: open)."""
    value = operator.index(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        lo, hi = ("" if end is None else end for end in (lo, hi))
        raise ValueError(f"{name} = {value} outside {lo}..{hi}")
    return value


class SzegoQuadError(Exception):
    """Base class for all library errors.

    The class attribute ``code`` is the machine-readable identifier emitted by
    the CLI; ``detail`` holds structured context (offending index, magnitude,
    and so on) for the error JSON.
    """

    code = "SzegoQuadError"

    def __init__(self, message, **detail):
        super().__init__(message)
        self.detail = detail


class SchurOutOfDisk(SzegoQuadError):
    code = "SchurOutOfDisk"


class NotPositiveDefinite(SzegoQuadError):
    code = "NotPositiveDefinite"


class IntegrationResolution(SzegoQuadError):
    code = "IntegrationResolution"


class MomentRangeExceeded(SzegoQuadError):
    code = "MomentRangeExceeded"


class ModulusMismatch(SzegoQuadError):
    code = "ModulusMismatch"


class OffCircle(SzegoQuadError):
    code = "OffCircle"


class ZeroCountMismatch(SzegoQuadError):
    code = "ZeroCountMismatch"


class ZeroCoefficient(SzegoQuadError):
    code = "ZeroCoefficient"


class PhaseLeak(SzegoQuadError):
    code = "PhaseLeak"


class ConfigError(SzegoQuadError):
    code = "ConfigError"
