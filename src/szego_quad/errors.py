"""Exception hierarchy; every failure mode carries a stable machine-readable code."""

from __future__ import annotations


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
