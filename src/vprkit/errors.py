"""Exception and warning types shared across the package."""

from __future__ import annotations


class VprError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(VprError):
    """An array has the wrong rank, dtype, or dimensions for the operation."""


class DegenerateInputError(VprError):
    """Input is structurally valid but numerically degenerate (zero vector, empty index)."""


class FormatError(VprError):
    """A file or stream does not conform to the expected on-disk format."""


class ConfigError(VprError):
    """A configuration value violates the documented constraints."""


class FrameMismatchError(VprError):
    """Two geotags use different coordinate frames and no conversion is defined."""


class EmptyGroundTruthWarning(UserWarning):
    """Loss was requested for an empty ground-truth match set."""
