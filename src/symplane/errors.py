"""Exception types raised across the package, and the one numeric-input rule."""

import numpy as np


class FormatError(ValueError):
    """A text input (curve, density, map, or spec file) is malformed."""


class ValidationError(ValueError):
    """A value violates a structural invariant of its type."""


class GenericityError(ValueError):
    """An operation requiring a certified-generic curve got something else."""


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a construction bug."""


class RealizationError(ValueError):
    """A requested area vector cannot be realized with the given base form."""


def require_positive(what, value):
    """value, if it (every entry of an array) is finite and positive; else ValidationError.

    NaN fails every comparison, so a bare `value <= 0` test would let it through.
    """
    v = np.asarray(value, dtype=float)
    if not np.all((v > 0) & (v < np.inf)):
        raise ValidationError(f"{what} must be finite and positive")
    return value
