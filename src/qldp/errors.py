"""Exception types and the scalar input checks shared across the package."""

import math
import sys

# The largest eps whose e^eps is a finite double.
MAX_EPSILON = math.log(sys.float_info.max)


class ValidationError(ValueError):
    """Input violates a structural invariant (shape, hermiticity, trace, ...)."""


class DomainError(ValueError):
    """A scalar function was applied outside its domain (e.g. log of a singular state)."""


class SupportMismatchError(ValueError):
    """States or distributions that must share support do not."""


class PrivacyViolationError(ValueError):
    """A mechanism fails the privacy audit it declares."""


class ExistenceError(ValueError):
    """Requested frame parameters fall outside the known existence region."""


def require_epsilon(epsilon: float) -> None:
    """Reject a privacy level that is not positive with a finite e^eps (NaN included)."""
    if not 0.0 < epsilon <= MAX_EPSILON:
        raise ValidationError(f"privacy level must be positive and at most {MAX_EPSILON:.6f}, got {epsilon}")


def require_inputs(n: int) -> None:
    """Reject an input alphabet of fewer than two letters."""
    if n < 2:
        raise ValidationError(f"need at least two inputs (n >= 2), got n={n}")


def require_eta(eta: float) -> None:
    """Reject a mixing weight outside (0, 1] (NaN included)."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError("eta must lie in (0, 1]")
