"""Exception types shared across the package.

Every error that can surface through the CLI carries a short stable
``code`` so reports and exit statuses stay machine-checkable.
"""

from __future__ import annotations


class ShadowspecError(Exception):
    """Base class for all package errors."""

    code = "error"


class MalformedPointError(ShadowspecError):
    """A point does not belong to the system it was used with."""

    code = "malformed-point"


class NotHyperbolicError(ShadowspecError):
    """A toral matrix has (or may have) an eigenvalue of modulus one."""

    code = "not-hyperbolic"


class NotTransitiveError(ShadowspecError):
    """The transition structure is reducible, so no mixing schedule exists."""

    code = "not-transitive"


class UnsupportedSystemError(ShadowspecError):
    """The requested operation is not defined for this system kind."""

    code = "unsupported-system"


class CalibrationError(ShadowspecError):
    """A pseudo-orbit is coarser than the tolerance the caller promised."""

    code = "calibration-violated"


class BudgetExceededError(ShadowspecError):
    """A configured size budget (cover cells, orbit cache) was exceeded."""

    code = "budget-exceeded"


class HorizonError(ShadowspecError):
    """A bounded search ran out of steps before finding a witness."""

    code = "horizon-exceeded"


class EmptyInputError(ShadowspecError):
    """An operation that needs at least one element received none."""

    code = "empty-input"


class NotRelatedError(ShadowspecError):
    """Two orbits admit no connecting point (unreachable symbol classes)."""

    code = "not-related"


class InternalInvariantError(ShadowspecError):
    """A condition the implementation guarantees internally failed."""

    code = "internal-invariant"


class SchemaMismatchError(ShadowspecError):
    """A report record does not match the schema or system it is replayed against."""

    code = "schema-mismatch"


class ConfigError(ShadowspecError):
    """A config file could not be parsed or validated.

    ``code`` is one of ``config-syntax``, ``config-unknown-key``,
    ``config-invalid-value`` or ``config-invariant``; ``line`` is the
    1-based line number the problem was found on (0 when not tied to a
    single line).
    """

    def __init__(self, code: str, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.code = code
        self.line = line
