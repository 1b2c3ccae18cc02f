"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
generic ValueError/TypeError are reserved for plain programming mistakes.
"""


class SimraError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SimraError):
    """An argument is outside the mathematical domain of the operation."""


class SchemaError(SimraError):
    """A configuration document does not match the expected schema."""


class NoSignChange(SimraError):
    """A root-isolation interval does not isolate (no strict sign change,
    an endpoint is a root, or the interval holds more than one root)."""


class NotSquareFree(SimraError):
    """The polynomial has a repeated root inside the isolating interval."""


class PrecisionCapExceeded(SimraError):
    """Refinement would need more working precision than SIMRA_PRECISION_CAP
    allows, or the value is data-limited (saturated) above the requested radius."""


class ZeroPoint(SimraError):
    """The zero vector was passed where a nonzero integer point is required."""


class TieUnresolved(SimraError):
    """Two candidate approximation errors stayed indistinguishable at the
    precision cap (SIMRA_PRECISION_CAP).  Signals either an insufficient cap
    or coordinates that are not linearly independent over the rationals."""


class DependentCoordinates(SimraError):
    """An exactly-zero (or saturated, zero-containing) approximation error was
    found: the target coordinates admit an integer linear relation."""


class EmptySet(SimraError):
    """No nonzero member of the approximation set exists in the search range."""


class BeyondCertifiedRange(SimraError):
    """A query lies past the range the enumeration has certified."""


class AmbientMismatch(SimraError):
    """Vectors of different ambient dimension were combined."""


class InsufficientData(SimraError):
    """The available sequence is too short to certify a maximality property."""


class LevelOutOfRange(SimraError):
    """A level index k lies outside the valid range for the construction."""


class TooFewPoints(SimraError):
    """Not enough sequence entries in the requested window."""


class PropertyViolated(SimraError):
    """A minimal-point sequence fails one of the properties (a)-(c) or the
    start convention when re-verified."""


class SandwichViolated(SimraError):
    """A profile bound failed against the computed envelope.

    Attributes:
        witness: the abscissa X of the violation (Fraction or RigorousReal).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DomainTooShort(SimraError):
    """The certified range is too short to run the requested check."""
