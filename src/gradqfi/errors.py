"""Exception hierarchy.

Everything raised on purpose by this package derives from GradQfiError.
Input-validation errors (bad arguments, out-of-range sizes) are distinct
from computation errors (a requested quantity does not exist for the
given inputs); the CLI maps the former to exit code 2 and the latter to 1.
"""


class GradQfiError(Exception):
    """Base class for all errors raised by gradqfi."""


# ----- input validation -------------------------------------------------


class ValidationError(GradQfiError):
    """Bad or out-of-range input; the message names the offending field."""


class EmptyChain(ValidationError):
    """A chain needs at least one qubit."""


class NonFiniteCoordinate(ValidationError):
    """A position, reference point, or parameter is nan or infinite."""


class LengthMismatch(ValidationError):
    """Bitstring / state qubit count differs from the chain size."""


class OutOfRange(ValidationError):
    """A numeric argument violates its documented range."""


class InvalidProfile(ValidationError):
    """Field profile is malformed or does not vanish at the origin."""


class NonNormalizedState(ValidationError):
    """State terms do not form a unit vector / unit-trace mixture."""


class SupportTooLarge(ValidationError):
    """Sparse support exceeds the cap for the requested operation."""


class DimensionTooLarge(ValidationError):
    """Qubit count exceeds the cap for dense 2^n work."""


class NegativeTime(ValidationError):
    """Evolution / noise time must be >= 0."""


class ZeroTrajectories(ValidationError):
    """Monte Carlo ensembles need at least one trajectory."""


class SearchSpaceTooLarge(ValidationError):
    """Brute-force placement search limits exceeded."""


# ----- computation errors ------------------------------------------------


class ComputationError(GradQfiError):
    """The requested quantity is undefined or unreachable for these inputs."""


class FlatResponse(ComputationError):
    """Observable has (numerically) zero sensitivity to the gradient."""


class DegenerateGeometry(ComputationError):
    """A geometric sum the formula divides by (or takes a log of) vanishes."""


class NoNoise(ComputationError):
    """A noise-limited quantity was requested with zero noise strength."""


class SpectrumNotPositive(ComputationError):
    """A density matrix came out with a meaningfully negative eigenvalue."""


class NumericOverflow(ComputationError):
    """A result overflows float64 for these inputs (the message names n and the quantity)."""


class SelfCheckFailed(ComputationError):
    """An internal cross-check of a result against its closed form failed."""


class OutputError(ComputationError):
    """An output file could not be written."""
