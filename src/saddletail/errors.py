"""Exception hierarchy.

Everything raised on purpose by this package derives from SaddleTailError,
so callers can distinguish our failures from plain bugs.  InvalidInput,
for arguments that fail a documented check, is also a ValueError.  The CLI
maps the input errors (ConfigError, DegenerateDelta, SeedRequired,
BetaOutOfRange, InvalidInput) to exit code 2 and every other
SaddleTailError to 3; anything else is a bug and propagates.
"""


class SaddleTailError(Exception):
    """Base class for all errors raised by saddletail."""


class ConfigError(SaddleTailError):
    """Bad or inconsistent run configuration."""


class InvalidInput(SaddleTailError, ValueError):
    """An argument fails a documented check (range, shape, finiteness)."""


class DegenerateDelta(SaddleTailError):
    """a2*b0 - a0*b2 is (numerically) zero; the saddle normal form degenerates."""


class NonIntegrable(SaddleTailError):
    """The reduced time integral diverges for these coefficients."""


class StepLimitExceeded(SaddleTailError):
    """Integrator hit max_steps, or the step size underflowed."""


class LeftDomain(SaddleTailError):
    """Trajectory left the configured bounding box."""


class BracketFailure(SaddleTailError):
    """A monotone root bracket could not be established."""


class NotConverged(SaddleTailError):
    """An adaptive approximation reached its size cap short of its tolerance."""


class DiagonalNotReached(SaddleTailError):
    """Orbit failed to cross the diagonal x = y within the step budget."""


class SeedRequired(SaddleTailError):
    """Monte Carlo estimators refuse to run without an explicit seed."""


class NonMonotoneInput(SaddleTailError):
    """A tail table that should be non-increasing is not."""


class InsufficientData(SaddleTailError):
    """Not enough grid points inside the requested fit range."""


class IllConditioned(SaddleTailError):
    """Least-squares design matrix is numerically rank deficient."""


class BetaOutOfRange(SaddleTailError):
    """Tail index outside the interval where the formula applies."""
