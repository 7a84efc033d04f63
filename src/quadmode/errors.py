"""Exception types shared across the package.

Every failure that maps to a CLI exit code derives from QuadmodeError so the
command layer can distinguish configuration problems (ConfigError, exit 2)
from numerical ones (everything else, exit 3).
"""


class QuadmodeError(RuntimeError):
    """Base class for all package-specific failures."""


class ConfigError(QuadmodeError):
    """Malformed or inconsistent run configuration.

    `field` holds the dotted path of the offending entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class CoefficientEvaluationError(QuadmodeError):
    """A coefficient function produced a non-finite value or was evaluated
    outside its window.  Carries the coefficient name and the time."""

    def __init__(self, name: str, t: float, detail: str = "non-finite value"):
        self.name = name
        self.t = t
        super().__init__(f"coefficient {name!r} at t={t!r}: {detail}")


class SingularCoefficientError(QuadmodeError):
    """A structurally required coefficient vanished (a(t) = 0, or d(t) = 0
    for a not-identically-zero d) at a grid point."""


class InvalidMediumError(QuadmodeError):
    """Medium profile violates positivity (xi or eta non-positive) somewhere
    on the requested window."""


class StiffnessError(QuadmodeError):
    """Adaptive step-size control failed (step underflow).  `t` is the last
    time reached."""

    def __init__(self, message: str, t: float | None = None):
        self.t = t
        super().__init__(message)


class BlowUpError(QuadmodeError):
    """Direct integration of the nonlinear auxiliary system left the domain
    of validity (beta through zero or non-finite state).  `t` is the last
    good time."""

    def __init__(self, message: str, t: float | None = None):
        self.t = t
        super().__init__(message)


class PathRejectedError(QuadmodeError):
    """A stochastic path violated medium positivity even after the resample
    budget was spent."""


class EnsembleError(QuadmodeError):
    """Too many stochastic paths failed for the ensemble summary to be
    trustworthy."""
