"""Exception types shared across the package, and the one rule for a number
read from a config.

Every failure that maps to a CLI exit code derives from QuadmodeError so the
command layer can distinguish configuration problems (ConfigError, exit 2)
from numerical ones (everything else, exit 3).

Every number a scenario file gives is checked once, by the type that holds
it, through `_number`: a real number (an integer where one is due), never a
boolean, finite, and inside its bounds.  A value that breaks the rule,
and a key an object does not take (`_only_keys`), raise ConfigError naming
the dotted config path of the offending entry.
"""

import math
import numbers


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


def _number(value, field: str, low: float | None = None, strict: bool = False,
            integer: bool = False, below: int | None = None):
    """`value` as a float (an int when `integer`), or ConfigError naming
    `field`.  It must be a real number (an integral one when `integer`),
    not a boolean, finite, >= low (> low when `strict`) and < below.  The
    numbers ABCs admit numpy scalars, so library callers may pass those."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}", field=field)
    if integer:
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"must be finite, got {value!r}", field=field)
    if low is not None and (value <= low if strict else value < low):
        raise ConfigError(f"must be {'>' if strict else '>='} {low:g}, got {value!r}",
                          field=field)
    if below is not None and value >= below:
        raise ConfigError(f"must be < {below}, got {value!r}", field=field)
    return value


def _only_keys(obj: dict, allowed, where: str):
    """ConfigError naming the first key of `obj` (sorted) outside `allowed`."""
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key {extra[0]!r}", field=f"{where}.{extra[0]}")


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
