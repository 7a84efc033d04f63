"""Exception types shared across the package, and the one rule each for a
number and an object read from a config.

Every failure that maps to a CLI exit code derives from QuadmodeError so the
command layer can distinguish configuration problems (ConfigError, exit 2)
from numerical ones (everything else, exit 3).

Every number a scenario file gives is checked once, by the type that holds
it, through `_number`: a real number (an integer where one is due), never a
boolean, finite, and inside its bounds.  Every object it gives is checked
once, through `_object`: a JSON object, holding only its own keys and
every key it requires.  A value that breaks either rule raises ConfigError
naming the dotted config path of the offending entry.
"""

import copyreg
import math
import numbers

_N_LIMIT = 2**52  # a number-state index n below this keeps n + 1/2 exact in a float


class QuadmodeError(RuntimeError):
    """Base class for all package-specific failures; `t` is the failure time if known."""

    def __init__(self, message: str, t: float | None = None):
        self.t = t
        super().__init__(message)

    def __reduce__(self):
        # a subclass's __init__ may take other arguments than `args` (the
        # message alone): unpickling rebuilds through __new__ and restores
        # the attributes (`t`, `field`, `name`)
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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
    not a boolean, finite, >= low (> low when `strict`) and < below (an
    integer's bound; a value past it with more digits is named by its digit
    count).  The numbers ABCs admit numpy scalars, so library callers may
    pass those."""
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
        size = int(value.bit_length() * math.log10(2.0)) + 1
        size -= value < 10 ** (size - 1)  # its digits, with no str(): Python refuses > 4,300
        shown = value if size <= len(str(below)) else f"an integer of {size} digits"
        raise ConfigError(f"must be < {below}, got {shown}", field=field)
    return value


def _object(obj, where: str, allowed, required=()) -> dict:
    """`obj`, or ConfigError naming the first fault: `where` when it is not
    a dict (a JSON object), `where.k` for the first key k (sorted) outside
    `allowed`, then `where.k` for the first `required` key k it lacks.
    `allowed=None` takes any key: the caller judges the rest once the keys
    that decide them (a function's kind, a coefficient source) are read."""
    if not isinstance(obj, dict):
        raise ConfigError("must be an object", field=where)
    extra = [] if allowed is None else sorted(set(obj) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key {extra[0]!r}", field=f"{where}.{extra[0]}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError("is required", field=f"{where}.{missing[0]}")
    return obj


class CoefficientEvaluationError(QuadmodeError):
    """A coefficient function produced a non-finite value or was evaluated
    outside its window.  Carries the coefficient name and the time."""

    def __init__(self, name: str, t: float, detail: str = "non-finite value"):
        self.name = name
        super().__init__(f"coefficient {name!r} at t={t!r}: {detail}", t=t)


class SingularCoefficientError(QuadmodeError):
    """The kinetic coefficient a cannot start the characteristic equation:
    a is identically zero (no `t`), or a(0) is zero or not finite
    (t = 0)."""


class InvalidMediumError(QuadmodeError):
    """Medium profile violates positivity (xi or eta non-positive) somewhere
    on the requested window.  `t` is the first checked time where it does
    (medium_to_hamiltonian: the scan and any table's refined knots)."""


class StiffnessError(QuadmodeError):
    """Step-size control failed.  In the core's refinement the message
    names the limit that stopped it (the step cap, the smallest step, or
    the pass cap), and `t` is the left edge of the first rejected step; in
    a direct solve, `t` is where that solve stopped."""


class BlowUpError(QuadmodeError):
    """A solution left its domain of validity.  From the direct integration
    of the nonlinear auxiliary system: beta through zero or a state past
    the overflow guard, `t` the end of the step that left it.  From the
    core's overflow guard: the characteristic solution past the guard, `t`
    the last good node."""


class PathRejectedError(QuadmodeError):
    """A stochastic path violated medium positivity even after the resample
    budget was spent.  `t` is the InvalidMediumError time of its last draw:
    the first checked time where that draw's xi or eta is nonpositive."""


class EnsembleError(QuadmodeError):
    """The ensemble summary cannot be trusted.  Either too many stochastic
    paths failed: the message names the first failure's class and path,
    and `t` is that failure's time.  Or a summary entry (a mean or a
    standard error) is not finite: the message names the observable, and
    `t` is the first grid time where one is not."""
