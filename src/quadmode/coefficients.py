"""Time-dependent Hamiltonian coefficients for a single field mode.

The model Hamiltonian is

    H(t) = a(t) p^2 + b(t) x^2 + c(t) xp - i d(t) - f(t) x - g(t) p

with hbar = 1 and the reference mode frequency scaled to 1.  This module
provides the six coefficient functions as evaluable objects (analytic
presets and sampled tables with cubic interpolation), plus the mapping
from a linear dielectric medium (permittivity xi, permeability eta,
conductivity chi) to an equivalent coefficient set

    a(t) = exp(-Ichi(t)) / (2 xi(t)),   b(t) = upsilon^2 exp(Ichi(t)) / (2 eta(t)),
    Ichi(t) = integral_0^t chi/xi,      c = d = f = g = 0.

Every coefficient object supports value, derivative and logarithmic
derivative evaluation at scalar or array times.  Derivatives are analytic
for presets.  Every sampled function is one type, TableFunction, the
piecewise polynomial on a uniform grid: a table is the cubic spline
through its samples, and its derivative (what a table's `deriv` reads)
and its running integral (a medium's accumulated integral, of a
tabulated chi or of the spline through chi/xi) are tables too.  Each
coefficient also has one scalar read, `fn.scalar`: a function of a float
t with everything it reads bound once, which returns bitwise what `fn(t)`
does.  `fn(t)` at a float goes through it, and the oracles' direct
solves, which read one t at a time, call it without the type dispatch.

A table may hold a column per path (an ensemble chunk's noisy medium
function): its reads, and those of the medium set built on it, have a
leading column axis, while every other function reads without one and
broadcasts.  The paths split apart only through `take`, which slices the
table, the accumulated integral and the set, and solves nothing again.
"""

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (CoefficientEvaluationError, ConfigError, InvalidMediumError, _number,
                     _object)

__all__ = [
    "ConstantFunction",
    "ExponentialFunction",
    "SinusoidFunction",
    "TableFunction",
    "CoefficientSet",
    "MediumProfile",
    "medium_to_hamiltonian",
    "medium_to_hamiltonian_stack",
    "preset_coefficients",
    "function_from_spec",
    "eval_coeffs",
    "COEFFICIENT_NAMES",
]

COEFFICIENT_NAMES = ("a", "b", "c", "d", "f", "g")

# samples of the medium's positivity scan, which also carry the spline of
# chi/xi whose antiderivative is the accumulated integral for a general xi;
# a finer table of the medium can set more (`_scan`)
_SCAN_NODES = 4001


def _as_float_or_array(t):
    # isinstance first: it is the cheap test, and it also takes the
    # np.float64 that integrators pass
    if isinstance(t, float) or np.isscalar(t):
        return float(t)
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class ConstantFunction:
    """Constant coefficient."""

    value: float

    @functools.cached_property
    def scalar(self):
        value = self.value
        return lambda t: value

    def __call__(self, t):
        t = _as_float_or_array(t)
        if isinstance(t, float):
            return self.scalar(t)
        return np.full_like(t, self.value)

    def deriv(self, t):
        t = _as_float_or_array(t)
        if isinstance(t, float):
            return 0.0
        return np.zeros_like(t)

    def log_deriv(self, t):
        return self.deriv(t)  # zero for nonzero constants; unused when value == 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0


@dataclass(frozen=True)
class ExponentialFunction:
    """amplitude * exp(rate * t)."""

    amplitude: float
    rate: float

    @functools.cached_property
    def scalar(self):
        amplitude, rate, exp = self.amplitude, self.rate, np.exp
        return lambda t: amplitude * exp(rate * t)

    def __call__(self, t):
        return self.scalar(_as_float_or_array(t))

    def deriv(self, t):
        return self.rate * self(t)

    def log_deriv(self, t):
        t = _as_float_or_array(t)
        if isinstance(t, float):
            return self.rate
        return np.full_like(t, self.rate)

    @property
    def is_zero(self) -> bool:
        return self.amplitude == 0.0


@dataclass(frozen=True)
class SinusoidFunction:
    """offset + amplitude * sin(frequency * t + phase)."""

    offset: float
    amplitude: float
    frequency: float
    phase: float = 0.0

    @functools.cached_property
    def scalar(self):
        offset, amplitude, frequency, phase, sin = (self.offset, self.amplitude,
                                                    self.frequency, self.phase, np.sin)
        return lambda t: offset + amplitude * sin(frequency * t + phase)

    def __call__(self, t):
        return self.scalar(_as_float_or_array(t))

    def deriv(self, t):
        t = _as_float_or_array(t)
        return self.amplitude * self.frequency * np.cos(self.frequency * t + self.phase)

    def log_deriv(self, t):
        return self.deriv(t) / self(t)

    @property
    def is_zero(self) -> bool:
        return self.offset == 0.0 and self.amplitude == 0.0


def _pick(columns):
    """An index of those columns: one column as a plain index, which drops
    the column axis."""
    return columns[0] if len(columns) == 1 else list(columns)


class _SplineOverflow(ConfigError):
    """Finite table samples whose cubic spline leaves the float range."""


def _uniform_spline(x, y):
    """The cubic spline through samples y (along its first axis) at the
    uniformly spaced times x.  Samples that are not finite, or whose
    spline overflows (slopes or coefficients beyond the float range),
    raise _SplineOverflow.  The one
    use of scipy.interpolate, imported on the first spline: a run of
    analytic or constant coefficients never loads it."""
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 5:
        raise ConfigError("tables need at least 5 samples")
    dx = np.diff(x)
    if not np.allclose(dx, dx[0], rtol=1e-8, atol=1e-12):
        raise ConfigError("table samples must be uniformly spaced")
    with np.errstate(all="ignore"):
        try:
            spline = CubicSpline(x, y)
        except ValueError:  # scipy's check of the solved slopes
            spline = None
    if spline is None or not np.all(np.isfinite(spline.c)):
        raise _SplineOverflow("table values are too large: their cubic spline overflows "
                              "the float range")
    return spline


def _first_outside(t, lo: float, hi: float) -> float | None:
    """The one window rule of every time read: the first entry of t that is
    not finite, or outside [lo, hi] by more than the slack
    1e-9 max(1, |lo|, |hi|) over the finite ends; None when there is none."""
    slack = 1e-9 * max(1.0, *(abs(end) for end in (lo, hi) if math.isfinite(end)))
    # an infinite end is held at the float range's edge: an infinite t fails
    lo, hi = max(lo - slack, -sys.float_info.max), min(hi + slack, sys.float_info.max)
    t = np.asarray(t, dtype=float)
    if not t.size or lo <= t.min() and t.max() <= hi:  # a NaN fails both tests
        return None
    return float(t[~((t >= lo) & (t <= hi))][0])


def _check_inside(t, lo: float, hi: float, name: str = "window",
                  detail: str = "outside configured window") -> None:
    """Raise CoefficientEvaluationError(name) naming the first t that
    breaks the one window rule (_first_outside) against [lo, hi]."""
    bad = _first_outside(t, lo, hi)
    if bad is not None:
        raise CoefficientEvaluationError(name, bad, detail)


def _fd4_derivative_samples(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative at uniformly spaced sample points, along the last
    axis of y (one row per path, say).

    4th-order centered stencil in the interior, 4th-order one-sided stencils
    at the two points nearest each edge.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if not np.iscomplexobj(y):
        y = y.astype(float)
    h = x[1] - x[0]
    y = np.moveaxis(y, -1, 0)  # the samples first: each stencil reads whole rows
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    return np.moveaxis(d, 0, -1)


def _table_samples(times, values):
    """Own copies of a table's times and values (the table keeps the values),
    checked: 1-d times, values with one row per time (and a column per
    path, when 2-d), every sample finite."""
    times = np.array(times, dtype=float)
    values = np.array(values, dtype=float)
    if times.ndim != 1 or values.ndim not in (1, 2) or values.shape[0] != times.size:
        raise ConfigError("table times and values must be 1-d arrays of equal length")
    if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
        raise ConfigError("table samples must be finite")
    return times, values


class TableFunction:
    """The piecewise polynomial of the coefficient layer, on a uniform
    breakpoint grid: a coefficient sampled at uniformly spaced times is the
    cubic spline through the samples, and its derivative (`derivative`,
    piecewise quadratic) and its running integral (`antiderivative`) are
    tables too.  A table's `deriv` reads its spline's own derivative, so a
    table and its derivative agree exactly (a closed form built on the
    values and a characteristic rate built on the derivative describe the
    same medium); it is formed on the first `deriv` or `log_deriv` call,
    since many tables (a noisy chi, say) are never differentiated.  A
    medium's accumulated integral over a tabulated chi is that table's
    running integral.

    It holds the scipy PPoly (`pp`) and the samples it was solved through
    (`values`; None for a derivative or running integral), and has a
    scalar read, `scalar`: Horner's rule over the segment's coefficient
    row in Python floats, in a closure bound to this table's own PPoly and
    rows when it is made.  The oracles read coefficients one t at a time,
    where the generic PPoly call would dominate the runtime.  A segment's
    row is listed on its first scalar read, so a table read only as
    arrays, or only at t = 0, lists none or one.  Reads keep the one
    window rule (_first_outside), and a read inside its slack is clamped
    to the edge.

    Values of shape (n, P) make one table of P columns over the same times
    (an ensemble chunk's noisy paths), trailing columns of one PPoly: one
    spline solve, and reads of shape (P, m), or (P,) at a scalar t, whose
    row p is bitwise the read of column p's own table (`take`, which
    slices columns out without solving again)."""

    def __init__(self, times, values):
        times, values = _table_samples(times, values)
        self._adopt(_uniform_spline(times, values), values)

    @classmethod
    def _of(cls, pp, values=None) -> "TableFunction":
        """The table of the PPoly pp, on uniform breakpoints."""
        out = object.__new__(cls)
        out._adopt(pp, values)
        return out

    def _adopt(self, pp, values) -> None:
        x = pp.x
        self.pp = pp
        self.values = values
        self.times = x
        self.knots = x.tolist()
        self.lo = float(x[0])
        self.hi = float(x[-1])
        self.dx = float(x[1] - x[0])
        self.n = x.size - 1
        self.scalar = self._reader()

    def _reader(self):
        """The scalar read over this table's PPoly: a float at a float t,
        or (P,) with columns."""
        c, knots, dx, n = self.pp.c, self.knots, self.dx, self.n
        rows = {}  # segment -> its coefficient row as a list, on first scalar read
        lo, hi = self.lo, self.hi
        degree = c.shape[0] - 1
        columns = c.ndim == 3

        def scalar(t):
            if not lo <= t <= hi:
                _check_inside(t, lo, hi, "table", "outside sampled window")
                t = min(max(t, lo), hi)
            i = int((t - lo) / dx)  # >= 0, since t >= lo
            if i >= n:
                i = n - 1
            row = rows.get(i)
            if row is None:
                # highest power first; with columns, one array per power
                row = rows[i] = list(c[:, i]) if columns else c[:, i].tolist()
            s = t - knots[i]
            # Horner's rule, unrolled: a cubic, its derivative, or its running integral
            if degree == 3:
                c0, c1, c2, c3 = row
                return ((c0 * s + c1) * s + c2) * s + c3
            if degree == 2:
                c0, c1, c2 = row
                return (c0 * s + c1) * s + c2
            c0, c1, c2, c3, c4 = row
            return (((c0 * s + c1) * s + c2) * s + c3) * s + c4

        return scalar

    @property
    def width(self) -> int | None:
        """The number of columns, or None for a plain table."""
        return self.pp.c.shape[2] if self.pp.c.ndim == 3 else None

    def take(self, columns) -> "TableFunction":
        """The table of those columns (_pick; one column: a plain table),
        sliced out of this one's PPoly, or this one when it has no columns:
        then every column shares it."""
        if self.width is None:
            return self
        pick = _pick(columns)
        c = np.ascontiguousarray(self.pp.c[..., pick])
        return self._of(type(self.pp).construct_fast(c, self.pp.x),
                        None if self.values is None else self.values[:, pick])

    def derivative(self) -> "TableFunction":
        """The derivative, piecewise quadratic (of every column, when it
        has columns)."""
        return self._of(self.pp.derivative())

    def antiderivative(self) -> "TableFunction":
        """Exact running integral, anchored to vanish at t = 0 (at the
        nearest window edge when the window does not contain 0); of every
        column, when it has columns."""
        pp = self.pp.antiderivative()
        pp.c[-1] -= pp(min(max(0.0, self.lo), self.hi))
        return self._of(pp)

    @functools.cached_property
    def _deriv(self) -> "TableFunction":
        return self.derivative()

    def __call__(self, t):
        if isinstance(t, float):
            return self.scalar(t)
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self.scalar(float(t))
        _check_inside(t, self.lo, self.hi, "table", "outside sampled window")
        values = self.pp(np.clip(t, self.lo, self.hi))
        return values if self.pp.c.ndim == 2 else values.T

    def deriv(self, t):
        return self._deriv(t)

    def log_deriv(self, t):
        return self.deriv(t) / self(t)

    @functools.cached_property
    def is_zero(self) -> bool:
        # a piecewise polynomial vanishes exactly when its coefficients do
        return not self.pp.c.any()


class _LinearIntegral:
    """integral_0^t of a constant rate: exact."""

    __slots__ = ("rate", "scalar")

    def __init__(self, rate: float):
        self.rate = rate = float(rate)
        self.scalar = lambda t: rate * t

    def __call__(self, t):
        return self.scalar(_as_float_or_array(t))

    def take(self, columns) -> "_LinearIntegral":
        return self  # no columns: every column shares it


class MediumExponential:
    """scale / base(t) * exp(rate * integral(t)) with an exact logarithmic
    derivative supplied by the medium mapping (the accumulated integral
    never needs to be differentiated numerically).  rate * integral(t) is
    -Ichi(t) or +Ichi(t): the integral is Ichi itself at rate -1 or +1,
    or, over a tabulated chi and a constant xi, chi's running integral at
    rate -1/xi or +1/xi.  One formula, over the scalar reads of base and
    the integral (`scalar`) and over their array reads."""

    def __init__(self, scale: float, base, rate: float, integral, log_deriv_fn):
        self._scale = scale
        self._base = base
        self._rate = rate
        self._integral = integral
        self._log_deriv = log_deriv_fn

    def _formula(self, base, integral, exp):
        scale, rate = self._scale, self._rate
        return lambda t: scale / base(t) * exp(rate * integral(t))

    @functools.cached_property
    def scalar(self):
        def exp(x):
            # np.exp, not math.exp, whose last bit differs for some arguments;
            # an integral with columns reads (P,) here
            growth = np.exp(x)
            return growth if growth.ndim else float(growth)

        return self._formula(self._base.scalar, self._integral.scalar, exp)

    @functools.cached_property
    def _read(self):
        return self._formula(self._base, self._integral, np.exp)

    def __call__(self, t):
        t = _as_float_or_array(t)
        return (self.scalar if isinstance(t, float) else self._read)(t)

    def deriv(self, t):
        return self(t) * self.log_deriv(t)

    def log_deriv(self, t):
        return self._log_deriv(_as_float_or_array(t))

    @property
    def is_zero(self) -> bool:
        return False


@dataclass(frozen=True)
class MediumProfile:
    """Linear dielectric medium: permittivity xi, permeability eta,
    conductivity chi, mode frequency parameter upsilon, and the two constant
    field amplitude scales (magnetic and displacement).  The three scalars
    must be positive finite numbers; errors name them by their config path
    (coefficients.medium.<name>)."""

    xi: object
    eta: object
    chi: object
    upsilon: float = 1.0
    field_scale_omega: float = 1.0
    field_scale_varpi: float = 1.0

    def __post_init__(self):
        for name in ("upsilon", "field_scale_omega", "field_scale_varpi"):
            value = _number(getattr(self, name), f"coefficients.medium.{name}", 0.0, strict=True)
            object.__setattr__(self, name, value)
        if not math.isfinite(self.upsilon * self.upsilon):  # 4 sigma and b read its square
            raise ConfigError(f"{self.upsilon:g} squared overflows the float range",
                              field="coefficients.medium.upsilon")

    def _tables(self) -> dict:
        """Its functions that are tables with columns, by name."""
        return {name: fn for name, fn in (("xi", self.xi), ("eta", self.eta), ("chi", self.chi))
                if isinstance(fn, TableFunction) and fn.width}

    @property
    def width(self) -> int | None:
        """The number of columns of its tables with columns (an ensemble
        chunk's noisy target), or None."""
        return next((fn.width for fn in self._tables().values()), None)

    def take(self, columns) -> "MediumProfile":
        """This profile over those columns of its tables (_pick)."""
        return replace(self, **{name: fn.take(columns) for name, fn in self._tables().items()})


@dataclass(frozen=True)
class CoefficientSet:
    """The six coefficient functions of the quadratic Hamiltonian, with the
    time window they are valid on.  `medium` is set when the coefficients
    were derived from a MediumProfile (enables exact shortcuts downstream)."""

    a: object
    b: object
    c: object
    d: object
    f: object
    g: object
    window: tuple = (0.0, math.inf)
    medium: MediumProfile | None = field(default=None, compare=False)

    def functions(self):
        return (self.a, self.b, self.c, self.d, self.f, self.g)

    @property
    def width(self) -> int | None:
        """The number of columns of the set's reads (its medium's), or None
        for a plain set."""
        return None if self.medium is None else self.medium.width

    def take(self, columns) -> "CoefficientSet":
        """A medium set over those of its columns (one column: a plain
        set), from slices of its medium's tables and of its accumulated
        integral; nothing is solved again."""
        return _medium_set(self.medium.take(columns), self.a._integral.take(columns),
                           self.b._rate, self.window[1])

    @property
    def driven(self) -> bool:
        """True when the linear (force) terms f, g are not identically zero."""
        return not (self.f.is_zero and self.g.is_zero)


def eval_coeffs(cs: CoefficientSet, t, names=COEFFICIENT_NAMES):
    """Evaluate the named coefficients (all six by default, in that order)
    at scalar or array time; a read of a set's columns has a leading
    column axis.

    Raises CoefficientEvaluationError when t breaks the one window rule
    against the set's window (_check_inside) or any coefficient read comes
    back non-finite.
    """
    _check_inside(t, *cs.window)
    out = []
    for name in names:
        with np.errstate(over="ignore", invalid="ignore"):
            val = getattr(cs, name)(t)
        if not np.all(np.isfinite(val)):
            bad = float(t) if np.isscalar(t) else float(
                np.broadcast_to(np.asarray(t), np.shape(val))[~np.isfinite(val)][0])
            raise CoefficientEvaluationError(name, bad)
        out.append(val)
    return tuple(out)


_ZERO = ConstantFunction(0.0)


def medium_to_hamiltonian(profile: MediumProfile, t_max: float) -> CoefficientSet:
    """Map a medium profile without columns to the equivalent Hamiltonian
    coefficients (medium_to_hamiltonian_stack of one), or raise its error."""
    cs, (error,) = medium_to_hamiltonian_stack(profile, t_max)
    if error is not None:
        raise error
    return cs


def medium_to_hamiltonian_stack(profile: MediumProfile, t_max: float) -> tuple:
    """Map a medium profile to its equivalent Hamiltonian coefficients,
    column by column when its tables have columns (an ensemble chunk's
    noisy target, one per path): (cs, errors).  errors holds, per column
    (one entry for a profile without columns), None or the error that
    column's own mapping raises: InvalidMediumError when its xi or eta is
    not positive (a NaN is not), CoefficientEvaluationError naming chi
    when its chi/xi on the samples its integral is built from, or the
    spline through them, leaves the float range.  cs is the set over the
    columns without an error (the profile's take of them), or None when
    there are none.  Only a bad window (a t_max that is not positive and
    finite, or one past a table's samples) raises.

    Positivity of xi and eta is checked before any oscillator work starts,
    on a uniform scan of [0, t_max] (`_scan`: 4001 samples, or the knots of
    a finer table from 0 whose spacing divides t_max) and, for a tabulated
    xi or eta, on a 4x refinement of its knots inside [0, t_max], so a
    sample between scan points counts at any table density.  The
    accumulated integral Ichi = int_0^t chi/xi is exact where the
    structure allows: linear for constant chi and xi (chi/xi judged at its
    one value), the antiderivative of chi's own spline for a tabulated chi
    over a constant xi (judged at chi's knots inside [0, t_max]).  Any
    other medium takes the antiderivative of the cubic spline through
    chi/xi on the scan, whose error is that of the interpolant (O(h^4), h
    the scan's spacing).

    One scan serves every column, and the integral has a column per column
    of chi/xi (none when chi/xi has none: every column shares it), from
    one antiderivative or one spline solve.  Each column's set and error
    are bitwise those of that column mapped alone.
    """
    t_max = _number(t_max, "grid.t_max", 0.0, strict=True)
    count = profile.width or 1
    xi, eta, chi = profile.xi, profile.eta, profile.chi
    scan = _scan(profile, t_max)
    xi_s = xi(scan)
    # chi is free to dip negative (transient gain); only the structural
    # functions xi, eta are required to stay positive
    t_bad = _first_nonpositive(scan, xi_s, eta(scan), count)
    for fn in (xi, eta):
        if isinstance(fn, TableFunction):
            fine = np.linspace(fn.times[0], fn.times[-1], 4 * (fn.times.size - 1) + 1)
            fine = fine[(fine >= 0.0) & (fine <= t_max)]
            if fine.size:
                t_bad = np.minimum(t_bad, _first_nonpositive(fine, xi(fine), eta(fine), count))
    errors = [None if t == math.inf else
              InvalidMediumError("xi and eta must stay positive", t=float(t)) for t in t_bad]
    good = [p for p, error in enumerate(errors) if error is None]
    if not good:
        return None, errors
    kept = profile
    if len(good) < count:
        kept = profile.take(good)
        xi, chi = kept.xi, kept.chi
        if np.ndim(xi_s) == 2:
            xi_s = xi_s[_pick(good)]

    # chi/xi on the samples its integral is built from: its one value, the
    # knots of a tabulated chi inside [0, t_max], or the scan
    per_xi = 1.0  # the integral's rate in b's exponent
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(xi, ConstantFunction) and isinstance(chi, ConstantFunction):
            samples, ratio = np.zeros(1), chi.value / xi.value
            integral = _LinearIntegral(ratio)
        elif isinstance(xi, ConstantFunction) and isinstance(chi, TableFunction):
            integral, per_xi = chi.antiderivative(), 1.0 / xi.value
            inside = (chi.times >= 0.0) & (chi.times <= t_max)
            samples, ratio = chi.times[inside], chi.values[inside].T * per_xi
        else:
            samples, ratio = scan, chi(scan) / xi_s
    try:
        if not np.isfinite(ratio).all():
            raise _SplineOverflow("chi/xi is not finite")
        if samples is scan:
            integral = TableFunction._of(_uniform_spline(scan, ratio.T)).antiderivative()
    except _SplineOverflow:
        # a column past the float range: each column alone, so each
        # meets its own error, and the rest map again together
        for p, row in zip(good, np.broadcast_to(ratio, (len(good), samples.size))):
            where = _overflow(samples, row, spline=samples is scan)
            if where is not None:
                errors[p] = CoefficientEvaluationError("chi", *where)
        rest = [p for p in good if errors[p] is None]
        return (medium_to_hamiltonian_stack(profile.take(rest), t_max)[0] if rest
                else None), errors
    return _medium_set(kept, integral, per_xi, t_max), errors


def _scan(profile: MediumProfile, t_max: float) -> np.ndarray:
    """The uniform samples of [0, t_max] that positivity and a spline
    integral read: _SCAN_NODES of them, or the knots of a finer table of
    the profile that starts at 0 and whose spacing divides t_max (the
    finest such table), so that the spline through chi/xi meets every one
    of its knots."""
    nodes = _SCAN_NODES
    for fn in (profile.xi, profile.eta, profile.chi):
        if isinstance(fn, TableFunction) and fn.lo == 0.0:
            steps = round(t_max / fn.dx)  # divides t_max to rounding, as a run grid's does
            if steps >= nodes and math.isclose(steps * fn.dx, t_max, rel_tol=1e-12):
                nodes = steps + 1
    return np.linspace(0.0, t_max, nodes)


def _overflow(samples, row, spline: bool):
    """Where one column's chi/xi on its samples is not finite or, when its
    integral is the spline through them (`spline`), that spline leaves the
    float range, as the (t, detail) of its CoefficientEvaluationError; None
    when neither does."""
    finite = np.isfinite(row)
    if not finite.all():
        return float(samples[np.argmin(finite)]), "chi/xi is not finite"
    if spline:
        try:
            _uniform_spline(samples, row)
        except _SplineOverflow:
            return float(samples[np.argmax(np.abs(row))]), "its spline overflows the float range"
    return None


def _first_nonpositive(times, xi_values, eta_values, count: int) -> np.ndarray:
    """Per column (count of them), the first of the increasing `times`
    where its xi or eta is not positive (NaN included), or inf."""
    bad = ~(xi_values > 0.0) | ~(eta_values > 0.0)
    if not bad.any():
        return np.full(count, math.inf)
    bad = np.broadcast_to(bad, (count, times.size))
    return np.where(bad.any(axis=1), times[bad.argmax(axis=1)], math.inf)


def _medium_set(profile: MediumProfile, integral, per_xi: float,
                t_max: float) -> CoefficientSet:
    """The medium's coefficient set over its accumulated integral, Ichi =
    per_xi * integral: a's exponent reads the integral at rate -per_xi, b's
    at +per_xi.  Negation is exact, so each read is bitwise the integral
    scaled by per_xi first; per_xi is 1 but for a tabulated chi over a
    constant xi, whose integral is chi's own.

    Both log-derivatives read Ichi' as chi/xi, exact in the tables, but
    over a tabulated xi as the derivative of the scan spline that the
    integral is, so that the core's tau is the log-derivative of the a(t)
    that the assembly, the checks and the oracle read: a noisy xi's knots
    between scan points part the spline from chi/xi by far more than the
    tolerances."""
    xi, eta, chi = profile.xi, profile.eta, profile.chi
    if isinstance(xi, TableFunction):
        rate = integral.derivative()
        a_log, b_log = (lambda t: -(rate(t) + xi.deriv(t) / xi(t)),
                        lambda t: rate(t) - eta.deriv(t) / eta(t))
    else:
        a_log, b_log = (lambda t: -(chi(t) + xi.deriv(t)) / xi(t),
                        lambda t: chi(t) / xi(t) - eta.deriv(t) / eta(t))
    a_fn = MediumExponential(0.5, xi, -per_xi, integral, a_log)
    b_fn = MediumExponential(0.5 * profile.upsilon**2, eta, per_xi, integral, b_log)
    return CoefficientSet(a_fn, b_fn, _ZERO, _ZERO, _ZERO, _ZERO,
                          window=(0.0, t_max), medium=profile)


# ---------------------------------------------------------------------------
# presets and config parsing

# preset name -> its params and their defaults
_PRESET_PARAMS = {
    "static_oscillator": {},
    "free_particle": {},
    "caldirola_kanai": {"rate": 1.0},
    "parametric": {"depth": 0.1, "frequency": 2.0},
    "driven": {"force": 1.0},
    "constant": dict.fromkeys(COEFFICIENT_NAMES, 0.0),
}


def preset_coefficients(name: str, **params) -> CoefficientSet:
    """Named analytic coefficient families.

    static_oscillator        a = b = 1/2
    free_particle            a = 1/2, rest 0
    caldirola_kanai          a = exp(-2kt)/2, b = exp(2kt)/2      (rate k)
    parametric               a = 1/2, b = (1 + m sin(w t))/2      (depth m, frequency w)
    driven                   static oscillator + constant force f
    constant                 all six given explicitly

    A param the preset does not take, or one that is not a finite number,
    raises ConfigError naming coefficients.params.<key>.
    """
    if not isinstance(name, str) or name not in _PRESET_PARAMS:
        raise ConfigError(f"unknown preset {name!r}", field="coefficients.preset")
    p = dict(_PRESET_PARAMS[name])
    for key, v in _object(params, "coefficients.params", p).items():
        p[key] = _number(v, f"coefficients.params.{key}")
    half = ConstantFunction(0.5)
    zero = ConstantFunction(0.0)
    if name == "static_oscillator":
        return CoefficientSet(half, half, zero, zero, zero, zero)
    if name == "free_particle":
        return CoefficientSet(half, zero, zero, zero, zero, zero)
    if name == "caldirola_kanai":
        k = p["rate"]
        return CoefficientSet(
            ExponentialFunction(0.5, -2.0 * k),
            ExponentialFunction(0.5, +2.0 * k),
            zero, zero, zero, zero,
        )
    if name == "parametric":
        m, w = p["depth"], p["frequency"]
        return CoefficientSet(half, SinusoidFunction(0.5, 0.5 * m, w), zero, zero, zero, zero)
    if name == "driven":
        return CoefficientSet(half, half, zero, zero, ConstantFunction(p["force"]), zero)
    # constant
    if p["a"] == 0.0:
        raise ConfigError("preset 'constant' needs a != 0", field="coefficients.params.a")
    return CoefficientSet(*[ConstantFunction(p[k]) for k in COEFFICIENT_NAMES])


# function spec kind -> (its type, its fields with their defaults; None
# marks a required field)
_SPEC_FIELDS = {
    "constant": (ConstantFunction, {"value": None}),
    "exponential": (ExponentialFunction, {"amplitude": None, "rate": None}),
    "sinusoid": (SinusoidFunction, {"offset": 0.0, "amplitude": None,
                                    "frequency": None, "phase": 0.0}),
    "table": (TableFunction, {"times": None, "values": None}),
}


def _samples(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError("table samples must be an array of numbers", field=where)
    return [_number(v, where) for v in value]


def function_from_spec(spec: dict, where: str = "coefficients") -> object:
    """Build a coefficient function from its JSON description: a `kind` and
    exactly the fields that kind takes (_SPEC_FIELDS).  Each scalar, and
    each table sample, must be a finite number.  Errors name the offending
    entry under `where`; a table whose samples are too few or unevenly
    spaced names `where` itself."""
    kind = _object(spec, where, None, ("kind",))["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise ConfigError(f"unknown function kind {kind!r}", field=f"{where}.kind")
    cls, spec_fields = _SPEC_FIELDS[kind]
    _object(spec, where, ("kind", *spec_fields),
            [key for key, default in spec_fields.items() if default is None])
    if cls is TableFunction:
        times, values = _samples(spec["times"], where), _samples(spec["values"], where)
        try:
            return TableFunction(times, values)
        except ConfigError as exc:  # unequal lengths, too few samples, uneven spacing
            raise ConfigError(str(exc), field=where) from exc
    return cls(**{key: _number(spec.get(key, default), f"{where}.{key}")
                  for key, default in spec_fields.items()})
