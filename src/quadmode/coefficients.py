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
for presets and 4th-order centered finite differences (one-sided at the
window edges) for tables.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .errors import (CoefficientEvaluationError, ConfigError, InvalidMediumError, _number,
                     _only_keys)

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
# chi/xi whose antiderivative is the accumulated integral for a general xi
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

    def __call__(self, t):
        if isinstance(t, float):
            return self.value
        t = _as_float_or_array(t)
        if isinstance(t, float):
            return self.value
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

    def __call__(self, t):
        t = _as_float_or_array(t)
        return self.amplitude * np.exp(self.rate * t)

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

    def __call__(self, t):
        t = _as_float_or_array(t)
        return self.offset + self.amplitude * np.sin(self.frequency * t + self.phase)

    def deriv(self, t):
        t = _as_float_or_array(t)
        return self.amplitude * self.frequency * np.cos(self.frequency * t + self.phase)

    def log_deriv(self, t):
        return self.deriv(t) / self(t)

    @property
    def is_zero(self) -> bool:
        return self.offset == 0.0 and self.amplitude == 0.0


class _UniformCubic:
    """Piecewise polynomial on a uniform breakpoint grid: the cubic spline
    through the samples, or (from `antiderivative`) its running integral.

    Wraps the scipy PPoly with a cheap scalar path, Horner's rule over the
    segment's coefficient row in Python floats: the oracles evaluate
    coefficients one t at a time, where the generic PPoly call would
    dominate the runtime.  A segment's row is listed on its first scalar
    read, so a table read only as arrays, or only at t = 0, lists none or
    one.  Reads outside the window by more than a relative 1e-9 raise;
    reads inside that slack are clamped to the edge.

    A block holds many interpolants as trailing columns of one PPoly (its
    array reads have shape (m, P)); `split` gives one interpolant per
    column, which keeps the block, so that a stacked read (read_stack) of
    a block's columns is one read of the block.
    """

    __slots__ = ("pp", "rows", "knots", "dx", "n", "lo", "hi", "slack", "block", "column")

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self._adopt(_uniform_spline(x, y))

    @classmethod
    def columns(cls, x: np.ndarray, ys: np.ndarray) -> list:
        """One interpolant per column of ys (shape (n, P)), from one spline
        solve over all of them; each equals cls(x, ys[:, i]) bit for bit."""
        return cls(x, ys).split()

    def split(self) -> list:
        """One interpolant per trailing column of this block, each reading
        bitwise as that column does."""
        out = []
        x = self.pp.x
        for i, c in enumerate(np.moveaxis(self.pp.c, -1, 0).copy()):  # contiguous per column
            out.append(self._like(PPoly.construct_fast(c, x)))
            out[-1].block, out[-1].column = self, i
        return out

    def _adopt(self, pp) -> None:
        x = pp.x
        self.pp = pp
        self.rows = {}  # segment -> its coefficient row as a list, on first scalar read
        self.knots = x.tolist()
        self.lo = float(x[0])
        self.hi = float(x[-1])
        self.dx = float(x[1] - x[0])
        self.n = x.size - 1
        self.slack = 1e-9 * max(1.0, abs(self.hi - self.lo))
        self.block, self.column = None, 0

    def _like(self, pp) -> "_UniformCubic":
        """An interpolant of pp, on this one's breakpoints."""
        out = object.__new__(_UniformCubic)
        for name in ("knots", "lo", "hi", "dx", "n", "slack"):
            setattr(out, name, getattr(self, name))
        out.pp, out.rows, out.block, out.column = pp, {}, None, 0
        return out

    def antiderivative(self) -> "_UniformCubic":
        """Exact running integral, anchored to vanish at t = 0 (at the
        nearest window edge when the window does not contain 0); of every
        column, for a block."""
        pp = self.pp.antiderivative()
        pp.c[-1] -= pp(min(max(0.0, self.lo), self.hi))
        return self._like(pp)

    def scalar(self, t: float) -> float:
        lo = self.lo
        if not lo <= t <= self.hi:
            if not lo - self.slack <= t <= self.hi + self.slack:
                raise CoefficientEvaluationError("table", t, "outside sampled window")
            t = min(max(t, lo), self.hi)
        i = int((t - lo) / self.dx)  # >= 0, since t >= lo
        if i >= self.n:
            i = self.n - 1
        row = self.rows.get(i)
        if row is None:
            row = self.rows[i] = self.pp.c[:, i].tolist()  # highest power first
        s = t - self.knots[i]
        # Horner's rule, unrolled: a cubic, or its running integral
        if len(row) == 4:
            c0, c1, c2, c3 = row
            return ((c0 * s + c1) * s + c2) * s + c3
        c0, c1, c2, c3, c4 = row
        return (((c0 * s + c1) * s + c2) * s + c3) * s + c4

    def __call__(self, t):
        if isinstance(t, float):
            return self.scalar(t)
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self.scalar(float(t))
        bad = _first_outside(t, self.lo - self.slack, self.hi + self.slack)
        if bad is not None:
            raise CoefficientEvaluationError("table", bad, "outside sampled window")
        return self.pp(np.clip(t, self.lo, self.hi))

    @staticmethod
    def _stacked(fns, t, method):
        # the columns of one block in one read of the block, of those
        # columns alone
        def read(owner, columns):
            if owner.pp.c.ndim == 2:  # a lone interpolant
                return owner(t)
            if columns != list(range(owner.pp.c.shape[-1])):
                owner = owner._like(PPoly.construct_fast(owner.pp.c[..., columns], owner.pp.x))
            return owner(t).T

        return _rows([fn if fn.block is None else fn.block for fn in fns], read, t.size,
                     [fn.column for fn in fns])


class _SplineOverflow(ConfigError):
    """Finite table samples whose cubic spline leaves the float range."""


def _uniform_spline(x, y) -> CubicSpline:
    """The cubic spline through samples y (along its first axis) at the
    uniformly spaced times x.  Samples whose spline overflows (slopes or
    coefficients beyond the float range) raise _SplineOverflow."""
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


def _first_outside(t: np.ndarray, lo: float, hi: float) -> float | None:
    """The first entry of t outside [lo, hi], or None when all are inside."""
    if t.size and (t.min() < lo or t.max() > hi):
        return float(t[(t < lo) | (t > hi)][0])
    return None


def _fd4_derivative_samples(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative at uniformly spaced sample points.

    4th-order centered stencil in the interior, 4th-order one-sided stencils
    at the two points nearest each edge.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if not np.iscomplexobj(y):
        y = y.astype(float)
    h = x[1] - x[0]
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    return d


def _table_samples(times, values, width: int | None = None):
    """Own copies of a table's times and values (the derivative spline is
    built from them later), checked: 1-d times, values of the same shape
    (with `width` columns when given), every sample finite."""
    times = np.array(times, dtype=float)
    values = np.array(values, dtype=float)
    shape = times.shape if width is None else times.shape + (width,)
    if times.ndim != 1 or values.shape != shape:
        raise ConfigError("table times and values must be 1-d arrays of equal length")
    if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
        raise ConfigError("table samples must be finite")
    return times, values


class TableFunction:
    """Coefficient sampled on a uniform time grid, cubic interpolation in
    between.  Derivatives come from 4th-order finite differences at the
    sample points, themselves interpolated cubically; that second spline is
    built on the first `deriv` or `log_deriv` call, since many tables (a
    noisy chi, say) are never differentiated."""

    def __init__(self, times, values):
        times, values = _table_samples(times, values)
        self._adopt(times, values, _UniformCubic(times, values), None)

    @classmethod
    def columns(cls, times, values) -> list:
        """One table per column of `values` (shape (n, P)) over the same
        times, from one spline solve over all of them; each equals
        cls(times, values[:, i]) bit for bit.  They keep the solve as a
        block, and their derivative splines come from one solve too."""
        times, values = _table_samples(times, values, np.shape(values)[-1])
        siblings = _Columns(times, values)
        out = []
        for column, interp in zip(np.ascontiguousarray(values.T),
                                  _UniformCubic.columns(times, values)):
            table = object.__new__(cls)
            table._adopt(times, column, interp, siblings)
            out.append(table)
        return out

    def _adopt(self, times, values, interp: _UniformCubic, siblings) -> None:
        self.times = times
        self.values = values
        self._interp = interp
        self._siblings = siblings
        self._zero = bool(np.all(values == 0.0))

    @functools.cached_property
    def _deriv(self) -> _UniformCubic:
        if self._siblings is not None:
            return self._siblings.derivs[self._interp.column]
        return _UniformCubic(self.times, _fd4_derivative_samples(self.times, self.values))

    def __call__(self, t):
        if isinstance(t, float):
            return self._interp.scalar(float(t))
        return self._interp(_as_float_or_array(t))

    def deriv(self, t):
        return self._deriv(_as_float_or_array(t))

    def log_deriv(self, t):
        return self.deriv(t) / self(t)

    @property
    def is_zero(self) -> bool:
        return self._zero

    @staticmethod
    def _stacked(fns, t, method):
        if method == "log_deriv":
            return read_stack(fns, t, "deriv") / read_stack(fns, t)
        return read_stack([fn._interp if method == "__call__" else fn._deriv for fn in fns], t)


class _Columns:
    """The tables of one TableFunction.columns call: their samples (n, P)
    and, from one solve on the first derivative read of any of them, the
    derivative splines of all."""

    def __init__(self, times, values):
        self.times, self.values = times, values

    @functools.cached_property
    def derivs(self) -> list:
        return _UniformCubic.columns(self.times, _fd4_derivative_samples(self.times, self.values))


def read_stack(fns, t, method: str = "__call__"):
    """`method` of each of `fns` (one function per path) at the 1-d times
    t, as rows of shape (P, t.size), or as one row that broadcasts over
    them when the fns are all one object; row p is bitwise fns[p]'s own
    read.  Each distinct object is read once, and a type with a
    `_stacked` reader reads its objects together: the columns of one
    table block in one read of the block, the medium's exponentials and
    integrals through stacked reads of their parts."""
    first = fns[0]
    if all(fn is first for fn in fns):
        return getattr(first, method)(t)
    t = np.asarray(t, dtype=float)
    stacked = getattr(type(first), "_stacked", None)
    if stacked is not None and all(type(fn) is type(first) for fn in fns):
        return stacked(fns, t, method)
    return _rows(fns, lambda fn: getattr(fn, method)(t), t.size)


def _rows(fns, read, size: int, columns=None) -> np.ndarray:
    """Rows (P, size): read(fn) once per distinct object, into the rows of
    the paths that hold it; with `columns` (one per path), read(fn, the
    columns of its paths)."""
    owners = {}
    for p, fn in enumerate(fns):
        owners.setdefault(id(fn), (fn, []))[1].append(p)
    out = np.empty((len(fns), size))
    for fn, rows in owners.values():
        out[rows] = read(fn) if columns is None else read(fn, [columns[p] for p in rows])
    return out


def _per_path(values) -> np.ndarray:
    """Per-path scalars as a column (P, 1) that broadcasts over the times."""
    return np.array(values)[:, None]


class _Stack:
    """One coefficient of a stack of paths, read as one (read_stack)."""

    __slots__ = ("fns",)

    def __init__(self, fns):
        self.fns = fns

    def __call__(self, t):
        return read_stack(self.fns, t)

    def deriv(self, t):
        return read_stack(self.fns, t, "deriv")

    def log_deriv(self, t):
        return read_stack(self.fns, t, "log_deriv")

    @property
    def is_zero(self) -> bool:
        return all(fn.is_zero for fn in self.fns)


class _LinearIntegral:
    """integral_0^t of a constant rate: exact."""

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        self.rate = float(rate)

    def __call__(self, t):
        return self.rate * _as_float_or_array(t)


class _ScaledIntegral:
    """A running integral times a constant factor."""

    __slots__ = ("base", "factor")

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = float(factor)

    def __call__(self, t):
        return self.factor * self.base(t)

    @staticmethod
    def _stacked(fns, t, method):
        return _per_path([fn.factor for fn in fns]) * read_stack([fn.base for fn in fns], t)


class MediumExponential:
    """scale / base(t) * exp(sign * Ichi(t)) with an exact logarithmic
    derivative supplied by the medium mapping (the accumulated integral
    never needs to be differentiated numerically)."""

    def __init__(self, scale: float, base, sign: float, integral, log_deriv_fn):
        self._scale = scale
        self._base = base
        self._sign = sign
        self._integral = integral
        self._log_deriv = log_deriv_fn

    def __call__(self, t):
        t = _as_float_or_array(t)
        if isinstance(t, float):
            # np.exp, not math.exp, whose last bit differs for some arguments
            return self._scale / self._base(t) * float(np.exp(self._sign * self._integral(t)))
        return self._scale / self._base(t) * np.exp(self._sign * self._integral(t))

    def deriv(self, t):
        return self(t) * self.log_deriv(t)

    def log_deriv(self, t):
        return self._log_deriv(_as_float_or_array(t))

    @property
    def is_zero(self) -> bool:
        return False

    @staticmethod
    def _stacked(fns, t, method):
        if method != "__call__":
            return _rows(fns, lambda fn: getattr(fn, method)(t), t.size)
        scale, sign = (_per_path([getattr(fn, name) for fn in fns]) for name in ("_scale", "_sign"))
        return (scale / read_stack([fn._base for fn in fns], t)
                * np.exp(sign * read_stack([fn._integral for fn in fns], t)))


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
    def driven(self) -> bool:
        """True when the linear (force) terms f, g are not identically zero."""
        return not (self.f.is_zero and self.g.is_zero)


def eval_coeffs(cs: CoefficientSet, t, names=COEFFICIENT_NAMES):
    """Evaluate the named coefficients (all six by default, in that order)
    at scalar or array time; a stacked set (stack_groups) gives rows with
    a leading path axis.

    Raises CoefficientEvaluationError when t leaves the configured window or
    any coefficient read comes back non-finite.
    """
    lo, hi = cs.window
    slack = 1e-9 * max(1.0, abs(hi)) if math.isfinite(hi) else 0.0
    bad = _first_outside(np.asarray(t, dtype=float), lo - slack, hi + slack)
    if bad is not None:
        raise CoefficientEvaluationError("window", bad, "outside configured window")
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


def stack_groups(sets) -> list:
    """The coefficient sets as groups that read as one, [(indices, set)]:
    a group's set is its member itself for a group of one, else a
    CoefficientSet of stacked functions (its medium's too) whose reads
    have a leading path axis, row p bitwise that of the group's p-th set.
    Sets group when they share their window, their upsilon and which of
    their functions are identically zero: all that the formulas built on a
    set branch on."""
    groups = {}
    for i, cs in enumerate(sets):
        key = (cs.window, None if cs.medium is None else cs.medium.upsilon,
               tuple(fn.is_zero for fn in cs.functions()))
        groups.setdefault(key, []).append(i)
    out = []
    for rows in groups.values():
        members = [sets[i] for i in rows]
        first = members[0]
        if len(members) > 1:
            medium = None
            if first.medium is not None:
                medium = replace(first.medium, **{name: _Stack([getattr(cs.medium, name)
                                                                for cs in members])
                                                  for name in ("xi", "eta", "chi")})
            functions = zip(*(cs.functions() for cs in members))
            first = CoefficientSet(*map(_Stack, functions), window=first.window, medium=medium)
        out.append((rows, first))
    return out


_ZERO = ConstantFunction(0.0)


def medium_to_hamiltonian(profile: MediumProfile, t_max: float) -> CoefficientSet:
    """Map a medium profile to the equivalent Hamiltonian coefficients
    (medium_to_hamiltonian_stack of one), or raise its error."""
    (result,) = medium_to_hamiltonian_stack([profile], t_max)
    if not isinstance(result, CoefficientSet):
        raise result
    return result


def medium_to_hamiltonian_stack(profiles, t_max: float) -> list:
    """Map each medium profile to its equivalent Hamiltonian coefficients:
    a list of each profile's CoefficientSet or of the error its own mapping
    raises: InvalidMediumError when its xi or eta is not positive,
    CoefficientEvaluationError naming chi when its chi/xi, or the spline
    through it, leaves the float range.  Only a bad window (a t_max that is
    not positive and finite, or one past a table's samples) raises for the
    whole stack.

    Positivity of xi and eta is checked before any oscillator work starts,
    on a uniform scan of [0, t_max] (4001 samples) and, for a tabulated xi
    or eta, on a 4x refinement of its knots inside [0, t_max], so a sample
    between scan points counts at any table density.  The accumulated
    integral Ichi = int_0^t chi/xi is exact where the structure allows:
    linear for constant chi and xi, the antiderivative of chi's own spline
    for a tabulated chi over a constant xi.  Any other medium takes the
    antiderivative of the cubic spline through chi/xi on the scan, whose
    error is that of the interpolant (O(h^4), h = t_max / 4000).

    The stack is read as one (read_stack): each distinct xi or eta object
    is scanned once, profiles with the same xi and chi objects share their
    integral, and the integrals of one table block come from one
    antiderivative of the block (or one spline solve over the scan).
    Every result is bitwise that of the profile mapped alone.
    """
    t_max = _number(t_max, "grid.t_max", 0.0, strict=True)
    count = len(profiles)
    xis, etas, chis = ([getattr(p, name) for p in profiles] for name in ("xi", "eta", "chi"))
    scan = np.linspace(0.0, t_max, _SCAN_NODES)
    xi_s = read_stack(xis, scan)
    # chi is free to dip negative (transient gain); only the structural
    # functions xi, eta are required to stay positive
    t_bad = _first_nonpositive(scan, xi_s, read_stack(etas, scan), count)
    for fns in (xis, etas):
        knots = {}  # a table's times -> the paths with that table
        for p, fn in enumerate(fns):
            if isinstance(fn, TableFunction):
                knots.setdefault(id(fn.times), (fn.times, []))[1].append(p)
        for times, rows in knots.values():
            fine = np.linspace(times[0], times[-1], 4 * (times.size - 1) + 1)
            fine = fine[(fine >= 0.0) & (fine <= t_max)]
            if fine.size:
                found = _first_nonpositive(fine, read_stack([xis[p] for p in rows], fine),
                                           read_stack([etas[p] for p in rows], fine), len(rows))
                t_bad[rows] = np.minimum(t_bad[rows], found)

    integrals = {}  # (xi, chi) objects -> their accumulated integral
    general = []  # paths, one per (xi, chi), whose integral comes from the scan
    antiderivatives = {}  # table block -> the antiderivative of each column
    for p in np.flatnonzero(np.isinf(t_bad)):
        xi, chi = xis[p], chis[p]
        key = (id(xi), id(chi))
        if key in integrals:
            continue
        integrals[key] = None
        if isinstance(xi, ConstantFunction) and isinstance(chi, ConstantFunction):
            integrals[key] = _LinearIntegral(chi.value / xi.value)
        elif isinstance(xi, ConstantFunction) and isinstance(chi, TableFunction):
            interp = chi._interp
            if interp.block is None:
                base = interp.antiderivative()
            else:
                if id(interp.block) not in antiderivatives:
                    antiderivatives[id(interp.block)] = interp.block.antiderivative().split()
                base = antiderivatives[id(interp.block)][interp.column]
            integrals[key] = _ScaledIntegral(base, 1.0 / xi.value)
        else:
            general.append(p)
    if general:
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = read_stack([chis[p] for p in general], scan) / (
                xi_s[general] if np.ndim(xi_s) == 2 else xi_s)
        ratio = np.broadcast_to(ratio, (len(general), scan.size))
        try:
            splines = _UniformCubic(scan, ratio.T).antiderivative().split()
        except _SplineOverflow:  # a row past the float range: each row alone, so each meets its own
            splines = [_chi_integral(scan, row) for row in ratio]
        for p, integral in zip(general, splines):
            integrals[id(xis[p]), id(chis[p])] = integral

    return [InvalidMediumError("xi and eta must stay positive", t=float(t_bad[p]))
            if t_bad[p] < math.inf else
            _medium_set(profile, integrals[id(profile.xi), id(profile.chi)], t_max)
            for p, profile in enumerate(profiles)]


def _chi_integral(scan, row):
    """The running integral of the spline through one medium's chi/xi on
    the scan, or, when the samples or their spline leave the float range,
    the (t, detail) of that medium's CoefficientEvaluationError."""
    try:
        return _UniformCubic(scan, row[:, None]).antiderivative().split()[0]
    except _SplineOverflow:
        finite = np.isfinite(row)
        if not finite.all():
            return float(scan[np.argmin(finite)]), "chi/xi is not finite"
        return float(scan[np.argmax(np.abs(row))]), "its spline overflows the float range"


def _first_nonpositive(times, xi_values, eta_values, count: int) -> np.ndarray:
    """Per path (count of them), the first of the increasing `times` where
    its xi or eta is not positive, or inf."""
    bad = (xi_values <= 0.0) | (eta_values <= 0.0)
    if not bad.any():
        return np.full(count, math.inf)
    bad = np.broadcast_to(bad, (count, times.size))
    return np.where(bad.any(axis=1), times[bad.argmax(axis=1)], math.inf)


def _medium_set(profile: MediumProfile, integral,
                t_max: float) -> CoefficientSet | CoefficientEvaluationError:
    """The medium's coefficient set over its accumulated integral, or, for
    an integral that left the float range (its (t, detail)), the error
    naming chi."""
    if isinstance(integral, tuple):
        return CoefficientEvaluationError("chi", *integral)
    xi, eta, chi = profile.xi, profile.eta, profile.chi
    a_fn = MediumExponential(0.5, xi, -1.0, integral,
                             lambda t: -(chi(t) + xi.deriv(t)) / xi(t))
    b_fn = MediumExponential(0.5 * profile.upsilon**2, eta, +1.0, integral,
                             lambda t: chi(t) / xi(t) - eta.deriv(t) / eta(t))
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
    for key, v in params.items():
        where = f"coefficients.params.{key}"
        if key not in p:
            raise ConfigError(f"preset {name!r} takes no param {key!r}", field=where)
        p[key] = _number(v, where)
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
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("function spec must be an object with a 'kind'", field=where)
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise ConfigError(f"unknown function kind {kind!r}", field=f"{where}.kind")
    cls, spec_fields = _SPEC_FIELDS[kind]
    _only_keys(spec, ("kind", *spec_fields), where)
    for key, default in spec_fields.items():
        if default is None and key not in spec:
            raise ConfigError(f"{key} is required", field=f"{where}.{key}")
    if cls is TableFunction:
        times, values = _samples(spec["times"], where), _samples(spec["values"], where)
        try:
            return TableFunction(times, values)
        except ConfigError as exc:  # unequal lengths, too few samples, uneven spacing
            raise ConfigError(str(exc), field=where) from exc
    return cls(**{key: _number(spec.get(key, default), f"{where}.{key}")
                  for key, default in spec_fields.items()})
