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
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

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
    if np.isscalar(t):
        return float(t)
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class ConstantFunction:
    """Constant coefficient."""

    value: float

    def __call__(self, t):
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

    Wraps the scipy PPoly with a cheap scalar path, one Horner loop over the
    segment's coefficient row: the oracles evaluate coefficients one t at a
    time, where the generic PPoly call would dominate the runtime.  Reads
    outside the window by more than a relative 1e-9 raise; reads inside
    that slack are clamped to the edge.
    """

    __slots__ = ("pp", "coef", "knots", "dx", "n", "lo", "hi", "slack")

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size < 5:
            raise ConfigError("tables need at least 5 samples")
        dx = np.diff(x)
        if not np.allclose(dx, dx[0], rtol=1e-8, atol=1e-12):
            raise ConfigError("table samples must be uniformly spaced")
        self._adopt(CubicSpline(x, y))

    def _adopt(self, pp) -> None:
        self.pp = pp
        self.coef = np.ascontiguousarray(pp.c.T)  # per segment, highest power first
        self.knots = pp.x.tolist()
        self.lo = float(pp.x[0])
        self.hi = float(pp.x[-1])
        self.dx = float(pp.x[1] - pp.x[0])
        self.n = pp.x.size - 1
        self.slack = 1e-9 * max(1.0, abs(self.hi - self.lo))

    def antiderivative(self) -> "_UniformCubic":
        """Exact running integral, anchored to vanish at t = 0 (at the
        nearest window edge when the window does not contain 0)."""
        pp = self.pp.antiderivative()
        pp.c[-1] -= pp(min(max(0.0, self.lo), self.hi))
        out = object.__new__(_UniformCubic)
        out._adopt(pp)
        return out

    def scalar(self, t: float) -> float:
        if not self.lo <= t <= self.hi:
            if not self.lo - self.slack <= t <= self.hi + self.slack:
                raise CoefficientEvaluationError("table", t, "outside sampled window")
            t = min(max(t, self.lo), self.hi)
        i = min(max(int((t - self.lo) / self.dx), 0), self.n - 1)
        s = t - self.knots[i]
        row = iter(self.coef[i].tolist())
        value = next(row)
        for c in row:
            value = value * s + c
        return value

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


class TableFunction:
    """Coefficient sampled on a uniform time grid, cubic interpolation in
    between.  Derivatives come from 4th-order finite differences at the
    sample points, themselves interpolated cubically; that second spline is
    built on the first `deriv` or `log_deriv` call, since many tables (a
    noisy chi, say) are never differentiated."""

    def __init__(self, times, values):
        # own copies: the derivative spline is built from them later
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ConfigError("table times and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ConfigError("table samples must be finite")
        self.times = times
        self.values = values
        self._interp = _UniformCubic(times, values)
        self._zero = bool(np.all(values == 0.0))

    @functools.cached_property
    def _deriv(self) -> _UniformCubic:
        return _UniformCubic(self.times, _fd4_derivative_samples(self.times, self.values))

    def __call__(self, t):
        return self._interp(_as_float_or_array(t))

    def deriv(self, t):
        return self._deriv(_as_float_or_array(t))

    def log_deriv(self, t):
        return self.deriv(t) / self(t)

    @property
    def is_zero(self) -> bool:
        return self._zero


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


class MediumExponential:
    """prefactor(t) * exp(sign * Ichi(t)) with an exact logarithmic
    derivative supplied by the medium mapping (the accumulated integral
    never needs to be differentiated numerically)."""

    def __init__(self, prefactor, sign: float, integral, log_deriv_fn):
        self._prefactor = prefactor
        self._sign = sign
        self._integral = integral
        self._log_deriv = log_deriv_fn

    def __call__(self, t):
        t = _as_float_or_array(t)
        return self._prefactor(t) * np.exp(self._sign * self._integral(t))

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


def eval_coeffs(cs: CoefficientSet, t):
    """Evaluate all six coefficients at scalar or array time.

    Raises CoefficientEvaluationError when t leaves the configured window or
    any coefficient comes back non-finite.
    """
    lo, hi = cs.window
    slack = 1e-9 * max(1.0, abs(hi)) if math.isfinite(hi) else 0.0
    bad = _first_outside(np.asarray(t, dtype=float), lo - slack, hi + slack)
    if bad is not None:
        raise CoefficientEvaluationError("window", bad, "outside configured window")
    out = []
    for name, fn in zip(COEFFICIENT_NAMES, (cs.a, cs.b, cs.c, cs.d, cs.f, cs.g)):
        with np.errstate(over="ignore", invalid="ignore"):
            val = fn(t)
        if not np.all(np.isfinite(val)):
            bad = float(t) if np.isscalar(t) else float(np.asarray(t)[~np.isfinite(val)][0])
            raise CoefficientEvaluationError(name, bad)
        out.append(val)
    return tuple(out)


def medium_to_hamiltonian(profile: MediumProfile, t_max: float) -> CoefficientSet:
    """Map a medium profile to the equivalent Hamiltonian coefficients.

    Positivity of xi and eta is checked on a uniform scan of [0, t_max]
    (4001 samples) before any oscillator work starts.  The accumulated
    integral Ichi = int_0^t chi/xi is exact where the structure allows:
    linear for constant chi and xi, the antiderivative of chi's own spline
    for a tabulated chi over a constant xi.  Any other medium takes the
    antiderivative of the cubic spline through chi/xi on the scan, whose
    error is that of the interpolant (O(h^4), h = t_max / 4000).
    """
    t_max = _number(t_max, "grid.t_max", 0.0, strict=True)
    xi, eta, chi = profile.xi, profile.eta, profile.chi
    scan = np.linspace(0.0, t_max, _SCAN_NODES)
    xi_s, eta_s = xi(scan), eta(scan)
    # chi is free to dip negative (transient gain); only the structural
    # functions xi, eta are required to stay positive
    if np.any(xi_s <= 0.0) or np.any(eta_s <= 0.0):
        t_bad = float(scan[np.argmin(np.minimum(xi_s, eta_s))])
        raise InvalidMediumError(f"xi and eta must stay positive (violated near t={t_bad:g})")

    if isinstance(xi, ConstantFunction) and isinstance(chi, ConstantFunction):
        integral = _LinearIntegral(chi.value / xi.value)
    elif isinstance(xi, ConstantFunction) and isinstance(chi, TableFunction):
        integral = _ScaledIntegral(chi._interp.antiderivative(), 1.0 / xi.value)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = chi(scan) / xi_s
        finite = np.isfinite(ratio)
        if not np.all(finite):
            raise CoefficientEvaluationError("chi", float(scan[np.argmin(finite)]),
                                             "chi/xi is not finite")
        integral = _UniformCubic(scan, ratio).antiderivative()
    ups2 = profile.upsilon**2

    a_fn = MediumExponential(
        prefactor=lambda t: 0.5 / xi(t),
        sign=-1.0,
        integral=integral,
        log_deriv_fn=lambda t: -(chi(t) + xi.deriv(t)) / xi(t),
    )
    b_fn = MediumExponential(
        prefactor=lambda t: 0.5 * ups2 / eta(t),
        sign=+1.0,
        integral=integral,
        log_deriv_fn=lambda t: chi(t) / xi(t) - eta.deriv(t) / eta(t),
    )
    zero = ConstantFunction(0.0)
    return CoefficientSet(a_fn, b_fn, zero, zero, zero, zero,
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
