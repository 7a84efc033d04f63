"""Ermakov-type auxiliary system solved in closed form.

The six real functions (alpha, beta, gamma, delta, eps, kappa) obey the
nonlinear first-order system

    alpha' = a beta^4 - b - 2 c alpha - 4 a alpha^2
    beta'  = -(c + 4 a alpha) beta
    gamma' = -a beta^2
    delta' = f + 2 g alpha - (c + 4 a alpha) delta + 2 a beta^3 eps
    eps'   = (g - 2 a delta) beta
    kappa' = g delta - a delta^2 + a beta^2 eps^2

Instead of integrating this directly (see verify.riccati_oracle for that
route), everything is assembled in closed form from the linear
characteristic basis (mu1(0) = 1), which a frame holds as its own fields
(mu0, mu0', mu1, mu1', ell), through one complex combination

    z(t) = mu1 + i (c1 - c2) mu0,
    c1 - c2 = beta(0)^2 - i (2 alpha(0) + d(0)/a(0)),

which never vanishes (its real and imaginary parts are independent basis
solutions), so all assembled expressions below are pole-free:

    alpha = Re(conj(z) z') / (4 a |z|^2) - d / (2a)
    beta  = beta(0) lambda / |z|
    gamma = gamma(0) - arg(z) / 2           (continuous branch)

The linear (force-driven) part splits as the zero-initial-data particular
solution (delta*, eps*, kappa*) plus a closed-form homogeneous transport of
the initial data through c3 = eps(0) beta(0) + i delta(0):

    delta = delta* + lambda Im(c3 z) / |z|^2
    eps   = eps*   + Re(c3 z) / (beta(0) |z|)
    kappa = kappa(0) + kappa* + eps* Im(c3 z) / (beta(0) |z|)
            + Re(c3^2 z) mu0 / (2 |z|^2)

(delta*, eps*) obeys the same linear system with the source
(f + 2 g alpha, g beta), so it comes from Duhamel's formula with that
transport as the fundamental matrix (variation of the constant c3):

    c*(t)  = int_0^t conj(z) [ i (f + 2 g alpha) / lambda
                               + g beta(0)^2 lambda / |z|^2 ]
    delta* = lambda Im(c* z) / |z|^2,    eps* = Re(c* z) / (beta(0) |z|)
    kappa* = int_0^t [ Im(c* g lambda z / |z|^2)
                       + Re(c*^2 a lambda^2 z^2 / |z|^4) ]

The integrands are regular (z never vanishes) and are read off the basis
at the Gauss nodes of the propagator core's own steps, which integrates
c* by Gauss quadrature and kappa* by Gauss collocation under the same
step-doubling control as the basis (characteristic.propagate).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .characteristic import Propagation, check_grid, initial_kinetic, propagate
from .coefficients import CoefficientSet, eval_coeffs
from .errors import ConfigError, _number

__all__ = [
    "ErmakovInit",
    "ErmakovPath",
    "ComplexFrame",
    "build_frame",
    "read_frame",
    "closed_form_path",
]

@dataclass(frozen=True)
class ErmakovInit:
    """Initial data for the six auxiliary functions at t = 0.

    Each field must be a finite number, and beta0 a positive one: the
    positive branch is preserved along the path because the closed form
    beta = beta(0) lambda / |z| never changes sign.  beta0 and eps0 must
    also have a finite square, which the frame constants and the
    quasi-invariants take.  Errors name the field by its config path
    (initial_state.<name>).
    """

    alpha0: float = 0.0
    beta0: float = 1.0
    gamma0: float = 0.0
    delta0: float = 0.0
    eps0: float = 0.0
    kappa0: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            low = 0.0 if f.name == "beta0" else None
            value = _number(getattr(self, f.name), f"initial_state.{f.name}", low, strict=True)
            if f.name in ("beta0", "eps0") and not math.isfinite(value * value):
                raise ConfigError(f"{value:g} squared overflows the float range",
                                  field=f"initial_state.{f.name}")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class ErmakovPath:
    """The six auxiliary functions sampled on a grid, with the damping
    factor lambda on the same grid (from the frame for a closed-form path,
    from its own quadrature for a directly integrated one, see
    verify.riccati_oracle)."""

    grid: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    eps: np.ndarray
    kappa: np.ndarray
    init: ErmakovInit
    coefficients: CoefficientSet
    lam: np.ndarray

    def columns(self):
        return (self.alpha, self.beta, self.gamma, self.delta, self.eps, self.kappa)


@dataclass(frozen=True)
class ComplexFrame:
    """Everything needed to evaluate the closed-form path on the times
    `grid`: the characteristic basis (mu0, mu1, their derivatives and ell),
    the frame constants and the zero-initial-data driven triple, read off
    the propagation `dense`.  For a set with columns (an ensemble chunk's
    paths) the arrays have a leading path axis, and c1, c2 are per column
    when a(0) has columns; a plain set's frame has no path axis
    (read_frame)."""

    grid: np.ndarray
    coefficients: CoefficientSet
    dense: Propagation
    mu0: np.ndarray
    mu0p: np.ndarray
    mu1: np.ndarray
    mu1p: np.ndarray
    ell: np.ndarray
    init: ErmakovInit
    c1: complex
    c2: complex
    c3: complex
    z: np.ndarray
    zp: np.ndarray
    angle: np.ndarray  # continuous arg(z) on the grid, angle[0] = 0
    lam: np.ndarray  # damping factor exp(-ell)
    delta_star: np.ndarray
    eps_star: np.ndarray
    kappa_star: np.ndarray

    @property
    def wronskian(self) -> np.ndarray:
        """Direct Wronskian mu0' mu1 - mu0 mu1' on the grid."""
        return self.mu0p * self.mu1 - self.mu0 * self.mu1p

    def wronskian_predicted(self) -> np.ndarray:
        """Wronskian from the integrated first-order law:
        W(t) = W(0) (a(t)/a(0)) lambda(t)^2, W(0) = 2 a(0); per row, with
        a(0) per column, for a set with columns."""
        a0 = initial_kinetic(self.coefficients)
        if np.ndim(a0):
            a0 = a0[:, None]
        a_ratio = np.asarray(self.coefficients.a(self.grid), dtype=float) / a0
        return 2.0 * a0 * a_ratio * self.lam**2


def _z(mu0, mu0p, mu1, mu1p, izc):
    """z = mu1 + i (c1 - c2) mu0 and its derivative z', from izc = i (c1 - c2)."""
    return mu1 + izc * mu0, mu1p + izc * mu0p


def _alpha(z, zp, abs2, a_t, d_t):
    """alpha = Re(conj(z) z') / (4 a |z|^2) - d / (2a)."""
    return (z.real * zp.real + z.imag * zp.imag) / (4.0 * a_t * abs2) - d_t / (2.0 * a_t)


def _transport_terms(cs: CoefficientSet, init: ErmakovInit):
    """Integrands (w, u, v) of the driven transport c*' = w,
    kappa*' = Im(c* u) + Re(c*^2 v), from the basis state (see the module
    docstring)."""
    c1, c2, _ = _frame_constants(cs, init)
    b2 = init.beta0 * init.beta0
    izc = 1j * (c1 - c2)

    def terms(t, y, ell):
        a_t, d_t, f_t, g_t = cs.a(t), cs.d(t), cs.f(t), cs.g(t)
        z, zp = _z(y[0, 0], y[1, 0], y[0, 1], y[1, 1], izc)
        lam = np.exp(-ell)
        abs2 = z.real**2 + z.imag**2
        alpha = _alpha(z, zp, abs2, a_t, d_t)
        w = np.conj(z) * (1j * (f_t + 2.0 * g_t * alpha) / lam + b2 * g_t * lam / abs2)
        return w, g_t * lam * z / abs2, a_t * lam**2 * z * z / (abs2 * abs2)

    return terms


def _frame_constants(cs: CoefficientSet, init: ErmakovInit):
    """c1, c2 (per column, when a(0) has columns) and c3."""
    b2 = init.beta0**2
    a_shift = 2.0 * init.alpha0 + float(cs.d(0.0)) / initial_kinetic(cs)
    c1 = 0.5 * (1.0 + b2) - 0.5j * a_shift
    c2 = 0.5 * (1.0 - b2) + 0.5j * a_shift
    c3 = init.eps0 * init.beta0 + 1j * init.delta0
    return c1, c2, c3


def build_frame(
    cs: CoefficientSet,
    grid,
    init: ErmakovInit | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ComplexFrame:
    """Build the complex frame for the given coefficients and initial data.

    One pass of the propagator core carries the basis and, for a driven
    system, the zero-initial-data triple on the same steps (regular
    everywhere, no poles on the path); one read on the grid gives both
    (read_frame).  An undriven system is the same pass with no transport,
    and its triple is zero.  The propagation stays attached as `dense`
    for reads off the grid (closed_form_path(frame, t)).
    `cs` is a plain set.
    """
    init = init or ErmakovInit()
    grid = check_grid(grid)
    transport = _transport_terms(cs, init) if cs.driven else None
    return read_frame(propagate(cs, grid[-1], rtol=rtol, atol=atol, driven=transport), grid, init)


def read_frame(prop: Propagation, t, init: ErmakovInit) -> ComplexFrame:
    """The frame of each path of the propagation (each column of its
    coefficient set: an ensemble chunk's paths that kept their shared
    pass, or one path) at the times `t` (a 1-d array inside the window),
    from one core read: the one place a Propagation becomes a frame.  Its
    arrays have a leading path axis, row p bitwise path p's own, when the
    set has columns; a plain set's one row is dropped here.

    The driven triple is zero when the set is undriven.  angle is arg z on
    its continuous branch, angle(0) = 0: each t takes the branch nearest
    that of its left step node, where arg z is unwrapped over the stored
    states.  A step's exponent is at most 1, so z turns by well under pi
    between nodes."""
    cs = prop.coefficients
    c1, c2, c3 = _frame_constants(cs, init)
    izc = np.reshape(1j * (c1 - c2), (-1, 1))  # each path's, or one for all
    state, q, r, left = prop.read(t)
    z, zp = _z(state[0], state[1], state[2], state[3], izc)
    lam = np.exp(-state[4])
    y = prop.y[0]  # (mu0, mu1) at the nodes, (2, P, n)
    nodes = np.unwrap(np.angle(y[1] + izc * y[0]), axis=-1)
    anchor = nodes[:, left]
    raw = np.angle(z)
    angle = raw + 2.0 * math.pi * np.round((anchor - raw) / (2.0 * math.pi))
    stars = np.zeros((3,) + z.shape)
    if q is not None:
        abs2 = z.real**2 + z.imag**2
        qz = q * z
        stars = np.stack([lam * qz.imag / abs2, qz.real / (init.beta0 * np.sqrt(abs2)), r])
    reads = state, z, zp, lam, angle, stars
    if cs.width is None:
        reads = tuple(x[..., 0, :] for x in reads)
    state, z, zp, lam, angle, stars = reads
    return ComplexFrame(
        grid=t, coefficients=cs, dense=prop, mu0=state[0], mu0p=state[1], mu1=state[2],
        mu1p=state[3], ell=state[4], init=init, c1=c1, c2=c2, c3=c3, z=z, zp=zp, angle=angle,
        lam=lam, delta_star=stars[0], eps_star=stars[1], kappa_star=stars[2],
    )


def closed_form_path(frame: ComplexFrame, t=None) -> ErmakovPath:
    """Assemble the six auxiliary functions from the frame, on the frame's
    own grid (default) or at arbitrary times inside its window, from the
    frame read there (read_frame of its propagation); with the frame's
    leading path axis, if it has one (its paths share init)."""
    if t is not None:
        frame = read_frame(frame.dense, np.atleast_1d(np.asarray(t, dtype=float)),
                           frame.init)
    cs, init, z, c3 = frame.coefficients, frame.init, frame.z, frame.c3
    a_t, d_t = eval_coeffs(cs, frame.grid, ("a", "d"))
    abs2 = z.real**2 + z.imag**2
    absz = np.sqrt(abs2)
    c3z = c3 * z
    es = frame.eps_star

    alpha = _alpha(z, frame.zp, abs2, a_t, d_t)
    beta = init.beta0 * frame.lam / absz
    gamma = init.gamma0 - 0.5 * frame.angle
    delta = frame.delta_star + frame.lam * c3z.imag / abs2
    eps = es + c3z.real / (init.beta0 * absz)
    kappa = (
        init.kappa0
        + frame.kappa_star
        + es * c3z.imag / (init.beta0 * absz)
        + (c3 * c3 * z).real * frame.mu0 / (2.0 * abs2)
    )
    return ErmakovPath(frame.grid, alpha, beta, gamma, delta, eps, kappa, init=init,
                       coefficients=cs, lam=frame.lam)
