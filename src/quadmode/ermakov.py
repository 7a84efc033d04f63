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
characteristic basis (mu1(0) = 1) through one complex combination

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

The singular principal pieces built on mu0 alone (poles at its zeros) are
recovered algebraically rather than integrated through the poles:

    alpha0 = mu0'/(4 a mu0) - d/(2a),  beta0 = -lambda/mu0,
    gamma0 = mu1/(2 mu0) + d(0)/(2 a(0))
    eps0   = -eps* |z| / (beta(0) mu0)
    delta0 = delta* - lambda eps0 Re(z) / |z|^2
    kappa0 = kappa* - eps* eps0 Re(z) / (2 beta(0) |z|)

with the finite limits delta0(0) = -eps0(0) = g(0)/(2 a(0)), kappa0(0) = 0.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .characteristic import CharacteristicBasis, check_grid, propagate
from .coefficients import CoefficientSet, eval_coeffs
from .errors import _number

__all__ = [
    "ErmakovInit",
    "ErmakovPath",
    "ComplexFrame",
    "HomogeneousState",
    "HomogeneousDriven",
    "build_frame",
    "closed_form_path",
    "homogeneous_state",
    "homogeneous_driven",
]

@dataclass(frozen=True)
class ErmakovInit:
    """Initial data for the six auxiliary functions at t = 0.

    Each field must be a finite number, and beta0 a positive one: the
    positive branch is preserved along the path because the closed form
    beta = beta(0) lambda / |z| never changes sign.  Errors name the field
    by its config path (initial_state.<name>).
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
    """Everything needed to evaluate the closed-form path: the linear basis,
    the frame constants, and the zero-initial-data driven triple."""

    basis: CharacteristicBasis
    init: ErmakovInit
    c1: complex
    c2: complex
    c3: complex
    z: np.ndarray
    zp: np.ndarray
    angle: np.ndarray  # continuous arg(z) on the grid, angle[0] = 0
    lam: np.ndarray
    delta_star: np.ndarray
    eps_star: np.ndarray
    kappa_star: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        return self.basis.grid

    @property
    def coefficients(self) -> CoefficientSet:
        return self.basis.coefficients

    def eval(self, t):
        """Dense (z, z', lambda, continuous angle, mu0, stars) at scalar or
        array t inside the frame window."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        state, q, r = self.basis.dense.read(t_arr)
        z, zp, lam, stars = _frame_read(state, q, r, self.c1 - self.c2, self.init.beta0)
        raw = np.angle(z)
        anchor = np.interp(t_arr, self.grid, self.angle)
        angle = raw + 2.0 * math.pi * np.round((anchor - raw) / (2.0 * math.pi))
        return z, zp, lam, angle, state[0], stars


def _z(mu0, mu0p, mu1, mu1p, zc: complex):
    """z = mu1 + i (c1 - c2) mu0 and its derivative z'."""
    return mu1 + 1j * zc * mu0, mu1p + 1j * zc * mu0p


def _alpha(z, zp, abs2, a_t, d_t):
    """alpha = Re(conj(z) z') / (4 a |z|^2) - d / (2a)."""
    return (z.real * zp.real + z.imag * zp.imag) / (4.0 * a_t * abs2) - d_t / (2.0 * a_t)


def _transport_terms(cs: CoefficientSet, zc: complex, beta0: float):
    """Integrands (w, u, v) of the driven transport c*' = w,
    kappa*' = Im(c* u) + Re(c*^2 v), from the basis state (see the module
    docstring)."""
    b2 = beta0 * beta0

    def terms(t, y, ell):
        a_t, d_t, f_t, g_t = cs.a(t), cs.d(t), cs.f(t), cs.g(t)
        z, zp = _z(y[0, 0], y[1, 0], y[0, 1], y[1, 1], zc)
        lam = np.exp(-ell)
        abs2 = z.real**2 + z.imag**2
        alpha = _alpha(z, zp, abs2, a_t, d_t)
        w = np.conj(z) * (1j * (f_t + 2.0 * g_t * alpha) / lam + b2 * g_t * lam / abs2)
        return w, g_t * lam * z / abs2, a_t * lam**2 * z * z / (abs2 * abs2)

    return terms


def _frame_read(state, q, r, zc: complex, beta0: float):
    """(z, z', lambda, stars) from one read of the propagator core: the
    5-state and the transport (q, r), which is None when undriven (then
    the zero-initial-data triple (delta*, eps*, kappa*) vanishes)."""
    z, zp = _z(state[0], state[1], state[2], state[3], zc)
    lam = np.exp(-state[4])
    if q is None:
        return z, zp, lam, np.zeros((3, z.size))
    abs2 = z.real**2 + z.imag**2
    qz = q * z
    return z, zp, lam, np.vstack([lam * qz.imag / abs2, qz.real / (beta0 * np.sqrt(abs2)), r])


def _frame_constants(cs: CoefficientSet, init: ErmakovInit):
    b2 = init.beta0**2
    a_shift = 2.0 * init.alpha0 + float(cs.d(0.0)) / float(cs.a(0.0))
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
    everywhere, no poles on the path); one read on the grid gives both.
    An undriven system is the same pass with no transport, and its triple
    is zero.  The propagation stays attached as `basis.dense` for reads
    off the grid (`eval`).
    """
    init = init or ErmakovInit()
    c1, c2, c3 = _frame_constants(cs, init)
    zc = c1 - c2  # beta0^2 - i (2 alpha0 + d0/a0)
    grid = check_grid(grid)
    transport = _transport_terms(cs, zc, init.beta0) if cs.driven else None
    prop = propagate(cs, grid[-1], rtol=rtol, atol=atol, driven=transport)
    state, q, r = prop.read(grid)
    basis = CharacteristicBasis.from_state(grid, state, cs, prop)
    z, zp, lam, stars = _frame_read(state, q, r, zc, init.beta0)
    return ComplexFrame(
        basis=basis, init=init, c1=c1, c2=c2, c3=c3,
        z=z, zp=zp, angle=np.unwrap(np.angle(z)) - float(np.angle(z[0])),
        lam=lam, delta_star=stars[0], eps_star=stars[1], kappa_star=stars[2],
    )


def _assemble(frame: ComplexFrame, t, z, zp, lam, angle, mu0, stars):
    cs = frame.coefficients
    init = frame.init
    a_t, b_t, c_t, d_t, f_t, g_t = eval_coeffs(cs, t)
    abs2 = z.real**2 + z.imag**2
    absz = np.sqrt(abs2)
    c3 = frame.c3
    c3z = c3 * z
    ds, es, ks = stars

    alpha = _alpha(z, zp, abs2, a_t, d_t)
    beta = init.beta0 * lam / absz
    gamma = init.gamma0 - 0.5 * angle
    delta = ds + lam * c3z.imag / abs2
    eps = es + c3z.real / (init.beta0 * absz)
    kappa = (
        init.kappa0
        + ks
        + es * c3z.imag / (init.beta0 * absz)
        + (c3 * c3 * z).real * mu0 / (2.0 * abs2)
    )
    return alpha, beta, gamma, delta, eps, kappa


def closed_form_path(frame: ComplexFrame, t=None) -> ErmakovPath:
    """Assemble the six auxiliary functions from the frame, on the frame's
    own grid (default) or at arbitrary times inside its window."""
    if t is None:
        t_arr, z, zp, lam, angle = frame.grid, frame.z, frame.zp, frame.lam, frame.angle
        mu0 = frame.basis.mu0
        stars = np.vstack([frame.delta_star, frame.eps_star, frame.kappa_star])
    else:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        z, zp, lam, angle, mu0, stars = frame.eval(t_arr)
    alpha, beta, gamma, delta, eps, kappa = _assemble(frame, t_arr, z, zp, lam, angle, mu0, stars)
    return ErmakovPath(grid=t_arr, alpha=alpha, beta=beta, gamma=gamma, delta=delta, eps=eps,
                       kappa=kappa, init=frame.init, coefficients=frame.coefficients, lam=lam)


# ---------------------------------------------------------------------------
# principal (singular) pieces built on mu0 alone

@dataclass(frozen=True)
class HomogeneousState:
    """Principal state triple with poles at zeros of mu0; masked there."""

    grid: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    gamma0: np.ndarray
    mask: np.ndarray  # True where the values are meaningful


@dataclass(frozen=True)
class HomogeneousDriven:
    """Principal driven triple (poles at zeros of mu0, masked), with the
    finite limits at t = 0 filled in explicitly."""

    grid: np.ndarray
    delta0: np.ndarray
    eps0: np.ndarray
    kappa0: np.ndarray
    mask: np.ndarray


def _mu0_mask(mu0: np.ndarray, guard: float) -> np.ndarray:
    scale = float(np.max(np.abs(mu0))) or 1.0
    return np.abs(mu0) >= guard * scale


def homogeneous_state(basis: CharacteristicBasis, guard: float = 1e-8) -> HomogeneousState:
    """alpha0 = mu0'/(4 a mu0) - d/(2a), beta0 = -lambda/mu0,
    gamma0 = mu1/(2 mu0) + d(0)/(2 a(0)); NaN where |mu0| is below
    guard * max|mu0| (true poles, not numerical noise)."""
    cs = basis.coefficients
    t = basis.grid
    a_t, _, _, d_t, _, _ = eval_coeffs(cs, t)
    mask = _mu0_mask(basis.mu0, guard)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha0 = basis.mu0p / (4.0 * a_t * basis.mu0) - d_t / (2.0 * a_t)
        beta0 = -basis.lam / basis.mu0
        gamma0 = basis.mu1 / (2.0 * basis.mu0) \
            + float(cs.d(0.0)) / (2.0 * float(cs.a(0.0)))
    for arr in (alpha0, beta0, gamma0):
        arr[~mask] = np.nan
    return HomogeneousState(grid=t, alpha0=alpha0, beta0=beta0, gamma0=gamma0, mask=mask)


def homogeneous_driven(frame: ComplexFrame, guard: float = 1e-8) -> HomogeneousDriven:
    """Recover the principal driven triple algebraically from the frame's
    zero-initial-data triple (exact in any frame):

        eps0   = -eps* |z| / (beta(0) mu0)
        delta0 = delta* - lambda eps0 Re(z) / |z|^2
        kappa0 = kappa* - eps* eps0 Re(z) / (2 beta(0) |z|)
    """
    basis = frame.basis
    cs = frame.coefficients
    mu0 = basis.mu0
    mask = _mu0_mask(mu0, guard)
    absz = np.abs(frame.z)
    b0 = frame.init.beta0
    with np.errstate(divide="ignore", invalid="ignore"):
        eps0 = -frame.eps_star * absz / (b0 * mu0)
        delta0 = frame.delta_star - frame.lam * eps0 * frame.z.real / absz**2
        kappa0 = frame.kappa_star - frame.eps_star * eps0 * frame.z.real / (2.0 * b0 * absz)
    # the grid starts at t = 0 (check_grid), where the finite limits hold
    limit = float(cs.g(0.0)) / (2.0 * float(cs.a(0.0)))
    delta0[0], eps0[0], kappa0[0] = limit, -limit, 0.0
    mask[0] = True
    for arr in (delta0, eps0, kappa0):
        arr[~mask] = np.nan
    return HomogeneousDriven(grid=basis.grid, delta0=delta0, eps0=eps0,
                             kappa0=kappa0, mask=mask)
