"""Single-mode observables along an auxiliary-system path.

For the number state with index n the second moments follow the pair
(alpha, beta) alone:

    var_x = (n + 1/2) / beta^2
    var_p = (n + 1/2) (beta^2 + 4 alpha^2 / beta^2)
    var_x var_p = (n + 1/2)^2 (1 + 4 alpha^2 / beta^4)

so beta > 1 squeezes position below the coherent-state floor while the
uncertainty product stays >= (n + 1/2)^2, reaching it exactly where
alpha = 0.  First moments normalize to

    xbar = -eps / beta,   pbar = delta - 2 alpha eps / beta

with the raw (damped) means lambda * xbar, lambda * pbar.

The annihilation-type invariant operator has coefficient functions

    u = e^{-2 i gamma} (beta - 2 i alpha / beta) / sqrt(2)
    v = i e^{-2 i gamma} / (beta sqrt(2))
    w = e^{-2 i gamma} (eps - i delta / beta) / sqrt(2)

with u vbar - ubar v = -i exactly, and they satisfy the linear system

    u' = -c u + 2 b v,   v' = -2 a u + c v,   w' = g u - f v

which heisenberg_residual checks by finite differences: an end-to-end
consistency probe through a completely different algebraic route.

Phases split into a dynamical rate (2n + 1) a beta^2 and a geometric
remainder, computed two independent ways: from the energy expectation
(phase_rates) and from the state derivatives (geometric_rate_state_route).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .coefficients import (
    CoefficientSet,
    MediumProfile,
    _fd4_derivative_samples,
    eval_coeffs,
)
from .ermakov import ComplexFrame, ErmakovPath, closed_form_path
from .errors import ConfigError

__all__ = [
    "OperatorPath",
    "FockObservables",
    "ansatz_coefficients",
    "ansatz_path",
    "commutator_defects",
    "operator_invariant_defect",
    "heisenberg_residual",
    "means",
    "variances",
    "hamiltonian_expectation",
    "phase_rates",
    "geometric_rate_state_route",
    "accumulate_phases",
    "mode_amplitudes",
    "compute_observables",
]


def ansatz_coefficients(alpha, beta, gamma, delta, eps):
    """Operator coefficients (u, v, w) from the auxiliary functions."""
    rot = np.exp(-2j * np.asarray(gamma, dtype=float))
    s = 1.0 / math.sqrt(2.0)
    u = rot * (beta - 2j * alpha / beta) * s
    v = 1j * rot / (beta * math.sqrt(2.0))
    w = rot * (eps - 1j * delta / beta) * s
    return u, v, w


@dataclass(frozen=True)
class OperatorPath:
    """Invariant-operator coefficients sampled on a grid."""

    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def ansatz_path(path: ErmakovPath) -> OperatorPath:
    u, v, w = ansatz_coefficients(path.alpha, path.beta, path.gamma,
                                  path.delta, path.eps)
    return OperatorPath(grid=path.grid, u=u, v=v, w=w)


def commutator_defects(op: OperatorPath) -> np.ndarray:
    """Pointwise deviation |u vbar - ubar v + i| from the exact value -i."""
    return np.abs(op.u * np.conj(op.v) - np.conj(op.u) * op.v + 1j)


def operator_invariant_defect(op: OperatorPath) -> float:
    """Max deviation of u vbar - ubar v from its exact value -i."""
    return float(np.max(commutator_defects(op)))


def heisenberg_residual(frame: ComplexFrame, dt: float = 1e-3) -> float:
    """Finite-difference check of the linear operator equations.

    Samples the closed-form path on a uniform grid of spacing dt over the
    frame's window, takes
    fourth-order differences of (u, v, w), and compares with the right-hand
    sides.  The residual is normalized per point by max(1, |u|, |v|, |w|)
    so growing paths are judged on relative accuracy.  Fourth order keeps
    the truncation term far below solver error even where the rotation
    rate 2 gamma' reaches a few units per time.
    """
    t0, t1 = frame.grid[0], frame.grid[-1]
    m = max(int(round((t1 - t0) / dt)) + 1, 9)
    fine = np.linspace(t0, t1, m)
    path = closed_form_path(frame, fine)
    op = ansatz_path(path)
    a_t, b_t, c_t, _, f_t, g_t = eval_coeffs(frame.coefficients, fine)

    residual = 0.0
    pairs = (
        (op.u, lambda: -c_t * op.u + 2.0 * b_t * op.v),
        (op.v, lambda: -2.0 * a_t * op.u + c_t * op.v),
        (op.w, lambda: g_t * op.u - f_t * op.v),
    )
    scale = np.maximum(1.0, np.maximum(np.abs(op.u),
                                       np.maximum(np.abs(op.v), np.abs(op.w))))
    for series, rhs in pairs:
        diff = _fd4_derivative_samples(fine, series)
        residual = max(residual, float(np.max(np.abs(diff - rhs()) / scale)))
    return residual


def means(path: ErmakovPath):
    """Normalized first moments (xbar, pbar)."""
    xbar = -path.eps / path.beta
    pbar = path.delta - 2.0 * path.alpha * path.eps / path.beta
    return xbar, pbar


def variances(path: ErmakovPath, n: int = 0):
    """Second moments for number-state index n: (var_p, var_x, product)."""
    _check_n(n)
    w = n + 0.5
    b2 = path.beta**2
    ratio = 4.0 * path.alpha**2 / b2
    var_p = w * (b2 + ratio)
    var_x = w / b2
    product = w * w * (1.0 + ratio / b2)
    return var_p, var_x, product


def _check_n(n):
    if int(n) != n or n < 0:
        raise ConfigError("number-state index n must be a non-negative integer",
                          field="observables.n")


def hamiltonian_expectation(path: ErmakovPath, n: int = 0) -> np.ndarray:
    """Energy expectation along the path for number-state index n."""
    _check_n(n)
    a_t, b_t, c_t, _, f_t, g_t = eval_coeffs(path.coefficients, path.grid)
    w = n + 0.5
    al, be, de, ep = path.alpha, path.beta, path.delta, path.eps
    b2 = be * be
    pbar = de - 2.0 * al * ep / be
    quad = w * (a_t * (b2 + 4.0 * al * al / b2) + (b_t + 2.0 * c_t * al) / b2)
    shift = (
        a_t * pbar * pbar
        + (ep / be) * (f_t + b_t * ep / be)
        - pbar * (g_t + c_t * ep / be)
    )
    return quad + shift


def phase_rates(path: ErmakovPath, n: int = 0):
    """Dynamical and geometric phase rates (energy route).

    The dynamical rate is (2n + 1) a beta^2; the geometric rate is the
    energy expectation minus that.
    """
    return _split_phase_rates(path, n, hamiltonian_expectation(path, n))


def _split_phase_rates(path: ErmakovPath, n: int, h_expect: np.ndarray):
    """(dynamical, geometric) rates from the energy expectation h_expect."""
    a_t = np.asarray(path.coefficients.a(path.grid), dtype=float)
    dyn = (2.0 * n + 1.0) * a_t * path.beta**2
    return dyn, h_expect - dyn


def geometric_rate_state_route(path: ErmakovPath, n: int = 0) -> np.ndarray:
    """Geometric phase rate assembled from the state derivatives:

        -(eps^2 + n + 1/2) alpha'/beta^2 + eps delta'/beta - kappa'

    with the primes evaluated algebraically from the equations of motion,
    sharing nothing with the energy route past the path itself.
    """
    _check_n(n)
    a_t, b_t, c_t, _, f_t, g_t = eval_coeffs(path.coefficients, path.grid)
    al, be, de, ep = path.alpha, path.beta, path.delta, path.eps
    alpha_p = a_t * be**4 - b_t - 2.0 * c_t * al - 4.0 * a_t * al * al
    delta_p = f_t + 2.0 * g_t * al - (c_t + 4.0 * a_t * al) * de + 2.0 * a_t * be**3 * ep
    kappa_p = g_t * de - a_t * de * de + a_t * be * be * ep * ep
    return -(ep**2 + n + 0.5) * alpha_p / be**2 + ep * delta_p / be - kappa_p


def accumulate_phases(grid: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Trapezoid-accumulated phase starting from zero at grid[0]."""
    return cumulative_trapezoid(rate, grid, initial=0.0)


def mode_amplitudes(x_raw: np.ndarray, p_raw: np.ndarray,
                    profile: MediumProfile | None = None):
    """Field amplitudes from the raw means: the displacement-type amplitude
    scales the raw momentum mean, the magnetic-type one the raw position
    mean.  Unit scales when no medium profile is attached."""
    varpi = profile.field_scale_varpi if profile is not None else 1.0
    omega = profile.field_scale_omega if profile is not None else 1.0
    return varpi * p_raw, omega * x_raw


@dataclass(frozen=True)
class FockObservables:
    """All scalar observables along a path for one number-state index."""

    grid: np.ndarray
    n: int
    xbar: np.ndarray
    pbar: np.ndarray
    x_raw: np.ndarray
    p_raw: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    product: np.ndarray
    h_expect: np.ndarray
    phase_dyn_rate: np.ndarray
    phase_geo_rate: np.ndarray
    phase_dyn: np.ndarray
    phase_geo: np.ndarray
    d_amp: np.ndarray
    b_amp: np.ndarray


def compute_observables(path: ErmakovPath, n: int = 0) -> FockObservables:
    """Assemble the full observable set along a path.

    The field amplitude scales come from the medium the path's coefficients
    were derived from, or are unit scales when there is none.
    """
    _check_n(n)
    xbar, pbar = means(path)
    x_raw, p_raw = path.lam * xbar, path.lam * pbar
    var_p, var_x, product = variances(path, n)
    h_expect = hamiltonian_expectation(path, n)
    dyn_rate, geo_rate = _split_phase_rates(path, n, h_expect)
    d_amp, b_amp = mode_amplitudes(x_raw, p_raw, path.coefficients.medium)
    return FockObservables(
        grid=path.grid, n=int(n), xbar=xbar, pbar=pbar,
        x_raw=x_raw, p_raw=p_raw,
        var_x=var_x, var_p=var_p, product=product, h_expect=h_expect,
        phase_dyn_rate=dyn_rate, phase_geo_rate=geo_rate,
        phase_dyn=accumulate_phases(path.grid, dyn_rate),
        phase_geo=accumulate_phases(path.grid, geo_rate),
        d_amp=d_amp, b_amp=b_amp,
    )
