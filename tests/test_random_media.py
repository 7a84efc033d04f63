"""An oracle for the random-media layer that shares nothing with the core:
the ensemble mean of the characteristic basis against the second-order
cumulant (Bourret) equation.

In noisy_lossy_medium (xi = eta = upsilon = 1) noise on chi enters the
characteristic matrix A = [[0, 1], [-4 sigma, tau]] linearly: tau =
-(chi + xi')/xi = -chi, and 4 sigma = upsilon^2 / (xi eta) holds no chi.  So
A = Abar + dchi(t) B with B = [[0, 0], [0, -1]], and for stationary noise of
autocovariance a^2 e^(-|s| / tc) the mean basis Y = [[mu0, mu1], [mu0',
mu1']] obeys, to second order in the Kubo number a tc (van Kampen, Physica
74 (1974) 215),

    <Y>' = (Abar + K(t)) <Y>,
    K(t) = a^2 int_0^t e^(-u / tc) B e^(Abar u) B e^(-Abar u) du.

The kernel comes from expm and a cumulative trapezoid, the equation from
solve_ivp; the paths from the medium mapping and the core's stacked pass,
read at the grid nodes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from quadmode.characteristic import propagate_stack
from quadmode.coefficients import ConstantFunction, medium_to_hamiltonian_stack
from quadmode.config import build_grid, bundled_scenarios, load_config
from quadmode.errors import QuadmodeError
from quadmode.stochastic import _perturbed

B = np.array([[0.0, 0.0], [0.0, -1.0]])
Y0 = np.array([[0.0, 1.0], [1.0, 0.0]])  # mu0 = 0, mu0' = 2 a(0) = 1; mu1 = 1, mu1' = 0
AMPLITUDE, CORRELATION_TIME, PATHS = 0.3, 1.0, 1000
# the largest of ~400 correlated |z| (mu0 and mu1 on 201 points, about 20
# points per correlation time) passes 4 with a chance of a few in 1,000
K_STDERR = 4.0


def bourret_mean(abar, grid, amplitude, tc):
    """<Y> on the grid, shape (2, 2, m), from the Bourret equation."""
    u = np.linspace(0.0, grid[-1], 4001)
    rotated = B @ expm(abar * u[:, None, None]) @ B @ expm(-abar * u[:, None, None])
    integral = cumulative_trapezoid(np.exp(-u / tc)[:, None, None] * rotated, u, axis=0,
                                    initial=0.0)
    kernel = CubicSpline(u, amplitude**2 * integral, axis=0)

    def rhs(t, y):
        return ((abar + kernel(t)) @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (0.0, grid[-1]), Y0.ravel(), method="DOP853", t_eval=grid,
                    rtol=1e-11, atol=1e-13)
    assert sol.success
    return sol.y.reshape(2, 2, -1)


def path_basis(spec, profile, grid):
    """mu0 and mu1 of each path on the grid, shape (2, paths, m)."""
    cs, errors = medium_to_hamiltonian_stack(
        _perturbed(spec, profile, grid, [(p, 0) for p in range(spec.paths)]), grid[-1])
    assert errors == [None] * spec.paths  # chi noise breaks no positivity
    rows = []
    for _, prop in propagate_stack(cs, grid[-1], rtol=1e-8, atol=1e-10):
        assert not isinstance(prop, QuadmodeError), prop
        rows.append(prop.read(grid)[0][[0, 2]])
    return np.concatenate(rows, axis=1)


@pytest.mark.parametrize("model", ["ornstein_uhlenbeck", "telegraph"])
def test_ensemble_mean_obeys_the_bourret_equation(model):
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    medium = scenario.profile
    assert all(isinstance(fn, ConstantFunction) for fn in (medium.xi, medium.eta, medium.chi))
    assert (medium.xi.value, medium.eta.value, medium.upsilon) == (1.0, 1.0, 1.0)
    abar = np.array([[0.0, 1.0], [-1.0, -medium.chi.value]])
    grid = build_grid(scenario)
    spec = replace(scenario.noise, model=model, amplitude=AMPLITUDE,
                   correlation_time=CORRELATION_TIME, paths=PATHS)
    basis = path_basis(spec, medium, grid)[..., 1:]  # t = 0 holds Y0 on every path
    mean = basis.mean(axis=1)
    stderr = basis.std(axis=1, ddof=1) / math.sqrt(PATHS)
    oracle = bourret_mean(abar, grid, AMPLITUDE, CORRELATION_TIME)[0, :, 1:]  # mu0, mu1
    noise_free = (expm(abar * grid[1:, None, None]) @ Y0)[:, 0].T
    # past second order: the next cumulant, (a tc)^2 relative to the
    # second-order effect, and the cubic interpolation of grid samples,
    # dt / tc relative to it
    higher = ((AMPLITUDE * CORRELATION_TIME)**2 + (grid[1] - grid[0]) / CORRELATION_TIME) \
        * np.abs(oracle - noise_free)
    excess = np.abs(mean - oracle) - K_STDERR * stderr - higher
    assert excess.max() <= 0.0, np.max(np.abs(mean - oracle) / stderr)
    # the check has power: the paths resolve the second-order effect
    assert np.max(np.abs(mean - noise_free) / stderr) > 2.0 * K_STDERR
