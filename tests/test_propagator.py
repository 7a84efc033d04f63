"""The Magnus propagator core: accuracy, order, error control, guards."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quadmode import characteristic, preset_coefficients
from quadmode.characteristic import (
    _STEP_EXPONENT,
    _Segments,
    _coefficient_rates,
    _prefix_products,
    build_tau_sigma,
    integrate_characteristic,
    propagate,
)
from quadmode.coefficients import (
    CoefficientSet,
    ConstantFunction,
    SinusoidFunction,
    medium_to_hamiltonian,
)
from quadmode.config import build_grid, bundled_scenarios, load_config
from quadmode.ermakov import ErmakovInit, build_frame
from quadmode.errors import BlowUpError, StiffnessError
from quadmode.stochastic import sample_path


def dop853_basis(cs, grid):
    """(mu0, mu0', mu1, mu1') on the grid from DOP853 at rtol 1e-13."""
    tau, four_sigma = build_tau_sigma(cs)

    def rhs(t, y):
        tv, sv = tau(t), four_sigma(t)
        return (y[1], tv * y[1] - sv * y[0], y[3], tv * y[3] - sv * y[2])

    sol = solve_ivp(rhs, (0.0, grid[-1]), (0.0, 2.0 * float(cs.a(0.0)), 1.0, 0.0),
                    t_eval=grid, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y


def basis_rows(basis):
    return np.vstack([basis.mu0, basis.mu0p, basis.mu1, basis.mu1p])


def scenario_coefficients(name):
    scenario = load_config(bundled_scenarios()[name])
    grid = build_grid(scenario)
    if scenario.noise is None:
        return scenario.build_coefficients(scenario.grid.t_max), grid
    profile = sample_path(scenario.noise, scenario.profile, grid)  # realization 0
    return medium_to_hamiltonian(profile, t_max=scenario.grid.t_max), grid


def test_static_oscillator_on_and_off_grid():
    cs = preset_coefficients("static_oscillator")
    grid = np.linspace(0.0, 10.0, 201)
    basis = integrate_characteristic(cs, grid)
    np.testing.assert_allclose(basis.mu0, np.sin(grid), rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.mu1, np.cos(grid), rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.mu0p, np.cos(grid), rtol=0, atol=1e-12)
    for t in (0.0, 0.123, math.pi, 7.77, 10.0):
        mu0, mu0p, mu1, mu1p, ell = basis.dense(t)
        assert mu0 == pytest.approx(math.sin(t), abs=1e-12)
        assert mu0p == pytest.approx(math.cos(t), abs=1e-12)
        assert mu1 == pytest.approx(math.cos(t), abs=1e-12)
        assert mu1p == pytest.approx(-math.sin(t), abs=1e-12)
        assert ell == 0.0


def test_halving_the_step_cuts_the_error_sixtyfourfold():
    # the core is of order 6: the global error falls by 2^6 per halving
    cs = preset_coefficients("parametric", depth=0.5, frequency=2.0)
    y0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact = dop853_basis(cs, np.array([0.0, 10.0]))[:, -1]
    errors = []
    for n in (80, 160):
        edges = np.linspace(0.0, 10.0, n + 1)
        seg = _Segments(_coefficient_rates(cs), edges[:-1], np.diff(edges), nested=False)
        y = _prefix_products(seg.prop)[..., -1] @ y0
        errors.append(np.max(np.abs(np.array([y[0, 0], y[1, 0], y[0, 1], y[1, 1]]) - exact)))
    assert 48.0 < errors[0] / errors[1] < 80.0, errors


@pytest.mark.parametrize("name, rtol, atol", [
    ("parametric_modulation", 1e-10, 1e-12),  # run tolerance
    ("noisy_lossy_medium", 1e-8, 1e-10),      # ensemble tolerance
])
def test_doubling_estimate_meets_rtol(name, rtol, atol):
    cs, grid = scenario_coefficients(name)
    reference = dop853_basis(cs, grid)
    basis = integrate_characteristic(cs, grid, rtol=rtol, atol=atol)
    bound = atol + rtol * np.max(np.abs(reference), axis=1, keepdims=True)
    assert np.all(np.abs(basis_rows(basis) - reference) <= bound)


def test_blow_up_reports_time_within_one_step():
    # mu'' = 100 mu: mu1' = 10 sinh(10 t) is the first entry to pass 1e150
    cs = preset_coefficients("constant", a=0.5, b=-50.0)
    with pytest.raises(BlowUpError) as err:
        propagate(cs, 80.0)
    crossing = math.asinh(1e149) / 10.0
    step = _STEP_EXPONENT / 10.0  # longest step at growth rate 10
    assert crossing - step <= err.value.t <= crossing


def test_unresolvable_coefficient_stops_at_the_step_cap():
    # a 1e9 rad/s modulation is never resolved: refinement must give up
    cs = CoefficientSet(a=ConstantFunction(0.5), b=SinusoidFunction(0.5, 0.4, 1e9),
                        c=ConstantFunction(0.0), d=ConstantFunction(0.0),
                        f=ConstantFunction(0.0), g=ConstantFunction(0.0))
    with pytest.raises(StiffnessError, match="did not converge"):
        propagate(cs, 10.0)


def test_driven_reads_match_grid_and_rerun_is_identical():
    # a driven and an undriven frame take the same route through the core
    init = ErmakovInit(alpha0=0.2, beta0=1.3, delta0=0.3, eps0=-0.7)
    grid = np.linspace(0.0, 6.0, 121)
    for cs in (preset_coefficients("driven", force=1.0),
               preset_coefficients("parametric", depth=0.1, frequency=2.0)):
        f1 = build_frame(cs, grid, init=init)
        f2 = build_frame(cs, grid, init=init)
        for a, b in ((f1.basis.dense.ts, f2.basis.dense.ts), (f1.z, f2.z),
                     (f1.delta_star, f2.delta_star), (f1.kappa_star, f2.kappa_star)):
            assert a.tobytes() == b.tobytes()
        z, _, lam, _, _, stars = f1.eval(grid[::10])
        np.testing.assert_allclose(z, f1.z[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(lam, f1.lam[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(stars[0], f1.delta_star[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(stars[2], f1.kappa_star[::10], rtol=0, atol=1e-13)
        assert np.any(f1.kappa_star != 0.0) == cs.driven
        # step nodes follow the error estimate, not the output density
        dense = build_frame(cs, np.linspace(0.0, 6.0, 6001), init=init)
        assert dense.basis.dense.ts.tobytes() == f1.basis.dense.ts.tobytes()


def scenario_frame(name):
    """build_frame at the scenario's own solver settings (realization 0 for
    a noisy scenario)."""
    scenario = load_config(bundled_scenarios()[name])
    cs, grid = scenario_coefficients(name)
    solver = scenario.solver
    return build_frame(cs, grid, init=scenario.init,
                       rtol=solver["rtol"], atol=solver["atol"])


def record_passes(monkeypatch):
    """Per refinement pass: its step edges and the number of segments it
    evaluated."""
    passes = []
    init, doubling = _Segments.__init__, characteristic._doubling_pass

    def counting_init(self, rates, tl, theta, nested):
        passes[-1][1] += tl.size
        init(self, rates, tl, theta, nested)

    def recording_pass(rates, edges, *args):
        passes.append([edges.copy(), 0])
        with monkeypatch.context() as m:
            m.setattr(_Segments, "__init__", counting_init)
            return doubling(rates, edges, *args)

    monkeypatch.setattr(characteristic, "_doubling_pass", recording_pass)
    return passes


# scenarios whose refinement takes at least three passes
@pytest.mark.parametrize("name", ["parametric_modulation", "driven_oscillator"])
def test_every_pass_evaluates_its_own_steps(monkeypatch, name):
    passes = record_passes(monkeypatch)
    scenario_frame(name)
    assert len(passes) >= 3
    for edges, evaluated in passes:
        assert evaluated == 3 * (edges.size - 1)  # whole step and two halves
