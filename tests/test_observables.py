"""Observable assembly: moments, energy, phases, operator coefficients."""

import math

import numpy as np
import pytest

from quadmode import ConstantFunction, preset_coefficients
from quadmode.coefficients import MediumProfile, medium_to_hamiltonian
from quadmode.ermakov import ErmakovInit, build_frame, closed_form_path
from quadmode.errors import ConfigError
from quadmode.observables import (
    accumulate_phases,
    ansatz_path,
    compute_observables,
    geometric_rate_state_route,
    hamiltonian_expectation,
    heisenberg_residual,
    means,
    mode_amplitudes,
    operator_invariant_defect,
    phase_rates,
    variances,
)
from quadmode.verify import riccati_oracle

TIGHT = dict(rtol=1e-12, atol=1e-14)


def grid_to(t_end, n=201):
    return np.linspace(0.0, t_end, n)


def test_static_ground_state_observables():
    cs = preset_coefficients("static_oscillator")
    path = closed_form_path(build_frame(cs, grid_to(2 * math.pi), **TIGHT))
    obs = compute_observables(path, n=0)
    np.testing.assert_allclose(obs.var_x, 0.5, atol=1e-11)
    np.testing.assert_allclose(obs.var_p, 0.5, atol=1e-11)
    np.testing.assert_allclose(obs.product, 0.25, atol=1e-11)
    np.testing.assert_allclose(obs.h_expect, 0.5, atol=1e-11)
    np.testing.assert_allclose(obs.phase_dyn_rate, 0.5, atol=1e-11)
    np.testing.assert_allclose(obs.phase_geo_rate, 0.0, atol=1e-11)
    # accumulated dynamical phase is t/2
    np.testing.assert_allclose(obs.phase_dyn, path.grid / 2, atol=1e-10)


def test_excited_state_scales_with_index():
    cs = preset_coefficients("static_oscillator")
    path = closed_form_path(build_frame(cs, grid_to(1.0, 11), **TIGHT))
    var_p, var_x, product = variances(path, n=2)
    np.testing.assert_allclose(var_x, 2.5, atol=1e-11)
    np.testing.assert_allclose(var_p, 2.5, atol=1e-11)
    np.testing.assert_allclose(product, 6.25, atol=1e-10)
    dyn, geo = phase_rates(path, n=2)
    np.testing.assert_allclose(dyn, 2.5, atol=1e-11)
    np.testing.assert_allclose(geo, 0.0, atol=1e-10)
    np.testing.assert_allclose(hamiltonian_expectation(path, n=2), 2.5, atol=1e-10)


def test_number_index_validation():
    cs = preset_coefficients("static_oscillator")
    path = closed_form_path(build_frame(cs, grid_to(1.0, 11), **TIGHT))
    with pytest.raises(ConfigError):
        variances(path, n=-1)
    with pytest.raises(ConfigError):
        hamiltonian_expectation(path, n=1.5)


def test_squeezed_vacuum_product_touches_floor():
    # product returns to 1/4 exactly where alpha vanishes
    cs = preset_coefficients("static_oscillator")
    init = ErmakovInit(beta0=math.sqrt(2.0))
    path = closed_form_path(build_frame(cs, grid_to(math.pi, 257), init=init, **TIGHT))
    obs = compute_observables(path, n=0)
    t = path.grid
    # var_x = (1/2) |z|^2 / 2 with |z|^2 = 1 + 3 sin^2 t
    np.testing.assert_allclose(obs.var_x, (1 + 3 * np.sin(t) ** 2) / 4, atol=1e-11)
    assert obs.product[0] == pytest.approx(0.25, abs=1e-12)
    i_half = np.searchsorted(t, math.pi / 2)
    assert obs.product[i_half] == pytest.approx(0.25, abs=1e-9)
    assert np.all(obs.product >= 0.25 - 1e-12)
    # squeezing below the vacuum floor at t = 0 side: var_x(0) = 1/4 < 1/2
    assert obs.var_x[0] == pytest.approx(0.25, abs=1e-12)


def test_driven_means_follow_classical_motion():
    # unit force from rest: xbar = 1 - cos t, pbar = sin t
    cs = preset_coefficients("driven", force=1.0)
    path = closed_form_path(build_frame(cs, grid_to(2 * math.pi, 257), **TIGHT))
    xbar, pbar = means(path)
    np.testing.assert_allclose(xbar, 1 - np.cos(path.grid), atol=1e-10)
    np.testing.assert_allclose(pbar, np.sin(path.grid), atol=1e-10)


def test_means_match_ehrenfest_oracle():
    # independent check: integrate xbar' = 2 a pbar + c xbar - g,
    # pbar' = f - 2 b xbar - c pbar directly
    from scipy.integrate import solve_ivp

    from quadmode.coefficients import CoefficientSet, SinusoidFunction

    cs = CoefficientSet(
        a=ConstantFunction(0.5),
        b=SinusoidFunction(0.5, 0.05, 2.0),
        c=ConstantFunction(0.2),
        d=ConstantFunction(0.1),
        f=ConstantFunction(0.3),
        g=SinusoidFunction(0.0, 0.2, 1.0),
    )
    init = ErmakovInit(alpha0=0.1, beta0=1.2, delta0=0.4, eps0=-0.5)
    grid = grid_to(6.0, 241)
    path = closed_form_path(build_frame(cs, grid, init=init, **TIGHT))
    xbar, pbar = means(path)

    def rhs(t, y):
        return (
            2 * cs.a(t) * y[1] + cs.c(t) * y[0] - cs.g(t),
            cs.f(t) - 2 * cs.b(t) * y[0] - cs.c(t) * y[1],
        )

    sol = solve_ivp(rhs, (0.0, 6.0), (xbar[0], pbar[0]), t_eval=grid,
                    rtol=1e-12, atol=1e-14, method="DOP853")
    np.testing.assert_allclose(xbar, sol.y[0], atol=1e-9)
    np.testing.assert_allclose(pbar, sol.y[1], atol=1e-9)


def test_operator_coefficients_invariant_and_equations():
    cs = preset_coefficients("driven", force=1.0)
    init = ErmakovInit(alpha0=0.2, beta0=1.3, delta0=0.3, eps0=-0.7)
    frame = build_frame(cs, grid_to(6.0, 241), init=init, **TIGHT)
    path = closed_form_path(build_frame(cs, frame.grid, init=init, **TIGHT))
    op = ansatz_path(path)
    assert operator_invariant_defect(op) < 1e-12
    assert heisenberg_residual(frame, dt=1e-3) < 1e-5


def test_heisenberg_residual_scales_with_dt():
    cs = preset_coefficients("static_oscillator")
    frame = build_frame(cs, grid_to(3.0), **TIGHT)
    r1 = heisenberg_residual(frame, dt=2e-3)
    r2 = heisenberg_residual(frame, dt=1e-3)
    assert r2 < r1  # second-order differences keep shrinking


def test_geometric_rate_two_routes_agree():
    cs = preset_coefficients("parametric", depth=0.1, frequency=2.0)
    init = ErmakovInit(beta0=math.sqrt(2.0), delta0=0.3, eps0=-0.2)
    grid = grid_to(2 * math.pi, 513)
    path = closed_form_path(build_frame(cs, grid, init=init, **TIGHT))
    _, geo_energy = phase_rates(path, n=1)
    geo_state = geometric_rate_state_route(path, n=1)
    np.testing.assert_allclose(geo_energy, geo_state, atol=1e-9)
    # accumulated phases agree too
    p1 = accumulate_phases(grid, geo_energy)
    p2 = accumulate_phases(grid, geo_state)
    np.testing.assert_allclose(p1, p2, atol=1e-9)


def test_raw_means_pick_up_damping():
    # constant c: lambda = e^{-ct}, raw means are damped normalized means
    cs = preset_coefficients("constant", a=0.5, b=0.5, c=0.4)
    init = ErmakovInit(delta0=1.0)
    path = closed_form_path(build_frame(cs, grid_to(2.0, 81), init=init, **TIGHT))
    obs = compute_observables(path, n=0)
    lam = np.exp(-0.4 * path.grid)
    np.testing.assert_allclose(obs.x_raw, lam * obs.xbar, atol=1e-11)
    np.testing.assert_allclose(obs.p_raw, lam * obs.pbar, atol=1e-11)


def test_mode_amplitudes_scaling():
    # the field scales come from the medium the path's coefficients map
    prof = MediumProfile(
        xi=ConstantFunction(1.0), eta=ConstantFunction(1.0),
        chi=ConstantFunction(0.0),
        field_scale_omega=3.0, field_scale_varpi=2.0,
    )
    cs = medium_to_hamiltonian(prof, t_max=1.0)
    init = ErmakovInit(delta0=1.0)
    path = closed_form_path(build_frame(cs, grid_to(1.0, 41), init=init, **TIGHT))
    obs = compute_observables(path, n=0)
    # delta(0) = 1: pbar(0) = 1, so the displacement amplitude starts at 2
    assert obs.d_amp[0] == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(obs.d_amp, 2.0 * obs.p_raw, atol=1e-13)
    np.testing.assert_allclose(obs.b_amp, 3.0 * obs.x_raw, atol=1e-13)
    d2, b3 = mode_amplitudes(obs.x_raw, obs.p_raw, prof)
    np.testing.assert_allclose(d2, obs.d_amp, atol=0)


def test_observables_work_on_direct_path():
    # oracle paths carry no frame: lambda must be rebuilt internally
    cs = preset_coefficients("constant", a=0.5, b=0.5, c=0.4)
    init = ErmakovInit(delta0=1.0)
    grid = grid_to(2.0, 81)
    oracle = riccati_oracle(cs, grid, init=init, method="DOP853", **TIGHT)
    obs = compute_observables(oracle, n=0)
    lam = np.exp(-0.4 * grid)
    np.testing.assert_allclose(obs.x_raw, lam * obs.xbar, atol=1e-10)


def test_medium_scenario_observables_finite_and_damped():
    prof = MediumProfile(
        xi=ConstantFunction(1.0), eta=ConstantFunction(1.0),
        chi=ConstantFunction(0.1),
        field_scale_omega=1.0, field_scale_varpi=2.0,
    )
    cs = medium_to_hamiltonian(prof, t_max=10.0)
    init = ErmakovInit(delta0=0.3, eps0=-0.7)
    path = closed_form_path(build_frame(cs, grid_to(10.0, 201), init=init, **TIGHT))
    obs = compute_observables(path, n=0)
    assert np.all(np.isfinite(obs.product))
    assert np.all(obs.product >= 0.25 - 1e-12)
    # no damping of the NORMALIZED means envelope... but the raw means decay:
    # lambda = 1 here (c = d = 0), raw equals normalized for this mapping
    np.testing.assert_allclose(obs.x_raw, obs.xbar, atol=1e-13)
