"""Characteristic basis: analytic solutions, damping factor, Wronskian law."""

import math

import numpy as np
import pytest

from quadmode import ConstantFunction, preset_coefficients
from quadmode.characteristic import (
    build_tau_sigma,
    classical_mode_equivalence,
    integrate_characteristic,
)
from quadmode.coefficients import (
    CoefficientSet,
    MediumProfile,
    SinusoidFunction,
    medium_to_hamiltonian,
)
from quadmode.errors import BlowUpError, ConfigError

TIGHT = dict(rtol=1e-12, atol=1e-14)


def grid_to(t_end, n=201):
    return np.linspace(0.0, t_end, n)


def test_static_oscillator_basis_is_trigonometric():
    # a = b = 1/2: tau = 0, 4 sigma = 1, so mu0 = sin t, mu1 = cos t
    cs = preset_coefficients("static_oscillator")
    tau, four_sigma = build_tau_sigma(cs)
    assert tau(1.3) == 0.0
    assert four_sigma(1.3) == pytest.approx(1.0, rel=1e-15)
    basis = integrate_characteristic(cs, grid_to(2 * math.pi), **TIGHT)
    np.testing.assert_allclose(basis.mu0, np.sin(basis.grid), atol=1e-11)
    np.testing.assert_allclose(basis.mu1, np.cos(basis.grid), atol=1e-11)
    np.testing.assert_allclose(basis.lam, 1.0, atol=1e-14)
    np.testing.assert_allclose(basis.wronskian, 1.0, atol=1e-11)


def test_free_particle_basis_is_linear():
    cs = preset_coefficients("free_particle")
    basis = integrate_characteristic(cs, grid_to(5.0), **TIGHT)
    np.testing.assert_allclose(basis.mu0, basis.grid, atol=1e-12)
    np.testing.assert_allclose(basis.mu1, 1.0, atol=1e-12)


def test_caldirola_kanai_basis_closed_form():
    # a = e^{-2t}/2, b = e^{2t}/2: tau = -2, 4 sigma = 1.
    # mu'' + 2 mu' + mu = 0 gives mu0 = t e^{-t} (mu0'(0) = 2a(0) = 1)
    # and mu1 = (1 + t) e^{-t}.
    cs = preset_coefficients("caldirola_kanai", rate=1.0)
    tau, four_sigma = build_tau_sigma(cs)
    assert tau(0.7) == pytest.approx(-2.0, rel=1e-14)
    assert four_sigma(0.7) == pytest.approx(1.0, rel=1e-14)
    basis = integrate_characteristic(cs, grid_to(2.0), **TIGHT)
    t = basis.grid
    np.testing.assert_allclose(basis.mu0, t * np.exp(-t), atol=1e-12)
    np.testing.assert_allclose(basis.mu1, (1 + t) * np.exp(-t), atol=1e-12)
    i = np.searchsorted(t, 2.0)
    assert basis.mu0[i] == pytest.approx(2 * math.exp(-2.0), abs=1e-12)
    # no xp-type damping here: c = d = 0 so lambda = 1
    np.testing.assert_allclose(basis.lam, 1.0, atol=1e-14)


def test_lambda_accumulates_c_minus_2d():
    # constant c and d: lambda = exp(-(c - 2d) t)
    cs = preset_coefficients("constant", a=0.5, b=0.5, c=0.3, d=0.4)
    basis = integrate_characteristic(cs, grid_to(1.0), **TIGHT)
    lam_end = np.exp(-basis.dense(1.0)[4])
    assert lam_end == pytest.approx(math.exp(0.5), rel=1e-12)
    cs2 = preset_coefficients("constant", a=0.5, b=0.5, c=2.0)
    basis2 = integrate_characteristic(cs2, grid_to(1.0), **TIGHT)
    assert np.exp(-basis2.dense(1.0)[4]) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_wronskian_follows_damping_law():
    # nonconstant a, c, d all active: exact law W = W(0) (a/a(0)) lambda^2
    cs = CoefficientSet(
        a=SinusoidFunction(1.0, 0.3, 1.0),
        b=ConstantFunction(0.5),
        c=ConstantFunction(0.2),
        d=SinusoidFunction(0.0, 0.1, 2.0),
        f=ConstantFunction(0.0),
        g=ConstantFunction(0.0),
    )
    basis = integrate_characteristic(cs, grid_to(8.0, 321), **TIGHT)
    np.testing.assert_allclose(
        basis.wronskian, basis.wronskian_predicted(), rtol=1e-9, atol=1e-11
    )


def test_tau_sigma_with_time_dependent_d():
    # 4 sigma picks up -2 d' for varying d
    cs = CoefficientSet(
        a=ConstantFunction(0.5),
        b=ConstantFunction(0.5),
        c=ConstantFunction(0.0),
        d=SinusoidFunction(0.0, 0.1, 2.0),
        f=ConstantFunction(0.0),
        g=ConstantFunction(0.0),
    )
    tau, four_sigma = build_tau_sigma(cs)
    t = 0.9
    dv = 0.1 * math.sin(2 * t)
    dpv = 0.2 * math.cos(2 * t)
    assert tau(t) == pytest.approx(4 * dv, rel=1e-13)
    assert four_sigma(t) == pytest.approx(1.0 + 4 * dv * dv - 2 * dpv, rel=1e-13)


def test_medium_tau_sigma_exact_combinations():
    prof = MediumProfile(
        xi=SinusoidFunction(1.0, 0.2, 1.0),
        eta=ConstantFunction(1.0),
        chi=ConstantFunction(0.1),
    )
    cs = medium_to_hamiltonian(prof, t_max=10.0)
    tau, four_sigma = build_tau_sigma(cs)
    t = 3.3
    xi_v = 1.0 + 0.2 * math.sin(t)
    xi_p = 0.2 * math.cos(t)
    assert tau(t) == pytest.approx(-(0.1 + xi_p) / xi_v, rel=1e-14)
    assert four_sigma(t) == pytest.approx(1.0 / xi_v, rel=1e-14)


def test_classical_mode_equivalence_small():
    prof = MediumProfile(
        xi=SinusoidFunction(1.0, 0.2, 1.0),
        eta=ConstantFunction(1.0),
        chi=ConstantFunction(0.1),
    )
    dev = classical_mode_equivalence(prof, grid_to(10.0, 401))
    assert dev < 1e-8


def test_grid_validation():
    cs = preset_coefficients("static_oscillator")
    with pytest.raises(ConfigError):
        integrate_characteristic(cs, np.linspace(1.0, 2.0, 11))
    with pytest.raises(ConfigError):
        integrate_characteristic(cs, np.array([0.0, 0.5, 0.5, 1.0]))


def test_blow_up_guard_trips():
    # strongly inverted oscillator: mu ~ cosh(10 t) overflows the guard
    cs = preset_coefficients("constant", a=0.5, b=-50.0)
    with pytest.raises(BlowUpError):
        integrate_characteristic(cs, grid_to(80.0), rtol=1e-8, atol=1e-8)


def test_dense_output_matches_grid():
    cs = preset_coefficients("static_oscillator")
    basis = integrate_characteristic(cs, grid_to(3.0), **TIGHT)
    state = basis.dense(1.234)
    assert state[0] == pytest.approx(math.sin(1.234), abs=1e-11)
    assert state[2] == pytest.approx(math.cos(1.234), abs=1e-11)
