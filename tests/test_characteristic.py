"""Characteristic basis: analytic solutions, damping factor, Wronskian law."""

import math

import numpy as np
import pytest

from quadmode import ConstantFunction, preset_coefficients
from quadmode.characteristic import (
    build_tau_sigma,
    check_grid,
    classical_mode_equivalence,
    integrate_characteristic,
    propagate,
    propagate_stack,
)
from quadmode.coefficients import (
    CoefficientSet,
    MediumProfile,
    SinusoidFunction,
    medium_to_hamiltonian,
)
from quadmode.config import build_grid, bundled_scenarios, load_config
from quadmode.ermakov import build_frame
from quadmode.errors import (BlowUpError, CoefficientEvaluationError, ConfigError,
                             SingularCoefficientError, StiffnessError)
from quadmode.stochastic import sample_path
from quadmode.verify import riccati_oracle

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
    assert basis.lam[-1] == pytest.approx(math.exp(0.5), rel=1e-12)
    cs2 = preset_coefficients("constant", a=0.5, b=0.5, c=2.0)
    basis2 = integrate_characteristic(cs2, grid_to(1.0), **TIGHT)
    assert basis2.lam[-1] == pytest.approx(math.exp(-2.0), rel=1e-12)


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


def test_classical_mode_equivalence_on_a_noisy_realization():
    # the solver restarts at every grid point, which are the realization's
    # knots; a step across the knots left 1.5e-8 here
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    grid = build_grid(scenario)
    profile = sample_path(scenario.noise, scenario.profile, grid).medium
    assert classical_mode_equivalence(profile, grid) <= 1e-9


class _NanPast:
    """eta = 1.3, but a scalar read past t_bad is NaN (array reads, as in
    the medium's positivity scan, stay finite)."""

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def __call__(self, t):
        if np.ndim(t) == 0:
            return math.nan if t > self.t_bad else 1.3
        return np.full(np.shape(t), 1.3)

    scalar = __call__  # the oracle's read


def test_classical_mode_equivalence_reports_where_it_failed():
    prof = MediumProfile(xi=ConstantFunction(1.0), eta=_NanPast(4.0), chi=ConstantFunction(0.1))
    with pytest.raises(StiffnessError, match="equivalence check") as err:
        classical_mode_equivalence(prof, grid_to(10.0))
    assert err.value.t == pytest.approx(4.0, abs=0.05)


def test_grid_validation():
    cs = preset_coefficients("static_oscillator")
    with pytest.raises(ConfigError):
        integrate_characteristic(cs, np.linspace(1.0, 2.0, 11))
    with pytest.raises(ConfigError):
        integrate_characteristic(cs, np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ConfigError, match="at least 2 points"):
        integrate_characteristic(cs, [0.0])


@pytest.mark.parametrize("oracle", ["riccati_oracle", "classical_mode_equivalence"])
@pytest.mark.parametrize("grid, field", [(np.linspace(1.0, 10.0, 181), "grid.t0"),
                                         ([0.0, 1.0, 0.5, 2.0], None),
                                         ([0.0, math.nan, 1.0], None), ([math.nan, 1.0], None),
                                         ([0.0, 1.0, math.inf], None)],
                         ids=["late start", "backwards", "nan inside", "nan start", "inf end"])
def test_the_oracles_reject_the_grids_the_core_rejects(oracle, grid, field):
    # solved anyway, the late start put the t = 0 state at t = 1 (lam[0]
    # read 1.0) and the backwards grid integrated back from t = 1; the
    # grids with an entry that is not finite passed the grid check, and
    # the oracle failed as StiffnessError ("dop853: larger nsteps is needed")
    with pytest.raises(ConfigError) as check:
        check_grid(grid)
    with pytest.raises(ConfigError) as core:
        integrate_characteristic(preset_coefficients("caldirola_kanai"), grid)
    assert str(core.value) == str(check.value)
    solve = {"riccati_oracle": lambda: riccati_oracle(preset_coefficients("caldirola_kanai"),
                                                      grid),
             "classical_mode_equivalence": lambda: classical_mode_equivalence(
                 MediumProfile(xi=ConstantFunction(1.0), eta=ConstantFunction(1.0),
                               chi=ConstantFunction(0.1)), grid)}[oracle]
    with pytest.raises(ConfigError) as err:
        solve()
    assert (str(err.value), err.value.field) == (str(core.value), field)


def test_a_solve_past_its_sets_window_names_the_window():
    # eta turns negative near t = 15.7, past the window [0, 10] the medium
    # was mapped on; solved to t = 20 anyway, the core and the oracle both
    # failed there as StiffnessError
    profile = MediumProfile(xi=ConstantFunction(1.0), eta=SinusoidFunction(1.0, 1.5, 0.3),
                            chi=ConstantFunction(0.1))
    cs = medium_to_hamiltonian(profile, t_max=10.0)
    grid = grid_to(20.0)
    for solve in (lambda: build_frame(cs, grid), lambda: integrate_characteristic(cs, grid),
                  lambda: riccati_oracle(cs, grid), lambda: propagate_stack(cs, 20.0)):
        with pytest.raises(CoefficientEvaluationError) as err:
            solve()
        assert (err.value.name, err.value.t) == ("window", 20.0)
    # inside the slack of the one window rule, the solve runs
    assert build_frame(cs, grid_to(10.0 + 5e-9)).dense.ts[-1] == 10.0 + 5e-9


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
def test_core_window_must_be_positive_and_finite(t_end):
    with pytest.raises(ConfigError, match="positive finite length") as err:
        propagate(preset_coefficients("static_oscillator"), t_end)
    assert err.value.field == "grid.t_max"


def test_rates_need_a_kinetic_term():
    # the core rejects a(0) = 0 first; the rate formulas, called directly,
    # reject a kinetic coefficient that is identically zero
    zero = ConstantFunction(0.0)
    with pytest.raises(SingularCoefficientError, match="identically zero"):
        build_tau_sigma(CoefficientSet(zero, ConstantFunction(0.5), zero, zero, zero, zero))


def test_blow_up_guard_trips():
    # strongly inverted oscillator: mu ~ cosh(10 t) overflows the guard
    cs = preset_coefficients("constant", a=0.5, b=-50.0)
    with pytest.raises(BlowUpError):
        integrate_characteristic(cs, grid_to(80.0), rtol=1e-8, atol=1e-8)


def test_dense_output_matches_grid():
    cs = preset_coefficients("static_oscillator")
    basis = integrate_characteristic(cs, grid_to(3.0), **TIGHT)
    state = basis.dense.read(1.234)[0][:, 0, 0]
    assert state[0] == pytest.approx(math.sin(1.234), abs=1e-11)
    assert state[2] == pytest.approx(math.cos(1.234), abs=1e-11)
