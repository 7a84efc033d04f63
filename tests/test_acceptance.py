"""Acceptance gate: every shipped guarantee, at its contractual tolerance.

One test per criterion, each printing a single pass/fail line (run with
`pytest -s tests/test_acceptance.py` to see them inline).  All deterministic
paths are integrated at tight solver settings so the comparisons measure the
mathematics, not integrator noise.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from quadmode.characteristic import (
    classical_mode_equivalence,
    integrate_characteristic,
)
from quadmode.coefficients import (
    ConstantFunction,
    MediumProfile,
    SinusoidFunction,
    _fd4_derivative_samples,
    medium_to_hamiltonian,
)
from quadmode.config import build_grid, bundled_scenarios, load_config
from quadmode.ermakov import build_frame, closed_form_path
from quadmode.observables import (
    accumulate_phases,
    ansatz_path,
    compute_observables,
    geometric_rate_state_route,
    heisenberg_residual,
    operator_invariant_defect,
)
from quadmode.stochastic import run_ensemble, sample_path
from quadmode.verify import quasi_invariants, riccati_oracle, wronskian_drift

TIGHT = dict(rtol=1e-12, atol=1e-14)

PATH_COLUMNS = ("alpha", "beta", "gamma", "delta", "eps", "kappa")


def report(num: int, label: str, value: float, tol: float) -> None:
    ok = math.isfinite(value) and value < tol
    line = (f"criterion {num:02d} {'PASS' if ok else 'FAIL'} "
            f"{label}: {value:.3e} (tol {tol:.1e})")
    print(line)
    assert ok, line


def _materialize(scenario):
    """Tight frame + closed-form path + observables for one scenario.

    A scenario with a noise block is read deterministically as its
    realization with path index 0.
    """
    cs = scenario.build_coefficients(scenario.grid.t_max)
    grid = build_grid(scenario, cs)
    if scenario.noise is not None:
        cs = sample_path(scenario.noise, scenario.profile, grid)
    frame = build_frame(cs, grid, init=scenario.init, **TIGHT)
    path = closed_form_path(frame)
    obs = compute_observables(path, n=scenario.n)
    return SimpleNamespace(scenario=scenario, cs=cs, grid=grid, profile=cs.medium,
                           frame=frame, path=path, obs=obs)


@pytest.fixture(scope="session")
def gallery():
    out = {}
    for name, path in bundled_scenarios().items():
        out[name] = _materialize(load_config(path))
    return out


@pytest.fixture(scope="session")
def noisy_scenario():
    return load_config(bundled_scenarios()["noisy_lossy_medium"])


def _ensemble(scenario, paths: int):
    import dataclasses
    spec = dataclasses.replace(scenario.noise, paths=paths)
    grid = build_grid(scenario)
    return run_ensemble(spec, scenario.profile, init=scenario.init,
                        n=scenario.n, grid=grid)


@pytest.fixture(scope="session")
def ensemble_256(noisy_scenario):
    return _ensemble(noisy_scenario, 256)


@pytest.fixture(scope="session")
def ensemble_256_repeat(noisy_scenario):
    return _ensemble(noisy_scenario, 256)


@pytest.fixture(scope="session")
def ensemble_1024(noisy_scenario):
    return _ensemble(noisy_scenario, 1024)


def test_criterion_01_closed_form_matches_direct_integration(gallery):
    worst = 0.0
    for name, case in gallery.items():
        oracle = riccati_oracle(case.cs, case.grid, init=case.scenario.init, **TIGHT)
        dev = max(float(np.max(np.abs(getattr(case.path, k) - getattr(oracle, k))))
                  for k in PATH_COLUMNS)
        worst = max(worst, dev)
    report(1, "closed form vs direct integration, all scenarios on [0, 10]",
           worst, 1e-7)


def test_criterion_02_static_oscillator_analytics(gallery):
    case = gallery["static_oscillator"]
    t = case.grid
    frame = case.frame
    devs = [
        float(np.max(np.abs(frame.mu0 - np.sin(t)))),
        float(np.max(np.abs(frame.mu1 - np.cos(t)))),
        float(np.max(np.abs(case.path.alpha))),
        float(np.max(np.abs(case.path.beta - 1.0))),
        float(np.max(np.abs(case.path.gamma + t / 2.0))),
        float(np.max(np.abs(case.obs.var_x - 0.5))),
        float(np.max(np.abs(case.obs.var_p - 0.5))),
        float(np.max(np.abs(case.obs.product - 0.25))),
        float(np.max(np.abs(case.obs.phase_geo_rate))),
        float(np.max(np.abs(geometric_rate_state_route(case.path, 0)))),
    ]
    report(2, "static oscillator analytic solution", max(devs), 1e-9)


def test_criterion_03_commutator_preservation(gallery):
    worst = max(operator_invariant_defect(ansatz_path(case.path))
                for case in gallery.values())
    report(3, "operator commutator pinned at -i on every path", worst, 1e-12)


def test_criterion_04_heisenberg_equation_residual(gallery):
    worst = max(heisenberg_residual(case.frame, dt=1e-3)
                for case in gallery.values())
    report(4, "finite-difference residual of the operator equations", worst, 1e-6)


def test_criterion_05_uncertainty_bound(gallery, ensemble_256):
    floor_breach = 0.0
    equality_dev = 0.0
    for case in gallery.values():
        floor_breach = max(floor_breach, 0.25 - float(np.min(case.obs.product)))
        still = np.abs(case.path.alpha) < 1e-11
        if np.any(still):
            equality_dev = max(equality_dev, float(
                np.max(np.abs(case.obs.product[still] - 0.25))))
    floor_breach = max(floor_breach, 0.25 - ensemble_256.product_floor)
    report(5, "uncertainty product floor, deterministic and stochastic",
           max(floor_breach, 0.0), 1e-12)
    line = (f"criterion 05 {'PASS' if equality_dev < 1e-10 else 'FAIL'} "
            f"equality at alpha=0, n=0: {equality_dev:.3e} (tol 1e-10)")
    print(line)
    assert equality_dev < 1e-10, line


def test_criterion_06_quasi_invariants(gallery):
    worst = 0.0
    for name in ("driven_oscillator", "squeezed_vacuum"):
        case = gallery[name]
        qi = quasi_invariants(case.frame)
        sel = qi.mask & (case.grid >= 0.1)
        assert np.any(sel)
        for k in ("state", "transport", "amplitude", "action"):
            worst = max(worst, float(np.max(np.abs(getattr(qi, k)[sel]))))
    report(6, "quasi-invariant residuals, driven and squeezed, t in [0.1, 10]",
           worst, 1e-7)


def test_criterion_07_wronskian_law(gallery):
    grid20 = np.linspace(0.0, 20.0, 401)
    worst = 0.0
    for name, case in gallery.items():
        cs20 = case.scenario.build_coefficients(20.0)
        if case.scenario.noise is not None:
            cs20 = sample_path(case.scenario.noise, case.scenario.profile, grid20)
        basis20 = integrate_characteristic(cs20, grid20, **TIGHT)
        worst = max(worst, wronskian_drift(basis20))
    report(7, "Wronskian law over windows of length 20, all scenarios",
           worst, 1e-8)


def test_criterion_08_classical_mode_equivalence(gallery):
    smooth = [
        gallery["lossy_medium"].profile,
        MediumProfile(xi=SinusoidFunction(offset=1.0, amplitude=0.2, frequency=1.0),
                      eta=ConstantFunction(1.0),
                      chi=ConstantFunction(0.05)),
    ]
    grid = np.linspace(0.0, 10.0, 201)
    fine = np.linspace(0.0, 10.0, 10001)  # dt=1e-3 keeps FD truncation ~1e-14
    coeff_resid = 0.0
    amp_dev = 0.0
    for profile in smooth:
        cs = medium_to_hamiltonian(profile, t_max=float(grid[-1]))
        # damping coefficient: numerical log-derivative of the kinetic
        # coefficient against the classical (xi' + chi)/xi, independently
        log_a = np.log(cs.a(fine))
        damping_num = -_fd4_derivative_samples(fine, log_a)
        xi_vals = profile.xi(fine)
        xi_prime = _fd4_derivative_samples(fine, xi_vals)
        damping_cl = (xi_prime + profile.chi(fine)) / xi_vals
        coeff_resid = max(coeff_resid,
                          float(np.max(np.abs(damping_num - damping_cl))))
        # restoring coefficient: 4 a b against upsilon^2 / (xi eta)
        restoring = 4.0 * cs.a(fine) * cs.b(fine)
        classical = profile.upsilon**2 / (xi_vals * profile.eta(fine))
        coeff_resid = max(coeff_resid,
                          float(np.max(np.abs(restoring - classical))))
        amp_dev = max(amp_dev, classical_mode_equivalence(profile, grid))
    report(8, "mode equation coefficients match the classical form",
           coeff_resid, 1e-8)
    line = (f"criterion 08 {'PASS' if amp_dev < 1e-6 else 'FAIL'} "
            f"mode amplitudes track classical q(t): {amp_dev:.3e} (tol 1e-6)")
    print(line)
    assert amp_dev < 1e-6, line


def test_criterion_09_geometric_phase_route_consistency(gallery):
    case = gallery["parametric_modulation"]
    period = 2.0 * math.pi / 2.0  # modulation frequency 2.0
    fine = np.linspace(0.0, period, 629)
    path = closed_form_path(case.frame, fine)
    rate_energy = compute_observables(path, case.scenario.n).phase_geo_rate
    rate_state = geometric_rate_state_route(path, case.scenario.n)
    gap = abs(accumulate_phases(fine, rate_energy)[-1]
              - accumulate_phases(fine, rate_state)[-1])
    report(9, "two geometric-phase routes over one modulation period", gap, 1e-6)


def test_criterion_10_stochastic_reproducibility_and_scaling(
        ensemble_256, ensemble_256_repeat, ensemble_1024):
    identical = (
        ensemble_256.n_failed == ensemble_256_repeat.n_failed
        and ensemble_256.product_floor == ensemble_256_repeat.product_floor
        and all(np.array_equal(ensemble_256.mean[k], ensemble_256_repeat.mean[k])
                and np.array_equal(ensemble_256.stderr[k],
                                   ensemble_256_repeat.stderr[k])
                for k in ensemble_256.tracked)
    )
    line = (f"criterion 10 {'PASS' if identical else 'FAIL'} "
            "identical summaries for identical seeds")
    print(line)
    assert identical, line

    # pointwise stderr ratios fluctuate; the median over the grid is the
    # stable reading of the 256 -> 1024 shrink factor (expected 2x)
    ratios = []
    for k in ensemble_256.tracked:
        s256 = ensemble_256.stderr[k][1:]
        s1024 = ensemble_1024.stderr[k][1:]
        ratios.append(float(np.median(s256 / s1024)))
    worst_low, worst_high = min(ratios), max(ratios)
    ok = 1.0 <= worst_low and worst_high <= 3.0
    line = (f"criterion 10 {'PASS' if ok else 'FAIL'} "
            f"standard errors shrink 2x (+-50%) at 4x paths: "
            f"ratios in [{worst_low:.2f}, {worst_high:.2f}] (allowed [1, 3])")
    print(line)
    assert ok, line
