"""Noise processes, rejection sampling, ensemble statistics."""

import math

import numpy as np
import pytest

from quadmode import ConstantFunction
from quadmode.coefficients import MediumProfile
from quadmode.ermakov import ErmakovInit
from quadmode.errors import ConfigError, EnsembleError, PathRejectedError
from quadmode.stochastic import (
    EnsembleSummary,
    NoiseSpec,
    noise_values,
    run_ensemble,
    sample_path,
)


def lossy_profile(chi=0.1):
    return MediumProfile(
        xi=ConstantFunction(1.0),
        eta=ConstantFunction(1.0),
        chi=ConstantFunction(chi),
    )


def test_noise_spec_validation():
    with pytest.raises(ConfigError):
        NoiseSpec(target="mu", model="telegraph", amplitude=0.1, correlation_time=1.0)
    with pytest.raises(ConfigError):
        NoiseSpec(target="chi", model="white", amplitude=0.1, correlation_time=1.0)
    with pytest.raises(ConfigError):
        NoiseSpec(target="chi", model="telegraph", amplitude=-0.1, correlation_time=1.0)
    with pytest.raises(ConfigError):
        NoiseSpec(target="chi", model="telegraph", amplitude=0.1, correlation_time=0.0)
    with pytest.raises(ConfigError):
        NoiseSpec(target="chi", model="telegraph", amplitude=0.1,
                  correlation_time=1.0, seed=-1)


def test_noise_is_deterministic_per_key():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=42)
    grid = np.linspace(0, 5, 101)
    a = noise_values(spec, grid, path_index=3)
    b = noise_values(spec, grid, path_index=3)
    np.testing.assert_array_equal(a, b)
    c = noise_values(spec, grid, path_index=4)
    assert not np.array_equal(a, c)
    # retry slots are distinct streams too
    d = noise_values(spec, grid, path_index=3, retry=1)
    assert not np.array_equal(a, d)


def test_zero_amplitude_returns_base_itself():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.0, correlation_time=1.0)
    base = lossy_profile()
    assert sample_path(spec, base, np.linspace(0, 5, 11)) is base


def test_sampled_profile_adds_noise_to_target():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=7)
    grid = np.linspace(0, 5, 101)
    base = lossy_profile()
    prof = sample_path(spec, base, grid, path_index=0)
    vals = noise_values(spec, grid, path_index=0)
    np.testing.assert_allclose(prof.chi(grid), 0.1 + vals, atol=1e-12)
    # untouched functions are the same objects
    assert prof.xi is base.xi and prof.eta is base.eta


def test_ou_statistics():
    # stationary variance amplitude^2; autocorrelation e^{-1} at one
    # correlation time, both within Monte Carlo error on 10^4 samples
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=2024)
    dt = 0.1
    grid = np.arange(10_001) * dt
    x = noise_values(spec, grid)
    var = x.var()
    assert var == pytest.approx(0.05**2, rel=0.1)
    lag = int(round(1.0 / dt))
    corr = np.dot(x[:-lag] - x.mean(), x[lag:] - x.mean()) / ((x.size - lag) * var)
    assert corr == pytest.approx(math.exp(-1.0), abs=0.08)


def test_telegraph_statistics():
    spec = NoiseSpec(target="xi", model="telegraph",
                     amplitude=0.05, correlation_time=1.0, seed=99)
    dt = 0.1
    grid = np.arange(10_001) * dt
    x = noise_values(spec, grid)
    assert set(np.unique(np.abs(x))) == {0.05}
    lag = int(round(1.0 / dt))
    corr = np.dot(x[:-lag], x[lag:]) / ((x.size - lag) * 0.05**2)
    assert corr == pytest.approx(math.exp(-1.0), abs=0.08)


def test_rejection_budget_exhausts_for_hopeless_noise():
    # sigma = 2 on xi = 1: essentially every draw goes nonpositive
    spec = NoiseSpec(target="xi", model="ornstein_uhlenbeck",
                     amplitude=2.0, correlation_time=1.0, seed=1)
    with pytest.raises(PathRejectedError):
        sample_path(spec, lossy_profile(), np.linspace(0, 5, 101))


def test_ensemble_degenerate_zero_amplitude():
    from quadmode.coefficients import medium_to_hamiltonian
    from quadmode.ermakov import build_frame, closed_form_path
    from quadmode.observables import compute_observables

    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.0, correlation_time=1.0, seed=0, paths=4)
    base = lossy_profile()
    grid = np.linspace(0, 3, 61)
    init = ErmakovInit(delta0=0.3, eps0=-0.7)
    summary = run_ensemble(spec, base, init=init, n=0, grid=grid)
    assert summary.n_failed == 0
    for name in summary.tracked:
        np.testing.assert_array_equal(summary.stderr[name], 0.0)
    # mean equals the deterministic run
    cs = medium_to_hamiltonian(base, t_max=3.0)
    det = compute_observables(closed_form_path(build_frame(cs, grid, init=init)), n=0)
    np.testing.assert_allclose(summary.mean["product"], det.product, rtol=1e-7)
    np.testing.assert_allclose(summary.mean["xbar"], det.xbar, rtol=1e-6, atol=1e-9)


def test_ensemble_reproducible_and_floor_respected():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=11, paths=8)
    base = lossy_profile()
    grid = np.linspace(0, 3, 61)
    s1 = run_ensemble(spec, base, grid=grid)
    s2 = run_ensemble(spec, base, grid=grid)
    for name in s1.tracked:
        np.testing.assert_array_equal(s1.mean[name], s2.mean[name])
        np.testing.assert_array_equal(s1.stderr[name], s2.stderr[name])
    assert s1.product_floor >= 0.25 - 1e-12
    assert s1.n_failed == 0
    assert np.all(s1.stderr["product"] >= 0)


def test_ensemble_error_when_too_many_paths_fail():
    # telegraph at amplitude 2 on xi = 1: any flip leaves xi = -1 somewhere,
    # and over 80 correlation times every draw flips; all paths reject
    spec = NoiseSpec(target="xi", model="telegraph",
                     amplitude=2.0, correlation_time=0.5, seed=5, paths=4)
    with pytest.raises(EnsembleError):
        run_ensemble(spec, lossy_profile(), grid=np.linspace(0, 40, 81))


def test_ensemble_requires_enough_paths():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.01, correlation_time=1.0, paths=1)
    with pytest.raises(ConfigError):
        run_ensemble(spec, lossy_profile(), grid=np.linspace(0, 2, 41))


def test_ensemble_config_errors_propagate():
    # a non-uniform grid cannot carry a noise table: that is a config
    # problem for every path alike, not a count of failed paths
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.01, correlation_time=1.0, paths=4)
    grid = np.linspace(0, 2, 41) ** 2 / 2
    with pytest.raises(ConfigError, match="uniformly spaced"):
        run_ensemble(spec, lossy_profile(), grid=grid)


def test_stderr_shrinks_with_more_paths():
    base = lossy_profile()
    grid = np.linspace(0, 2, 41)
    small = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                      amplitude=0.05, correlation_time=1.0, seed=3, paths=16)
    big = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                    amplitude=0.05, correlation_time=1.0, seed=3, paths=64)
    s_small = run_ensemble(small, base, grid=grid)
    s_big = run_ensemble(big, base, grid=grid)
    # skip t=0 where all paths agree exactly
    ratio = np.median(s_small.stderr["product"][1:] / s_big.stderr["product"][1:])
    assert 1.2 < ratio < 3.5


def test_sampled_path_matches_oracle_within_ensemble_tolerance():
    # a single realization must still satisfy the deterministic machinery:
    # closed-form assembly vs the direct nonlinear integration, at the
    # looser per-path solver settings used inside the ensemble
    from quadmode.coefficients import medium_to_hamiltonian
    from quadmode.ermakov import build_frame, closed_form_path
    from quadmode.verify import riccati_oracle

    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=11, paths=4)
    grid = np.linspace(0, 5, 101)
    realization = sample_path(spec, lossy_profile(), grid, path_index=2)
    cs = medium_to_hamiltonian(realization, t_max=5.0)
    init = ErmakovInit(beta0=1.0, delta0=0.3, eps0=-0.7)
    frame = build_frame(cs, grid, init=init, rtol=1e-8, atol=1e-10)
    path = closed_form_path(frame, grid)
    oracle = riccati_oracle(cs, grid, init=init, method="RK45",
                            rtol=1e-8, atol=1e-10)
    worst = 0.0
    for name in ("alpha", "beta", "gamma", "delta", "eps", "kappa"):
        worst = max(worst, float(np.max(np.abs(
            getattr(path, name) - getattr(oracle, name)))))
    assert worst < 1e-6
