"""Noise processes, rejection sampling, ensemble statistics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from quadmode import ConstantFunction, characteristic, coefficients, ermakov, stochastic
from quadmode.coefficients import (ExponentialFunction, MediumProfile, TableFunction,
                                   medium_to_hamiltonian)
from quadmode.ermakov import ErmakovInit, build_frame, closed_form_path
from quadmode.errors import (CoefficientEvaluationError, ConfigError, EnsembleError,
                             InvalidMediumError, PathRejectedError, QuadmodeError)
from quadmode.observables import compute_observables
from quadmode.stochastic import (
    _CHUNK_PATHS,
    TRACKED_OBSERVABLES,
    EnsembleSummary,
    NoiseSpec,
    run_ensemble,
    sample_path,
)


def noise_values(spec, grid, path_index=0, retry=0):
    """One realization of the raw noise process at the grid times: the
    sampler's block of one key."""
    return stochastic._noise_block(spec, np.asarray(grid, dtype=float), [(path_index, retry)])[:, 0]


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
    # a slot past the reserved stride would be another path's
    with pytest.raises(ValueError, match="stride"):
        noise_values(spec, grid, path_index=3, retry=16)


def test_zero_amplitude_returns_base_itself():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.0, correlation_time=1.0)
    base = lossy_profile()
    assert sample_path(spec, base, np.linspace(0, 5, 11)).medium is base


def test_sampled_profile_adds_noise_to_target():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=7)
    grid = np.linspace(0, 5, 101)
    base = lossy_profile()
    prof = sample_path(spec, base, grid, path_index=0).medium
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


def test_telegraph_chain_autocovariance():
    # the grid samples of the chain have autocovariance a^2 e^(-lag h / tc)
    # at every lag: each key's mean of x_j x_(j + lag) over its grid, the
    # keys independent, within 4 stderr at each of the 20 lags
    amp, tc, h = 0.3, 0.5, 0.1
    spec = NoiseSpec(target="chi", model="telegraph", amplitude=amp, correlation_time=tc,
                     seed=8)
    x = stochastic._noise_block(spec, np.arange(101) * h, [(key, 0) for key in range(4000)])
    for lag in range(1, 21):
        per_key = (x[:-lag] * x[lag:]).mean(axis=0)
        stderr = per_key.std(ddof=1) / math.sqrt(per_key.size)
        assert abs(per_key.mean() - amp**2 * math.exp(-lag * h / tc)) < 4.0 * stderr, lag


def test_telegraph_chain_reads_one_uniform_per_grid_point():
    # a key's samples are the chain read from the first grid.size uniforms
    # of its own stream: the first picks the sign, each later one flips it
    # with probability (1 - e^(-h / tc)) / 2 over its interval h
    spec = NoiseSpec(target="chi", model="telegraph", amplitude=0.3, correlation_time=0.4,
                     seed=5)
    grid = np.cumsum(np.linspace(0.0, 0.3, 61))  # uneven steps
    u = stochastic._generator(spec.seed, 3, 2).random(grid.size)
    flips = np.cumsum(u[1:] < -0.5 * np.expm1(-np.diff(grid) / 0.4))
    sign = (1.0 if u[0] < 0.5 else -1.0) * (-1.0) ** np.append(0, flips)
    assert 0 < flips[-1] < grid.size - 1
    np.testing.assert_array_equal(noise_values(spec, grid, 3, retry=2), 0.3 * sign)


def test_rejection_budget_exhausts_for_hopeless_noise():
    # sigma = 2 on xi = 1: essentially every draw goes nonpositive
    spec = NoiseSpec(target="xi", model="ornstein_uhlenbeck",
                     amplitude=2.0, correlation_time=1.0, seed=1)
    with pytest.raises(PathRejectedError):
        sample_path(spec, lossy_profile(), np.linspace(0, 5, 101))


def test_redraw_is_decided_by_the_medium_scan():
    # path 66's second draw keeps xi positive on a 4x refinement of the
    # grid but not on the medium's own scan (t = 1.739); a sampler that
    # judged draws by the refinement accepted it, and the path was lost
    # to InvalidMediumError.  Now the scan's failure is a redraw.
    spec = NoiseSpec(target="xi", model="ornstein_uhlenbeck", amplitude=0.8,
                     correlation_time=1.0, seed=17, paths=200)
    base, grid = lossy_profile(), np.linspace(0, 2, 41)
    second = 1.0 + noise_values(spec, grid, 66, retry=1)
    with pytest.raises(InvalidMediumError) as scan:
        medium_to_hamiltonian(replace(base, xi=TableFunction(grid, second)), t_max=2.0)
    assert scan.value.t == 1.739
    summary = run_ensemble(spec, base, grid=grid)
    assert summary.n_failed == 0 and summary.failures == {}
    accepted = sample_path(spec, base, grid, path_index=66).medium.xi.values
    assert not np.array_equal(accepted, 1.0 + noise_values(spec, grid, 66))
    assert not np.array_equal(accepted, second)


def test_a_draw_negative_between_scan_points_is_redrawn(monkeypatch):
    # 4800 steps, finer than the medium's 4001-point scan: knot 2001
    # (t = 5.0025) lies 0.6 knot spacings from either neighbouring scan
    # point, so a draw negative only there passes the scan alone.  The
    # medium also checks a 4x refinement of a table's knots, so the draw
    # (planted as the path's first) is rejected and the path redrawn.
    spec = NoiseSpec(target="xi", model="ornstein_uhlenbeck", amplitude=0.1,
                     correlation_time=1.0, seed=3, paths=2)
    base, grid = lossy_profile(), np.linspace(0, 12, 4801)
    samples = np.ones(grid.size)
    samples[2001] = -0.01
    drawn = replace(base, xi=TableFunction(grid, samples))
    assert np.all(drawn.xi(np.linspace(0, 12, 4001)) > 0.0)
    with pytest.raises(InvalidMediumError) as err:
        medium_to_hamiltonian(drawn, t_max=12.0)
    assert err.value.t == pytest.approx(grid[2001], abs=1e-12)
    perturbed = stochastic._perturbed
    monkeypatch.setattr(stochastic, "_perturbed", lambda spec, base, grid, keys: (
        drawn if keys == [(0, 0)] else perturbed(spec, base, grid, keys)))
    accepted = sample_path(spec, base, grid, path_index=0).medium
    assert accepted is not drawn and np.all(accepted.xi.values > 0.0)


def test_zero_amplitude_on_a_nonpositive_base_is_not_redrawn():
    # no noise, nothing to redraw: the medium's own error stands
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.0, correlation_time=1.0)
    base = replace(lossy_profile(), eta=ConstantFunction(-1.0))
    with pytest.raises(InvalidMediumError) as err:
        sample_path(spec, base, np.linspace(0, 2, 41))
    assert err.value.t == 0.0


def test_ensemble_degenerate_zero_amplitude():
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
    grid = np.linspace(0, 40, 81)
    with pytest.raises(EnsembleError) as err:
        run_ensemble(spec, lossy_profile(), grid=grid)
    # the message names the first failure: its class, path and time, the
    # first negative xi of path 0's last draw
    with pytest.raises(PathRejectedError) as first:
        sample_path(spec, lossy_profile(), grid, path_index=0)
    t = first.value.t
    assert 0.0 <= t <= 40.0 and err.value.t == t
    assert str(err.value) == ("4 of 4 paths failed (1% allowed); the first, path 0, "
                              f"raised PathRejectedError at t={t!r}")


def per_path_reference(spec, base, grid, init):
    """The ensemble as one path at a time: sample_path, build_frame and the
    full compute_observables per path index, aggregated like run_ensemble;
    with the failures by class and the profiles drawn, by path index."""
    rows = {name: [] for name in TRACKED_OBSERVABLES}
    profiles, failures = {}, {}
    for idx in range(spec.paths):
        try:
            cs = sample_path(spec, base, grid, idx)
            frame = build_frame(cs, grid, init=init, rtol=1e-8, atol=1e-10)
            obs = compute_observables(closed_form_path(frame), n=0)
        except QuadmodeError as exc:
            record = failures.setdefault(type(exc).__name__,
                                         {"count": 0, "first_path": idx, "t": exc.t})
            record["count"] += 1
            continue
        profiles[idx] = cs.medium
        for name in TRACKED_OBSERVABLES:
            rows[name].append(getattr(obs, name))
    blocks = {name: np.array(rows[name]) for name in TRACKED_OBSERVABLES}
    mean = {name: block.mean(axis=0) for name, block in blocks.items()}
    stderr = {name: block.std(axis=0, ddof=1) / math.sqrt(len(profiles))
              for name, block in blocks.items()}
    return mean, stderr, float(np.min(blocks["product"])), profiles, failures


def assert_summary_is_reference(summary, spec, base, grid, init):
    mean, stderr, floor, profiles, failures = per_path_reference(spec, base, grid, init)
    assert summary.n_failed == spec.paths - len(profiles)
    assert summary.failures == failures
    for name in TRACKED_OBSERVABLES:
        assert summary.mean[name].tobytes() == mean[name].tobytes()
        assert summary.stderr[name].tobytes() == stderr[name].tobytes()
    assert summary.product_floor == floor
    return profiles


def tabulated_xi_profile(grid):
    """lossy_profile with xi tabulated on the grid: chi/xi has no exact
    integral, so each path's Ichi comes from the medium scan's spline."""
    return replace(lossy_profile(), xi=TableFunction(grid, 1.0 + 0.2 * np.sin(2.0 * grid)))


@pytest.mark.parametrize("target, model, amplitude, tabulated_xi", [
    pytest.param("chi", "ornstein_uhlenbeck", 0.05, False, id="chi-ornstein_uhlenbeck-0.05"),
    pytest.param("chi", "telegraph", 0.05, False, id="chi-telegraph-0.05"),
    # some first draws break positivity
    pytest.param("xi", "ornstein_uhlenbeck", 0.45, False, id="xi-ornstein_uhlenbeck-0.45"),
    pytest.param("eta", "ornstein_uhlenbeck", 0.2, False, id="eta-ornstein_uhlenbeck-0.2"),
    pytest.param("chi", "ornstein_uhlenbeck", 0.05, True,
                 id="chi-ornstein_uhlenbeck-0.05-tabulated_xi"),
])
def test_chunked_ensemble_equals_per_path_reference(target, model, amplitude, tabulated_xi):
    # two full chunks and a partial one
    spec = NoiseSpec(target=target, model=model, amplitude=amplitude,
                     correlation_time=1.0, seed=17, paths=2 * _CHUNK_PATHS + 3)
    grid = np.linspace(0, 2, 41)
    base = tabulated_xi_profile(grid) if tabulated_xi else lossy_profile()
    init = ErmakovInit(delta0=0.3, eps0=-0.7)
    summary = run_ensemble(spec, base, grid=grid, init=init)
    profiles = assert_summary_is_reference(summary, spec, base, grid, init)
    assert summary.n_failed == 0 and summary.failures == {}
    if target == "xi":
        retried = [idx for idx, profile in profiles.items()
                   if not np.array_equal(profile.xi.values, 1.0 + noise_values(spec, grid, idx))]
        assert retried


def test_a_chunk_reads_each_stage_once(monkeypatch):
    # 64 paths of chi noise on 40 knots: the shared pass reads the chunk's
    # noise table once per _Segments block, never path by path, and the
    # paths that keep the shared steps are assembled in one call
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck", amplitude=0.05,
                     correlation_time=1.0, seed=17, paths=_CHUNK_PATHS)
    grid = np.linspace(0, 2, 41)
    blocks, assembled = [], []  # per _Segments block: its paths, and its table reads
    chunk, read, assemble = (characteristic._Segments._chunk, coefficients.TableFunction.__call__,
                             ermakov.ErmakovPath)

    def counting_chunk(cs, *args):
        blocks.append((cs.width, []))
        try:
            return chunk(cs, *args)
        finally:
            blocks.append(None)  # reads after this are not the block's

    def counting_read(self, t):
        if blocks and blocks[-1] is not None:
            blocks[-1][1].append(self.pp.c.ndim == 3)  # columns: a trailing path axis
        return read(self, t)

    monkeypatch.setattr(characteristic._Segments, "_chunk", staticmethod(counting_chunk))
    monkeypatch.setattr(coefficients.TableFunction, "__call__", counting_read)
    monkeypatch.setattr(ermakov, "ErmakovPath",  # built once per closed-form assembly
                        lambda *args, **kwargs: assembled.append(args[0]) or assemble(*args,
                                                                                     **kwargs))
    summary = run_ensemble(spec, lossy_profile(), grid=grid)
    monkeypatch.undo()
    assert summary.n_failed == 0
    blocks = [block for block in blocks if block is not None]
    assert blocks[0] == (_CHUNK_PATHS, [True])  # the first pass, in one _Segments block
    assert all(reads == [True] for _, reads in blocks)
    assert len(assembled) == 1


def test_shared_pass_with_refining_and_failing_paths_equals_reference(monkeypatch):
    # telegraph noise of amplitude 0.95 on xi: many first draws break
    # positivity and redraw together, one round per retry slot, and each
    # slot's accepted draws take one shared core pass; the few whose xi
    # jumps steeply refine alone after it, and path 105 is rejected on
    # every draw, so it never joins a stack (1 of 131 is in budget)
    spec = NoiseSpec(target="xi", model="telegraph", amplitude=0.95,
                     correlation_time=1.0, seed=22, paths=2 * _CHUNK_PATHS + 3)
    base, grid = lossy_profile(), np.linspace(0, 2, 41)
    init = ErmakovInit(delta0=0.3, eps0=-0.7)
    stack_sizes, rounds = [], []  # per pass its paths; per chunk, the paths of each slot's set
    doubling, draw = characteristic._doubling_pass, stochastic.sample_path

    def recording_pass(cs, *args):
        stack_sizes.append(cs.width or 1)
        return doubling(cs, *args)

    def recording_draws(*args):
        sets, failed = draw(*args)
        rounds.append([len(paths) for _, paths in sets])
        return sets, failed

    monkeypatch.setattr(characteristic, "_doubling_pass", recording_pass)
    monkeypatch.setattr(stochastic, "sample_path", recording_draws)
    summary = run_ensemble(spec, base, grid=grid, init=init)
    monkeypatch.undo()
    assert [sum(sizes) for sizes in rounds] == [64, 63, 3]
    assert len(rounds[0]) > 2
    assert [size for size in stack_sizes if size > 1] == [size for sizes in rounds
                                                          for size in sizes if size > 1]
    assert stack_sizes.count(1) >= 7 + sum(sizes.count(1) for sizes in rounds)
    (name, record), = summary.failures.items()
    assert (name, record["count"], record["first_path"]) == ("PathRejectedError", 1, 105)
    assert_summary_is_reference(summary, spec, base, grid, init)


def test_a_stack_whose_assembly_overflows_fails_each_path_alone(monkeypatch):
    # xi = e^t, eta = e^-t, chi = -1.5 e^t + noise: tau = 0.5 and 4 sigma = 1,
    # so the core's states stay far inside its guard, but a(t) = e^(1.5t) /
    # (2 xi) reads exp(-Ichi) = e^(1.5t) past the float range from t = 473.2
    # on.  The two paths keep their shared steps, their stacked assembly
    # meets a = inf, and each path then meets its own error alone, the one
    # build_frame and closed_form_path give it
    base = MediumProfile(xi=ExponentialFunction(1.0, 1.0), eta=ExponentialFunction(1.0, -1.0),
                         chi=ExponentialFunction(-1.5, 1.0))
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck", amplitude=0.01,
                     correlation_time=1.0, seed=1, paths=2)
    grid = np.linspace(0.0, 474.0, 1897)
    sizes = []
    assemble = stochastic.closed_form_path
    monkeypatch.setattr(stochastic, "closed_form_path", lambda frame, *args: (
        sizes.append(frame.coefficients.width or 1) or assemble(frame, *args)))
    with pytest.raises(EnsembleError, match="2 of 2 paths failed") as err:
        run_ensemble(spec, base, grid, rtol=1e-6)
    monkeypatch.undo()
    assert sizes == [2, 1, 1]
    frame = build_frame(sample_path(spec, base, grid, 0), grid, rtol=1e-6, atol=1e-10)
    with pytest.raises(CoefficientEvaluationError) as alone:
        closed_form_path(frame)
    assert alone.value.name == "a" and 473.2 < alone.value.t == err.value.t
    assert "path 0, raised CoefficientEvaluationError" in str(err.value)


def test_the_tracked_order_is_written_once(monkeypatch):
    # the chunk's block and the product floor follow TRACKED_OBSERVABLES:
    # reversed, every entry stays under its own name
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=11, paths=8)
    grid = np.linspace(0, 3, 61)
    plain = run_ensemble(spec, lossy_profile(), grid=grid)
    monkeypatch.setattr(stochastic, "TRACKED_OBSERVABLES", TRACKED_OBSERVABLES[::-1])
    reversed_ = run_ensemble(spec, lossy_profile(), grid=grid)
    assert reversed_.tracked == TRACKED_OBSERVABLES[::-1]
    for name in TRACKED_OBSERVABLES:
        assert reversed_.mean[name].tobytes() == plain.mean[name].tobytes(), name
        assert reversed_.stderr[name].tobytes() == plain.stderr[name].tobytes(), name
    assert reversed_.product_floor == plain.product_floor


def test_the_summary_holds_one_observable_temporary(monkeypatch):
    # 6,400 paths x 41 points of random observables: the mean and spread go
    # one observable at a time, so the peak past the collected block is one
    # observable's temporaries, not five
    paths, grid = 6400, np.linspace(0, 2, 41)
    rng = np.random.default_rng(5)

    def random_chunk(spec, base, grid, chunk, *args):
        return rng.random((len(TRACKED_OBSERVABLES), len(chunk), grid.size)), {}

    monkeypatch.setattr(stochastic, "_run_chunk", random_chunk)
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck", amplitude=0.05,
                     correlation_time=1.0, paths=paths)
    tracemalloc.start()
    try:
        summary = run_ensemble(spec, lossy_profile(), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.n_paths == paths
    assert peak < 1.5 * len(TRACKED_OBSERVABLES) * paths * grid.size * 8


def test_ensemble_requires_enough_paths():
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.01, correlation_time=1.0, paths=1)
    with pytest.raises(ConfigError):
        run_ensemble(spec, lossy_profile(), grid=np.linspace(0, 2, 41))


def test_ensemble_fock_index_error_is_not_a_path_failure():
    # the observables reject n for every path alike: a config error
    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.01, correlation_time=1.0, paths=4)
    with pytest.raises(ConfigError) as err:
        run_ensemble(spec, lossy_profile(), grid=np.linspace(0, 2, 41), n=-1)
    assert err.value.field == "n"


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
    from quadmode.ermakov import build_frame, closed_form_path
    from quadmode.verify import riccati_oracle

    spec = NoiseSpec(target="chi", model="ornstein_uhlenbeck",
                     amplitude=0.05, correlation_time=1.0, seed=11, paths=4)
    grid = np.linspace(0, 5, 101)
    cs = sample_path(spec, lossy_profile(), grid, path_index=2)
    init = ErmakovInit(beta0=1.0, delta0=0.3, eps0=-0.7)
    frame = build_frame(cs, grid, init=init, rtol=1e-8, atol=1e-10)
    path = closed_form_path(frame, grid)
    oracle = riccati_oracle(cs, grid, init=init, rtol=1e-8, atol=1e-10)
    worst = 0.0
    for name in ("alpha", "beta", "gamma", "delta", "eps", "kappa"):
        worst = max(worst, float(np.max(np.abs(
            getattr(path, name) - getattr(oracle, name)))))
    assert worst < 1e-6
