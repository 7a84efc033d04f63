"""Monte Carlo over randomly varying media.

Each path perturbs one medium function additively with a stationary noise
process sampled on the run grid (cubic interpolation in between, like any
tabulated coefficient):

    ornstein_uhlenbeck   exact discretization
                         X_{k+1} = phi X_k + amplitude sqrt(1 - phi^2) N(0,1),
                         phi = exp(-dt / correlation_time), stationary start
    telegraph            amplitude * (+-1) with exponential holding times of
                         mean 2 * correlation_time

Both have autocovariance amplitude^2 exp(-|s| / correlation_time).

Randomness is counter-based (Philox keyed by seed, path index, and retry
slot), so any path regenerates in isolation and summaries are bit-identical
across reruns regardless of execution order.

Noise enters the medium coefficients, never the quantum state: every path
is an ordinary smooth coefficient set run through the deterministic
pipeline, which sidesteps any stochastic-calculus convention.  A sampled
path that drives xi or eta nonpositive is redrawn up to a fixed budget
(clamping would bias the statistics); a path exhausting the budget raises
PathRejectedError, and the ensemble aborts if more than a small fraction
of paths are lost that way.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import MediumProfile, TableFunction, medium_to_hamiltonian
from .ermakov import ErmakovInit, solve_ermakov
from .errors import ConfigError, EnsembleError, PathRejectedError, QuadmodeError
from .observables import compute_observables

__all__ = [
    "NoiseSpec",
    "EnsembleSummary",
    "noise_values",
    "sample_path",
    "run_ensemble",
    "TRACKED_OBSERVABLES",
]

_MODELS = ("ornstein_uhlenbeck", "telegraph")
_TARGETS = ("xi", "eta", "chi")

TRACKED_OBSERVABLES = ("var_x", "var_p", "product", "xbar", "pbar")

_RETRY_STRIDE = 16  # key slots reserved per path, bounding the retry budget


@dataclass(frozen=True)
class NoiseSpec:
    """Additive stationary noise on one medium function, with the ensemble
    bookkeeping (seed and path count) that makes a run reproducible."""

    target: str
    model: str
    amplitude: float
    correlation_time: float
    seed: int = 0
    paths: int = 256

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ConfigError(f"noise target must be one of {_TARGETS}",
                              field="noise.target")
        if self.model not in _MODELS:
            raise ConfigError(f"noise model must be one of {_MODELS}",
                              field="noise.model")
        if not (self.amplitude >= 0.0) or not math.isfinite(self.amplitude):
            raise ConfigError("noise amplitude must be finite and >= 0",
                              field="noise.amplitude")
        if not (self.correlation_time > 0.0) or not math.isfinite(self.correlation_time):
            raise ConfigError("noise correlation time must be finite and > 0",
                              field="noise.correlation_time")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer", field="noise.seed")
        if int(self.paths) != self.paths or self.paths < 1:
            raise ConfigError("paths must be a positive integer", field="noise.paths")


def _generator(seed: int, path_index: int, retry: int) -> np.random.Generator:
    if not 0 <= retry < _RETRY_STRIDE:
        raise ValueError("retry outside the reserved key stride")
    key = (int(seed) << 64) | (int(path_index) * _RETRY_STRIDE + int(retry))
    return np.random.Generator(np.random.Philox(key=key))


def noise_values(spec: NoiseSpec, grid, path_index: int = 0,
                 retry: int = 0) -> np.ndarray:
    """One realization of the raw noise process at the grid times."""
    grid = np.asarray(grid, dtype=float)
    rng = _generator(spec.seed, path_index, retry)
    n = grid.size
    out = np.empty(n)
    amp, tc = spec.amplitude, spec.correlation_time
    if spec.model == "ornstein_uhlenbeck":
        draws = rng.standard_normal(n)
        out[0] = amp * draws[0]
        phi = np.exp(-np.diff(grid) / tc)
        kick = amp * np.sqrt(1.0 - phi * phi)
        for k in range(1, n):
            out[k] = phi[k - 1] * out[k - 1] + kick[k - 1] * draws[k]
        return out
    # telegraph: exponential holding times with mean 2 * correlation_time,
    # so the autocovariance decays at rate 1 / correlation_time
    sign = 1.0 if rng.random() < 0.5 else -1.0
    rate = 1.0 / (2.0 * tc)
    t_flip = rng.exponential(1.0 / rate)
    for k, t in enumerate(grid):
        while t_flip <= t:
            sign = -sign
            t_flip += rng.exponential(1.0 / rate)
        out[k] = amp * sign
    return out


def sample_path(spec: NoiseSpec, base: MediumProfile, grid,
                path_index: int = 0, retry_budget: int = 10) -> MediumProfile:
    """Perturbed medium profile for one path, tabulated on the grid.

    Zero amplitude returns the base profile itself.  Realizations that drive
    xi or eta nonpositive anywhere on (a refinement of) the grid are redrawn
    from a fresh key slot; exhausting the budget raises PathRejectedError.
    """
    if spec.amplitude == 0.0:
        return base
    if retry_budget >= _RETRY_STRIDE:
        raise ConfigError(f"retry budget must stay below {_RETRY_STRIDE}",
                          field="noise.retry_budget")
    grid = np.asarray(grid, dtype=float)
    fine = np.linspace(grid[0], grid[-1], 4 * (grid.size - 1) + 1)
    for retry in range(retry_budget + 1):
        values = noise_values(spec, grid, path_index, retry)
        perturbed = replace(
            base,
            **{spec.target: TableFunction(grid, np.asarray(getattr(base, spec.target)(grid),
                                                           dtype=float) + values)},
        )
        if np.all(perturbed.xi(fine) > 0.0) and np.all(perturbed.eta(fine) > 0.0):
            return perturbed
    raise PathRejectedError(
        f"path {path_index}: medium positivity violated on every draw "
        f"within the {retry_budget}-retry budget"
    )


@dataclass(frozen=True)
class EnsembleSummary:
    """Pointwise ensemble mean and standard error of the tracked
    observables, plus bookkeeping: counts, seed, and the smallest
    uncertainty product seen on any path (the pathwise floor)."""

    grid: np.ndarray
    n_paths: int
    n_failed: int
    seed: int
    tracked: tuple
    mean: dict
    stderr: dict
    product_floor: float


def run_ensemble(
    spec: NoiseSpec,
    base: MediumProfile,
    init: ErmakovInit | None = None,
    n: int = 0,
    grid=None,
    mu1_init: float = 1.0,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    retry_budget: int = 10,
    max_failed_fraction: float = 0.01,
) -> EnsembleSummary:
    """Run the deterministic pipeline over spec.paths noisy realizations
    and aggregate the tracked observables pointwise.

    Per-path solver tolerances default looser than deterministic runs: the
    Monte Carlo error dominates long before solver error at 1e-8 matters.
    Aggregation uses numpy's pairwise summation, so the result depends only
    on the key set, not on evaluation order.
    """
    if grid is None:
        raise ConfigError("ensemble needs a time grid", field="grid")
    if spec.paths < 2:
        raise ConfigError("ensemble needs at least 2 paths", field="noise.paths")
    grid = np.asarray(grid, dtype=float)
    init = init or ErmakovInit()

    collected = {name: np.empty((spec.paths, grid.size)) for name in TRACKED_OBSERVABLES}
    n_ok = 0
    n_failed = 0
    floor = math.inf
    for idx in range(spec.paths):
        try:
            perturbed = sample_path(spec, base, grid, idx, retry_budget)
            cs = medium_to_hamiltonian(perturbed, t_max=float(grid[-1]))
            path = solve_ermakov(cs, grid, init=init, mu1_init=mu1_init,
                                 rtol=rtol, atol=atol)
            obs = compute_observables(path, n=n, profile=perturbed)
        except ConfigError:
            raise  # a bad setup fails every path alike; it is not a numerical failure
        except QuadmodeError:
            n_failed += 1
            continue
        for name in TRACKED_OBSERVABLES:
            collected[name][n_ok] = getattr(obs, name)
        floor = min(floor, float(np.min(obs.product)))
        n_ok += 1

    if n_failed > max_failed_fraction * spec.paths:
        raise EnsembleError(
            f"{n_failed} of {spec.paths} paths failed ({max_failed_fraction:.0%} allowed)"
        )
    if n_ok < 2:
        raise EnsembleError("fewer than 2 paths survived; no statistics possible")

    mean = {}
    stderr = {}
    root = math.sqrt(n_ok)
    for name in TRACKED_OBSERVABLES:
        block = collected[name][:n_ok]
        mean[name] = block.mean(axis=0)
        stderr[name] = block.std(axis=0, ddof=1) / root
    return EnsembleSummary(grid=grid, n_paths=spec.paths, n_failed=n_failed,
                           seed=int(spec.seed), tracked=TRACKED_OBSERVABLES,
                           mean=mean, stderr=stderr, product_floor=floor)
