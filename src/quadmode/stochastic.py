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
pipeline, which sidesteps any stochastic-calculus convention.  A draw
that the medium mapping's positivity check rejects is redrawn up to a
fixed budget (clamping would bias the statistics); a path exhausting the
budget raises PathRejectedError, and the ensemble aborts if more than a
small fraction of paths are lost that way.

An ensemble runs in fixed chunks of paths, each stage of a chunk one
stacked call over its paths (run_ensemble); every path's numbers are
bitwise those of the path run alone.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .characteristic import check_grid, propagate_stack
from .coefficients import (CoefficientSet, MediumProfile, TableFunction, _SplineOverflow,
                           medium_to_hamiltonian_stack)
from .ermakov import ErmakovInit, closed_form_stack
from .errors import (ConfigError, EnsembleError, InvalidMediumError, PathRejectedError,
                     QuadmodeError, _number)
from .observables import means, variances

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
_SEED_LIMIT = 2**64  # the seed fills the high half of the 128-bit Philox key
_RETRY_BUDGET = 10  # redraws of a path that breaks positivity
_MAX_FAILED_FRACTION = 0.01  # of an ensemble's paths, before it aborts
_CHUNK_PATHS = 64  # paths sampled together, whose first core pass is shared


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
        for name, low, strict, integer, below in (
                ("amplitude", 0.0, False, False, None),
                ("correlation_time", 0.0, True, False, None),
                ("seed", 0, False, True, _SEED_LIMIT),
                ("paths", 1, False, True, None)):
            value = _number(getattr(self, name), f"noise.{name}", low, strict, integer, below)
            object.__setattr__(self, name, value)


def _generator(seed: int, path_index: int, retry: int) -> np.random.Generator:
    if not 0 <= retry < _RETRY_STRIDE:
        raise ValueError("retry outside the reserved key stride")
    key = (int(seed) << 64) | (int(path_index) * _RETRY_STRIDE + int(retry))
    return np.random.Generator(np.random.Philox(key=key))


def _noise_block(spec: NoiseSpec, grid: np.ndarray, keys) -> np.ndarray:
    """Realizations of the raw noise process at the grid times, one column
    per (path index, retry) key, each drawn from that key's own stream.
    The OU recursion runs across the columns at once, with the same float
    operations per element as a single column; its kicks are formed before
    the loop."""
    rngs = [_generator(spec.seed, path_index, retry) for path_index, retry in keys]
    n = grid.size
    out = np.empty((n, len(rngs)))
    amp, tc = spec.amplitude, spec.correlation_time
    if spec.model == "ornstein_uhlenbeck":
        draws = np.stack([rng.standard_normal(n) for rng in rngs], axis=1)
        out[0] = amp * draws[0]
        phi = np.exp(-np.diff(grid) / tc)
        kicks = (amp * np.sqrt(1.0 - phi * phi))[:, None] * draws[1:]
        for k, decay in enumerate(phi.tolist(), start=1):
            out[k] = decay * out[k - 1] + kicks[k - 1]
        return out
    # telegraph: exponential holding times with mean 2 * correlation_time,
    # so the autocovariance decays at rate 1 / correlation_time
    rate = 1.0 / (2.0 * tc)
    for column, rng in zip(out.T, rngs):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        t_flip = rng.exponential(1.0 / rate)
        for k, t in enumerate(grid):
            while t_flip <= t:
                sign = -sign
                t_flip += rng.exponential(1.0 / rate)
            column[k] = amp * sign
    return out


def noise_values(spec: NoiseSpec, grid, path_index: int = 0,
                 retry: int = 0) -> np.ndarray:
    """One realization of the raw noise process at the grid times."""
    return _noise_block(spec, np.asarray(grid, dtype=float), [(path_index, retry)])[:, 0]


def _perturbed(spec: NoiseSpec, base: MediumProfile, grid: np.ndarray, keys) -> list:
    """Per (path index, retry) key, the base profile with that key's noise
    added to the target, tabulated on the grid (one spline solve for all
    keys).  Noise that overflows the float range, in the samples or in the
    spline through them, is a config error."""
    if spec.amplitude == 0.0:
        return [base] * len(keys)
    target = np.asarray(getattr(base, spec.target)(grid), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = target[:, None] + _noise_block(spec, grid, keys)
    overflow = ConfigError(f"{spec.amplitude:g} overflows the float range", field="noise.amplitude")
    if not np.all(np.isfinite(samples)):
        raise overflow
    try:
        tables = TableFunction.columns(grid, samples)
    except _SplineOverflow:
        raise overflow from None
    return [replace(base, **{spec.target: table}) for table in tables]


def sample_path(spec: NoiseSpec, base: MediumProfile, grid, path_index: int = 0,
                drawn: CoefficientSet | QuadmodeError | None = None) -> CoefficientSet:
    """One path's coefficient set over [0, grid[-1]]: the medium mapping
    (medium_to_hamiltonian_stack) of its `medium`, the base profile with
    the path's noise added to the target and tabulated on the grid (zero
    amplitude: the base itself).  A draw that the mapping rejects (InvalidMediumError) is
    redrawn from a fresh key slot; exhausting the budget raises
    PathRejectedError with the `t` of the last draw's rejection, and any
    other error of the mapping is the path's own.  `drawn`, when given, is
    the mapping's result for the path's first draw, sampled and mapped by
    the caller together with other paths' first draws (run_ensemble does so
    per chunk)."""
    grid = np.asarray(grid, dtype=float)
    for retry in range(_RETRY_BUDGET + 1):
        if retry or drawn is None:
            (drawn,) = medium_to_hamiltonian_stack(
                _perturbed(spec, base, grid, [(path_index, retry)]), float(grid[-1]))
        if isinstance(drawn, CoefficientSet):
            return drawn
        if not isinstance(drawn, InvalidMediumError) or spec.amplitude == 0.0:
            raise drawn  # not a positivity failure, or the base itself: a redraw is the same draw
    raise PathRejectedError(
        f"path {path_index}: medium positivity violated on every draw "
        f"within the {_RETRY_BUDGET}-retry budget", t=drawn.t)


@dataclass(frozen=True)
class EnsembleSummary:
    """Pointwise ensemble mean and standard error of the tracked
    observables, plus bookkeeping: counts, seed, the smallest uncertainty
    product seen on any path (the pathwise floor), and the failed paths by
    exception class (`failures`: class name -> count, first failing path
    index and the failure time `t` it reported)."""

    grid: np.ndarray
    n_paths: int
    n_failed: int
    seed: int
    tracked: tuple
    mean: dict
    stderr: dict
    product_floor: float
    failures: dict


def run_ensemble(
    spec: NoiseSpec,
    base: MediumProfile,
    grid,
    init: ErmakovInit | None = None,
    n: int = 0,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> EnsembleSummary:
    """Run the deterministic pipeline over spec.paths noisy realizations
    and aggregate the tracked observables pointwise.

    Paths go in fixed chunks of _CHUNK_PATHS by path index (_run_chunk),
    and every stage of a chunk is one stacked call over its paths, which
    gives each path its own result or its own error: the first draws are
    sampled together (one noise block, one spline solve), each from its
    path's own key, and mapped to coefficient sets together
    (medium_to_hamiltonian_stack); a path whose draw breaks positivity
    redraws alone in sample_path.  The sets take their first core pass
    together (characteristic.propagate_stack), and a path with a rejected
    step refines alone.  The paths that kept the shared steps read their
    frames, assemble their paths and take the tracked observables in one
    call (closed_form_stack, means, variances on (paths, grid) blocks); a
    refined path does so as a stack of one.  So each path's observables
    and any failure are bitwise those of the path run alone (sample_path,
    build_frame).  A ConfigError, from a redraw say, is raised where it
    happens: a bad setup fails every path alike.  Per-path solver
    tolerances default looser than deterministic runs: the Monte Carlo
    error dominates long before solver error at 1e-8 matters.  Chunks run
    in index order and rows are stored in path-index order, so the mean
    and spread depend only on the key set, not on evaluation order.
    """
    if spec.paths < 2:
        raise ConfigError("ensemble needs at least 2 paths", field="noise.paths")
    grid = check_grid(grid)
    init = init or ErmakovInit()

    try:
        collected = {name: np.empty((spec.paths, grid.size)) for name in TRACKED_OBSERVABLES}
    except MemoryError:
        size = len(TRACKED_OBSERVABLES) * spec.paths * grid.size * 8
        raise ConfigError(f"{spec.paths} paths on {grid.size} grid points need {size:.3g} "
                          "bytes for the tracked observables, more than can be allocated",
                          field="noise.paths") from None
    n_ok = 0
    failures = {}
    floor = math.inf
    for start in range(0, spec.paths, _CHUNK_PATHS):
        chunk = range(start, min(start + _CHUNK_PATHS, spec.paths))
        for idx, result in zip(chunk, _run_chunk(spec, base, grid, chunk, init, n, rtol, atol)):
            if isinstance(result, QuadmodeError):
                record = failures.setdefault(type(result).__name__,
                                             {"count": 0, "first_path": idx, "t": result.t})
                record["count"] += 1
                continue
            for name, values in zip(TRACKED_OBSERVABLES, result):
                collected[name][n_ok] = values
            floor = min(floor, float(np.min(result[2])))  # the product
            n_ok += 1

    n_failed = spec.paths - n_ok
    if n_failed > _MAX_FAILED_FRACTION * spec.paths:
        name, first = next(iter(failures.items()))  # filled in path order
        raise EnsembleError(
            f"{n_failed} of {spec.paths} paths failed ({_MAX_FAILED_FRACTION:.0%} allowed); "
            f"the first, path {first['first_path']}, raised {name} at t={first['t']!r}",
            t=first["t"])

    mean = {}
    stderr = {}
    root = math.sqrt(n_ok)
    for name in TRACKED_OBSERVABLES:
        block = collected[name][:n_ok]
        mean[name] = block.mean(axis=0)
        stderr[name] = block.std(axis=0, ddof=1) / root
    return EnsembleSummary(grid=grid, n_paths=spec.paths, n_failed=n_failed,
                           seed=int(spec.seed), tracked=TRACKED_OBSERVABLES,
                           mean=mean, stderr=stderr, product_floor=floor,
                           failures=failures)


def _run_chunk(spec, base, grid, chunk, init, n, rtol, atol) -> list:
    """Per path of the chunk (a range of path indices), its tracked
    observables (var_x, var_p, product, xbar, pbar) on the grid, or the
    QuadmodeError that ends the path; a ConfigError raises for all.  Each
    stage is one stacked call over the paths it still holds."""
    t_end = float(grid[-1])
    first = medium_to_hamiltonian_stack(_perturbed(spec, base, grid, [(idx, 0) for idx in chunk]),
                                        t_end)
    out = []  # per path, its coefficient set, then its propagation, then its rows, or its error
    for idx, drawn in zip(chunk, first):
        try:
            out.append(sample_path(spec, base, grid, idx, drawn))
        except ConfigError:
            raise
        except QuadmodeError as exc:
            out.append(exc)
    sets = list(out)
    live = [i for i, cs in enumerate(sets) if not isinstance(cs, QuadmodeError)]
    stacks = {}  # the step nodes -> the paths that share them
    for i, prop in zip(live, propagate_stack([sets[i] for i in live], t_end, rtol=rtol, atol=atol)):
        out[i] = prop
        if not isinstance(prop, QuadmodeError):
            stacks.setdefault(id(prop.ts), []).append(i)
    work = list(stacks.values())
    while work:
        paths = work.pop()
        try:
            path = closed_form_stack([out[i] for i in paths], [sets[i] for i in paths], grid, init)
        except QuadmodeError as exc:  # a(t) past the float range at a node of one of the paths
            if len(paths) == 1:
                out[paths[0]] = exc
            else:  # each path alone, so each meets its own error
                work += [[i] for i in paths]
            continue
        xbar, pbar = means(path)
        var_p, var_x, product = variances(path, n)
        for j, i in enumerate(paths):
            out[i] = [var_x[j], var_p[j], product[j], xbar[j], pbar[j]]
    return out
