"""Monte Carlo over randomly varying media.

Each path perturbs one medium function additively with a stationary noise
process sampled on the run grid (cubic interpolation in between, like any
tabulated coefficient):

    ornstein_uhlenbeck   exact discretization
                         X_{k+1} = phi X_k + amplitude sqrt(1 - phi^2) N(0,1),
                         phi = exp(-dt / correlation_time), stationary start
    telegraph            amplitude * (+-1), a two-state chain: a fair start,
                         then a flip with probability (1 - phi) / 2 per step
                         (exact for flip rate 1 / (2 correlation_time))

Both have autocovariance amplitude^2 exp(-|s| / correlation_time), and
both take one draw per grid point whatever the correlation time.

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

An ensemble runs in fixed chunks of paths.  The paths of a chunk differ in
one thing only, the samples of the noisy medium function, so a chunk's
draws are one table with a column per path, and each stage takes the
chunk's coefficient set as one call (run_ensemble); paths split apart only
where they diverge, through the set's take of their columns, and the
chunk's tracked observables reach the summary as one block.  Every path's
numbers are bitwise those of the path run alone.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .characteristic import check_grid, propagate_stack
from .coefficients import (MediumProfile, TableFunction, _SplineOverflow,
                           medium_to_hamiltonian_stack)
from .ermakov import ErmakovInit, closed_form_path, read_frame
from .errors import (ConfigError, EnsembleError, InvalidMediumError, PathRejectedError,
                     QuadmodeError, _number)
from .observables import means, variances

__all__ = [
    "NoiseSpec",
    "EnsembleSummary",
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
    per (path index, retry) key: one draw per grid point from the key's own
    stream (normals for OU, uniforms for telegraph), then one Markov step
    per grid interval across the columns at once.  The OU recursion runs
    with the same float operations per element as a single column."""
    rngs = [_generator(spec.seed, path_index, retry) for path_index, retry in keys]
    ou = spec.model == "ornstein_uhlenbeck"
    draws = np.stack([rng.standard_normal(grid.size) if ou else rng.random(grid.size)
                      for rng in rngs], axis=1)
    out = np.empty(draws.shape)
    amp, tc = spec.amplitude, spec.correlation_time
    if ou:
        out[0] = amp * draws[0]
        phi = np.exp(-np.diff(grid) / tc)
        kicks = (amp * np.sqrt(1.0 - phi * phi))[:, None] * draws[1:]
        for k, decay in enumerate(phi.tolist(), start=1):
            out[k] = decay * out[k - 1] + kicks[k - 1]
        return out
    # telegraph: the first uniform picks the sign, and each later one flips
    # it over its interval h with probability (1 - e^(-h / tc)) / 2
    flip = -0.5 * np.expm1(-np.diff(grid) / tc)
    out[0] = np.where(draws[0] < 0.5, amp, -amp)
    out[1:] = out[0] * np.cumprod(np.where(draws[1:] < flip[:, None], -1.0, 1.0), axis=0)
    return out


def _perturbed(spec: NoiseSpec, base: MediumProfile, grid: np.ndarray, keys) -> MediumProfile:
    """The base profile with its target replaced by one table on the grid:
    the target plus each (path index, retry) key's noise, a column per key
    (a plain table for one key), from one spline solve.  Zero amplitude:
    the base itself, which serves every key.  A base target that is not
    finite on the grid, or noise that overflows the float range, in the
    samples or in the spline through them, is a config error."""
    if spec.amplitude == 0.0:
        return base
    target = np.asarray(getattr(base, spec.target)(grid), dtype=float)
    if not np.all(np.isfinite(target)):
        raise ConfigError(f"{spec.target} is not finite on the run grid",
                          field=f"coefficients.medium.{spec.target}")
    with np.errstate(over="ignore", invalid="ignore"):
        samples = target[:, None] + _noise_block(spec, grid, keys)
    overflow = ConfigError(f"{spec.amplitude:g} overflows the float range", field="noise.amplitude")
    if not np.all(np.isfinite(samples)):
        raise overflow
    try:
        table = TableFunction(grid, samples if len(keys) > 1 else samples[:, 0])
    except _SplineOverflow:
        raise overflow from None
    return replace(base, **{spec.target: table})


def sample_path(spec: NoiseSpec, base: MediumProfile, grid, path_index: int | range = 0):
    """One path's coefficient set over [0, grid[-1]]: the medium mapping
    of its `medium`, the base profile with the path's noise added to the
    target and tabulated on the grid (zero amplitude: the base itself).
    A draw that the mapping rejects (InvalidMediumError) is redrawn from
    the path's next key slot; exhausting the budget raises
    PathRejectedError with the `t` of the last draw's rejection, and any
    other error of the mapping is the path's own, as is a rejection of the
    base itself, whose redraw would be the same draw.

    For a range of path indices (an ensemble chunk), the draws of all of
    them in one call, one stacked round per retry slot: ([(cs, its
    paths)], {path: its error}), cs the mapping of a slot's accepted
    draws with a column per path (a plain set for one path, or for zero
    amplitude, where the base serves every path).  A single path is that
    chunk draw of one."""
    grid = np.asarray(grid, dtype=float)
    paths = list(path_index) if isinstance(path_index, range) else [path_index]
    sets, failed = [], {}
    for retry in range(_RETRY_BUDGET + 1):
        cs, errors = medium_to_hamiltonian_stack(
            _perturbed(spec, base, grid, [(idx, retry) for idx in paths]), float(grid[-1]))
        if len(errors) < len(paths):  # the base's one entry serves every path
            errors = errors * len(paths)
        kept = [idx for idx, error in zip(paths, errors) if error is None]
        if kept:
            sets.append((cs, kept))
        redraw = {idx: error for idx, error in zip(paths, errors)
                  if isinstance(error, InvalidMediumError) and spec.amplitude != 0.0}
        failed.update((idx, error) for idx, error in zip(paths, errors)
                      if error is not None and idx not in redraw)
        paths = list(redraw)
        if not paths:
            break
    for idx, error in redraw.items():
        failed[idx] = PathRejectedError(
            f"path {idx}: medium positivity violated on every draw "
            f"within the {_RETRY_BUDGET}-retry budget", t=error.t)
    if isinstance(path_index, range):
        return sets, failed
    if failed:
        raise failed[path_index]
    return sets[0][0]


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

    Paths go in fixed chunks of _CHUNK_PATHS by path index (_run_chunk).
    A chunk's first draws are one table with a column per path (one noise
    block, one spline solve, each column from its path's own key), mapped
    to one coefficient set (medium_to_hamiltonian_stack); the draws that
    break positivity redraw together, one round and one set per retry slot
    (sample_path of the chunk).  A set takes its first core pass as one
    (characteristic.propagate_stack), a path with a rejected step refines
    alone, and the paths that kept the shared steps read one frame with a
    path axis, assemble their paths and take the tracked observables in
    one call each (read_frame, closed_form_path, means, variances on
    (paths, grid) blocks): the route a single run's frame takes.  So each
    path's observables and any failure are bitwise those of the path run
    alone (sample_path, build_frame).  A ConfigError, from a redraw say, is
    raised where it happens: a bad setup fails every path alike.  Per-path
    solver tolerances default looser than deterministic runs: the Monte
    Carlo error dominates long before solver error at 1e-8 matters.
    Chunks run in index order, and each chunk's block of observables
    (_run_chunk) has its good rows copied in path-index order, so the
    mean, the spread and the product floor depend only on the key set,
    not on evaluation order.  The spread is taken one observable at a
    time, so numpy's temporary is one observable's size.  A summary entry
    that is not finite (finite paths whose spread leaves the float range,
    say) is a numerical failure: EnsembleError at the earliest such t,
    naming its observable.
    """
    if spec.paths < 2:
        raise ConfigError("ensemble needs at least 2 paths", field="noise.paths")
    grid = check_grid(grid)
    init = init or ErmakovInit()

    try:
        collected = np.empty((len(TRACKED_OBSERVABLES), spec.paths, grid.size))
    except MemoryError:
        size = len(TRACKED_OBSERVABLES) * spec.paths * grid.size * 8
        raise ConfigError(f"{spec.paths} paths on {grid.size} grid points need {size:.3g} "
                          "bytes for the tracked observables, more than can be allocated",
                          field="noise.paths") from None
    n_ok = 0
    failures = {}
    for start in range(0, spec.paths, _CHUNK_PATHS):
        chunk = range(start, min(start + _CHUNK_PATHS, spec.paths))
        block, failed = _run_chunk(spec, base, grid, chunk, init, n, rtol, atol)
        for idx in sorted(failed):
            record = failures.setdefault(type(failed[idx]).__name__,
                                         {"count": 0, "first_path": idx, "t": failed[idx].t})
            record["count"] += 1
        good = [idx - start for idx in chunk if idx not in failed]
        collected[:, n_ok:n_ok + len(good)] = block[:, good]
        n_ok += len(good)

    n_failed = spec.paths - n_ok
    if n_failed > _MAX_FAILED_FRACTION * spec.paths:
        name, first = next(iter(failures.items()))  # filled in path order
        raise EnsembleError(
            f"{n_failed} of {spec.paths} paths failed ({_MAX_FAILED_FRACTION:.0%} allowed); "
            f"the first, path {first['first_path']}, raised {name} at t={first['t']!r}",
            t=first["t"])

    rows = collected[:, :n_ok]
    with np.errstate(all="ignore"):
        mean = dict(zip(TRACKED_OBSERVABLES, rows.mean(axis=1)))
        # one observable at a time: std's deviation temporary is as large
        # as its input
        stderr = {name: values.std(axis=0, ddof=1) / math.sqrt(n_ok)
                  for name, values in zip(TRACKED_OBSERVABLES, rows)}
    bad = [(int(np.argmax(~np.isfinite(values))), f"{kind} of {name}")
           for name in TRACKED_OBSERVABLES
           for kind, values in (("mean", mean[name]), ("stderr", stderr[name]))
           if not np.isfinite(values).all()]
    if bad:
        k, what = min(bad, key=lambda entry: entry[0])
        t = float(grid[k])
        raise EnsembleError(f"the ensemble {what} is not finite at t={t!r}: the paths' values "
                            "or their spread leave the float range", t=t)
    floor = float(np.min(rows[TRACKED_OBSERVABLES.index("product")]))
    return EnsembleSummary(grid=grid, n_paths=spec.paths, n_failed=n_failed,
                           seed=int(spec.seed), tracked=TRACKED_OBSERVABLES,
                           mean=mean, stderr=stderr, product_floor=floor, failures=failures)


def _run_chunk(spec, base, grid, chunk, init, n, rtol, atol):
    """A chunk's (a range of path indices) tracked observables as one block
    (observable, path, grid point), and {path: the QuadmodeError that ends
    it}, whose rows stay unset; a ConfigError raises for all.  Each stage
    takes a set of draws (sample_path of the chunk) as one call over its
    paths; a stage that raises for them is taken by each path alone."""
    work, failed = sample_path(spec, base, grid, chunk)
    block = np.empty((len(TRACKED_OBSERVABLES), len(chunk), grid.size))
    while work:
        cs, paths = work.pop(0)
        try:
            for kept, prop in propagate_stack(cs, float(grid[-1]), rtol=rtol, atol=atol):
                # a plain set (zero amplitude) reads one frame, without a
                # path axis, which is each of its paths
                owners = [paths[k] for k in kept] if cs.width else paths
                if isinstance(prop, QuadmodeError):
                    failed.update(dict.fromkeys(owners, prop))
                    continue
                with np.errstate(all="ignore"):
                    path = closed_form_path(read_frame(prop, grid, init))
                    values = dict(zip(("xbar", "pbar"), means(path)))
                    values.update(zip(("var_p", "var_x", "product"), variances(path, n)))
                block[:, [idx - chunk.start for idx in owners]] = np.stack(
                    [values[name] for name in TRACKED_OBSERVABLES]).reshape(
                        block.shape[0], -1, grid.size)
        except ConfigError:
            raise
        except QuadmodeError as exc:
            if cs.width is None:
                failed.update(dict.fromkeys(paths, exc))
            else:
                work += [(cs.take([k]), [idx]) for k, idx in enumerate(paths)]
    return block, failed
