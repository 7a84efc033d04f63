"""JSON scenario configs: schema, validation, bundled gallery.

A scenario file is one JSON object:

    name            string (required), one path component: no '/' or NUL,
                    not . or ..
    coefficients    exactly one source (required):
                      {"preset": "...", "params": {...}}
                      {"medium": {"xi": FN, "eta": FN, "chi": FN,
                                  "upsilon": 1.0,
                                  "field_scale_omega": 1.0,
                                  "field_scale_varpi": 1.0}}
                      {"table_file": "relative/path.csv"}
                    FN is a function spec: {"kind": "constant"|"exponential"
                    |"sinusoid"|"table", ...}.  The table file is CSV with
                    header t,a,b,c,d,f,g, uniform t.
    initial_state   optional; when present, beta0 is required (the squeeze
                    scale has no silent default), the other five default 0
    n               optional Fock index, default 0
    grid            {"t_max": T, "dt": h} or {"t_max": T, "adaptive": true}
    noise           optional NoiseSpec block: target, model, amplitude,
                    correlation_time, seed, paths
    output_dir      optional, a non-empty string without NUL; see the CLI
                    for the full precedence chain
    tolerances      optional overrides of the run-time invariant suite
    solver          optional: rtol, atol

Unknown keys anywhere, function specs included, are rejected: a typo must
fail loudly, not silently fall back to a default.  So is an optional block
given as null: it is either absent or an object.  Every number follows one
rule (errors._number): a JSON number, never a boolean or a string, finite,
and inside its bounds; an integer where one is due (n, noise.seed,
noise.paths), with n below 2**52 and noise.seed below 2**64.  The type that holds a value checks it (ErmakovInit,
NoiseSpec, MediumProfile, preset_coefficients, function_from_spec); this
module routes keys and keeps the rules that span fields (dt <= t_max, dt
or adaptive, table windows that cover the run).  Every ConfigError names
the offending entry by its dotted path.
"""

import functools
import json
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .characteristic import propagate
from .coefficients import (
    CoefficientSet,
    MediumProfile,
    TableFunction,
    _first_outside,
    function_from_spec,
    medium_to_hamiltonian,
    preset_coefficients,
)
from .ermakov import ErmakovInit
from .errors import _N_LIMIT, ConfigError, _number, _only_keys
from .stochastic import NoiseSpec

__all__ = [
    "Scenario",
    "GridSpec",
    "load_config",
    "parse_config",
    "build_grid",
    "bundled_scenarios",
    "TOLERANCE_DEFAULTS",
    "SOLVER_DEFAULTS",
]

TOLERANCE_DEFAULTS = {
    "uncertainty": 1e-12,      # product >= 1/4 - this
    "commutator": 1e-12,       # |u vbar - ubar v + i|
    "wronskian": 1e-8,         # relative drift off the exact law
    "quasi_invariants": 1e-6,  # worst masked residual
}

SOLVER_DEFAULTS = {
    "rtol": 1e-10,
    "atol": 1e-12,
}


@dataclass(frozen=True)
class GridSpec:
    t_max: float
    dt: float | None = None
    adaptive: bool = False


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: everything needed to run the pipeline."""

    name: str
    init: ErmakovInit
    n: int
    grid: GridSpec
    noise: NoiseSpec | None
    output_dir: str | None
    tolerances: dict
    solver: dict
    profile: MediumProfile | None = None  # medium sources
    coefficients: CoefficientSet | None = field(default=None, repr=False)  # the others
    raw: dict = field(default_factory=dict, repr=False, compare=False)

    def build_coefficients(self, t_max: float | None = None) -> CoefficientSet:
        """Coefficient set for this scenario.  Medium sources need the
        window length because the accumulated integral is precomputed;
        presets and tables were built when the config was parsed."""
        if self.profile is not None:
            return medium_to_hamiltonian(self.profile, t_max=t_max or self.grid.t_max)
        return self.coefficients


def _require(cond: bool, message: str, field_name: str):
    if not cond:
        raise ConfigError(message, field=field_name)


def _parse_init(obj) -> ErmakovInit:
    _require(isinstance(obj, dict), "initial_state must be an object", "initial_state")
    _only_keys(obj, [f.name for f in fields(ErmakovInit)], "initial_state")
    _require("beta0" in obj, "beta0 is required when initial_state is given",
             "initial_state.beta0")
    return ErmakovInit(**obj)


def _parse_grid(obj) -> GridSpec:
    _require(isinstance(obj, dict), "grid must be an object", "grid")
    _only_keys(obj, ("t_max", "dt", "adaptive"), "grid")
    _require("t_max" in obj, "t_max is required", "grid.t_max")
    t_max = _number(obj["t_max"], "grid.t_max", 0.0, strict=True)
    adaptive = obj.get("adaptive", False)
    _require(isinstance(adaptive, bool), "adaptive must be a boolean", "grid.adaptive")
    if adaptive:
        _require("dt" not in obj, "give either dt or adaptive, not both", "grid.dt")
        return GridSpec(t_max=t_max, adaptive=True)
    _require("dt" in obj, "dt is required unless adaptive is true", "grid.dt")
    dt = _number(obj["dt"], "grid.dt", 0.0, strict=True)
    _require(dt <= t_max, "dt must not exceed t_max", "grid.dt")
    return GridSpec(t_max=t_max, dt=dt)


def _parse_medium(obj) -> MediumProfile:
    _require(isinstance(obj, dict), "medium must be an object", "coefficients.medium")
    _only_keys(obj, [f.name for f in fields(MediumProfile)], "coefficients.medium")
    fns = {}
    for key in ("xi", "eta", "chi"):
        _require(key in obj, f"{key} is required", f"coefficients.medium.{key}")
        fns[key] = function_from_spec(obj[key], where=f"coefficients.medium.{key}")
    return MediumProfile(**dict(obj, **fns))


def _parse_table_file(path_str, base_dir: Path) -> CoefficientSet:
    _require(isinstance(path_str, str) and path_str,
             "table_file must be a path string", "coefficients.table_file")
    path = Path(path_str)
    if not path.is_absolute():
        path = base_dir / path
    if not path.is_file():
        raise ConfigError(f"table file not found: {path}", field="coefficients.table_file")
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read table file: {exc}",
                          field="coefficients.table_file") from exc
    names = data.dtype.names or ()
    expected = ("t", "a", "b", "c", "d", "f", "g")
    if tuple(names) != expected:
        raise ConfigError(f"table file header must be {','.join(expected)}",
                          field="coefficients.table_file")
    t = np.atleast_1d(data["t"])
    try:
        fns = {key: TableFunction(t, np.atleast_1d(data[key])) for key in expected[1:]}
    except ConfigError as exc:  # a non-finite cell, too few rows, uneven t
        raise ConfigError(str(exc), field="coefficients.table_file") from exc
    return CoefficientSet(window=(float(t[0]), float(t[-1])), **fns)


def _parse_noise(obj) -> NoiseSpec:
    _require(isinstance(obj, dict), "noise must be an object", "noise")
    _only_keys(obj, [f.name for f in fields(NoiseSpec)], "noise")
    for key in ("target", "model", "amplitude", "correlation_time"):
        _require(key in obj, f"{key} is required", f"noise.{key}")
    return NoiseSpec(**obj)


def _parse_overrides(raw: dict, where: str, defaults: dict) -> dict:
    """The defaults, with those the `where` block of the config gives
    replaced: each a positive number."""
    if where not in raw:
        return dict(defaults)
    obj = raw[where]
    _require(isinstance(obj, dict), f"{where} must be an object", where)
    _only_keys(obj, defaults, where)
    return dict(defaults, **{key: _number(v, f"{where}.{key}", 0.0, strict=True)
                             for key, v in obj.items()})


def parse_config(raw: dict, base_dir: Path | None = None) -> Scenario:
    """Validate a config object and resolve it to a Scenario."""
    base_dir = base_dir or Path.cwd()
    _require(isinstance(raw, dict), "config must be a JSON object", "config")
    allowed = ("name", "coefficients", "initial_state", "n", "grid", "noise",
               "output_dir", "tolerances", "solver")
    _only_keys(raw, allowed, "config")
    name = raw.get("name")
    _require(isinstance(name, str) and name, "name is required", "name")
    # it names the output directory under out/ or $QUADMODE_OUTDIR
    _require("/" not in name and "\0" not in name and name not in (".", ".."),
             f"name must be one path component (no '/' or NUL, not '.' or '..'): {name!r}",
             "name")
    _require("coefficients" in raw, "coefficients block is required", "coefficients")
    coeffs = raw["coefficients"]
    _require(isinstance(coeffs, dict), "coefficients must be an object", "coefficients")
    sources = [k for k in ("preset", "medium", "table_file") if k in coeffs]
    _require(len(sources) == 1,
             "exactly one of preset, medium, table_file is required", "coefficients")
    source_kind = sources[0]
    _only_keys(coeffs, (source_kind, "params") if source_kind == "preset" else (source_kind,),
               "coefficients")

    profile = None
    cs = None
    if source_kind == "preset":
        params = coeffs.get("params", {})
        _require(isinstance(params, dict), "params must be an object",
                 "coefficients.params")
        cs = preset_coefficients(coeffs["preset"], **params)
    elif source_kind == "medium":
        profile = _parse_medium(coeffs["medium"])
    else:
        cs = _parse_table_file(coeffs["table_file"], base_dir)

    grid = _parse_grid(raw.get("grid"))
    if source_kind == "table_file":
        lo, hi = cs.window
        _require(_first_outside(0.0, lo, hi) is None,
                 f"table samples [{lo:g}, {hi:g}] do not cover t = 0", "coefficients.table_file")
        _require(_first_outside(grid.t_max, lo, hi) is None,
                 f"t_max exceeds the table window [{lo:g}, {hi:g}]", "grid.t_max")
    elif source_kind == "medium":
        for key in ("xi", "eta", "chi"):
            fn = getattr(profile, key)
            if isinstance(fn, TableFunction):
                lo, hi = float(fn.times[0]), float(fn.times[-1])
                _require(_first_outside((0.0, grid.t_max), lo, hi) is None,
                         f"table samples [{lo:g}, {hi:g}] do not cover "
                         f"[0, t_max = {grid.t_max:g}]", f"coefficients.medium.{key}")

    n = _number(raw.get("n", 0), "n", 0, integer=True, below=_N_LIMIT)
    init = _parse_init(raw["initial_state"]) if "initial_state" in raw else ErmakovInit()

    noise = _parse_noise(raw["noise"]) if "noise" in raw else None
    if noise is not None and source_kind != "medium":
        raise ConfigError("noise requires a medium coefficient source", field="noise")
    out_dir = raw.get("output_dir")
    if "output_dir" in raw:
        _require(isinstance(out_dir, str) and out_dir and "\0" not in out_dir,
                 "output_dir must be a non-empty string without NUL", "output_dir")

    return Scenario(
        name=name, init=init, n=n, grid=grid, noise=noise, output_dir=out_dir,
        tolerances=_parse_overrides(raw, "tolerances", TOLERANCE_DEFAULTS),
        solver=_parse_overrides(raw, "solver", SOLVER_DEFAULTS),
        profile=profile, coefficients=cs, raw=raw,
    )


def load_config(path) -> Scenario:
    """Read and validate a scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}", field="config")
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:  # a JSON syntax error, or an integer past Python's digit limit
        raise ConfigError(f"invalid JSON: {exc}", field="config") from exc
    return parse_config(raw, base_dir=path.parent)


def build_grid(scenario: Scenario, cs: CoefficientSet | None = None) -> np.ndarray:
    """Master time grid for a scenario.

    Uniform grids cover [0, t_max] with spacing as close to dt as an exact
    cover allows.  Adaptive grids are the step nodes of the propagator core
    on the characteristic pair at the scenario's solver tolerances, so
    output density follows the solution's own activity: the unforced set's
    steps (f = g = 0, as integrate_characteristic takes them).  A driven
    run's frame refines them with its transport, so some of its grid
    points are read by partial steps.
    """
    g = scenario.grid
    if not g.adaptive:
        steps = g.t_max / g.dt
        try:
            return np.linspace(0.0, g.t_max, max(int(round(steps)), 1) + 1)
        except (OverflowError, ValueError, MemoryError):
            raise ConfigError(f"cannot allocate {steps + 1:.3g} points", field="grid.dt") from None
    if cs is None:
        cs = scenario.build_coefficients()
    solver = scenario.solver
    return propagate(cs, g.t_max, rtol=solver["rtol"], atol=solver["atol"]).ts


@functools.cache
def bundled_scenarios() -> MappingProxyType:
    """Name -> filesystem path of the shipped scenario gallery, read-only.
    Listed once per process: the installed package cannot change under a
    running process, so the first listing stands for all."""
    root = resources.files("quadmode") / "scenarios"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = Path(str(entry))
    return MappingProxyType(out)
