"""JSON scenario configs: schema, validation, bundled gallery.

A scenario file is one JSON object:

    name            string (required)
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
    output_dir      optional; see the CLI for the full precedence chain
    tolerances      optional overrides of the run-time invariant suite
    solver          optional: rtol, atol, mu1_init

Unknown keys anywhere are rejected: a typo must fail loudly, not silently
fall back to a default.
"""

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .characteristic import propagate
from .coefficients import (
    CoefficientSet,
    ConstantFunction,
    MediumProfile,
    TableFunction,
    function_from_spec,
    medium_to_hamiltonian,
    preset_coefficients,
)
from .ermakov import ErmakovInit
from .errors import ConfigError
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
    "mu1_init": 1.0,
}

_INIT_KEYS = ("alpha0", "beta0", "gamma0", "delta0", "eps0", "kappa0")


@dataclass(frozen=True)
class GridSpec:
    t_max: float
    dt: float | None = None
    adaptive: bool = False


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: everything needed to run the pipeline."""

    name: str
    source_kind: str  # preset | medium | table_file
    init: ErmakovInit
    n: int
    grid: GridSpec
    noise: NoiseSpec | None
    output_dir: str | None
    tolerances: dict
    solver: dict
    profile: MediumProfile | None = None
    _preset: tuple | None = field(default=None, repr=False)
    _table: CoefficientSet | None = field(default=None, repr=False)
    raw: dict = field(default_factory=dict, repr=False, compare=False)

    def build_coefficients(self, t_max: float | None = None) -> CoefficientSet:
        """Coefficient set for this scenario.  Medium sources need the
        window length because the accumulated integral is precomputed."""
        if self.source_kind == "preset":
            name, params = self._preset
            return preset_coefficients(name, **params)
        if self.source_kind == "medium":
            return medium_to_hamiltonian(self.profile, t_max=t_max or self.grid.t_max)
        return self._table


def _require(cond: bool, message: str, field_name: str):
    if not cond:
        raise ConfigError(message, field=field_name)


def _only_keys(obj: dict, allowed, where: str):
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key {extra[0]!r}", field=f"{where}.{extra[0]}")


def _parse_init(obj) -> ErmakovInit:
    if obj is None:
        return ErmakovInit()
    _require(isinstance(obj, dict), "initial_state must be an object", "initial_state")
    _only_keys(obj, _INIT_KEYS, "initial_state")
    if "beta0" not in obj:
        raise ConfigError("beta0 is required when initial_state is given",
                          field="initial_state.beta0")
    vals = {}
    for key in _INIT_KEYS:
        v = obj.get(key, 1.0 if key == "beta0" else 0.0)
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 f"{key} must be a number", f"initial_state.{key}")
        vals[key] = float(v)
    return ErmakovInit(**vals)


def _parse_grid(obj) -> GridSpec:
    _require(isinstance(obj, dict), "grid must be an object", "grid")
    _only_keys(obj, ("t_max", "dt", "adaptive"), "grid")
    _require("t_max" in obj, "t_max is required", "grid.t_max")
    t_max = obj["t_max"]
    _require(isinstance(t_max, (int, float)) and not isinstance(t_max, bool)
             and math.isfinite(t_max) and t_max > 0,
             "t_max must be a positive finite number", "grid.t_max")
    adaptive = obj.get("adaptive", False)
    _require(isinstance(adaptive, bool), "adaptive must be a boolean", "grid.adaptive")
    dt = obj.get("dt")
    if adaptive:
        _require(dt is None, "give either dt or adaptive, not both", "grid.dt")
        return GridSpec(t_max=float(t_max), dt=None, adaptive=True)
    _require(dt is not None, "dt is required unless adaptive is true", "grid.dt")
    _require(isinstance(dt, (int, float)) and not isinstance(dt, bool)
             and math.isfinite(dt) and 0 < dt <= t_max,
             "dt must satisfy 0 < dt <= t_max", "grid.dt")
    return GridSpec(t_max=float(t_max), dt=float(dt), adaptive=False)


def _parse_medium(obj) -> MediumProfile:
    _require(isinstance(obj, dict), "medium must be an object", "coefficients.medium")
    allowed = ("xi", "eta", "chi", "upsilon", "field_scale_omega", "field_scale_varpi")
    _only_keys(obj, allowed, "coefficients.medium")
    fns = {}
    for key in ("xi", "eta", "chi"):
        _require(key in obj, f"{key} is required", f"coefficients.medium.{key}")
        fns[key] = function_from_spec(obj[key], where=f"coefficients.medium.{key}")
    scalars = {}
    for key, default in (("upsilon", 1.0), ("field_scale_omega", 1.0),
                         ("field_scale_varpi", 1.0)):
        v = obj.get(key, default)
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 f"{key} must be a number", f"coefficients.medium.{key}")
        scalars[key] = float(v)
    return MediumProfile(xi=fns["xi"], eta=fns["eta"], chi=fns["chi"], **scalars)


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
    fns = {}
    for key in expected[1:]:
        col = np.atleast_1d(data[key])
        if np.all(col == 0.0):
            fns[key] = ConstantFunction(0.0)  # keeps exact is_zero shortcuts
        else:
            fns[key] = TableFunction(t, col)
    return CoefficientSet(window=(float(t[0]), float(t[-1])), **fns)


def _parse_noise(obj) -> NoiseSpec:
    _require(isinstance(obj, dict), "noise must be an object", "noise")
    allowed = ("target", "model", "amplitude", "correlation_time", "seed", "paths")
    _only_keys(obj, allowed, "noise")
    for key in ("target", "model", "amplitude", "correlation_time"):
        _require(key in obj, f"{key} is required", f"noise.{key}")
    return NoiseSpec(
        target=obj["target"], model=obj["model"],
        amplitude=float(obj["amplitude"]),
        correlation_time=float(obj["correlation_time"]),
        seed=int(obj.get("seed", 0)), paths=int(obj.get("paths", 256)),
    )


def _parse_tolerances(obj) -> dict:
    if obj is None:
        return dict(TOLERANCE_DEFAULTS)
    _require(isinstance(obj, dict), "tolerances must be an object", "tolerances")
    _only_keys(obj, TOLERANCE_DEFAULTS, "tolerances")
    out = dict(TOLERANCE_DEFAULTS)
    for key, v in obj.items():
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and math.isfinite(v) and v > 0,
                 f"{key} must be a positive number", f"tolerances.{key}")
        out[key] = float(v)
    return out


def _parse_solver(obj) -> dict:
    if obj is None:
        return dict(SOLVER_DEFAULTS)
    _require(isinstance(obj, dict), "solver must be an object", "solver")
    _only_keys(obj, SOLVER_DEFAULTS, "solver")
    out = dict(SOLVER_DEFAULTS)
    out.update(obj)
    for key in ("rtol", "atol"):
        v = out[key]
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and math.isfinite(v) and v > 0,
                 f"{key} must be a positive number", f"solver.{key}")
        out[key] = float(v)
    v = out["mu1_init"]
    _require(isinstance(v, (int, float)) and not isinstance(v, bool)
             and math.isfinite(v) and v != 0,
             "mu1_init must be a nonzero number", "solver.mu1_init")
    out["mu1_init"] = float(v)
    return out


def parse_config(raw: dict, base_dir: Path | None = None) -> Scenario:
    """Validate a config object and resolve it to a Scenario."""
    base_dir = base_dir or Path.cwd()
    _require(isinstance(raw, dict), "config must be a JSON object", "config")
    allowed = ("name", "coefficients", "initial_state", "n", "grid", "noise",
               "output_dir", "tolerances", "solver")
    _only_keys(raw, allowed, "config")
    _require(isinstance(raw.get("name"), str) and raw.get("name"),
             "name is required", "name")
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
    preset = None
    table = None
    if source_kind == "preset":
        params = coeffs.get("params", {})
        _require(isinstance(params, dict), "params must be an object",
                 "coefficients.params")
        preset = (coeffs["preset"], params)
        preset_coefficients(coeffs["preset"], **params)  # validate eagerly
    elif source_kind == "medium":
        profile = _parse_medium(coeffs["medium"])
    else:
        table = _parse_table_file(coeffs["table_file"], base_dir)

    grid = _parse_grid(raw.get("grid"))
    if source_kind == "table_file":
        lo, hi = table.window
        _require(lo <= 1e-9, f"table samples start at t = {lo:g}, after t = 0",
                 "coefficients.table_file")
        _require(grid.t_max <= hi + 1e-9,
                 f"t_max exceeds the table window [{lo:g}, {hi:g}]", "grid.t_max")
    elif source_kind == "medium":
        for key in ("xi", "eta", "chi"):
            fn = getattr(profile, key)
            if isinstance(fn, TableFunction):
                lo, hi = float(fn.times[0]), float(fn.times[-1])
                _require(lo <= 1e-9 and grid.t_max <= hi + 1e-9,
                         f"table samples [{lo:g}, {hi:g}] do not cover "
                         f"[0, t_max = {grid.t_max:g}]", f"coefficients.medium.{key}")

    n = raw.get("n", 0)
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 0,
             "n must be a non-negative integer", "n")

    noise = _parse_noise(raw["noise"]) if "noise" in raw else None
    if noise is not None and source_kind != "medium":
        raise ConfigError("noise requires a medium coefficient source", field="noise")
    out_dir = raw.get("output_dir")
    if out_dir is not None:
        _require(isinstance(out_dir, str) and out_dir,
                 "output_dir must be a non-empty string", "output_dir")

    return Scenario(
        name=raw["name"], source_kind=source_kind, init=_parse_init(raw.get("initial_state")),
        n=n, grid=grid, noise=noise, output_dir=out_dir,
        tolerances=_parse_tolerances(raw.get("tolerances")),
        solver=_parse_solver(raw.get("solver")),
        profile=profile, _preset=preset, _table=table, raw=raw,
    )


def load_config(path) -> Scenario:
    """Read and validate a scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}", field="config")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}", field="config") from exc
    return parse_config(raw, base_dir=path.parent)


def build_grid(scenario: Scenario, cs: CoefficientSet | None = None) -> np.ndarray:
    """Master time grid for a scenario.

    Uniform grids cover [0, t_max] with spacing as close to dt as an exact
    cover allows.  Adaptive grids are the step nodes of the propagator core
    on the characteristic pair at the scenario's solver tolerances, so
    output density follows the solution's own activity.
    """
    g = scenario.grid
    if not g.adaptive:
        steps = max(int(round(g.t_max / g.dt)), 1)
        return np.linspace(0.0, g.t_max, steps + 1)
    if cs is None:
        cs = scenario.build_coefficients()
    solver = scenario.solver
    return propagate(cs, g.t_max, mu1_init=solver["mu1_init"],
                     rtol=solver["rtol"], atol=solver["atol"]).ts


def bundled_scenarios() -> dict:
    """Name -> filesystem path of the shipped scenario gallery."""
    root = resources.files("quadmode") / "scenarios"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = Path(str(entry))
    return out
