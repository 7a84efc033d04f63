"""Scenario config parsing, validation diagnostics, grid construction."""

import copy
import functools
import json
import math
import operator

import numpy as np
import pytest

from quadmode import ConfigError, ErmakovInit, NoiseSpec, TableFunction
from quadmode.config import (
    TOLERANCE_DEFAULTS,
    build_grid,
    bundled_scenarios,
    load_config,
    parse_config,
)

BASE = {
    "name": "t",
    "coefficients": {"preset": "static_oscillator"},
    "grid": {"t_max": 10.0, "dt": 0.05},
}


def with_(**over):
    raw = json.loads(json.dumps(BASE))
    raw.update(over)
    return raw


def test_bundled_gallery_names():
    names = set(bundled_scenarios())
    assert names == {
        "static_oscillator", "squeezed_vacuum", "caldirola_kanai",
        "driven_oscillator", "parametric_modulation", "lossy_medium",
        "noisy_lossy_medium",
    }


def test_minimal_config_defaults():
    sc = parse_config(BASE)
    assert sc.n == 0
    assert sc.init.beta0 == 1.0 and sc.init.alpha0 == 0.0
    assert sc.noise is None
    assert sc.tolerances == TOLERANCE_DEFAULTS
    assert sc.solver == {"rtol": 1e-10, "atol": 1e-12}
    cs = sc.build_coefficients()
    assert cs.a(3.0) == 0.5


def test_initial_state_requires_beta0():
    with pytest.raises(ConfigError) as err:
        parse_config(with_(initial_state={"alpha0": 0.1}))
    assert err.value.field == "initial_state.beta0"


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError) as err:
        parse_config(with_(solvr={}))
    assert "solvr" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(with_(grid={"t_max": 1.0, "dt": 0.1, "spacing": 1}))
    with pytest.raises(ConfigError):
        parse_config(with_(initial_state={"beta0": 1.0, "beta1": 2.0}))


def test_exactly_one_coefficient_source():
    raw = with_()
    raw["coefficients"] = {
        "preset": "static_oscillator",
        "medium": {"xi": {"kind": "constant", "value": 1.0},
                   "eta": {"kind": "constant", "value": 1.0},
                   "chi": {"kind": "constant", "value": 0.0}},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == "coefficients"
    raw["coefficients"] = {}
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_noise_needs_medium_source():
    raw = with_(noise={"target": "chi", "model": "ornstein_uhlenbeck",
                       "amplitude": 0.01, "correlation_time": 1.0})
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == "noise"


def test_grid_validation():
    for bad in ({}, {"t_max": -1.0, "dt": 0.1}, {"t_max": 1.0, "dt": 2.0},
                {"t_max": 1.0}, {"t_max": 1.0, "dt": 0.1, "adaptive": True}):
        with pytest.raises(ConfigError):
            parse_config(with_(grid=bad))


def test_uniform_grid_covers_window():
    sc = parse_config(BASE)
    grid = build_grid(sc)
    assert grid[0] == 0.0 and grid[-1] == 10.0
    assert grid.size == 201
    assert np.allclose(np.diff(grid), 0.05)


def test_adaptive_grid():
    sc = parse_config(with_(grid={"t_max": 7.0, "adaptive": True}))
    grid = build_grid(sc)
    assert grid[0] == 0.0 and grid[-1] == 7.0
    assert np.all(np.diff(grid) > 0)
    assert grid.size > 10


def test_table_file_source(tmp_path):
    t = np.linspace(0.0, 5.0, 101)
    rows = np.column_stack([t, np.full_like(t, 0.5), 0.5 + 0.1 * np.sin(t),
                            np.zeros_like(t), np.zeros_like(t),
                            np.zeros_like(t), np.zeros_like(t)])
    path = tmp_path / "coeffs.csv"
    np.savetxt(path, rows, delimiter=",", header="t,a,b,c,d,f,g", comments="")
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "name": "tabled",
        "coefficients": {"table_file": "coeffs.csv"},
        "grid": {"t_max": 5.0, "dt": 0.1},
    }))
    sc = load_config(cfg)
    cs = sc.build_coefficients()
    assert cs.a(1.0) == pytest.approx(0.5)
    assert cs.b(2.0) == pytest.approx(0.5 + 0.1 * np.sin(2.0), abs=1e-9)
    # all-zero columns stay tables, whose is_zero keeps the undriven and
    # d = 0 shortcuts of the core
    assert isinstance(cs.f, TableFunction) and isinstance(cs.g, TableFunction)
    assert cs.driven is False and cs.d.is_zero

    cfg2 = tmp_path / "scenario2.json"
    cfg2.write_text(json.dumps({
        "name": "tabled2",
        "coefficients": {"table_file": "coeffs.csv"},
        "grid": {"t_max": 8.0, "dt": 0.1},
    }))
    with pytest.raises(ConfigError) as err:
        load_config(cfg2)
    assert err.value.field == "grid.t_max"

    # samples that start after t = 0 cannot serve a run that starts there
    rows[:, 0] += 1.0
    np.savetxt(path, rows, delimiter=",", header="t,a,b,c,d,f,g", comments="")
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.field == "coefficients.table_file"


def test_table_file_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,a,b\n0,1,1\n1,1,1\n")
    with pytest.raises(ConfigError) as err:
        parse_config({"name": "x", "coefficients": {"table_file": str(path)},
                      "grid": {"t_max": 1.0, "dt": 0.1}}, base_dir=tmp_path)
    assert err.value.field == "coefficients.table_file"


@pytest.mark.parametrize("content, message", [
    (None, "table file not found"),
    ("t,a,b,c,d,f,g\n0,1,1,0,0,0,0\n1,1,1\n", "cannot read table file"),  # a short row
])
def test_table_file_missing_or_unreadable_names_its_field(tmp_path, content, message):
    path = tmp_path / "coeffs.csv"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ConfigError, match=message) as err:
        parse_config({"name": "x", "coefficients": {"table_file": str(path)},
                      "grid": {"t_max": 1.0, "dt": 0.1}}, base_dir=tmp_path)
    assert err.value.field == "coefficients.table_file"


def test_integer_past_the_float_range_is_not_finite():
    with pytest.raises(ConfigError, match="must be finite") as err:
        NoiseSpec(target="chi", model="telegraph", amplitude=10**400, correlation_time=1.0)
    assert err.value.field == "noise.amplitude"


def test_medium_block_parsed():
    raw = with_()
    raw["coefficients"] = {"medium": {
        "xi": {"kind": "constant", "value": 1.0},
        "eta": {"kind": "sinusoid", "offset": 1.0, "amplitude": 0.2, "frequency": 1.0},
        "chi": {"kind": "constant", "value": 0.1},
        "upsilon": 2.0,
        "field_scale_varpi": 3.0,
    }}
    sc = parse_config(raw)
    assert sc.profile.upsilon == 2.0
    assert sc.profile.field_scale_varpi == 3.0
    cs = sc.build_coefficients(10.0)
    assert cs.medium is sc.profile
    # 4 a b = upsilon^2 / (xi eta) pointwise
    ups2 = 4.0 * cs.a(2.5) * cs.b(2.5) * sc.profile.xi(2.5) * sc.profile.eta(2.5)
    assert ups2 == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize("name", ["xi", "eta", "chi"])
def test_medium_table_must_cover_the_window(name):
    def raw_for(times, t_max):
        medium = {"xi": {"kind": "constant", "value": 1.0},
                  "eta": {"kind": "constant", "value": 1.0},
                  "chi": {"kind": "constant", "value": 0.1}}
        medium[name] = {"kind": "table", "times": times, "values": [1.0] * len(times)}
        return with_(coefficients={"medium": medium}, grid={"t_max": t_max, "dt": 0.05})

    on_0_5 = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert parse_config(raw_for(on_0_5, 5.0)).profile is not None
    # short of t_max, or starting after t = 0
    for times, t_max in ((on_0_5, 10.0), ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 5.0)):
        with pytest.raises(ConfigError) as exc:
            parse_config(raw_for(times, t_max))
        assert exc.value.field == f"coefficients.medium.{name}"


def test_solver_and_tolerance_overrides():
    sc = parse_config(with_(solver={"rtol": 1e-11},
                            tolerances={"wronskian": 1e-6}))
    assert sc.solver["rtol"] == 1e-11
    assert sc.solver["atol"] == 1e-12
    assert sc.tolerances["wronskian"] == 1e-6
    assert sc.tolerances["commutator"] == TOLERANCE_DEFAULTS["commutator"]
    with pytest.raises(ConfigError) as err:
        parse_config(with_(solver={"method": "RK45"}))
    assert err.value.field == "solver.method"
    with pytest.raises(ConfigError):
        parse_config(with_(tolerances={"wronskian": -1.0}))


@pytest.mark.parametrize("key", ["initial_state", "tolerances", "solver", "output_dir",
                                 "coefficients", "coefficients.params", "coefficients.medium",
                                 "coefficients.medium.xi", "grid", "noise"])
def test_null_block_is_rejected_naming_it(key):
    # a null block is not an absent one: it must not take the defaults; a
    # list is no object either.  The message names the key once, by its field
    *parents, last = key.split(".")
    for bad in (None, [1.0]):
        raw = (with_(coefficients={"preset": "driven", "params": {"force": 1.0}})
               if last == "params" else with_noise())
        functools.reduce(operator.getitem, parents, raw)[last] = bad
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == key
        assert str(err.value).count(last) == 1, str(err.value)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": }")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "line" in str(err.value)


NOISE = {"target": "chi", "model": "ornstein_uhlenbeck",
         "amplitude": 0.05, "correlation_time": 1.0}


def with_noise(**over):
    raw = with_(noise=dict(NOISE, **over))
    raw["coefficients"] = {"medium": {"xi": {"kind": "constant", "value": 1.0},
                                      "eta": {"kind": "constant", "value": 1.0},
                                      "chi": {"kind": "constant", "value": 0.1}}}
    return raw


@pytest.mark.parametrize("key,value", [
    ("amplitude", "abc"), ("amplitude", None), ("amplitude", True),
    ("correlation_time", "1.0"), ("correlation_time", True),
    ("seed", "x"), ("seed", 1.5), ("seed", None), ("seed", True), ("seed", 2**64),
    ("paths", 2.7), ("paths", "8"), ("paths", True),
])
def test_malformed_noise_values_name_their_field(key, value):
    # no truncation, no coercion: a value of the wrong type is a config error
    with pytest.raises(ConfigError) as err:
        parse_config(with_noise(**{key: value}))
    assert err.value.field == f"noise.{key}"


# a value with more digits than the bound is given by its size
TOO_LARGE_N = {2**52: "4503599627370496", 10**16: "an integer of 17 digits",
               10**200: "an integer of 201 digits"}


@pytest.mark.parametrize("n", [2**52, 10**16, 10**200])
def test_fock_index_beyond_float_exactness_names_n(n):
    # (n + 1/2)^2 must form: n + 1/2 is exact in a float only below 2**52
    with pytest.raises(ConfigError) as err:
        parse_config(with_(n=n))
    assert err.value.field == "n"
    assert str(err.value) == f"n: must be < 4503599627370496, got {TOO_LARGE_N[n]}"


def test_largest_seed_and_fock_index_are_accepted():
    scenario = parse_config(with_noise(seed=2**64 - 1))
    assert scenario.noise.seed == 2**64 - 1
    assert parse_config(with_(n=2**52 - 1)).n == 2**52 - 1


@pytest.mark.parametrize("preset,params,key", [
    ("parametric", {"depth": "abc"}, "depth"),
    ("caldirola_kanai", {"rate": None}, "rate"),
    ("constant", {"a": [1]}, "a"),
    ("driven", {"force": True}, "force"),
    ("parametric", {"frequency": float("nan")}, "frequency"),
    ("driven", {"forse": 1.0}, "forse"),
    ("static_oscillator", {"rate": 1.0}, "rate"),
])
def test_malformed_preset_params_name_their_field(preset, params, key):
    with pytest.raises(ConfigError) as err:
        parse_config(with_(coefficients={"preset": preset, "params": params}))
    assert err.value.field == f"coefficients.params.{key}"


MEDIUM = {"xi": {"kind": "constant", "value": 1.0},
          "eta": {"kind": "constant", "value": 1.0},
          "chi": {"kind": "constant", "value": 0.1}}


@pytest.mark.parametrize("times,values", [
    ([0.0, 1.0, 2.0, 3.0], [1.0] * 4),  # fewer than 5 samples
    ([0.0, 1.0, 2.0, 4.0, 5.0, 6.0], [1.0] * 6),  # uneven spacing
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5),  # unequal lengths
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, math.nan, 1.0, 1.0, 1.0]),
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [True, 1, 1, 1, 1, 1]),
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, "1", 1.0, 1.0, 1.0, 1.0]),
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 1.0),
])
def test_medium_table_samples_name_their_field(times, values):
    medium = dict(MEDIUM, chi={"kind": "table", "times": times, "values": values})
    with pytest.raises(ConfigError) as err:
        parse_config(with_(coefficients={"medium": medium}, grid={"t_max": 3.0, "dt": 0.05}))
    assert err.value.field == "coefficients.medium.chi"


def test_table_file_samples_name_their_field(tmp_path):
    t = np.linspace(0.0, 5.0, 11)
    good = np.column_stack([t, np.full_like(t, 0.5), np.full_like(t, 0.5)]
                           + [np.zeros_like(t)] * 4)
    nan_cell, uneven_t = good.copy(), good.copy()
    nan_cell[3, 2] = np.nan
    uneven_t[4, 0] += 0.2
    raw = {"name": "x", "coefficients": {"table_file": "coeffs.csv"},
           "grid": {"t_max": 5.0, "dt": 0.1}}
    for rows in (nan_cell, uneven_t):
        np.savetxt(tmp_path / "coeffs.csv", rows, delimiter=",",
                   header="t,a,b,c,d,f,g", comments="")
        with pytest.raises(ConfigError) as err:
            parse_config(raw, base_dir=tmp_path)
        assert err.value.field == "coefficients.table_file"


def test_number_rule_admits_numpy_scalars():
    init = ErmakovInit(beta0=np.float64(1.5), delta0=np.int64(2))
    assert (init.beta0, init.delta0) == (1.5, 2.0)
    assert type(init.delta0) is float
    spec = NoiseSpec(target="chi", model="telegraph", amplitude=np.float32(0.5),
                     correlation_time=1, seed=np.int64(3), paths=np.int32(4))
    assert (spec.amplitude, spec.correlation_time, spec.seed, spec.paths) == (0.5, 1.0, 3, 4)
    assert type(spec.seed) is int


BAD_NUMBERS = ("1", True, None, math.nan, math.inf, [1.0])


def _faults(node, keys=()):
    """(keys, value) pairs, each one fault to put at that key path: every
    bad number in turn at each numeric leaf, and an unknown key `zz` in
    each object."""
    if isinstance(node, dict):
        yield keys + ("zz",), 0
        for key, value in node.items():
            yield from _faults(value, keys + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        for bad in BAD_NUMBERS:
            yield keys, bad


# what no bundled scenario holds: the override blocks, all six initial
# values, and the other three kinds of function spec
EVERY_BLOCK = {
    "name": "every_block",
    "coefficients": {"medium": {
        "xi": {"kind": "exponential", "amplitude": 1.0, "rate": 0.01},
        "eta": {"kind": "sinusoid", "offset": 1.0, "amplitude": 0.1, "frequency": 1.0,
                "phase": 0.5},
        "chi": {"kind": "table", "times": [0.0, 2.5, 5.0, 7.5, 10.0],
                "values": [0.1, 0.12, 0.1, 0.08, 0.1]}}},
    "initial_state": {"alpha0": 0.1, "beta0": 1.2, "gamma0": 0.05, "delta0": 0.3,
                      "eps0": -0.2, "kappa0": 0.1},
    "grid": {"t_max": 10.0, "dt": 0.05},
    "tolerances": {"uncertainty": 1e-12, "commutator": 1e-12, "wronskian": 1e-8,
                   "quasi_invariants": 1e-6},
    "solver": {"rtol": 1e-10, "atol": 1e-12},
}


def test_every_malformed_number_or_key_names_its_field():
    configs = [(path.stem, json.loads(path.read_text()), path.parent)
               for path in bundled_scenarios().values()]
    configs.append(("every_block", EVERY_BLOCK, None))
    cases, wrong = 0, []
    for label, raw, base_dir in configs:
        parse_config(raw, base_dir=base_dir)
        for keys, bad in _faults(raw):
            variant = copy.deepcopy(raw)
            functools.reduce(operator.getitem, keys[:-1], variant)[keys[-1]] = bad
            expected = "config.zz" if keys == ("zz",) else ".".join(keys)
            try:
                parse_config(variant, base_dir=base_dir)
                got = "accepted"
            except ConfigError as exc:
                got = exc.field
            cases += 1
            if got != expected:
                wrong.append(f"{label}: {expected} = {bad!r} -> {got}")
    assert cases == 473
    assert not wrong, f"{len(wrong)} of {cases}: {wrong}"
