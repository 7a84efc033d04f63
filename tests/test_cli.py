"""End-to-end command line behavior: exit codes, files, determinism."""

import dataclasses
import inspect
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from quadmode import cli, config, ermakov, stochastic
from quadmode.cli import main


def read_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data


def test_run_static_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "static_oscillator", "--out", str(out)]) == 0
    for name in ("ermakov.csv", "observables.csv", "invariants.csv", "manifest.json"):
        assert (out / name).is_file()

    obs = read_csv(out / "observables.csv")
    assert obs.dtype.names == ("t", "xbar", "pbar", "var_x", "var_p", "product",
                               "h_expect", "phase_dyn", "phase_geo", "d_amp", "b_amp")
    assert np.allclose(obs["product"], 0.25, atol=1e-12)
    assert np.allclose(obs["var_x"], 0.5, atol=1e-9)
    # dynamical phase of the ground state accumulates t/2
    assert obs["phase_dyn"][-1] == pytest.approx(5.0, abs=1e-9)

    erm = read_csv(out / "ermakov.csv")
    assert erm.dtype.names == ("t", "alpha", "beta", "gamma", "delta", "eps", "kappa")
    assert np.allclose(erm["beta"], 1.0, atol=1e-9)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["all_passed"] is True
    assert manifest["command"] == "run"
    assert "timestamp" not in json.dumps(manifest).lower()


def test_run_is_byte_identical_on_rerun(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "squeezed_vacuum", "--out", str(out1)]) == 0
    assert main(["run", "squeezed_vacuum", "--out", str(out2)]) == 0
    for name in ("ermakov.csv", "observables.csv", "invariants.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_output_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "placed.json"
    cfg.write_text(json.dumps({"name": "placed", "coefficients": {"preset": "static_oscillator"},
                               "grid": {"t_max": 1.0, "dt": 0.1},
                               "output_dir": str(tmp_path / "config")}))
    monkeypatch.setenv("QUADMODE_OUTDIR", str(tmp_path / "env"))
    assert main(["dump-basis", "static_oscillator"]) == 0
    assert (tmp_path / "env" / "static_oscillator" / "basis.csv").is_file()
    # --out beats the environment
    assert main(["dump-basis", "static_oscillator", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "basis.csv").is_file()
    # the environment beats the config's output_dir
    assert main(["dump-basis", str(cfg)]) == 0
    assert (tmp_path / "env" / "placed" / "basis.csv").is_file()
    # without either, the config's output_dir, then ./out/<name>
    monkeypatch.delenv("QUADMODE_OUTDIR")
    assert main(["dump-basis", str(cfg)]) == 0
    assert (tmp_path / "config" / "basis.csv").is_file()
    assert main(["dump-basis", "static_oscillator"]) == 0
    assert (tmp_path / "out" / "static_oscillator" / "basis.csv").is_file()


@pytest.mark.parametrize("name", ["../escaped", "ABSOLUTE", "a/b", "..", "a\0b"])
def test_a_name_that_is_not_one_path_component_is_rejected(name, tmp_path, monkeypatch, capsys):
    # the name is a directory under ./out or $QUADMODE_OUTDIR: one that
    # climbs out of it, or replaces it, must write nothing anywhere
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv("QUADMODE_OUTDIR", raising=False)
    if name == "ABSOLUTE":
        name = str(tmp_path / "absolute")
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps({"name": name, "coefficients": {"preset": "static_oscillator"},
                               "grid": {"t_max": 1.0, "dt": 0.1}}))
    assert main(["run", str(cfg)]) == 2
    assert "config error: name:" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [cfg, work]


def test_a_nul_in_output_dir_is_a_config_error(tmp_path, monkeypatch, capsys):
    # no path holds a NUL: the config is refused before anything is made
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv("QUADMODE_OUTDIR", raising=False)
    cfg = tmp_path / "placed.json"
    raw = json.loads(cli.bundled_scenarios()["static_oscillator"].read_text())
    cfg.write_text(json.dumps(dict(raw, output_dir="a\0b")))
    assert main(["run", str(cfg)]) == 2
    assert "config error: output_dir:" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [cfg, work]


def test_config_error_exit_2_names_field(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({
        "name": "broken",
        "coefficients": {"preset": "static_oscillator"},
        "initial_state": {"alpha0": 0.2},
        "grid": {"t_max": 1.0, "dt": 0.1},
    }))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "initial_state.beta0" in err


MEDIUM = {"xi": {"kind": "constant", "value": 1.0}, "eta": {"kind": "constant", "value": 1.0},
         "chi": {"kind": "constant", "value": 0.1}}


@pytest.mark.parametrize("command,over,field", [
    # mu1(0) = 1 is fixed: the key is unknown, like solver.method
    ("run", {"solver": {"mu1_init": 1.0}}, "solver.mu1_init"),
    ("dump-basis", {"solver": {"mu1_init": 1.0}}, "solver.mu1_init"),
    ("run", {"coefficients": {"preset": "parametric", "params": {"depth": "abc"}}},
     "coefficients.params.depth"),
    ("run", {"coefficients": {"preset": "driven", "params": {"forse": 1.0}}},
     "coefficients.params.forse"),
    ("ensemble", {"coefficients": {"medium": MEDIUM},
                  "noise": {"target": "chi", "model": "ornstein_uhlenbeck",
                            "amplitude": "abc", "correlation_time": 1.0}},
     "noise.amplitude"),
    # every number a scenario gives is checked, function specs included
    ("run", {"coefficients": {"medium": dict(MEDIUM, chi={"kind": "constant",
                                                          "value": float("nan")})}},
     "coefficients.medium.chi.value"),
    ("run", {"coefficients": {"medium": dict(MEDIUM, upsilon=float("inf"))}},
     "coefficients.medium.upsilon"),
    ("run", {"coefficients": {"medium": dict(MEDIUM, xi={"kind": "constant", "value": True})}},
     "coefficients.medium.xi.value"),
    ("run", {"coefficients": {"medium": dict(MEDIUM, eta={
        "kind": "sinusoid", "offset": 1.0, "amplitude": 0.1, "frequency": 1.0, "phse": 0.5})}},
     "coefficients.medium.eta.phse"),
    ("run", {"coefficients": {"medium": dict(MEDIUM, chi={
        "kind": "table", "times": [0.0, 0.5, 1.0], "values": [0.1, 0.1, 0.1]})}},
     "coefficients.medium.chi"),
    ("run", {"initial_state": {"beta0": 1.0, "delta0": float("nan")}}, "initial_state.delta0"),
    # a null block is rejected, not read as absent
    ("run", {"initial_state": None}, "initial_state"),
    ("run", {"tolerances": None}, "tolerances"),
    ("ensemble", {"coefficients": {"medium": MEDIUM}, "solver": None,
                  "noise": {"target": "chi", "model": "ornstein_uhlenbeck",
                            "amplitude": 0.05, "correlation_time": 1.0}},
     "solver"),
    # integers the run cannot use: a Philox key of more than 128 bits, and
    # an n whose (n + 1/2)^2 overflows
    ("ensemble", {"coefficients": {"medium": MEDIUM},
                  "noise": {"target": "chi", "model": "ornstein_uhlenbeck",
                            "amplitude": 0.05, "correlation_time": 1.0, "seed": 2**64}},
     "noise.seed"),
    ("run", {"n": 10**200}, "n"),
])
def test_malformed_config_exit_2_names_field(tmp_path, capsys, command, over, field):
    cfg = tmp_path / "malformed.json"
    raw = {"name": "malformed", "coefficients": {"preset": "static_oscillator"},
           "grid": {"t_max": 1.0, "dt": 0.1}}
    cfg.write_text(json.dumps(dict(raw, **over)))
    assert main([command, str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_integer_past_the_conversion_limit_exit_2(tmp_path, capsys):
    # Python will not read an integer literal of over 4,300 digits
    cfg = tmp_path / "long.json"
    cfg.write_text('{"name": "long", "coefficients": {"preset": "static_oscillator"}, '
                   '"grid": {"t_max": 1.0, "dt": 0.1}, "n": 1' + "0" * 4999 + "}")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--paths", "0"), ("--paths", "1"),
                                        ("--seed", "-5"), ("--seed", str(2**64))])
def test_ensemble_flag_errors_name_the_flag(tmp_path, capsys, flag, value):
    argv = ["ensemble", "noisy_lossy_medium", flag, value, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag}:" in err
    assert "noise." not in err


def test_ensemble_too_many_paths_to_hold_exit_2(tmp_path, capsys):
    # the per-path observables cannot be allocated: numpy refuses 8e15
    # bytes at once, without touching memory, and the flag's value lands
    # in noise.paths
    argv = ["ensemble", "noisy_lossy_medium", "--paths", str(10**12), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: noise.paths: 1000000000000 paths on 201 grid points need 8.04e+15" in err
    assert not any(tmp_path.iterdir())


def test_unknown_scenario_exit_2(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no_such_scenario" in capsys.readouterr().err


def test_numerical_failure_exit_3_names_module_and_time(tmp_path, capsys):
    cfg = tmp_path / "blow.json"
    cfg.write_text(json.dumps({
        "name": "blow",
        "coefficients": {"preset": "constant", "params": {"a": 0.5, "b": -50.0}},
        "grid": {"t_max": 80.0, "dt": 0.1},
    }))
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "quadmode.characteristic" in err
    assert "t=" in err


def test_medium_positivity_failure_reports_where_it_starts(tmp_path, capsys):
    # xi = 0.5 + sin t first reaches 0 at t = 7 pi / 6, not at its lowest point
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps({
        "name": "negative",
        "coefficients": {"medium": dict(MEDIUM, xi={"kind": "sinusoid", "offset": 0.5,
                                                    "amplitude": 1.0, "frequency": 1.0})},
        "grid": {"t_max": 10.0, "dt": 0.1},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "(InvalidMediumError, t=3.66" in err



@pytest.mark.parametrize("command", ["run", "dump-basis"])
def test_table_with_zero_kinetic_start_exits_3(tmp_path, capsys, command):
    # a = sin(t)/2 vanishes at t = 0: the frame constants and the core's
    # initial data both divide by a(0), and both meet the core's one rule
    rows = ["t,a,b,c,d,f,g"] + [f"{t!r},{math.sin(t) / 2!r},0.5,0,0,0,0"
                                for t in np.linspace(0.0, 2.0, 41).tolist()]
    (tmp_path / "coeffs.csv").write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "sin_a.json"
    cfg.write_text(json.dumps({"name": "sin_a", "coefficients": {"table_file": "coeffs.csv"},
                               "grid": {"t_max": 2.0, "dt": 0.05}}))
    assert main([command, str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "(SingularCoefficientError, t=0): a(0)" in capsys.readouterr().err


@pytest.mark.parametrize("t_max,dt,points", [(1.0, 1e-300, "1e+300"), (1e300, 1e-10, "inf")])
def test_grid_too_fine_to_allocate_exits_2(tmp_path, capsys, t_max, dt, points):
    # numpy refuses 1e300 points at once, without touching memory, and a
    # step count past the float range is refused before numpy is asked
    cfg = tmp_path / "fine.json"
    cfg.write_text(json.dumps({"name": "fine", "coefficients": {"preset": "static_oscillator"},
                               "grid": {"t_max": t_max, "dt": dt}}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: grid.dt: cannot allocate {points} points" in err


def test_overflowing_noise_amplitude_exits_2_without_warnings(tmp_path, capsys):
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["noise"]["amplitude"] = 1e308
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ensemble", str(cfg), "--paths", "4", "--out", str(tmp_path / "o")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("config error: noise.amplitude: ") and "Warning" not in err

def assert_config_error_without_warnings(argv, field, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and "Warning" not in err


def test_overflowing_telegraph_amplitude_exits_2_without_warnings(tmp_path, capsys):
    # +-1e308 noise is finite, but the spline through it is not
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["noise"].update(model="telegraph", amplitude=1e308)
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(raw))
    assert_config_error_without_warnings(
        ["ensemble", str(cfg), "--paths", "4", "--out", str(tmp_path / "o")], "noise.amplitude",
        capsys)


@pytest.mark.parametrize("upsilon", [1.4e154, 1e200])
@pytest.mark.parametrize("command", [["run"], ["dump-basis"], ["ensemble", "--paths", "2"]],
                         ids=["run", "dump-basis", "ensemble"])
def test_upsilon_whose_square_overflows_exits_2_without_warnings(tmp_path, capsys, command,
                                                                upsilon):
    # 4 sigma and b read upsilon^2, which was an OverflowError traceback
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["coefficients"]["medium"]["upsilon"] = upsilon
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(raw))
    assert_config_error_without_warnings(
        [command[0], str(cfg), *command[1:], "--out", str(tmp_path / "o")],
        "coefficients.medium.upsilon", capsys)


@pytest.mark.parametrize("value", [1e200, -1e200, 1e300])
@pytest.mark.parametrize("name", ["alpha0", "beta0", "gamma0", "delta0", "eps0", "kappa0"])
def test_extreme_initial_state_ends_in_a_verdict(tmp_path, capsys, name, value):
    # the frame constants take beta0^2 and the quasi-invariants eps0^2,
    # which was an OverflowError traceback (exit 1); every other field runs
    # to a verdict, or fails as a numerical problem, with no RuntimeWarning
    # from the non-finite values that its checks judge
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["driven_oscillator"].read_text())
    raw.update(grid={"t_max": 2.0, "dt": 0.1}, initial_state={"beta0": 1.0, name: value})
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    if name in ("beta0", "eps0"):
        assert code == 2 and err.startswith(f"config error: initial_state.{name}: ")
    else:
        assert code in (0, 3)


@pytest.mark.parametrize("name", ["beta0", "eps0"])
def test_ensemble_initial_state_whose_square_overflows_exits_2(tmp_path, capsys, name):
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["initial_state"] = dict(raw.get("initial_state", {"beta0": 1.0}), **{name: 1e155})
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(raw))
    assert_config_error_without_warnings(
        ["ensemble", str(cfg), "--paths", "2", "--out", str(tmp_path / "o")],
        f"initial_state.{name}", capsys)


@pytest.mark.parametrize("coefficients, text", [
    ({"preset": "constant", "params": {"a": 0.5, "b": 1.5e308}}, "StiffnessError"),
    ({"preset": "constant", "params": {"a": 1e200, "b": 1e200}}, "BlowUpError"),
    # upsilon^2 = 1e308 is finite, so no config error
    ({"medium": dict(MEDIUM, upsilon=1e154)}, "StiffnessError"),
], ids=["b-1.5e308", "a-b-1e200", "upsilon-1e154"])
def test_segments_past_the_float_range_exit_3_without_warnings(tmp_path, capsys, coefficients,
                                                               text):
    # Omega is formed from rates past the float range; the doubling test
    # and the overflow guard judge the non-finite steps
    cfg = tmp_path / "wild.json"
    cfg.write_text(json.dumps({"name": "wild", "coefficients": coefficients,
                               "grid": {"t_max": 1, "dt": 0.05}}))
    assert_numerical_failure_without_warnings(
        ["run", str(cfg), "--out", str(tmp_path / "o")], text, capsys)


@pytest.mark.parametrize("correlation_time, paths", [(1e-9, 2), (1e308, 8)])
def test_telegraph_at_extreme_correlation_times_is_an_ordinary_run(tmp_path, correlation_time,
                                                                    paths):
    # one flip draw per grid interval whatever the correlation time: a
    # flip loop never finished at 1e-9 and divided by zero at 1e308
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["noise"].update(model="telegraph", correlation_time=correlation_time)
    cfg = tmp_path / "tc.json"
    cfg.write_text(json.dumps(raw))
    assert main(["ensemble", str(cfg), "--paths", str(paths), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("source", ["table_file", "spec"])
def test_table_whose_spline_overflows_exits_2_without_warnings(tmp_path, capsys, source):
    times = np.linspace(0.0, 2.0, 41)
    values = np.where(np.arange(41) % 2, 1e308, -1e308)
    if source == "table_file":
        rows = np.column_stack([times, np.full(41, 0.5), values, np.zeros((41, 4))])
        np.savetxt(tmp_path / "loud.csv", rows, delimiter=",", header="t,a,b,c,d,f,g",
                   comments="", fmt="%.17g")
        coefficients, field = {"table_file": "loud.csv"}, "coefficients.table_file"
    else:
        one = {"kind": "constant", "value": 1.0}
        chi = {"kind": "table", "times": times.tolist(), "values": values.tolist()}
        coefficients = {"medium": {"xi": one, "eta": one, "chi": chi}}
        field = "coefficients.medium.chi"
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps({"name": "loud", "coefficients": coefficients,
                               "grid": {"t_max": 2.0, "dt": 0.05}}))
    assert_config_error_without_warnings(["run", str(cfg), "--out", str(tmp_path / "o")], field,
                                         capsys)


@pytest.mark.parametrize("chi", [1e308, 1.5e308])
def test_chi_past_the_float_range_exits_3_without_warnings(tmp_path, capsys, chi):
    # chi/xi past the float range, in its samples or in its spline, is each
    # path's numerical failure naming chi, not a table problem: the config
    # has no table
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["coefficients"]["medium"]["chi"] = {"kind": "constant", "value": chi}
    raw["noise"].update(target="xi", amplitude=0.2)
    raw["grid"] = {"t_max": 2, "dt": 0.05}
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(raw))
    argv = ["ensemble", str(cfg), "--paths", "8", "--seed", "3", "--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "8 of 8 paths failed" in err and "raised CoefficientEvaluationError" in err
    assert "config error" not in err and "Warning" not in err


def assert_numerical_failure_without_warnings(argv, text, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert text in err and "Warning" not in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("rate, chi, grid, solver", [
    # a step exponent past the int64 range, once cast to a negative piece
    # count (ValueError from np.repeat, exit 1)
    (3.0, -4.0, {"t_max": 178, "dt": 0.5}, {"rtol": 1e-6, "atol": 1e-10}),
    # a step exponent that overflows while exp(Omega) is formed
    (1.9, -2.0, {"t_max": 360, "dt": 1}, None),
])
def test_steps_past_the_float_range_exit_3_without_warnings(tmp_path, capsys, rate, chi, grid,
                                                            solver):
    # xi = e^(rate t), eta = e^(-rate t), chi = chi e^(rate t) with OU noise
    # of 0.01: the core gives up on both paths (StiffnessError)
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["coefficients"]["medium"].update(
        xi={"kind": "exponential", "amplitude": 1.0, "rate": rate},
        eta={"kind": "exponential", "amplitude": 1.0, "rate": -rate},
        chi={"kind": "exponential", "amplitude": chi, "rate": rate})
    raw["noise"].update(amplitude=0.01, seed=1)
    raw["grid"] = grid
    if solver is not None:
        raw["solver"] = solver
    cfg = tmp_path / "steep.json"
    cfg.write_text(json.dumps(raw))
    assert_numerical_failure_without_warnings(
        ["ensemble", str(cfg), "--paths", "2", "--out", str(tmp_path / "o")],
        "2 of 2 paths failed (1% allowed); the first, path 0, raised StiffnessError", capsys)


@pytest.mark.parametrize("amplitude, text", [
    # every path is finite, but the spread of their values is not: this
    # wrote inf to ensemble.csv and exited 0
    (20, "(EnsembleError, t=9.05): the ensemble stderr of var_p is not finite at t=9.05"),
    # most paths blow up
    (100, "90 of 130 paths failed (1% allowed); the first, path 0, raised BlowUpError"),
], ids=["20", "100"])
def test_ensemble_past_the_float_range_exits_3_without_warnings(tmp_path, capsys, amplitude,
                                                                text):
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["noise"].update(model="telegraph", amplitude=amplitude)
    cfg = tmp_path / "wild.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert_numerical_failure_without_warnings(
        ["ensemble", str(cfg), "--paths", "130", "--seed", "7", "--out", str(out)], text, capsys)
    assert not (out / "ensemble.csv").exists()


def test_noise_overflowing_on_a_redraw_exits_2_without_warnings(tmp_path, capsys):
    # both first draws are finite, and both break positivity; a redraw's
    # spline overflows, which is a config error raised where it happens
    from dataclasses import replace

    from quadmode.coefficients import medium_to_hamiltonian_stack
    from quadmode.config import bundled_scenarios, load_config
    from quadmode.errors import InvalidMediumError
    from quadmode.stochastic import _perturbed

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["noise"].update(target="xi", amplitude=3e305, correlation_time=100)
    raw["grid"] = {"t_max": 400, "dt": 100}
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(raw))
    scenario = load_config(cfg)
    first = _perturbed(replace(scenario.noise, seed=2), scenario.profile,
                       np.linspace(0.0, 400.0, 5), [(0, 0), (1, 0)])
    cs, errors = medium_to_hamiltonian_stack(first, 400.0)
    assert cs is None and all(isinstance(error, InvalidMediumError) for error in errors)
    assert_config_error_without_warnings(
        ["ensemble", str(cfg), "--paths", "2", "--seed", "2", "--out", str(tmp_path / "o")],
        "noise.amplitude", capsys)


def test_run_over_tolerance_exits_3(tmp_path, capsys):
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"name": "strict",
                               "coefficients": {"preset": "static_oscillator"},
                               "initial_state": {"beta0": 1.3},
                               "grid": {"t_max": 5.0, "dt": 0.1},
                               "tolerances": {"quasi_invariants": 1e-300}}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "one or more invariant checks failed" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["all_passed"] is False
    assert manifest["checks"]["quasi_invariants"]["pass"] is False


def test_a_nan_uncertainty_product_fails_its_check(tmp_path):
    # beta0 = 1e-163 squares to zero, so the product at t = 0 is NaN (and
    # the other 200 are inf): a deficit of NaN fails, not one of 0
    raw = json.loads(config.bundled_scenarios()["static_oscillator"].read_text())
    cfg = tmp_path / "tiny_beta.json"
    cfg.write_text(json.dumps(dict(raw, initial_state={"beta0": 1e-163})))
    with np.errstate(all="ignore"):
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert np.isnan(read_csv(tmp_path / "o" / "observables.csv")["product"]).sum() == 1
    uncertainty = json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"][
        "uncertainty"]
    assert math.isnan(uncertainty["value"]) and uncertainty["pass"] is False


def test_an_infinite_uncertainty_product_fails_its_check(tmp_path):
    # beta0 = 1e-160 makes 200 of the 201 products inf and none NaN: an
    # infinite product says nothing about the floor, so the deficit is NaN
    # and the check fails, not one of 0
    raw = json.loads(config.bundled_scenarios()["static_oscillator"].read_text())
    cfg = tmp_path / "tiny_beta.json"
    cfg.write_text(json.dumps(dict(raw, initial_state={"beta0": 1e-160})))
    with np.errstate(all="ignore"):
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    product = read_csv(tmp_path / "o" / "observables.csv")["product"]
    assert np.isinf(product).sum() == 200 and not np.isnan(product).any()
    uncertainty = json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"][
        "uncertainty"]
    assert math.isnan(uncertainty["value"]) and uncertainty["pass"] is False


def test_a_nan_ensemble_product_floor_fails_its_check(tmp_path, monkeypatch, capsys):
    # the ensemble judges its pathwise floor by the same deficit, and says
    # on stderr that a check failed, as run does
    real = cli.run_ensemble
    monkeypatch.setattr(cli, "run_ensemble", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), product_floor=math.nan))
    assert main(["ensemble", "noisy_lossy_medium", "--paths", "2",
                 "--out", str(tmp_path)]) == 3
    uncertainty = json.loads((tmp_path / "manifest.json").read_text())["checks"]["uncertainty"]
    assert math.isnan(uncertainty["value"]) and uncertainty["pass"] is False
    assert capsys.readouterr().err == "one or more invariant checks failed\n"


def test_run_notes_that_it_uses_the_base_medium(tmp_path):
    assert main(["run", "noisy_lossy_medium", "--out", str(tmp_path)]) == 0
    note = json.loads((tmp_path / "manifest.json").read_text())["note"]
    assert "noise block" in note and "ensemble" in note


def test_dump_basis_columns(tmp_path):
    out = tmp_path / "basis"
    assert main(["dump-basis", "static_oscillator", "--out", str(out)]) == 0
    basis = read_csv(out / "basis.csv")
    assert basis.dtype.names == ("t", "mu0", "mu0p", "mu1", "mu1p", "lambda",
                                 "wronskian")
    assert basis["mu0"][0] == 0.0
    assert np.allclose(basis["wronskian"], 1.0, atol=1e-10)
    assert np.allclose(basis["mu0"], np.sin(basis["t"]), atol=1e-9)


def test_ensemble_runs_and_reproduces(tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    args = ["ensemble", "noisy_lossy_medium", "--paths", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "ensemble.csv").read_bytes() == (out2 / "ensemble.csv").read_bytes()

    ens = read_csv(out1 / "ensemble.csv")
    assert ens.dtype.names == (
        "t", "var_x_mean", "var_x_stderr", "var_p_mean", "var_p_stderr",
        "product_mean", "product_stderr", "xbar_mean", "xbar_stderr",
        "pbar_mean", "pbar_stderr")
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["paths"] == 4
    assert manifest["failed_paths"] == 0
    assert manifest["failures"] == {}
    assert manifest["product_floor"] >= 0.25 - 1e-12

    # a different seed moves the statistics
    out3 = tmp_path / "e3"
    assert main(args + ["--seed", "7", "--out", str(out3)]) == 0
    assert (out1 / "ensemble.csv").read_bytes() != (out3 / "ensemble.csv").read_bytes()


def test_ensemble_manifest_records_failures_by_class(tmp_path):
    # telegraph noise of amplitude 1.5 on xi = 1: a draw fails wherever its
    # sign is negative; at seed 9 only path 51 fails on all of its draws,
    # and it starts negative, at t = 0 (1 of 100 paths is within budget)
    cfg = tmp_path / "flaky.json"
    cfg.write_text(json.dumps({
        "name": "flaky", "coefficients": {"medium": MEDIUM},
        "grid": {"t_max": 2.0, "dt": 0.05},
        "noise": {"target": "xi", "model": "telegraph", "amplitude": 1.5,
                  "correlation_time": 2.6, "seed": 9, "paths": 100}}))
    outputs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["ensemble", str(cfg), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("ensemble.csv", "manifest.json")])
    assert outputs[0] == outputs[1]
    manifest = json.loads(outputs[0][1])
    assert manifest["failed_paths"] == 1
    assert manifest["failures"] == {
        "PathRejectedError": {"count": 1, "first_path": 51, "t": 0.0}}


def test_ensemble_solver_block_sets_the_path_tolerances(tmp_path):
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    outputs = []
    for i, extra in enumerate(({}, {"solver": {"rtol": 1e-12, "atol": 1e-14}})):
        cfg = tmp_path / f"ens{i}.json"
        cfg.write_text(json.dumps(dict(raw, **extra)))
        assert main(["ensemble", str(cfg), "--paths", "2", "--out", str(tmp_path / str(i))]) == 0
        outputs.append((tmp_path / str(i) / "ensemble.csv").read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("given", [{"atol": 1e-9}, {"rtol": 1e-9}])
def test_a_partial_ensemble_solver_block_keeps_the_other_ensemble_default(tmp_path, monkeypatch,
                                                                           given):
    # the tolerance the block leaves out is run_ensemble's own default, not
    # the run's (SOLVER_DEFAULTS)
    signature = inspect.signature(stochastic.run_ensemble)
    defaults = {key: signature.parameters[key].default for key in ("rtol", "atol")}
    real, seen = cli.run_ensemble, []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append({key: bound.arguments[key] for key in defaults})
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", recording)
    raw = json.loads(config.bundled_scenarios()["noisy_lossy_medium"].read_text())
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps(dict(raw, solver=given)))
    assert main(["ensemble", str(cfg), "--paths", "2", "--out", str(tmp_path / "o")]) == 0
    assert seen == [dict(defaults, **given)]


def test_ensemble_requires_noise_block(capsys):
    assert main(["ensemble", "lossy_medium"]) == 2
    assert "noise" in capsys.readouterr().err


def test_verify_single_scenario(capsys):
    assert main(["verify", "--scenario", "static_oscillator"]) == 0
    out = capsys.readouterr().out
    assert "oracle_deviation" in out
    assert "FAIL" not in out
    assert "phase_route_agreement" in out  # every scenario, sinusoid or not


def test_verify_phase_routes_on_sinusoidal_modulation(capsys):
    assert main(["verify", "--scenario", "parametric_modulation"]) == 0
    out = capsys.readouterr().out
    assert "phase_route_agreement" in out
    assert "FAIL" not in out


def test_verify_noisy_and_medium_scenarios(capsys):
    # realization 0 of the noisy medium, and the classical mode equivalence
    # of both medium scenarios
    argv = ["verify", "--scenario", "lossy_medium", "--scenario", "noisy_lossy_medium"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for name in ("lossy_medium", "noisy_lossy_medium"):
        assert f"{name}: classical_equivalence" in out
    assert "FAIL" not in out


def test_failing_verify_exits_3(capsys):
    assert main(["verify", "--scenario", "static_oscillator", "--tol", "1e-300"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "verification failed" in captured.err


def test_verify_rejects_unknown_scenario(capsys):
    assert main(["verify", "--scenario", "bogus"]) == 2


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_rejects_tolerance_not_finite_and_positive(tol, capsys):
    assert main(["verify", f"--tol={tol}", "--scenario", "static_oscillator"]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert "oracle_deviation" not in captured.out  # rejected before any check runs


def test_run_assembles_the_closed_form_path_once(tmp_path, monkeypatch):
    # every closed-form assembly ends in one ErmakovPath that ermakov builds
    calls = []
    built = ermakov.ErmakovPath

    def counting(grid, *args, **kwargs):
        calls.append(grid.size)
        return built(grid, *args, **kwargs)

    monkeypatch.setattr(ermakov, "ErmakovPath", counting)
    assert main(["run", "driven_oscillator", "--out", str(tmp_path)]) == 0
    assert calls == [201]  # on the run grid; the quasi-invariants reuse that path


def test_ensemble_config_error_is_not_a_path_failure(tmp_path, capsys):
    # noise is tabulated on the run grid; an adaptive grid is a config
    # problem (exit 2, field named), not four failed paths (exit 3)
    from quadmode.config import bundled_scenarios

    raw = json.loads(bundled_scenarios()["noisy_lossy_medium"].read_text())
    raw["grid"] = {"t_max": 2, "adaptive": True}
    cfg = tmp_path / "adaptive_noise.json"
    cfg.write_text(json.dumps(raw))
    assert main(["ensemble", str(cfg), "--paths", "4", "--out", str(tmp_path / "o")]) == 2
    assert "grid.adaptive" in capsys.readouterr().err


PINNED_ROWS = [b"-0,-inf\n", b"nan,4.9406564584124654e-324\n", b"inf,0.33333333333333331\n"]
WIDTHS = (1, 2, 3)  # value columns of the three files, each after the shared grid column
# the fewest rows whose three files are split; not a whole number of chunks
SPLIT_ROWS = -(-cli._CSV_SPLIT_VALUES // (len(WIDTHS) + sum(WIDTHS)))


def pinned_tables(tmp_path, rows, name="split"):
    """Three files of `rows` rows over one grid column `x`, with 1, 2 and 3
    copies of `y` (the last, of most columns, is the one a forked child
    writes), and the pinned rows at the top and in the middle."""
    x, y = np.linspace(-1.0, 1.0, rows), np.geomspace(1e-300, 1e300, rows)
    for start in (0, rows // 2):
        x[start:start + 3] = [-0.0, np.nan, np.inf]
        y[start:start + 3] = [-np.inf, 5e-324, 1.0 / 3.0]
    return [(tmp_path / f"{name}{k}.csv", ("x",) + ("y",) * k, [x] + [y] * k) for k in WIDTHS]


def pinned_rows(k):
    """PINNED_ROWS with k copies of the `y` value."""
    return [b",".join([t] + [v] * k) + b"\n"
            for t, v in (row[:-1].split(b",") for row in PINNED_ROWS)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_serial(tmp_path, rows):
    """The bytes of each pinned file, written alone by the per-file writer,
    which forks no child."""
    out = []
    for path, header, columns in pinned_tables(tmp_path, rows, "serial"):
        cli._write_csv(path, header, columns)
        out.append(path.read_bytes())
    return out


def counting_forks(monkeypatch):
    """Wrap `os.fork` so that each call is listed, in the calling process."""
    calls, fork = [], os.fork

    def counting_fork():
        calls.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def parent_widths(monkeypatch):
    """Wrap `cli._csv_chunks` so that the value-column count of each file
    this process formats (its columns after the grid's) is listed."""
    widths, real, parent = [], cli._csv_chunks, os.getpid()

    def chunks(columns):
        if os.getpid() == parent:
            widths.append(len(columns) - 1)
        return real(columns)
    monkeypatch.setattr(cli, "_csv_chunks", chunks)
    return widths


@pytest.mark.parametrize("rows", [6, SPLIT_ROWS], ids=["serial", "split"])
def test_csv_float_format_is_pinned(tmp_path, monkeypatch, rows):
    # the split route (one forked child writes the file of most columns)
    # writes the bytes of each file written alone
    assert SPLIT_ROWS % cli._CSV_CHUNK != 0 and SPLIT_ROWS > cli._CSV_CHUNK
    forks, widths = counting_forks(monkeypatch), parent_widths(monkeypatch)
    tables = pinned_tables(tmp_path, rows)
    cli._write_tables(tables)
    for (path, header, _), k, serial in zip(tables, WIDTHS, write_serial(tmp_path, rows)):
        text = path.read_bytes()
        lines = text.splitlines(keepends=True)
        assert lines[0] == (",".join(header) + "\n").encode() and len(lines) == rows + 1
        for start in (0, rows // 2):
            assert lines[1 + start:4 + start] == pinned_rows(k)
        assert text == serial
    split = rows == SPLIT_ROWS
    assert len(forks) == split
    assert widths == [1, 2] + [3] * (not split) + list(WIDTHS)  # then write_serial's
    assert_no_child_left()


def test_split_threshold_counts_every_file_of_a_command(tmp_path, monkeypatch):
    # no file alone reaches the threshold; the three together do
    assert SPLIT_ROWS * (1 + WIDTHS[-1]) < cli._CSV_SPLIT_VALUES
    forks = counting_forks(monkeypatch)
    for rows in (SPLIT_ROWS - 1, SPLIT_ROWS):
        tables = pinned_tables(tmp_path, rows)
        cli._write_tables(tables)
        for (path, _, _), serial in zip(tables, write_serial(tmp_path, rows)):
            assert path.read_bytes() == serial
    assert len(forks) == 1
    assert_no_child_left()


def failing_in_child(monkeypatch, failure):
    """Make the forked child fail: raise before it writes a row ("child
    raises"), raise after writing two chunks of its file ("child cut
    short"), or be killed by SIGKILL there ("child killed")."""
    parent = os.getpid()
    real_chunks = cli._csv_chunks
    failing_chunk = 0 if failure == "child raises" else 2

    def chunks(*args):
        for k, chunk in enumerate(real_chunks(*args)):
            if k == failing_chunk and os.getpid() != parent:
                if failure == "child killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("formatter failed in the child")
            yield chunk
    monkeypatch.setattr(cli, "_csv_chunks", chunks)


@pytest.mark.parametrize("failure", ["no fork", "fork fails", "child raises", "child cut short",
                                     "child killed"])
def test_split_route_failures_write_the_serial_bytes(tmp_path, monkeypatch, failure):
    # every file this process writes is whole; the child's file, if the
    # child did not exit 0 (it left none, or a part of it), is written
    # again here
    expected = write_serial(tmp_path, SPLIT_ROWS)
    statuses, waitpid = [], os.waitpid

    def recording_waitpid(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    if failure == "no fork":
        monkeypatch.delattr(os, "fork")
    elif failure == "fork fails":
        def failing_fork():
            raise OSError("fork failed")
        monkeypatch.setattr(os, "fork", failing_fork)
    else:
        failing_in_child(monkeypatch, failure)
    widths = parent_widths(monkeypatch)
    tables = pinned_tables(tmp_path, SPLIT_ROWS)
    cli._write_tables(tables)
    assert [path.read_bytes() for path, _, _ in tables] == expected
    assert widths == list(WIDTHS)
    if failure.startswith("child"):
        killed = failure == "child killed"
        assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0]) == killed
        assert killed or os.WEXITSTATUS(statuses[0]) == 1
    else:
        assert statuses == []
    assert_no_child_left()


def test_parent_write_failure_reaps_the_child(tmp_path, monkeypatch):
    # the child, which this process waits for, writes its file whole
    expected = write_serial(tmp_path, SPLIT_ROWS)
    real = cli._csv_chunks
    parent = os.getpid()

    def failing_in_parent(*args):
        if os.getpid() == parent:
            raise OSError(28, "No space left on device")
        return real(*args)
    monkeypatch.setattr(cli, "_csv_chunks", failing_in_parent)
    forks = counting_forks(monkeypatch)
    tables = pinned_tables(tmp_path, SPLIT_ROWS)
    with pytest.raises(OSError, match="No space left"):
        cli._write_tables(tables)
    assert len(forks) == 1
    assert tables[2][0].read_bytes() == expected[2]
    assert_no_child_left()


def test_parent_failing_to_open_the_second_file_reaps_the_child(tmp_path, monkeypatch):
    # the first file is written whole, and so is the child's
    expected = write_serial(tmp_path, SPLIT_ROWS)
    tables = pinned_tables(tmp_path, SPLIT_ROWS)
    tables[1][0].mkdir()
    forks = counting_forks(monkeypatch)
    with pytest.raises(IsADirectoryError):
        cli._write_tables(tables)
    assert tables[0][0].read_bytes() == expected[0]
    assert tables[2][0].read_bytes() == expected[2]
    assert len(forks) == 1
    assert_no_child_left()


def src_env():
    """The environment of a fresh process that imports this checkout's quadmode."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


RUN_COLUMNS = 25  # t and 6, t and 10, t and 6: a run's three files


def split_config(tmp_path, points=None) -> Path:
    """static_oscillator on `points` grid points, by default the coarsest
    grid whose run is split."""
    points = points or -(-cli._CSV_SPLIT_VALUES // RUN_COLUMNS)
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({"name": "split", "coefficients": {"preset": "static_oscillator"},
                               "grid": {"t_max": 1.0, "dt": 1.0 / (points - 1)}}))
    return cfg


@pytest.mark.parametrize("points, forks", [(20_001, 1), (201, 0)])
def test_a_run_forks_at_most_once(tmp_path, monkeypatch, points, forks):
    # dt = 5e-4 on the unit window's 20,000 steps, and the bundled 201 points
    calls = counting_forks(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(split_config(tmp_path, points)), "--out", str(out)]) == 0
    assert len(calls) == forks
    assert (out / "invariants.csv").read_text().count("\n") == points + 1
    assert_no_child_left()


def test_a_dense_dump_basis_forks_no_child(tmp_path, monkeypatch):
    # 20,001 rows of 7 columns, far above the threshold, in one file
    calls = counting_forks(monkeypatch)
    out = tmp_path / "out"
    assert main(["dump-basis", str(split_config(tmp_path, 20_001)), "--out", str(out)]) == 0
    assert calls == []
    assert (out / "basis.csv").read_text().count("\n") == 20_002
    assert_no_child_left()


def test_split_files_from_a_fresh_dev_mode_process(tmp_path, monkeypatch):
    # -X dev turns on ResourceWarning, so an unclosed file would show on stderr
    cfg = split_config(tmp_path)
    done = subprocess.run([sys.executable, "-X", "dev", "-m", "quadmode.cli", "run", str(cfg),
                           "--out", str(tmp_path / "fresh")], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    names = ("ermakov.csv", "observables.csv", "invariants.csv")
    lines = [(tmp_path / "fresh" / name).read_text().splitlines() for name in names]
    rows = len(lines[0]) - 1
    assert sum(len(text[0].split(",")) for text in lines) == RUN_COLUMNS
    # so the fresh process split its files, on the coarsest grid that does
    assert rows * RUN_COLUMNS >= cli._CSV_SPLIT_VALUES > (rows - 1) * RUN_COLUMNS
    monkeypatch.setattr(cli, "_CSV_SPLIT_VALUES", math.inf)
    assert main(["run", str(cfg), "--out", str(tmp_path / "serial")]) == 0
    for name in names + ("manifest.json",):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


COLD_START = """
import contextlib, io, json, sys
from quadmode.cli import main
from quadmode.config import bundled_scenarios

out = sys.argv[1]

def call(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)

codes = [call(["run", name, "--out", f"{out}/{name}"]) for name in bundled_scenarios()]
codes.append(call(["dump-basis", "static_oscillator", "--out", f"{out}/basis"]))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
later = [call(["ensemble", "noisy_lossy_medium", "--paths", "2", "--out", f"{out}/ensemble"]),
         call(["verify", "--scenario", "static_oscillator"])]
print(json.dumps({"codes": codes, "scipy": loaded, "later": later,
                  "then": [m in sys.modules for m in ("scipy.interpolate", "scipy.integrate")]}))
"""


def test_bundled_runs_start_without_scipy(tmp_path):
    # a cold process runs and dumps every bundled scenario without loading
    # scipy; the commands that need it (an ensemble's splines, verify's
    # oracles) then import it on first use
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 8, "scipy": [], "later": [0, 0], "then": [True, True]}


NOISY_ARGS = ["--paths", "2"]


@pytest.mark.parametrize("command, config", [("run", "static_oscillator"),
                                             ("ensemble", "noisy_lossy_medium"),
                                             ("dump-basis", "static_oscillator")])
@pytest.mark.parametrize("source", ["--out", "QUADMODE_OUTDIR", "output_dir",
                                    "default output directory"])
def test_output_directory_that_is_a_file_exits_2(tmp_path, monkeypatch, capsys, command,
                                                 config, source):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUADMODE_OUTDIR", raising=False)
    blocker = tmp_path / "out"
    blocker.write_text("")
    argv = [command, config] + (NOISY_ARGS if command == "ensemble" else [])
    where = blocker
    if source == "--out":
        argv += ["--out", str(blocker)]
    elif source == "QUADMODE_OUTDIR":
        monkeypatch.setenv("QUADMODE_OUTDIR", str(blocker))
        where = blocker / config
    elif source == "output_dir":
        cfg = tmp_path / "placed.json"
        raw = json.loads(cli.bundled_scenarios()[config].read_text())
        cfg.write_text(json.dumps(dict(raw, output_dir=str(blocker))))
        argv[1] = str(cfg)
    else:
        where = Path("out") / config
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {source}: cannot create or open {where}: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, config, name", [
    ("run", "static_oscillator", "ermakov.csv"),
    ("run", "static_oscillator", "manifest.json"),
    ("ensemble", "noisy_lossy_medium", "ensemble.csv"),
    ("dump-basis", "static_oscillator", "basis.csv")])
def test_output_file_that_is_a_directory_exits_2(tmp_path, capsys, command, config, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = [command, config, "--out", str(out)] + (NOISY_ARGS if command == "ensemble" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: --out: cannot create or open {out / name}: Is a directory")


def test_unopenable_file_above_the_split_threshold_exits_2(tmp_path, capsys):
    # observables.csv, the forked child's file, cannot be opened: the child
    # exits 1, and this process, opening it after its own files, exits 2
    # with no child left behind
    out = tmp_path / "out"
    (out / "observables.csv").mkdir(parents=True)
    assert main(["run", str(split_config(tmp_path)), "--out", str(out)]) == 2
    assert "cannot create or open" in capsys.readouterr().err
    assert (out / "ermakov.csv").stat().st_size > 0
    assert (out / "invariants.csv").stat().st_size > 0
    assert_no_child_left()


@pytest.fixture
def unresolved_identity():
    """The build identity as in a process that has written no manifest."""
    cli._build_identity.cache_clear()
    yield
    cli._build_identity.cache_clear()


def test_build_identity_is_resolved_once_per_process(tmp_path, monkeypatch,
                                                     unresolved_identity):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    commands = [["run", "static_oscillator"], ["run", "squeezed_vacuum"],
                ["ensemble", "noisy_lossy_medium", "--paths", "2"]]
    for i, argv in enumerate(commands):
        assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
    assert calls == [["git", "describe", "--always", "--dirty"]]
    builds = {json.loads((tmp_path / str(i) / "manifest.json").read_text())["build"]
              for i in range(len(commands))}
    assert builds == {"quadmode 0.1.0 (abc1234)"}


def test_build_identity_waits_for_a_slow_git(tmp_path, monkeypatch, unresolved_identity):
    # machine load must not change the manifest: a describe that takes
    # longer than any fixed budget still gives the revision
    expected = cli._build_identity()
    if "(" not in expected:
        pytest.skip("the package does not run from a git checkout")
    cli._build_identity.cache_clear()
    slow = tmp_path / "git"
    slow.write_text(f"#!/bin/sh\nsleep 2.2\nexec {shutil.which('git')} \"$@\"\n")
    slow.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    assert cli._build_identity() == expected


def test_build_identity_without_git_is_the_version(tmp_path, monkeypatch, unresolved_identity):
    # no git on PATH (the describe cannot start): the bare version string
    monkeypatch.setenv("PATH", str(tmp_path))
    assert cli._build_identity() == "quadmode 0.1.0"


def test_bundled_scenarios_are_listed_once_per_process(tmp_path, monkeypatch):
    listed, files = [], config.resources.files

    def counting_files(package):
        listed.append(package)
        return files(package)
    config.bundled_scenarios.cache_clear()
    monkeypatch.setattr(config, "resources", SimpleNamespace(files=counting_files))
    try:
        ensemble = ["ensemble", "noisy_lossy_medium", "--paths", "2"]
        for i, argv in enumerate([ensemble, ["run", "static_oscillator"], ensemble]):
            assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
        for _ in range(2):
            assert main(["verify", "--scenario", "static_oscillator"]) == 0
    finally:
        config.bundled_scenarios.cache_clear()
    assert listed == ["quadmode"]
    with pytest.raises(TypeError):  # one listing shared by every caller: read-only
        config.bundled_scenarios()["extra"] = tmp_path


def test_shared_parser_leaks_nothing_between_commands(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing config: argparse exits 2
    assert exc.value.code == 2
    assert main(["run", "static_oscillator", "--out", str(tmp_path / "a")]) == 0
    assert main(["ensemble", "noisy_lossy_medium", "--paths", "3",
                 "--out", str(tmp_path / "e")]) == 0
    assert json.loads((tmp_path / "e" / "manifest.json").read_text())["paths"] == 3
    assert main(["run", "static_oscillator", "--out", str(tmp_path / "b")]) == 0

    # every parse equals the one of a freshly built parser
    fresh = cli.build_parser.__wrapped__()
    for argv in (["run", "static_oscillator"], ["ensemble", "noisy_lossy_medium"],
                 ["verify", "--scenario", "static_oscillator"], ["dump-basis", "x"]):
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))

    # and both runs write what a run in a fresh process writes
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-m", "quadmode.cli", "run", "static_oscillator",
                    "--out", str(tmp_path / "fresh")], cwd=tmp_path, env=env,
                   check=True, capture_output=True)
    for name in ("ermakov.csv", "observables.csv", "invariants.csv", "manifest.json"):
        expected = (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() == expected
        assert (tmp_path / "b" / name).read_bytes() == expected
