"""End-to-end command line behavior: exit codes, files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadmode import cli, ermakov
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
    monkeypatch.setenv("QUADMODE_OUTDIR", str(tmp_path / "env"))
    assert main(["dump-basis", "static_oscillator"]) == 0
    assert (tmp_path / "env" / "static_oscillator" / "basis.csv").is_file()
    # --out beats the environment
    assert main(["dump-basis", "static_oscillator", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "basis.csv").is_file()


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


@pytest.mark.parametrize("flag,value", [("--paths", "0"), ("--paths", "1"),
                                        ("--seed", "-5"), ("--seed", str(2**64))])
def test_ensemble_flag_errors_name_the_flag(tmp_path, capsys, flag, value):
    argv = ["ensemble", "noisy_lossy_medium", flag, value, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag}:" in err
    assert "noise." not in err


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
    assert manifest["product_floor"] >= 0.25 - 1e-12

    # a different seed moves the statistics
    out3 = tmp_path / "e3"
    assert main(args + ["--seed", "7", "--out", str(out3)]) == 0
    assert (out1 / "ensemble.csv").read_bytes() != (out3 / "ensemble.csv").read_bytes()


def test_ensemble_requires_noise_block(capsys):
    assert main(["ensemble", "lossy_medium"]) == 2
    assert "noise" in capsys.readouterr().err


def test_verify_single_scenario(capsys):
    assert main(["verify", "--scenario", "static_oscillator"]) == 0
    out = capsys.readouterr().out
    assert "oracle_deviation" in out
    assert "FAIL" not in out
    assert "phase_route_agreement" not in out  # no sinusoidal coefficient


def test_verify_phase_routes_on_sinusoidal_modulation(capsys):
    assert main(["verify", "--scenario", "parametric_modulation"]) == 0
    out = capsys.readouterr().out
    assert "phase_route_agreement" in out
    assert "FAIL" not in out


def test_verify_rejects_unknown_scenario(capsys):
    assert main(["verify", "--scenario", "bogus"]) == 2


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_rejects_tolerance_not_finite_and_positive(tol, capsys):
    assert main(["verify", f"--tol={tol}", "--scenario", "static_oscillator"]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert "oracle_deviation" not in captured.out  # rejected before any check runs


def test_run_assembles_the_closed_form_path_once(tmp_path, monkeypatch):
    calls = []
    assemble = ermakov._assemble

    def counting(*args):
        calls.append(args[1])
        return assemble(*args)

    monkeypatch.setattr(ermakov, "_assemble", counting)
    assert main(["run", "driven_oscillator", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1  # on the run grid; the quasi-invariants reuse that path


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


def test_csv_float_format_is_pinned(tmp_path):
    from quadmode.cli import _write_csv

    path = tmp_path / "pinned.csv"
    _write_csv(path, ("x", "y"), [np.array([-0.0, np.nan, np.inf]),
                                  np.array([-np.inf, 5e-324, 1.0 / 3.0])])
    assert path.read_bytes() == (b"x,y\n-0,-inf\nnan,4.9406564584124654e-324\n"
                                 b"inf,0.33333333333333331\n")


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
