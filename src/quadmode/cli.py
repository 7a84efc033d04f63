"""Command line front end.

    quadmode run <config> [--out DIR]
    quadmode verify [--tol X] [--scenario NAME ...]
    quadmode ensemble <config> [--paths N] [--seed S] [--out DIR]
    quadmode dump-basis <config> [--out DIR]

<config> is a path to a scenario JSON file or the bare name of a bundled
scenario.  Exit codes: 0 all checks passed, 2 configuration problem (the
message names the offending field), 3 numerical failure or a check over
threshold (the message names the module and, when known, the time reached).

Output directory precedence: --out, then $QUADMODE_OUTDIR/<name>, then the
config's output_dir, then ./out/<name>.  Reruns of the same config write
byte-identical files: floats are serialized at 17 significant digits, and
the manifest carries no timestamps or absolute paths.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .characteristic import classical_mode_equivalence, integrate_characteristic
from .coefficients import medium_to_hamiltonian
from .config import Scenario, build_grid, bundled_scenarios, load_config
from .ermakov import build_frame, closed_form_path
from .errors import ConfigError, QuadmodeError
from .observables import (
    accumulate_phases,
    ansatz_path,
    commutator_defects,
    compute_observables,
    geometric_rate_state_route,
    heisenberg_residual,
    operator_invariant_defect,
    phase_rates,
)
from .stochastic import run_ensemble, sample_path
from .verify import quasi_invariants, riccati_oracle, wronskian_drift

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_PATH_COLUMNS = ("alpha", "beta", "gamma", "delta", "eps", "kappa")
_OBS_COLUMNS = ("xbar", "pbar", "var_x", "var_p", "product", "h_expect",
                "phase_dyn", "phase_geo", "d_amp", "b_amp")

# tight settings for the verify battery; the oracle must not be the
# bottleneck when closed form and direct integration are compared
_TIGHT = dict(rtol=1e-12, atol=1e-14)
_ORACLE_METHOD = "DOP853"
# sampled (noisy) coefficients are rough at the knot scale, where the
# oracle's lower-order method accumulates less error than DOP853
_ROUGH_ORACLE_METHOD = "RK45"


_CSV_CHUNK = 4096  # rows formatted at a time


def _write_csv(path: Path, header, columns):
    columns = [np.asarray(col) for col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, columns[0].size, _CSV_CHUNK):
            rows = zip(*(col[i:i + _CSV_CHUNK].tolist() for col in columns))
            fh.write("".join(row % values for values in rows))


@functools.cache
def _build_identity() -> str:
    """Version string, extended with the source revision when the package
    runs from a git checkout.  Stable for a fixed tree, so reruns stay
    byte-identical.  Resolved once per process: the imported code cannot
    change under a running process, so the first lookup stands for all."""
    ident = f"quadmode {__version__}"
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=2.0)
        if rev.returncode == 0 and rev.stdout.strip():
            ident += f" ({rev.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def _write_manifest(path: Path, payload: dict):
    payload = dict(payload, build=_build_identity())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_out_dir(scenario: Scenario, cli_out) -> Path:
    if cli_out:
        return Path(cli_out)
    env = os.environ.get("QUADMODE_OUTDIR")
    if env:
        return Path(env) / scenario.name
    if scenario.output_dir:
        return Path(scenario.output_dir)
    return Path("out") / scenario.name


def _config_path(arg: str) -> Path:
    p = Path(arg)
    if p.is_file():
        return p
    bundled = bundled_scenarios()
    if arg in bundled:
        return bundled[arg]
    raise ConfigError(f"no such config file or bundled scenario: {arg}",
                      field="config")


def _check(value: float, tol: float) -> dict:
    ok = math.isfinite(value) and value <= tol
    return {"value": value, "tolerance": tol, "pass": bool(ok)}


def _run_checks(scenario: Scenario, frame, obs, qi, comm) -> dict:
    """The run-time invariant suite, judged against configured tolerances;
    `comm` is the pointwise commutator defect."""
    tols = scenario.tolerances
    floor = (scenario.n + 0.5) ** 2
    qi_value = max(qi.worst().values())
    return {
        "uncertainty": _check(max(0.0, floor - float(np.min(obs.product))),
                              tols["uncertainty"]),
        "commutator": _check(float(np.max(comm)), tols["commutator"]),
        "wronskian": _check(wronskian_drift(frame.basis), tols["wronskian"]),
        "quasi_invariants": _check(qi_value, tols["quasi_invariants"]),
    }


def _report_checks(name: str, checks: dict) -> bool:
    ok = True
    for key in sorted(checks):
        c = checks[key]
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{name}: {key:<22s} {c['value']:.3e}  tol {c['tolerance']:.1e}  {status}")
        ok = ok and c["pass"]
    return ok


def cmd_run(args) -> int:
    scenario = load_config(_config_path(args.config))
    solver = scenario.solver
    cs = scenario.build_coefficients(scenario.grid.t_max)
    grid = build_grid(scenario, cs)
    frame = build_frame(cs, grid, init=scenario.init, mu1_init=solver["mu1_init"],
                        rtol=solver["rtol"], atol=solver["atol"])
    path = closed_form_path(frame)
    obs = compute_observables(path, n=scenario.n, profile=scenario.profile)
    qi = quasi_invariants(frame)
    comm = commutator_defects(ansatz_path(path))
    checks = _run_checks(scenario, frame, obs, qi, comm)

    out = _resolve_out_dir(scenario, args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "ermakov.csv", ("t",) + _PATH_COLUMNS,
               [grid] + [getattr(path, k) for k in _PATH_COLUMNS])
    _write_csv(out / "observables.csv", ("t",) + _OBS_COLUMNS,
               [grid] + [getattr(obs, k) for k in _OBS_COLUMNS])
    margin = obs.product - (scenario.n + 0.5) ** 2
    _write_csv(out / "invariants.csv",
               ("t", "qi_state", "qi_transport", "qi_amplitude", "qi_action",
                "commutator_defect", "uncertainty_margin"),
               [grid, qi.state, qi.transport, qi.amplitude, qi.action,
                comm, margin])

    all_passed = all(c["pass"] for c in checks.values())
    manifest = {
        "command": "run",
        "name": scenario.name,
        "version": __version__,
        "config": scenario.raw,
        "grid_points": int(grid.size),
        "checks": checks,
        "outputs": ["ermakov.csv", "observables.csv", "invariants.csv"],
        "all_passed": all_passed,
    }
    if scenario.noise is not None:
        manifest["note"] = ("config has a noise block; run uses the base "
                            "medium, use the ensemble command for statistics")
    _write_manifest(out / "manifest.json", manifest)

    ok = _report_checks(scenario.name, checks)
    print(f"wrote {out}/(ermakov|observables|invariants).csv and manifest.json")
    if not ok:
        print("one or more invariant checks failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_ensemble(args) -> int:
    scenario = load_config(_config_path(args.config))
    if scenario.noise is None:
        raise ConfigError("scenario has no noise block", field="noise")
    spec = scenario.noise
    if args.paths is not None:
        spec = dataclasses.replace(spec, paths=args.paths)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if scenario.grid.adaptive:
        raise ConfigError("ensembles tabulate the noise on the run grid, which must "
                          "be uniform: give dt", field="grid.adaptive")
    grid = build_grid(scenario)

    # per-path tolerances stay at the looser ensemble defaults unless the
    # config spells out a solver block: Monte Carlo error dominates anyway
    kwargs = {}
    if "solver" in scenario.raw:
        kwargs = dict(rtol=scenario.solver["rtol"], atol=scenario.solver["atol"],
                      mu1_init=scenario.solver["mu1_init"])
    summary = run_ensemble(spec, scenario.profile, init=scenario.init,
                           n=scenario.n, grid=grid, **kwargs)

    out = _resolve_out_dir(scenario, args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["t"]
    columns = [grid]
    for name in summary.tracked:
        header += [f"{name}_mean", f"{name}_stderr"]
        columns += [summary.mean[name], summary.stderr[name]]
    _write_csv(out / "ensemble.csv", header, columns)

    floor = (scenario.n + 0.5) ** 2
    checks = {"uncertainty": _check(max(0.0, floor - summary.product_floor),
                                    scenario.tolerances["uncertainty"])}
    all_passed = all(c["pass"] for c in checks.values())
    # aggregation is nonlinear: the mean of the pathwise uncertainty product
    # is not the product of the mean variances unless the noise is off, so
    # the gap is reported as a diagnostic, never asserted to vanish
    nonlin_gap = float(np.max(np.abs(
        summary.mean["product"] - summary.mean["var_x"] * summary.mean["var_p"])))
    _write_manifest(out / "manifest.json", {
        "command": "ensemble",
        "name": scenario.name,
        "version": __version__,
        "config": scenario.raw,
        "grid_points": int(grid.size),
        "paths": summary.n_paths,
        "failed_paths": summary.n_failed,
        "seed": summary.seed,
        "product_floor": summary.product_floor,
        "mean_product_vs_product_of_means_gap": nonlin_gap,
        "checks": checks,
        "outputs": ["ensemble.csv"],
        "all_passed": all_passed,
    })

    ok = _report_checks(scenario.name, checks)
    print(f"{summary.n_paths} paths ({summary.n_failed} failed), "
          f"product floor {summary.product_floor:.12f}")
    print(f"wrote {out}/ensemble.csv and manifest.json")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_dump_basis(args) -> int:
    scenario = load_config(_config_path(args.config))
    solver = scenario.solver
    cs = scenario.build_coefficients(scenario.grid.t_max)
    grid = build_grid(scenario, cs)
    basis = integrate_characteristic(cs, grid, mu1_init=solver["mu1_init"],
                                     rtol=solver["rtol"], atol=solver["atol"])
    out = _resolve_out_dir(scenario, args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "basis.csv",
               ("t", "mu0", "mu0p", "mu1", "mu1p", "lambda", "wronskian"),
               [grid, basis.mu0, basis.mu0p, basis.mu1, basis.mu1p,
                basis.lam, basis.wronskian])
    print(f"wrote {out}/basis.csv")
    return EXIT_OK


def _verify_battery(name: str, scenario: Scenario, oracle_tol: float) -> dict:
    """Closed form vs direct integration plus every structural invariant,
    on the scenario's own grid at tight solver settings."""
    t_max = scenario.grid.t_max
    cs = scenario.build_coefficients(t_max)
    grid = build_grid(scenario, cs)
    profile = scenario.profile
    oracle_method = _ORACLE_METHOD
    qi_tol = 1e-7
    if scenario.noise is not None:
        # deterministic reading of a noisy scenario: realization 0.  The
        # near-pole quasi-invariant amplification (solver error / mu0^2)
        # sits orders above the smooth-scenario level.
        profile = sample_path(scenario.noise, scenario.profile, grid)
        cs = medium_to_hamiltonian(profile, t_max=t_max)
        oracle_method = _ROUGH_ORACLE_METHOD
        qi_tol = 1e-5

    frame = build_frame(cs, grid, init=scenario.init, **_TIGHT)
    path = closed_form_path(frame)
    oracle = riccati_oracle(cs, grid, init=scenario.init, method=oracle_method, **_TIGHT)
    dev = max(float(np.max(np.abs(getattr(path, k) - getattr(oracle, k))))
              for k in _PATH_COLUMNS)

    obs = compute_observables(path, n=scenario.n, profile=profile)
    qi = quasi_invariants(frame)
    sel = qi.mask & (grid >= 0.1)
    qi_worst = max(
        float(np.max(np.abs(getattr(qi, k)[sel]))) if np.any(sel) else math.nan
        for k in ("state", "transport", "amplitude", "action"))

    # Wronskian law over a window of length 20, rebuilt from scratch
    cs20 = scenario.build_coefficients(20.0)
    if scenario.noise is not None:
        grid20 = np.linspace(0.0, 20.0, 401)
        profile20 = sample_path(scenario.noise, scenario.profile, grid20)
        cs20 = medium_to_hamiltonian(profile20, t_max=20.0)
    basis20 = integrate_characteristic(cs20, np.linspace(0.0, 20.0, 401), **_TIGHT)

    floor = (scenario.n + 0.5) ** 2
    checks = {
        "oracle_deviation": _check(dev, oracle_tol),
        "commutator": _check(operator_invariant_defect(ansatz_path(path)), 1e-12),
        "heisenberg_residual": _check(heisenberg_residual(frame, dt=1e-3), 1e-6),
        "quasi_invariants": _check(qi_worst, qi_tol),
        "wronskian": _check(wronskian_drift(basis20), 1e-8),
        "uncertainty": _check(max(0.0, floor - float(np.min(obs.product))), 1e-12),
    }

    if scenario.source_kind == "medium":
        checks["classical_equivalence"] = _check(
            classical_mode_equivalence(profile, grid), 1e-6)

    if name == "parametric_modulation":
        # both geometric-phase routes, accumulated over one modulation period
        period = 2.0 * math.pi / 2.0
        pgrid = np.linspace(0.0, period, 629)
        ppath = closed_form_path(frame, pgrid)
        _, geo_energy = phase_rates(ppath, scenario.n)
        geo_state = geometric_rate_state_route(ppath, scenario.n)
        gap = abs(accumulate_phases(pgrid, geo_energy)[-1]
                  - accumulate_phases(pgrid, geo_state)[-1])
        checks["phase_route_agreement"] = _check(gap, 1e-6)
    return checks


def cmd_verify(args) -> int:
    bundled = bundled_scenarios()
    names = args.scenario or sorted(bundled)
    unknown = [n for n in names if n not in bundled]
    if unknown:
        raise ConfigError(f"unknown bundled scenario: {unknown[0]}", field="scenario")
    oracle_tol = args.tol if args.tol is not None else 1e-7

    all_ok = True
    for name in names:
        scenario = load_config(bundled[name])
        checks = _verify_battery(name, scenario, oracle_tol)
        all_ok = _report_checks(name, checks) and all_ok
    if not all_ok:
        print("verification failed", file=sys.stderr)
        return EXIT_NUMERICAL
    print("all scenarios verified")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    `main` call (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="quadmode",
        description="Single-mode quadratic-Hamiltonian simulator: closed-form "
                    "auxiliary dynamics, squeezing and phase observables, and "
                    "Monte Carlo ensembles over random media.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one scenario and write CSV output")
    p.add_argument("config", help="scenario JSON path or bundled scenario name")
    p.add_argument("--out", help="output directory (overrides everything)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the invariant battery over bundled scenarios")
    p.add_argument("--tol", type=float,
                   help="closed-form vs direct-integration tolerance (default 1e-7)")
    p.add_argument("--scenario", action="append",
                   help="verify only this bundled scenario (repeatable)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ensemble", help="Monte Carlo over noisy medium realizations")
    p.add_argument("config", help="scenario JSON path or bundled scenario name")
    p.add_argument("--paths", type=int, help="override the number of paths")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--out", help="output directory (overrides everything)")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("dump-basis", help="write the characteristic basis as CSV")
    p.add_argument("config", help="scenario JSON path or bundled scenario name")
    p.add_argument("--out", help="output directory (overrides everything)")
    p.set_defaults(func=cmd_dump_basis)
    return parser


def _raising_module(exc: BaseException) -> str:
    """Innermost package module on the traceback: where it actually failed."""
    module = "quadmode"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("quadmode"):
            module = name
        tb = tb.tb_next
    return module


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadmodeError as exc:
        t = getattr(exc, "t", None)
        suffix = f", t={t:g}" if isinstance(t, (int, float)) else ""
        print(f"numerical failure in {_raising_module(exc)} "
              f"({type(exc).__name__}{suffix}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
