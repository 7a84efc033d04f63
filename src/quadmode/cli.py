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
config's output_dir, then ./out/<name>; one that cannot be created, or an
output file in it that cannot be opened, is a configuration problem.
Reruns of the same config write byte-identical files: floats are serialized
at 17 significant digits, and the manifest carries no timestamps or
absolute paths.
"""

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__, csvtext
from .characteristic import integrate_characteristic
from .config import Scenario, build_grid, bundled_scenarios, load_config
from .ermakov import build_frame, closed_form_path
from .errors import ConfigError, QuadmodeError, _number
from .observables import ansatz_path, commutator_defects, compute_observables
from .stochastic import _SEED_LIMIT, run_ensemble
from .verify import (battery, check, invariant_checks, quasi_invariants, uncertainty_deficit,
                     uncertainty_floor)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_PATH_COLUMNS = ("alpha", "beta", "gamma", "delta", "eps", "kappa")
_OBS_COLUMNS = ("xbar", "pbar", "var_x", "var_p", "product", "h_expect",
                "phase_dyn", "phase_geo", "d_amp", "b_amp")

# A command of two or more CSV files that hold at least this many values
# in all (rows x columns, summed over its files) is written by two
# processes, whole file by whole file (`_write_tables`).  Measured on 2
# cores with run-shaped commands (three files of 7, 11 and 7 columns), 30
# alternating pairs per size, each side the fastest of 3 writes, in a
# process that had just run the 7 bundled scenarios at dt = 5e-4 (52 MB
# RSS): the split won 3 of 30 pairs at 25,000 values (8.4 -> 9.4 ms
# median), 12 at 50,000 (12.1 -> 13.4 ms), 28 at 100,000 (22.3 -> 18.7 ms)
# and 30 at 200,000 (44.3 -> 29.3 ms); a second round of 24 pairs won 4,
# 17, 20 and 23.  So the threshold stays above the crossover.  Sweep and
# ensemble commands (at most 201 x 25 = 5,025 values) stay serial; every
# dt = 5e-4 run (20,001 x 25 = 500,025 values, 102 -> 66 ms) is split.
_CSV_SPLIT_VALUES = 100_000


def _write_csv(path: Path, header, columns):
    """Write `columns` (arrays, the grid first) under `header` as CSV, each
    float as `'%.17g' % value`, in `csvtext.csv_chunks`' bytes."""
    with path.open("wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        fh.writelines(csvtext.csv_chunks(columns))


def _write_tables(tables):
    """Write a command's CSV files, each (path, header, columns: arrays,
    the same grid first), each through `_write_csv`.  A command of two or
    more files and `_CSV_SPLIT_VALUES` values or more in all forks one
    child, which writes the file of most columns and leaves through
    `os._exit` (none of this process's cleanup, buffers or handlers run
    in it), while this process writes the others in order.  The child is
    reaped before this returns or raises, and a child that did not exit 0
    has its file written again here.  No `os.fork`, or a fork that raises
    `OSError`, takes the serial route."""
    values = tables[0][2][0].size * sum(len(columns) for _, _, columns in tables)
    largest = max(tables, key=lambda table: len(table[2]))
    pid = None
    if len(tables) > 1 and values >= _CSV_SPLIT_VALUES and hasattr(os, "fork"):
        with contextlib.suppress(OSError):
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                gc.disable()  # a collection here could finalize, and flush, the parent's objects
                _write_csv(*largest)
                status = 0
            finally:
                os._exit(status)
    try:
        for table in tables:
            if pid is None or table is not largest:
                _write_csv(*table)
    finally:
        child_done = pid is None or os.waitpid(pid, 0)[1] == 0
    if not child_done:
        _write_csv(*largest)


@functools.cache
def _build_identity() -> str:
    """Version string, extended with the source revision when the package
    runs from a git checkout.  Stable for a fixed tree, so reruns stay
    byte-identical.  Resolved once per process: the imported code cannot
    change under a running process, so the first lookup stands for all."""
    ident = f"quadmode {__version__}"
    try:
        # no timeout: a local describe needs no network, and load must not change it
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True)
        if rev.returncode == 0 and rev.stdout.strip():
            ident += f" ({rev.stdout.strip()})"
    except OSError:
        pass
    return ident


def _write_manifest(path: Path, payload: dict):
    payload = dict(payload, build=_build_identity())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _output_dir(scenario: Scenario, cli_out):
    """The command's output directory, by the precedence above, created.
    Inside the block an OSError that names a path, as creating the
    directory or opening a file in it does (a failed write names none), is
    an unusable output location: a ConfigError naming the path, under the
    source that chose the directory."""
    env = os.environ.get("QUADMODE_OUTDIR")
    if cli_out:
        out, source = Path(cli_out), "--out"
    elif env:
        out, source = Path(env) / scenario.name, "QUADMODE_OUTDIR"
    elif scenario.output_dir:
        out, source = Path(scenario.output_dir), "output_dir"
    else:
        out, source = Path("out") / scenario.name, "default output directory"
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        if exc.filename is None:
            raise
        raise ConfigError(f"cannot create or open {exc.filename}: {exc.strerror}",
                          field=source) from exc


def _scenario(args) -> Scenario:
    """The command's scenario: its config argument is a file path or the
    name of a bundled scenario."""
    if Path(args.config).is_file():
        return load_config(Path(args.config))
    bundled = bundled_scenarios()
    if args.config in bundled:
        return load_config(bundled[args.config])
    raise ConfigError(f"no such config file or bundled scenario: {args.config}",
                      field="config")


def _report_checks(name: str, checks: dict):
    for key in sorted(checks):
        c = checks[key]
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{name}: {key:<22s} {c['value']:.3e}  tol {c['tolerance']:.1e}  {status}")


def _emit(args, scenario: Scenario, grid, tables: dict, manifest=None, summary=None) -> int:
    """Everything a scenario command does after its numerics: write its
    CSV files, `tables` (file name -> header and columns, each written
    after the grid column `t`), and, when it has its own `manifest`
    entries (`checks` among them), manifest.json with the entries every
    manifest shares; print the checks, the `summary` line if any, and
    what was written.  The exit code: EXIT_NUMERICAL, said on stderr, when
    a check failed, else EXIT_OK."""
    checks = manifest["checks"] if manifest else {}
    passed = all(c["pass"] for c in checks.values())
    with _output_dir(scenario, args.out) as out:
        _write_tables([(out / name, ("t", *header), [grid, *columns])
                       for name, (header, columns) in tables.items()])
        if manifest:
            _write_manifest(out / "manifest.json", dict(
                manifest, command=args.command, name=scenario.name, version=__version__,
                config=scenario.raw, grid_points=int(grid.size), outputs=list(tables),
                all_passed=passed))
    _report_checks(scenario.name, checks)
    if summary:
        print(summary)
    stems = [Path(name).stem for name in tables]
    files = f"{stems[0]}.csv" if len(stems) == 1 else f"({'|'.join(stems)}).csv"
    print(f"wrote {out}/{files}" + (" and manifest.json" if manifest else ""))
    if not passed:
        print("one or more invariant checks failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = _scenario(args)
    solver = scenario.solver
    cs = scenario.build_coefficients(scenario.grid.t_max)
    grid = build_grid(scenario, cs)
    frame = build_frame(cs, grid, init=scenario.init,
                        rtol=solver["rtol"], atol=solver["atol"])
    path = closed_form_path(frame)
    obs = compute_observables(path, n=scenario.n)
    qi = quasi_invariants(frame, path)
    comm = commutator_defects(ansatz_path(path))
    checks = invariant_checks(obs, qi, comm, frame, scenario.tolerances)

    margin = obs.product - uncertainty_floor(scenario.n)
    manifest = {"checks": checks}
    if scenario.noise is not None:
        manifest["note"] = ("config has a noise block; run uses the base "
                            "medium, use the ensemble command for statistics")
    return _emit(args, scenario, grid, {
        "ermakov.csv": (_PATH_COLUMNS, [getattr(path, k) for k in _PATH_COLUMNS]),
        "observables.csv": (_OBS_COLUMNS, [getattr(obs, k) for k in _OBS_COLUMNS]),
        "invariants.csv": (("qi_state", "qi_transport", "qi_amplitude", "qi_action",
                            "commutator_defect", "uncertainty_margin"),
                           [qi.state, qi.transport, qi.amplitude, qi.action, comm, margin]),
    }, manifest)


def cmd_ensemble(args) -> int:
    scenario = _scenario(args)
    if scenario.noise is None:
        raise ConfigError("scenario has no noise block", field="noise")
    spec = scenario.noise
    if args.paths is not None:
        spec = dataclasses.replace(spec, paths=_number(args.paths, "--paths", 2, integer=True))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=_number(args.seed, "--seed", 0, integer=True,
                                                      below=_SEED_LIMIT))
    if scenario.grid.adaptive:
        raise ConfigError("ensembles tabulate the noise on the run grid, which must "
                          "be uniform: give dt", field="grid.adaptive")
    grid = build_grid(scenario)

    # per-path tolerances are run_ensemble's looser defaults but for those the
    # config's solver block gives: Monte Carlo error dominates anyway
    given = scenario.raw.get("solver", {})
    summary = run_ensemble(spec, scenario.profile, grid, init=scenario.init, n=scenario.n,
                           **{key: scenario.solver[key] for key in given})

    header, columns = [], []
    for name in summary.tracked:
        header += [f"{name}_mean", f"{name}_stderr"]
        columns += [summary.mean[name], summary.stderr[name]]
    # aggregation is nonlinear: the mean of the pathwise uncertainty product
    # is not the product of the mean variances unless the noise is off, so
    # the gap is reported as a diagnostic, never asserted to vanish
    nonlin_gap = float(np.max(np.abs(
        summary.mean["product"] - summary.mean["var_x"] * summary.mean["var_p"])))
    manifest = {
        "paths": summary.n_paths,
        "failed_paths": summary.n_failed,
        "failures": summary.failures,
        "seed": summary.seed,
        "product_floor": summary.product_floor,
        "mean_product_vs_product_of_means_gap": nonlin_gap,
        "checks": {"uncertainty": check(uncertainty_deficit(summary.product_floor, scenario.n),
                                        scenario.tolerances["uncertainty"])},
    }
    return _emit(args, scenario, grid, {"ensemble.csv": (header, columns)}, manifest,
                 f"{summary.n_paths} paths ({summary.n_failed} failed), "
                 f"product floor {summary.product_floor:.12f}")


def cmd_dump_basis(args) -> int:
    scenario = _scenario(args)
    solver = scenario.solver
    cs = scenario.build_coefficients(scenario.grid.t_max)
    grid = build_grid(scenario, cs)
    basis = integrate_characteristic(cs, grid, rtol=solver["rtol"], atol=solver["atol"])
    return _emit(args, scenario, grid, {"basis.csv": (
        ("mu0", "mu0p", "mu1", "mu1p", "lambda", "wronskian"),
        [basis.mu0, basis.mu0p, basis.mu1, basis.mu1p, basis.lam, basis.wronskian])})


def cmd_verify(args) -> int:
    bundled = bundled_scenarios()
    names = args.scenario or sorted(bundled)
    unknown = [n for n in names if n not in bundled]
    if unknown:
        raise ConfigError(f"unknown bundled scenario: {unknown[0]}", field="scenario")
    tol = {} if args.tol is None else {"oracle_tol": _number(args.tol, "--tol", 0.0, strict=True)}

    all_ok = True
    for name in names:
        scenario = load_config(bundled[name])
        checks = battery(scenario, **tol)
        _report_checks(name, checks)
        all_ok = all_ok and all(c["pass"] for c in checks.values())
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
    p.add_argument("--tol", type=float, help="closed-form vs direct-integration tolerance "
                                             f"(default {battery.__defaults__[0]:g})")
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
        # a non-finite value ends in an error or a failed check, never a warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadmodeError as exc:
        suffix = f", t={exc.t:g}" if isinstance(exc.t, (int, float)) else ""
        print(f"numerical failure in {_raising_module(exc)} "
              f"({type(exc).__name__}{suffix}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
