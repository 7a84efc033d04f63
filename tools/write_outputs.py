"""Write a fixed set of quadmode outputs into one directory.

    python tools/write_outputs.py OUT

Runs, in one process, on the quadmode of the checkout this file sits in:

- `run` and `dump-basis` of every bundled scenario, at its own dt and at
  dt = 5e-4, and of two driven configs the bundled set lacks: a
  `table_file` scenario whose f is tabulated and whose g is not zero, and
  driven_oscillator on an adaptive grid (the unforced set's step nodes,
  which the driven frame refines, so some of its reads are partial steps);
- `ensemble noisy_lossy_medium` at 8 paths (seeds 3 and 11) and at 130
  paths (seed 7);
- `verify` of the bundled scenarios, and each scenario's battery (every
  check's value, tolerance and verdict) at full precision in
  OUT/verify-checks.json, so that a last-bit change in an oracle, which
  verify's `%.3e` hides, shows.

Every command's exit code goes to OUT/codes.txt, and its stdout and
stderr to OUT/streams/<command>-<label>.stdout and .stderr, with OUT
itself written as the fixed token `OUT`, so that the text a command
prints is compared too.  Each manifest's `build` line is blanked, since
it names the revision.  So `diff -r` of the trees that two checkouts
write is empty exactly when their outputs are byte-identical.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadmode import cli  # noqa: E402
from quadmode.config import bundled_scenarios  # noqa: E402

DENSE_DT = 5e-4
ENSEMBLES = {"paths8-seed3": ("8", "3"), "paths8-seed11": ("8", "11"),
             "paths130-seed7": ("130", "7")}


def call(out: Path, label: str, argv) -> str:
    """Run `quadmode argv`, write its stdout and stderr, with `out` written
    as `OUT`, to out/streams/<command>-<label>.stdout and .stderr, and
    return its line of codes.txt."""
    streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    with contextlib.redirect_stdout(streams["stdout"]), \
            contextlib.redirect_stderr(streams["stderr"]):
        code = cli.main(argv)
    for kind, text in streams.items():
        (out / "streams" / f"{argv[0]}-{label}.{kind}").write_text(
            text.getvalue().replace(str(out), "OUT"))
    return f"{argv[0]} {label} {code}\n"


def verify(out: Path) -> tuple:
    """`quadmode verify`'s line of codes.txt (its streams written by
    `call`), and the battery dict of each scenario it checks, by name."""
    checks, battery = {}, cli.battery

    def recorded(scenario, oracle_tol):
        checks[scenario.name] = battery(scenario, oracle_tol)
        return checks[scenario.name]

    cli.battery = recorded
    try:
        return call(out, "all", ["verify"]), checks
    finally:
        cli.battery = battery


def driven_configs(configs: Path) -> dict:
    """The two driven configs, written into `configs`: label -> path."""
    t = np.linspace(0.0, 10.0, 201)
    table = np.column_stack([t, np.full_like(t, 0.5), 0.5 + 0.2 * np.sin(1.7 * t),
                             np.zeros_like(t), np.zeros_like(t), np.cos(0.9 * t),
                             0.25 + 0.1 * np.sin(0.6 * t)])
    np.savetxt(configs / "driven-table.csv", table, fmt="%.17g", delimiter=",",
               header="t,a,b,c,d,f,g", comments="")
    adaptive = json.loads(bundled_scenarios()["driven_oscillator"].read_text())
    adaptive["grid"] = {"t_max": 10.0, "adaptive": True}
    raws = {"driven-table": {"name": "driven_table", "grid": {"t_max": 10.0, "dt": 0.05},
                             "coefficients": {"table_file": "driven-table.csv"}},
            "driven-adaptive": adaptive}
    paths = {}
    for label, raw in raws.items():
        paths[label] = configs / f"{label}.json"
        paths[label].write_text(json.dumps(raw))
    return {label: str(path) for label, path in paths.items()}


def write_outputs(out: Path) -> None:
    configs = out / "configs"
    configs.mkdir(parents=True)
    (out / "streams").mkdir()
    codes = []
    runs = {}
    for name, path in sorted(bundled_scenarios().items()):
        raw = json.loads(path.read_text())
        raw["grid"]["dt"] = DENSE_DT
        dense = configs / f"{name}-dense.json"
        dense.write_text(json.dumps(raw))
        runs.update({name: name, f"{name}-dense": str(dense)})
    runs.update(driven_configs(configs))
    for label, config in runs.items():
        for command in ("run", "dump-basis"):
            where = out / command / label
            codes.append(call(out, label, [command, config, "--out", str(where)]))
    for label, (paths, seed) in ENSEMBLES.items():
        argv = ["ensemble", "noisy_lossy_medium", "--paths", paths, "--seed", seed,
                "--out", str(out / "ensemble" / label)]
        codes.append(call(out, label, argv))
    code, checks = verify(out)
    codes.append(code)
    # json writes each float by its repr: every bit shows
    (out / "verify-checks.json").write_text(json.dumps(checks, indent=1) + "\n")
    (out / "codes.txt").write_text("".join(codes))
    for manifest in out.rglob("manifest.json"):
        manifest.write_text(re.sub(r'^(\s*"build": )".*"', r'\1""', manifest.read_text(),
                                   flags=re.M))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_outputs(Path(sys.argv[1]))
