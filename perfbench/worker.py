"""One benchmark process: set up a workload, then run it timed or traced.

Started by run.py in a fresh interpreter for each set-up sample and each
measured run:

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode probe|timed|traced --work DIR

It prints "ready" once quadmode.cli is imported and the workload's configs
are loaded.  A probe exits there; the other modes go on and print one JSON
line of measurements.  A command whose outputs differ from an earlier run
of the same item aborts the process with exit code 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the reference task's median on the machine the benchmark was built on
# (2-core Xeon VM); times are reported as if the machine ran at that speed
REFERENCE_NOMINAL_S = 0.015


def reference_task() -> float:
    """Seconds taken by a fixed piece of work of the same kind as quadmode's
    hot path that runs no quadmode code: scipy's RK45 with dense output,
    calling a Python right-hand side that reads a tabulated coefficient
    through numpy scalar indexing.  Timed before and after every command,
    it gauges the machine's speed while the command ran."""
    import numpy as np
    from scipy.integrate import solve_ivp

    knots = np.linspace(0.0, 2.0, 201)
    table = 0.1 + 0.05 * np.sin(knots)
    h = float(knots[1])

    def coeff(t):
        k = min(int(t / h), 199)
        u = t / h - k
        return float(table[k] * (1.0 - u) + table[k + 1] * u)

    def rhs(t, y):
        c = coeff(t)
        w = 1.0 + c + float(np.exp(-0.01 * t))
        return (y[1], -w * y[0] - c * y[1], y[3], -w * y[2] - 0.05 * y[3])

    start = time.perf_counter()
    solve_ivp(rhs, (0.0, 2.0), (0.0, 1.0, 1.0, 0.0), rtol=1e-10, atol=1e-12,
              dense_output=True)
    return time.perf_counter() - start


def speed_factor(reference_s) -> float:
    """Multiplier that takes a time measured alongside `reference_s` to the
    nominal machine speed."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_s)


class Mismatch(Exception):
    """Outputs that must be identical are not."""


@dataclass
class Outcome:
    seconds: float
    scaled_seconds: float  # at nominal machine speed, see reference_task
    failed_units: int


class Runner:
    """Executes items in process and keeps the digest of every key's outputs."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.out_root = work / "out"
        self.digests = {}
        self.reference_s = []

    def execute(self, item, tracer=None) -> Outcome:
        if not self.reference_s:
            self.reference_s.append(reference_task())
        out = self.out_root / item.key
        shutil.rmtree(out, ignore_errors=True)
        argv = list(item.argv) + (["--out", str(out)] if item.writes else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is not None:
                span = tracer.begin_request()
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejecting the arguments
                rc = exc.code
            except Exception as exc:  # a raise is a failed item; its text is hashed
                rc = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.close(span)
        failed = self._judge(item, out, rc)
        self._record(item.key, self._digest(out, rc, stdout.getvalue()))
        self.reference_s.append(reference_task())
        around = (self.reference_s[-2] + self.reference_s[-1]) / 2.0
        return Outcome(seconds, seconds * REFERENCE_NOMINAL_S / around, failed)

    @staticmethod
    def _judge(item, out: Path, rc):
        """Failed units of the item, after checking that what it wrote is
        consistent with its exit code."""
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text()) if manifest_path.is_file() else None
        if item.writes and rc == 0 and manifest is None:
            raise Mismatch(f"{item.key}: exit 0 but no manifest.json written")
        if manifest is not None:
            if manifest["all_passed"] != (rc == 0):
                raise Mismatch(f"{item.key}: exit code {rc!r} disagrees with "
                               f"all_passed={manifest['all_passed']}")
            missing = [n for n in manifest["outputs"] if not (out / n).is_file()]
            if missing:
                raise Mismatch(f"{item.key}: manifest lists missing outputs {missing}")
        if rc != 0:
            return item.units
        return (manifest or {}).get("failed_paths", 0)

    def _digest(self, out: Path, rc, stdout: str) -> str:
        """Hash of the exit code, stdout and every file written.  Stderr is
        left out: Python prints a given warning only once per process."""
        h = hashlib.sha256(f"{rc!r}\0".encode())
        # the work directory differs per process; keep digests comparable
        h.update(stdout.replace(str(self.out_root), "<out>").encode() + b"\0")
        if out.is_dir():
            for path in sorted(out.iterdir()):
                h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        return h.hexdigest()

    def _record(self, key: str, digest: str) -> None:
        if self.digests.setdefault(key, digest) != digest:
            raise Mismatch(f"{key}: outputs differ between two runs of the same item")

    def round_digest(self, items) -> str:
        h = hashlib.sha256()
        for item in items:
            h.update(f"{item.key}={self.digests[item.key]}\n".encode())
        return h.hexdigest()


def timed(runner: Runner, items, rounds: int) -> dict:
    """Rounds of the items, one command at a time."""
    latencies, scaled, units, failed = [], [], 0, 0
    for _ in range(rounds):
        for item in items:
            outcome = runner.execute(item)
            latencies.append(outcome.seconds)
            scaled.append(outcome.scaled_seconds)
            units += item.units
            failed += outcome.failed_units
    return {
        "latencies_s": latencies,
        "scaled_latencies_s": scaled,
        "units": units,
        "failed_units": failed,
        "rounds": rounds,
        "round_digest": runner.round_digest(items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_factor": speed_factor(runner.reference_s),
    }


def traced_pass(runner: Runner, items):
    import spans
    tracer = spans.Tracer()
    tracer.install()
    failed = scaled = 0
    try:
        for item in items:
            outcome = runner.execute(item, tracer)
            failed += outcome.failed_units
            scaled += outcome.scaled_seconds
    finally:
        tracer.uninstall()
    problems = spans.check_spans(tracer.spans)
    if problems:
        raise Mismatch("span tree invalid: " + "; ".join(problems[:5]))
    return spans.summarize(tracer.spans), tracer.all_counts(), failed, scaled


def selfcheck(cli, work: Path) -> None:
    """Tiny-size check of the harness itself: two traced passes over small
    commands that enter every layer must give valid span trees, the same
    counts and the same outputs."""
    import spans
    from workloads import Item, bundled_raw, write_config
    raw = bundled_raw()
    items = []
    for name in ("static_oscillator", "driven_oscillator", "noisy_lossy_medium"):
        cfg = dict(raw[name], grid={"t_max": 2.0, "dt": 0.05})
        if "noise" in cfg:
            cfg["noise"] = dict(cfg["noise"], paths=2)
        path = write_config(work / "selfcheck" / f"{name}.json", cfg)
        items.append(Item(f"selfcheck-run-{name}", ("run", path), path, 1, True))
    items.append(Item("selfcheck-ensemble", ("ensemble", items[-1].config), "", 2, True))
    items.append(Item("selfcheck-verify", ("verify", "--scenario", "static_oscillator"),
                      "", 1, False))
    runner = Runner(cli, work / "selfcheck")
    first = traced_pass(runner, items)[1]
    second = traced_pass(runner, items)[1]
    if first != second:
        diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        raise Mismatch(f"self-check: counts differ between two traced passes: {diff}")
    idle = [layer for layer in spans.LAYERS if not first.get(f"{layer}.calls")]
    if not first["coefficients.eval_calls"]:
        idle.append("coefficient evaluation")
    if idle:
        raise Mismatch(f"self-check: instrumentation never entered {idle}")


def traced(runner: Runner, items, pairs: int) -> dict:
    """Pairs of an untraced and a traced pass over the items.  Counts must
    repeat exactly from pass to pass."""
    import spans
    untraced_s = traced_s = 0.0
    summaries, counts = [], None
    units = failed = 0
    for _ in range(pairs):
        for item in items:
            outcome = runner.execute(item)
            untraced_s += outcome.scaled_seconds
            units += item.units
            failed += outcome.failed_units
        summary, pass_counts, pass_failed, pass_scaled = traced_pass(runner, items)
        traced_s += pass_scaled
        units += sum(item.units for item in items)
        failed += pass_failed
        if counts is not None and pass_counts != counts:
            raise Mismatch("per-layer counts differ between traced passes")
        counts = pass_counts
        summaries.append(summary)
    factor = speed_factor(runner.reference_s)
    metrics = layer_metrics(summaries, counts, spans.LAYERS, factor)
    metrics["trace.overhead"] = {"value": traced_s / untraced_s - 1.0, "unit": "fraction"}
    return {"metrics": metrics, "units": units, "failed_units": failed,
            "passes": len(summaries), "speed_factor": factor,
            "round_digest": runner.round_digest(items)}


def layer_metrics(summaries, counts, layers, factor) -> dict:
    """Per traced pass over the items: self time per layer in ms
    (mean over passes, scaled by the speed factor), counts, and each layer's
    share of traced wall time."""
    n = len(summaries)
    wall = sum(s["wall"] for s in summaries)
    total = {layer: sum(s["self"][layer] for s in summaries)
             for layer in list(layers) + ["other"]}
    ms = {layer: seconds * 1e3 * factor / n for layer, seconds in total.items()}
    c = {key: counts.get(key, 0) for key in (
        "characteristic.calls", "characteristic.steps", "coefficients.eval_calls",
        "coefficients.eval_points", "stochastic.calls", "ermakov.points",
        "observables.points", "cli.csv_bytes", "config.calls")}
    values = {
        "characteristic.ms": (ms["characteristic"], "ms"),
        "characteristic.calls": (c["characteristic.calls"], "count"),
        "characteristic.steps": (c["characteristic.steps"], "count"),
        "characteristic.us_per_step": (
            ms["characteristic"] * 1e3 / c["characteristic.steps"]
            if c["characteristic.steps"] else 0.0, "us"),
        "coefficients.build_ms": (ms["coefficients"], "ms"),
        "coefficients.eval_calls": (c["coefficients.eval_calls"], "count"),
        "coefficients.eval_points": (c["coefficients.eval_points"], "count"),
        "coefficients.points_per_call": (
            c["coefficients.eval_points"] / c["coefficients.eval_calls"]
            if c["coefficients.eval_calls"] else 0.0, "points/call"),
        "stochastic.ms": (ms["stochastic"], "ms"),
        "stochastic.calls": (c["stochastic.calls"], "count"),
        "ermakov.ms": (ms["ermakov"], "ms"),
        "ermakov.points": (c["ermakov.points"], "count"),
        "observables.ms": (ms["observables"], "ms"),
        "observables.points": (c["observables.points"], "count"),
        "verify.oracle_ms": (ms["verify.oracle"], "ms"),
        "verify.checks_ms": (ms["verify.checks"], "ms"),
        "cli.csv_ms": (ms["cli.csv"], "ms"),
        "cli.csv_bytes": (c["cli.csv_bytes"], "bytes"),
        "cli.manifest_ms": (ms["cli.manifest"], "ms"),
        "config.ms": (ms["config"], "ms"),
        "config.calls": (c["config.calls"], "count"),
    }
    for layer, seconds in total.items():
        values[f"{layer}.share"] = (seconds / wall, "fraction")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import quadmode.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"quadmode imported from {cli.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_configs, rounds
    items = WORKLOADS[args.workload](args.seed, args.work)
    load_configs(items)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    import numpy
    import scipy
    runner = Runner(cli, args.work)
    try:
        if args.mode == "timed":
            result = timed(runner, items, rounds(args.workload, args.seconds, len(items)))
        else:
            selfcheck(cli, args.work)
            pairs = max(1, rounds(args.workload, args.seconds, len(items)) // 2)
            result = traced(runner, items, pairs)
    except Mismatch as exc:
        print(f"correctness gate: {exc}", file=sys.stderr)
        return 1
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
