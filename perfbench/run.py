"""quadmode benchmark: end-to-end and per-layer timings of CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all --seed N

Run from the root of a quadmode checkout; the program is imported from its
`src/`.  Workloads (see workloads.py and README.md): sweep, ensemble,
verify, dense_grid.  Each measured run happens in its own fresh process,
driven as a closed loop by one client issuing one CLI command at a time,
for a fixed number of rounds sized to take about --seconds.  Times are
scaled to a nominal machine speed gauged by a reference task (worker.py).

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh-process set-ups), items per second, median and tail command latency,
and peak memory.  --trace 1 prints the per-layer metrics of a traced pass
and the tracing overhead.  `--workload all` runs every workload both ways.
The last line of output is always one JSON object: correct, attempted,
failed, metrics.  A mismatch between outputs that must be identical aborts
with exit code 1 and no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "ensemble", "verify", "dense_grid")
SETUP_SAMPLES = 3
# the library imports every set-up pays, in a fresh process that runs no
# quadmode code; its time gauges the machine's import speed at that moment
SETUP_REFERENCE = ("-c", "import numpy, scipy.integrate")
SETUP_REFERENCE_NOMINAL_S = 0.75  # its median on the machine the benchmark was built on
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
DEADLINE_S = 170.0  # a run must end within 180 s
# single-threaded numerics: the closed loop has one client on a 2-core box
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1", PYTHONUNBUFFERED="1",
                  PYTHONHASHSEED="0")


class BenchmarkError(Exception):
    pass


def _worker(args, deadline: float):
    """Run one worker; return (seconds until it printed "ready", its last
    stdout line)."""
    cmd = [sys.executable, str(WORKER)] + args
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=WORKER_ENV) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or first.strip() != "ready":
        raise BenchmarkError(f"worker {' '.join(args[:2])} exited with code {code}")
    return ready_s, (rest[-1] if rest else "")


def _setup_reference_s(deadline: float) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *SETUP_REFERENCE], cwd=ROOT, env=WORKER_ENV,
                   check=True, timeout=max(deadline - time.monotonic(), 1.0))
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True)
        revision = out.stdout.strip() or revision
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_revision": revision,
            "seed": seed, "loadavg_at_start": list(os.getloadavg())}


def tail(latencies_ms):
    """Highest percentile with at least TAIL_BEYOND samples beyond it: the
    (TAIL_BEYOND + 1)-th largest sample.  Returns (value, percentile)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchmarkError(f"only {n} commands ran; a tail latency needs "
                             f"more than {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work"))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--work", str(work)]
    try:
        if trace:
            _, line = _worker(args + ["--mode", "traced"], deadline)
            data = json.loads(line)
            metrics = data["metrics"]
            print(f"traced {data['passes']} pass(es) over one round; "
                  f"round outputs digest {data['round_digest'][:16]}; speed factor "
                  f"{data['speed_factor']:.4f} (times below are scaled by it)")
        else:
            # each set-up is scaled by the reference import timed just before
            # it; the last one is the timed worker's own
            setups, scaled_setups = [], []
            for i in range(SETUP_SAMPLES):
                reference_s = _setup_reference_s(deadline)
                mode = "timed" if i == SETUP_SAMPLES - 1 else "probe"
                ready_s, line = _worker(args + ["--mode", mode], deadline)
                setups.append(ready_s)
                scaled_setups.append(ready_s * SETUP_REFERENCE_NOMINAL_S / reference_s)
            data = json.loads(line)
            factor = data["speed_factor"]
            latencies_ms = [s * 1e3 for s in data["latencies_s"]]
            scaled_ms = [s * 1e3 for s in data["scaled_latencies_s"]]
            tail_ms, tail_pct = tail(scaled_ms)
            raw = {"setup_s": statistics.median(setups),
                   "items_per_s": data["units"] / sum(data["latencies_s"]),
                   "latency_ms_p50": statistics.median(latencies_ms),
                   "latency_ms_tail": tail(latencies_ms)[0]}
            metrics = {
                "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
                "items_per_s": {"value": data["units"] / sum(data["scaled_latencies_s"]),
                                "unit": "1/s"},
                "latency_ms_p50": {"value": statistics.median(scaled_ms), "unit": "ms"},
                "latency_ms_tail": {"value": tail_ms, "unit": "ms"},
                "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
            }
            print(f"{len(latencies_ms)} commands in {data['rounds']} rounds, "
                  f"{data['units']} items, {sum(data['latencies_s']):.2f} s in commands; every item's "
                  f"outputs identical in every round; round outputs digest "
                  f"{data['round_digest'][:16]}")
            print(f"latency_ms_tail is p{tail_pct:.1f} of {len(latencies_ms)} commands")
            print(f"setup_s samples (unscaled): {', '.join(f'{s:.4f}' for s in setups)}")
            print(f"median speed factor {factor:.4f} (times below are scaled); unscaled: "
                  + " ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"versions: {json.dumps(data['versions'])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = data["failed_units"]
    print(f"failed_fraction: {failed}/{data['units']} = {failed / data['units']:.4f}")
    for name, m in metrics.items():
        print(f"  {name:<32s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": True, "attempted": data["units"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quadmode benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "quadmode" / "cli.py").is_file():
        print(f"no quadmode sources under {ROOT / 'src'}: run from a quadmode "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print(f"environment: {json.dumps(environment(args.seed))}")

    try:
        if args.workload != "all":
            print(f"== {args.workload} (trace {args.trace})")
            result = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    print(f"== {workload} (trace {trace})")
                    part = measure(workload, args.seed, args.seconds, trace,
                                   time.monotonic() + DEADLINE_S)
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for name, m in part["metrics"].items():
                        result["metrics"][f"{workload}.{name}"] = m
    except BenchmarkError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
