"""Benchmark workloads: the quadmode CLI commands each item issues.

An item is one in-process `quadmode.cli.main(argv)` call.  It carries the
number of work units it stands for (one run, one verified scenario, or one
ensemble path) and a key: every execution of the same key must write
byte-identical outputs.  A workload is a fixed list of items, run round
after round, built only from the benchmark seed; the program sees nothing
but the generated configs and arguments.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

# sampling ranges of the seeded sweep variants
_PARAM_RANGES = {
    "caldirola_kanai": {"rate": (0.1, 0.4)},
    "parametric": {"depth": (0.05, 0.3), "frequency": (1.5, 2.5)},
    "driven": {"force": (0.5, 2.0)},
}
_CHI_RANGE = (0.05, 0.3)
_INIT_RANGES = {"alpha0": (-0.2, 0.2), "beta0": (0.8, 1.5),
                "delta0": (-0.5, 0.5), "eps0": (-0.8, 0.8)}

SWEEP_VARIANTS = 98
ENSEMBLE_SCENARIO = "noisy_lossy_medium"
ENSEMBLE_PATHS = 8
ENSEMBLE_SEEDS = 6
DENSE_DT = 5e-4


@dataclass(frozen=True)
class Item:
    key: str
    argv: tuple
    config: str  # bundled scenario name or config path the command reads
    units: int
    writes: bool  # the command takes --out and writes files there


def bundled_raw() -> dict:
    from quadmode.config import bundled_scenarios
    return {name: json.loads(path.read_text())
            for name, path in sorted(bundled_scenarios().items())}


def write_config(path: Path, raw: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(raw, indent=1, sort_keys=True))
    return str(path)


def sweep_variant(template: dict, rng: random.Random, name: str) -> dict:
    """A bundled scenario with its model parameter and initial state redrawn."""
    raw = json.loads(json.dumps(template))
    raw["name"] = name
    coeffs = raw["coefficients"]
    for key, (lo, hi) in _PARAM_RANGES.get(coeffs.get("preset", ""), {}).items():
        coeffs["params"][key] = rng.uniform(lo, hi)
    if "medium" in coeffs:
        coeffs["medium"]["chi"] = {"kind": "constant", "value": rng.uniform(*_CHI_RANGE)}
    raw["initial_state"] = {k: rng.uniform(lo, hi) for k, (lo, hi) in _INIT_RANGES.items()}
    return raw


def sweep(seed: int, work: Path) -> list:
    """`quadmode run` over the bundled scenarios plus seeded variants of
    them, on their own 201-point grids."""
    bundled = bundled_raw()
    names = list(bundled)
    items = [Item(f"bundled-{n}", ("run", n), n, 1, True) for n in names]
    for j in range(SWEEP_VARIANTS):
        template = names[j % len(names)]
        rng = random.Random(f"sweep:{seed}:{j}")
        raw = sweep_variant(bundled[template], rng, f"{template}_variant{j}")
        path = write_config(work / "configs" / f"variant-{j}.json", raw)
        items.append(Item(f"variant-{j}", ("run", path), path, 1, True))
    return items


def ensemble(seed: int, work: Path) -> list:
    """`quadmode ensemble noisy_lossy_medium` for ensemble seeds drawn from
    the benchmark seed."""
    items = []
    for j in range(ENSEMBLE_SEEDS):
        ens_seed = random.Random(f"ensemble:{seed}:{j}").randrange(2**32)
        argv = ("ensemble", ENSEMBLE_SCENARIO, "--paths", str(ENSEMBLE_PATHS),
                "--seed", str(ens_seed))
        items.append(Item(f"ensemble-{ens_seed}", argv, ENSEMBLE_SCENARIO,
                          ENSEMBLE_PATHS, True))
    return items


def verify(seed: int, work: Path) -> list:
    """`quadmode verify --scenario NAME` over the bundled gallery; seed-free."""
    return [Item(f"verify-{n}", ("verify", "--scenario", n), n, 1, False)
            for n in bundled_raw()]


def dense_grid(seed: int, work: Path) -> list:
    """`quadmode run` on the bundled scenarios at dt = 5e-4 (20,001 points)."""
    items = []
    for name, raw in bundled_raw().items():
        raw["grid"]["dt"] = DENSE_DT
        path = write_config(work / "configs" / f"dense-{name}.json", raw)
        items.append(Item(f"dense-{name}", ("run", path), path, 1, True))
    return items


WORKLOADS = {f.__name__: f for f in (sweep, ensemble, verify, dense_grid)}

# rounds that take about 20 s at nominal machine speed at the commit that
# introduced the benchmark; a run's work is fixed by this and --seconds, so
# two commits measured with the same settings run the same commands
ROUNDS_PER_20_S = {"sweep": 3, "ensemble": 6, "verify": 8, "dense_grid": 5}

# commands a run needs for the tail, the (run.TAIL_BEYOND + 1)-th largest
# command time, to lie above the median
MIN_COMMANDS = 21


def rounds(workload: str, seconds: float, n_items: int) -> int:
    """Rounds per run: at least two, so that every item repeats, and at
    least MIN_COMMANDS commands."""
    return max(2, -(-MIN_COMMANDS // n_items),
               round(ROUNDS_PER_20_S[workload] * seconds / 20.0))


def load_configs(items) -> None:
    """Parse every config the items read, as the CLI would."""
    from quadmode.config import bundled_scenarios, load_config
    bundled = bundled_scenarios()
    for item in items:
        load_config(bundled.get(item.config, item.config))
