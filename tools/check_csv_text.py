"""Check the CSV formatter against Python's `%.17g`, value by value.

    python tools/check_csv_text.py [N] [SEED]

Formats, with `quadmode.csvtext.csv_chunks` as one column, N random float64
bit patterns drawn from SEED (default 2,000,000 and 0) and the structured
cases (`structured_cases`), and compares each line with `'%.17g' % value`.
Prints the counts checked, the first mismatches, if any, and exits 1 when
there is one.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadmode.csvtext import csv_chunks  # noqa: E402

BLOCK = 1 << 16  # values formatted and compared at a time
SHOWN = 10  # mismatches printed


def structured_cases() -> np.ndarray:
    """Every power of 2 and of 10 (as `float('1eK')` parses it) with both
    neighbours; the largest double, the smallest normal and subnormal,
    ±0, ±inf and NaN; the integers in [-1000, 1000]; the exact ties
    1 + i·2^-17 (18 significant digits, the last a 5); the ties whose power
    of ten is not a double (m·2^-24 for odd m in [3, 15], 2^-25, 3·2^-25);
    the dt = 5e-4 grid over [0, 10]; and all of them negated."""
    cases = [2.0 ** np.arange(-1074, 1024), np.array([float(f"1e{k}") for k in range(-324, 309)])]
    cases += [np.nextafter(c, side) for c in cases for side in (-np.inf, np.inf)]
    finfo = np.finfo(np.float64)
    cases += [np.array([finfo.max, finfo.tiny, finfo.smallest_subnormal, 0.0, np.inf, np.nan]),
              np.arange(-1000.0, 1001.0), 1.0 + np.arange(100_000) * 2.0**-17,
              np.array([m * 2.0**-24 for m in range(3, 16, 2)] + [2.0**-25, 3 * 2.0**-25]),
              np.arange(20_001) * 5e-4]
    cases = np.concatenate(cases)
    return np.concatenate([cases, -cases])


def random_patterns(count: int, seed: int) -> np.ndarray:
    """`count` float64 values of uniformly random bit patterns."""
    return np.random.default_rng(seed).integers(0, 2**64, count, np.uint64).view(np.float64)


def mismatches(values) -> list:
    """(value, formatter's text, `'%.17g' % value`) of each value whose two
    texts differ."""
    found = []
    for start in range(0, len(values), BLOCK):
        block = values[start:start + BLOCK]
        lines = b"".join(csv_chunks([block])).decode("ascii").split("\n")
        found += [(v, got, want) for v, got, want in
                  zip(block.tolist(), lines, map("%.17g".__mod__, block.tolist())) if got != want]
        if len(lines) != block.size + 1 or lines[-1]:
            found.append((None, f"{len(lines) - 1} lines", f"{block.size} lines"))
    return found


def main(argv) -> int:
    if len(argv) > 2:
        sys.exit(__doc__)
    count = int(argv[0]) if argv else 2_000_000
    seed = int(argv[1]) if len(argv) > 1 else 0
    bad = 0
    for label, values in (("random bit patterns", random_patterns(count, seed)),
                          ("structured cases", structured_cases())):
        found = mismatches(values)
        print(f"{label}: {len(values)} values, {len(found)} mismatches")
        for value, got, want in found[:SHOWN]:
            print(f"  {value!r}: got {got!r}, want {want!r}")
        bad += len(found)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
