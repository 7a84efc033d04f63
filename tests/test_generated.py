"""Generated-scenario invariant battery.

The acceptance gate checks seven hand-picked scenarios; this battery draws
coefficient sets, initial states and Fock indices at random and holds each
to the same contract at the same tolerances: the uncertainty floor, the
commutator, the Wronskian law, the Heisenberg residual, agreement with the
direct Riccati oracle wherever the oracle stays regular, and a
byte-identical rerun.  It also draws ensemble seeds and path orders: the
summary of an ensemble must not depend on the order its paths are solved
in.

The sampling ranges start from those of the benchmark's seeded sweep
variants and are widened from there (constant coefficients with damping,
tabulated b and chi, general media, a force on any kind).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmode.coefficients import (
    CoefficientSet,
    ConstantFunction,
    ExponentialFunction,
    MediumProfile,
    SinusoidFunction,
    TableFunction,
    medium_to_hamiltonian,
)
from quadmode.config import build_grid, bundled_scenarios, load_config
from quadmode.ermakov import ErmakovInit, build_frame, closed_form_path
from quadmode.errors import BlowUpError
from quadmode.observables import (
    ansatz_path,
    compute_observables,
    heisenberg_residual,
    operator_invariant_defect,
)
from quadmode.stochastic import TRACKED_OBSERVABLES, run_ensemble, sample_path
from quadmode.verify import riccati_oracle, wronskian_drift

TIGHT = dict(rtol=1e-12, atol=1e-14)

# the benchmark's sweep-variant ranges
PARAM_RANGES = {
    "caldirola_kanai": {"rate": (0.1, 0.4)},
    "parametric": {"depth": (0.05, 0.3), "frequency": (1.5, 2.5)},
    "driven": {"force": (0.5, 2.0)},
}
CHI_RANGE = (0.05, 0.3)
INIT_RANGES = {"alpha0": (-0.2, 0.2), "beta0": (0.8, 1.5),
               "delta0": (-0.5, 0.5), "eps0": (-0.8, 0.8)}
# widened from them
CONSTANT_RANGES = {"a": (0.3, 0.7), "b": (0.3, 0.7), "c": (-0.1, 0.1), "d": (-0.05, 0.05)}
MEDIUM_RANGES = {"xi": (0.5, 2.0), "eta": (0.5, 2.0), "upsilon": (0.5, 1.5)}
B_RANGE = (0.3, 0.7)
G_RANGE = (-0.5, 0.5)
TABLE_SPACING = 0.25
KINDS = ("constant", "sinusoid", "exponential", "table", "medium")


def uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def ranges(spec):
    return st.fixed_dictionaries({k: uniform(*r) for k, r in spec.items()})


def table(t_max, lo, hi):
    """A rough table: independent samples every TABLE_SPACING, covering
    [0, t_max]."""
    knots = int(math.ceil(t_max / TABLE_SPACING)) + 1
    times = TABLE_SPACING * np.arange(knots)
    return st.lists(uniform(lo, hi), min_size=knots, max_size=knots).map(
        lambda values: TableFunction(times, values))


@dataclasses.dataclass(frozen=True)
class Case:
    kind: str
    cs: CoefficientSet
    init: ErmakovInit
    n: int
    grid: np.ndarray


@st.composite
def cases(draw, kind):
    t_max = draw(uniform(2.0, 10.0))
    grid = np.linspace(0.0, t_max, int(round(t_max / 0.05)) + 1)
    half, zero = ConstantFunction(0.5), ConstantFunction(0.0)
    if kind == "constant":
        p = draw(ranges(CONSTANT_RANGES))
        cs = CoefficientSet(*(ConstantFunction(p.get(k, 0.0)) for k in "abcdfg"))
    elif kind == "sinusoid":
        p = draw(ranges(PARAM_RANGES["parametric"]))
        cs = CoefficientSet(half, SinusoidFunction(0.5, 0.5 * p["depth"], p["frequency"]),
                            zero, zero, zero, zero)
    elif kind == "exponential":
        k = draw(uniform(*PARAM_RANGES["caldirola_kanai"]["rate"]))
        cs = CoefficientSet(ExponentialFunction(0.5, -2.0 * k), ExponentialFunction(0.5, 2.0 * k),
                            zero, zero, zero, zero)
    elif kind == "table" and draw(st.booleans()):
        cs = CoefficientSet(half, draw(table(t_max, *B_RANGE)), zero, zero, zero, zero)
    else:
        p = draw(ranges(MEDIUM_RANGES))
        chi = (draw(table(t_max, *CHI_RANGE)) if kind == "table"
               else ConstantFunction(draw(uniform(*CHI_RANGE))))
        profile = MediumProfile(xi=ConstantFunction(p["xi"]), eta=ConstantFunction(p["eta"]),
                                chi=chi, upsilon=p["upsilon"])
        cs = medium_to_hamiltonian(profile, t_max=t_max)
    if draw(st.booleans()):  # driven
        cs = dataclasses.replace(
            cs, f=ConstantFunction(draw(uniform(*PARAM_RANGES["driven"]["force"]))),
            g=ConstantFunction(draw(uniform(*G_RANGE))))
    init = ErmakovInit(**draw(ranges(INIT_RANGES)))
    return Case(kind, cs, init, draw(st.integers(0, 3)), grid)


def frame_and_path(case):
    frame = build_frame(case.cs, case.grid, init=case.init, **TIGHT)
    return frame, closed_form_path(frame)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_scenario_keeps_every_invariant(kind, data):
    case = data.draw(cases(kind))
    frame, path = frame_and_path(case)
    obs = compute_observables(path, n=case.n)
    floor = (case.n + 0.5) ** 2
    assert floor - float(np.min(obs.product)) <= 1e-12
    assert operator_invariant_defect(ansatz_path(path)) <= 1e-12
    assert wronskian_drift(frame) <= 1e-8
    assert heisenberg_residual(frame, dt=1e-3) <= 1e-6

    try:
        oracle = riccati_oracle(case.cs, case.grid, init=case.init, **TIGHT)
    except BlowUpError:
        pass  # the direct path lost regularity: nothing to compare against
    else:
        dev = max(float(np.max(np.abs(mine - theirs)))
                  for mine, theirs in zip(path.columns(), oracle.columns()))
        assert dev <= 1e-7

    again, path2 = frame_and_path(case)
    assert again.dense.ts.tobytes() == frame.dense.ts.tobytes()
    for mine, rerun in zip(path.columns() + (path.lam,), path2.columns() + (path2.lam,)):
        assert mine.tobytes() == rerun.tobytes()


ENSEMBLE_TOL = dict(rtol=1e-8, atol=1e-10)  # run_ensemble's per-path defaults
ENSEMBLE_PATHS = 4


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       order=st.permutations(range(ENSEMBLE_PATHS)))
def test_ensemble_summary_is_independent_of_path_order(seed, order):
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    spec = dataclasses.replace(scenario.noise, seed=seed, paths=ENSEMBLE_PATHS)
    grid = build_grid(scenario)
    summary = run_ensemble(spec, scenario.profile, grid, init=scenario.init, n=scenario.n,
                           **ENSEMBLE_TOL)

    rows = {}
    for idx in order:
        cs = sample_path(spec, scenario.profile, grid, idx)
        frame = build_frame(cs, grid, init=scenario.init, **ENSEMBLE_TOL)
        rows[idx] = compute_observables(closed_form_path(frame), n=scenario.n)
    for name in TRACKED_OBSERVABLES:
        block = np.stack([getattr(rows[idx], name) for idx in range(ENSEMBLE_PATHS)])
        stderr = block.std(axis=0, ddof=1) / math.sqrt(ENSEMBLE_PATHS)
        assert block.mean(axis=0).tobytes() == summary.mean[name].tobytes()
        assert stderr.tobytes() == summary.stderr[name].tobytes()
