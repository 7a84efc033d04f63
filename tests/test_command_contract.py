"""Every command ends in a verdict, whatever the medium: exit 0, 2 (a
config problem) or 3 (a numerical failure), with no numpy warning and no
traceback.  The reproduced configs each end in their own verdict; the
property test draws media from a small set of extreme values."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmode.cli import main

GRID = {"t_max": 5.0, "dt": 0.05}
GRIDS = [GRID, {"t_max": 10.0, "dt": 0.25}, {"t_max": 1.0, "dt": 0.5},
         {"t_max": 5.0, "adaptive": True}]
VALUES = [0.0, 1.0, -1.0, 0.5, 2.0, 3.7, 0.1, 1e-8, 1e20, 1e-20, 1e300, 1e-300, 5e-324]


def constant(value):
    return {"kind": "constant", "value": value}


def noise(target):
    return {"target": target, "model": "ornstein_uhlenbeck", "amplitude": 0.05,
            "correlation_time": 1.0, "seed": 0, "paths": 4}


# eta = e^(1000 t) overflows on the scan and on the run grid
STEEP_ETA = {"kind": "exponential", "amplitude": 1.0, "rate": 1000.0}
# xi is NaN wherever 1e308 t overflows
NAN_XI = {"kind": "sinusoid", "offset": 2.0, "amplitude": 0.5, "frequency": 1e308}
# a(0) = e^0 / (2 xi) overflows
TINY_XI_CHI = {"kind": "table", "times": [-1.0, 0.5, 2.0, 3.5, 5.0],
               "values": [1.0, -0.0, 0.5, 1.3, 0.1]}
BIG_CHI_TABLE = {"kind": "table", "times": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "values": [1e20] * 6}
CHI_NOT_FINITE = "(CoefficientEvaluationError, t=0): coefficient 'chi' at t=0.0: chi/xi is not finite"


def outcome(command, medium, grid=GRID, noise_block=None):
    """(exit code, stderr, warnings raised) of `command` on the medium
    config, in this process, written to a directory of its own."""
    raw = {"name": "drawn", "coefficients": {"medium": medium},
           "initial_state": {"beta0": 1.0}, "grid": grid}
    if noise_block is not None:
        raw["noise"] = noise_block
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = Path(tmp) / "drawn.json"
        cfg.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(cfg), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("command, medium, noise_block, code, text", [
    ("run", {"xi": constant(1.0), "eta": STEEP_ETA, "chi": constant(0.1)}, None, 0, ""),
    # NaN is not positive
    ("run", {"xi": NAN_XI, "eta": constant(1.0), "chi": constant(0.1)}, None, 3,
     "(InvalidMediumError, t=1.79875): xi and eta must stay positive"),
    ("run", {"xi": constant(1e-20), "eta": constant(1.0), "chi": TINY_XI_CHI}, None, 3,
     "(SingularCoefficientError, t=0): a(0) must be finite and nonzero"),
    # the base target, not the noise, leaves the float range
    ("ensemble", {"xi": constant(1.0), "eta": STEEP_ETA, "chi": constant(0.1)}, noise("eta"), 2,
     "config error: coefficients.medium.eta: eta is not finite on the run grid"),
    # chi/xi past the float range names chi on the constant and the table route
    ("run", {"xi": constant(1e-300), "eta": constant(1.0), "chi": constant(1e20)}, None, 3,
     CHI_NOT_FINITE),
    ("run", {"xi": constant(1e-300), "eta": constant(1.0), "chi": BIG_CHI_TABLE}, None, 3,
     CHI_NOT_FINITE),
], ids=["steep-eta", "nan-xi", "tiny-xi", "ensemble-steep-eta", "big-chi", "big-chi-table"])
def test_reproduced_media_end_in_their_verdict(command, medium, noise_block, code, text):
    got, err, caught = outcome(command, medium, noise_block=noise_block)
    assert (got, caught) == (code, [])
    assert text in err and "Warning" not in err


@st.composite
def functions(draw, t_max):
    """A function spec of a kind drawn, its parameters (or table values, on
    5 to 41 knots from 0 or -1 to t_max) drawn from VALUES."""
    value = st.sampled_from(VALUES)
    kind = draw(st.sampled_from(["constant", "exponential", "sinusoid", "table"]))
    if kind == "constant":
        return constant(draw(value))
    if kind == "exponential":
        return {"kind": kind, "amplitude": draw(value), "rate": draw(value)}
    if kind == "sinusoid":
        return {"kind": kind, "offset": draw(value), "amplitude": draw(value),
                "frequency": draw(value)}
    knots = draw(st.integers(5, 41))
    times = np.linspace(draw(st.sampled_from([0.0, -1.0])), t_max, knots).tolist()
    return {"kind": kind, "times": times,
            "values": draw(st.lists(value, min_size=knots, max_size=knots))}


@st.composite
def configs(draw):
    """(medium, grid, noise block or None)."""
    grid = draw(st.sampled_from(GRIDS))
    medium = {name: draw(functions(grid["t_max"])) for name in ("xi", "eta", "chi")}
    noise_block = draw(st.none() | st.sampled_from(["xi", "eta", "chi"]).map(noise))
    if noise_block is not None:
        noise_block["amplitude"] = draw(st.sampled_from(VALUES))
    return medium, grid, noise_block


@settings(max_examples=150, deadline=None)
@given(configs())
@example(({"xi": constant(1.0), "eta": STEEP_ETA, "chi": constant(0.1)}, GRID, noise("eta")))
@example(({"xi": NAN_XI, "eta": constant(1.0), "chi": constant(0.1)}, GRID, None))
@example(({"xi": constant(1e-20), "eta": constant(1.0), "chi": TINY_XI_CHI}, GRID, None))
@example(({"xi": constant(1e-300), "eta": constant(1.0), "chi": constant(1e20)}, GRID, None))
@example(({"xi": constant(1e-300), "eta": constant(1.0), "chi": BIG_CHI_TABLE}, GRID, None))
def test_every_command_ends_in_a_verdict(config):
    medium, grid, noise_block = config
    commands = ["run", "dump-basis"] + ["ensemble"] * (noise_block is not None)
    for command in commands:
        code, err, caught = outcome(command, medium, grid, noise_block)
        assert code in (0, 2, 3) and caught == []
        assert "Warning" not in err and "Traceback" not in err
