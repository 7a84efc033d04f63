"""The benchmark's tracer wraps program names from outside: they must exist.

`perfbench/spans.py` replaces layer entry points and coefficient methods by
name.  A refactor that moves or renames one of them would leave `--trace 1`
broken without any other test noticing, so each name is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from quadmode import coefficients, preset_coefficients
from quadmode.characteristic import integrate_characteristic
from quadmode.ermakov import build_frame

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module_name,attr", [
    (module_name, attr)
    for targets in spans.LAYERS.values() for module_name, attr, _ in targets])
def test_layer_entry_points_resolve(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("cls_name", spans.COEFFICIENT_CLASSES)
def test_coefficient_classes_define_the_wrapped_methods(cls_name):
    cls = getattr(coefficients, cls_name)
    missing = [m for m in spans.COEFFICIENT_METHODS if m not in cls.__dict__]
    assert not missing, f"{cls_name} does not define {missing} itself"


def test_step_hook_reads_frames_and_bases():
    # the characteristic layer's counter reads `.basis.dense.ts` of a frame
    # and `.dense.ts` of a basis
    cs = preset_coefficients("driven", force=1.0)
    grid = np.linspace(0.0, 2.0, 21)
    for result in (build_frame(cs, grid), integrate_characteristic(cs, grid)):
        assert spans._steps((), result, {})["characteristic.steps"] > 0
