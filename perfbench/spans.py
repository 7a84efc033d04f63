"""Layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces each layer entry point with a wrapper in every
loaded quadmode module that holds a reference to it, so the CLI, and the
modules calling each other, reach the wrapper.  Coefficient evaluations are
counted (not timed) by wrapping the coefficient classes' `__call__`,
`deriv` and `log_deriv`.  `uninstall()` restores every original.

A span holds (layer, start, end, parent index, request id).  A call into a
layer from inside a span of the same layer opens no new span, so `calls`
counts entries into a layer from elsewhere.  A layer's self time is its
spans' durations minus the time covered by their direct children; the
root span of each command (layer "command") keeps the unspanned rest.
"""

import functools
import sys
import time
from pathlib import Path

import numpy as np

ROOT = "command"


def _steps(args, result, nested):
    basis = getattr(result, "basis", result)  # ComplexFrame or CharacteristicBasis
    return {"characteristic.steps": len(basis.dense.ts) - 1}


def _grid_points(key):
    return lambda args, result, nested: {key: int(result.grid.size)}


def _nested_points(args, result, nested):
    # heisenberg_residual evaluates off the grid through closed_form_path
    return {"observables.points": nested.get("ermakov.points", 0)}


def _csv_bytes(args, result, nested):
    return {"cli.csv_bytes": Path(args[0]).stat().st_size}


# layer -> [(module, function, counter hook)]; a hook maps the call's
# arguments, its result and the counts it made in nested layers to counter
# increments
LAYERS = {
    "config": [("quadmode.config", "load_config", None),
               ("quadmode.config", "build_grid", None)],
    "coefficients": [("quadmode.coefficients", "medium_to_hamiltonian", None),
                     ("quadmode.coefficients", "preset_coefficients", None)],
    "characteristic": [("quadmode.characteristic", "integrate_characteristic", _steps),
                       ("quadmode.ermakov", "build_frame", _steps)],
    "stochastic": [("quadmode.stochastic", "sample_path", None)],
    "ermakov": [("quadmode.ermakov", "closed_form_path", _grid_points("ermakov.points"))],
    "observables": [("quadmode.observables", "compute_observables",
                     _grid_points("observables.points")),
                    ("quadmode.observables", "heisenberg_residual", _nested_points)],
    "verify.oracle": [("quadmode.verify", "riccati_oracle", None)],
    "verify.checks": [("quadmode.verify", "quasi_invariants", None),
                      ("quadmode.verify", "wronskian_drift", None),
                      ("quadmode.observables", "operator_invariant_defect", None),
                      ("quadmode.characteristic", "classical_mode_equivalence", None)],
    "cli.csv": [("quadmode.cli", "_write_csv", _csv_bytes)],
    "cli.manifest": [("quadmode.cli", "_write_manifest", None)],
}

COEFFICIENT_CLASSES = ("ConstantFunction", "ExponentialFunction", "SinusoidFunction",
                       "TableFunction", "MediumExponential")
COEFFICIENT_METHODS = ("__call__", "deriv", "log_deriv")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = 0
        self.counts = {}
        self.eval_calls = 0  # coefficient evaluations, kept apart from
        self.eval_points = 0  # `counts` because they are the hot path
        self._coeff_depth = 0
        self._restore = []

    # -- recording -------------------------------------------------------

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent, self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def begin_request(self) -> int:
        """Open the root span of a new request (one CLI command)."""
        self.request += 1
        return self.open(ROOT)

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, increments: dict) -> None:
        for key, value in increments.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _layer_wrapper(self, layer, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            before = dict(self.counts)
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.count({f"{layer}.calls": 1})
            if hook is not None:
                nested = {k: v - before.get(k, 0) for k, v in self.counts.items()}
                self.count(hook(args, result, nested))
            return result
        return wrapper

    def _coefficient_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(obj, t):
            if self._coeff_depth:  # nested inside another coefficient call
                return fn(obj, t)
            self._coeff_depth = 1
            self.eval_calls += 1
            self.eval_points += 1 if type(t) is float else int(np.size(t))
            try:
                return fn(obj, t)
            finally:
                self._coeff_depth = 0
        return wrapper

    def all_counts(self) -> dict:
        return dict(self.counts, **{"coefficients.eval_calls": self.eval_calls,
                                    "coefficients.eval_points": self.eval_points})

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "quadmode" or name.startswith("quadmode.")) and m is not None]
        for layer, targets in LAYERS.items():
            for module_name, attr, hook in targets:
                fn = getattr(sys.modules[module_name], attr)
                wrapper = self._layer_wrapper(layer, fn, hook)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._restore.append((module, name, fn))
                            setattr(module, name, wrapper)
        coefficients = sys.modules["quadmode.coefficients"]
        for cls_name in COEFFICIENT_CLASSES:
            cls = getattr(coefficients, cls_name)
            for method in COEFFICIENT_METHODS:
                fn = cls.__dict__[method]
                self._restore.append((cls, method, fn))
                setattr(cls, method, self._coefficient_wrapper(fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()


def summarize(spans) -> dict:
    """Self time per layer (seconds), the unspanned remainder under "other",
    and the wall time of the root spans."""
    self_time = {layer: 0.0 for layer in LAYERS}
    self_time["other"] = 0.0
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    wall = 0.0
    for i, (layer, start, end, parent, _) in enumerate(spans):
        own = (end - start) - child_time[i]
        if layer == ROOT:
            wall += end - start
            self_time["other"] += own
        else:
            self_time[layer] += own
    return {"self": self_time, "wall": wall}


def check_spans(spans) -> list:
    """Problems with the span tree: every span closed, nested inside its
    parent within one request, a command span at each root, non-negative
    self time, and self times summing to the root wall time."""
    problems = []
    child_time = [0.0] * len(spans)
    for i, (layer, start, end, parent, request) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({layer}) not closed properly")
            continue
        if parent < 0:
            if layer != ROOT:
                problems.append(f"span {i} ({layer}) has no enclosing command")
            continue
        p_layer, p_start, p_end, _, p_request = spans[parent]
        if not (p_start <= start and p_end is not None and end <= p_end):
            problems.append(f"span {i} ({layer}) escapes its parent {parent} ({p_layer})")
        if request != p_request:
            problems.append(f"span {i} ({layer}) crosses requests")
        child_time[parent] += end - start
    if problems:
        return problems
    for i, (layer, start, end, _, _) in enumerate(spans):
        if (end - start) - child_time[i] < -1e-9:
            problems.append(f"span {i} ({layer}) has negative self time")
    summary = summarize(spans)
    total = sum(summary["self"].values())
    if abs(total - summary["wall"]) > 1e-9 * max(1.0, summary["wall"]):
        problems.append(f"self times sum to {total!r}, wall is {summary['wall']!r}")
    return problems
