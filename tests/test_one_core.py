"""One of each under src/quadmode.  The package integrates through one core,
and the two independent oracles, whose value is that they share nothing
with it, through one direct solver: scipy's ODE integrators are named only
inside that function.  scipy is imported by no module-level statement,
only inside the two functions that call it, that solver and the table
spline, so a run of analytic coefficients never loads it.  And a config
number is checked by one rule: the "not a boolean" test of a number is
written only in errors._number, and a config object by one rule: its "a
JSON object" test is written only in errors._object.  The OU
and telegraph draws are each written once, and partial Magnus steps are
built only by the refinement pass and the one read helper.  One refinement
loop takes every doubling pass, an ensemble chunk's shared one
included.  Medium positivity is judged by one scan, whose failure is also
the sampler's only redraw signal, and a(0) by one rule.  Every time read
is judged against its window by one rule, which alone computes a read
slack.  A propagation is read into a frame in one place, a solo path's and
an ensemble chunk's alike, through its one reader, which alone finds a
t's left step node, and every frame is assembled by one route: alpha,
beta, delta and eps are each written once, and every ermakov or
characteristic function an
ensemble calls is one a run calls too.  An ensemble chunk is one
coefficient set with a column per path: each stage takes it in one call,
and nothing regroups paths by object identity or by bytes.  The invariant
checks that run and verify share are built in one function, over one
uncertainty floor and one guard band around the poles of the principal
pieces, a constant that no function takes as a parameter, and every
manifest is written by one function, which alone adds the entries all
manifests share.  The medium's tau is written once.  Both direct solves
read every coefficient through its one scalar read.  The coefficient
layer has one piecewise polynomial, the table, which is also its own
derivative and a medium's running integral, and no coefficient class
forwards its reads to another's."""

import ast
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import quadmode
from quadmode import characteristic, cli, coefficients, ermakov, stochastic, verify
from quadmode.coefficients import (ConstantFunction, ExponentialFunction, MediumProfile,
                                   SinusoidFunction, TableFunction)
from quadmode.config import build_grid, bundled_scenarios, load_config

SRC = Path(quadmode.__file__).resolve().parent
INTEGRATORS = ("ode", "solve_ivp")
DIRECT_SOLVER = ("characteristic.py", "_dop853_on_grid")


def _mentions(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id in INTEGRATORS)
            or (isinstance(node, ast.Attribute) and node.attr in INTEGRATORS)
            or (isinstance(node, ast.alias)
                and any(name in INTEGRATORS for name in (node.name, node.asname)))
            or (isinstance(node, ast.Constant) and node.value in INTEGRATORS))


def test_scipy_integrators_only_in_the_direct_solver():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == DIRECT_SOLVER:
                allowed.update(map(id, ast.walk(node)))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _mentions(node) and id(node) not in allowed]
    assert not offenders, offenders


def _isinstance_tests(kind: str) -> list:
    """(file, top-level function or class) of every `isinstance(x, kind)`,
    `kind` alone or in a tuple, sorted."""
    def tests(node) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return False
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(isinstance(k, ast.Name) and k.id == kind for k in kinds)

    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            found += [(path.name, getattr(stmt, "name", "<module>"))
                      for node in ast.walk(stmt) if tests(node)]
    return sorted(found)


def test_number_rule_written_once():
    # grid.adaptive is the one config value that is a boolean
    assert _isinstance_tests("bool") == [("config.py", "_parse_grid"), ("errors.py", "_number")]


def test_object_rule_written_once():
    # an object, only its keys, its required keys present: one function
    # judges every config object, and the key check it replaced is gone
    assert _isinstance_tests("dict") == [("errors.py", "_object")]
    assert not [path.name for path in SRC.glob("*.py") if "_only_keys" in path.read_text()]


def _functions_calling(attr: str):
    """(file, top-level function or class) of every call of `<x>.attr`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            found += [(path.name, getattr(stmt, "name", "<module>"))
                      for node in ast.walk(stmt)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == attr]
    return found


def test_one_rule_makes_an_angle_continuous():
    # the frame reader takes arg z's branch from the core's step nodes; no
    # second unwrap over an output grid
    assert _functions_calling("unwrap") == [("ermakov.py", "read_frame")]


def test_failure_time_is_set_in_one_place():
    owners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            owners += [(path.name, cls.name) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and node.attr == "t"
                       and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name) and node.value.id == "self"]
    assert owners == [("errors.py", "QuadmodeError")]


def test_fock_index_bound_written_once():
    bounds = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bounds += [path.name for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                   and getattr(node.left, "value", None) == 2
                   and getattr(node.right, "value", None) == 52]
    assert bounds == ["errors.py"]


def _enclosing_functions(matches):
    """(file, Class.function or function) of every node `matches` accepts,
    named by its innermost enclosing function."""
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if matches(node):
            found.append((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, ())
    return found


def _imports(package: str):
    """A matcher of the import statements of `package` or its submodules."""
    def matches(node) -> bool:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            return False
        return any(name == package or name.startswith(package + ".") for name in names)
    return matches


def test_scipy_imported_only_where_it_is_called():
    # no module-level statement imports scipy; each of its modules is
    # imported inside the one function that calls it, on its first call
    assert _enclosing_functions(_imports("scipy")) == [("characteristic.py", "_dop853_on_grid"),
                                                       ("coefficients.py", "_uniform_spline")]
    assert _enclosing_functions(_imports("scipy.interpolate")) == [("coefficients.py",
                                                                    "_uniform_spline")]


def test_ou_draw_written_once():
    # one- and many-path sampling share the block routine
    assert _functions_calling("standard_normal") == [("stochastic.py", "_noise_block")]


def test_telegraph_draws_one_uniform_per_grid_point():
    # the telegraph chain reads one uniform per grid point in the block
    # routine; no holding time is drawn anywhere
    assert _functions_calling("random") == [("stochastic.py", "_noise_block")]
    assert _functions_calling("exponential") == []


def test_partial_steps_built_in_two_places():
    # the refinement pass and the one read helper; every other read is a
    # lookup at a step node
    built = _enclosing_functions(lambda node: isinstance(node, ast.Call)
                                 and isinstance(node.func, ast.Name)
                                 and node.func.id == "_Segments")
    assert built == [("characteristic.py", "Propagation.read"),
                     ("characteristic.py", "_doubling_pass")]


def test_frames_read_in_one_place():
    # a solo frame, an ensemble chunk's frame and every read off the grid
    # (closed_form_path at given times) are read_frame of a propagation,
    # which is the one reader of a propagation: it has no second door
    calls = _enclosing_functions(lambda node: isinstance(node, ast.Call)
                                 and getattr(node.func, "attr", None) == "read")
    assert calls == [("ermakov.py", "read_frame")]
    assert "__call__" not in vars(characteristic.Propagation)


def test_a_left_node_is_found_in_one_place():
    # Propagation.read finds each t's left step node and hands it to
    # read_frame, which anchors arg z there without a second search
    assert _enclosing_functions(lambda node: isinstance(node, ast.Call)
                                and getattr(node.func, "attr", None) == "searchsorted") == [
        ("characteristic.py", "Propagation.read")]


def test_one_rule_computes_a_read_slack():
    # every time read (a table's, eval_coeffs', a propagation's, and the
    # config's table covers) is judged by coefficients._first_outside; the
    # 1e-9 of _initial_edges trims knots next to the window's ends, a rule
    # of where steps start, not of where a read may fall
    slacks = _enclosing_functions(lambda node: isinstance(node, ast.Constant)
                                  and node.value == 1e-9)
    assert sorted(set(slacks)) == [("characteristic.py", "_initial_edges"),
                                   ("coefficients.py", "_first_outside")]
    assert set(_enclosing_functions(lambda node: isinstance(node, ast.Name)
                                    and node.id == "slack")) == {
        ("coefficients.py", "_first_outside")}


def test_a_frame_is_one_record_made_in_one_place():
    # only read_frame makes a ComplexFrame, and the characteristic basis is
    # a frame's own fields (integrate_characteristic returns the unforced
    # set's frame): no second record, and no `.basis` hop to one
    made = _enclosing_functions(lambda node: isinstance(node, ast.Call) and "ComplexFrame" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert made == [("ermakov.py", "read_frame")]
    assert _enclosing_functions(lambda node: isinstance(node, ast.Attribute)
                                and node.attr == "basis") == []
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "CharacteristicBasis" in path.read_text()] == []


def _entered(command):
    """((file, function), caller's file) of every ermakov or characteristic
    function entered while `command` runs."""
    files = {module.__file__: Path(module.__file__).name
             for module in (characteristic, ermakov, stochastic)}
    entered = set()

    def profile(frame, event, arg):
        name = files.get(frame.f_code.co_filename)
        if event == "call" and name in ("characteristic.py", "ermakov.py"):
            caller = frame.f_back.f_code.co_filename if frame.f_back else None
            entered.add(((name, frame.f_code.co_name), files.get(caller)))

    sys.setprofile(profile)
    try:
        assert command() == 0
    finally:
        sys.setprofile(None)
    return entered


def test_an_ensemble_takes_the_run_path(tmp_path):
    # every ermakov or characteristic function that stochastic calls is
    # one that a run calls too: a chunk takes no route of its own
    run = {function for function, _ in _entered(
        lambda: cli.main(["run", "noisy_lossy_medium", "--out", str(tmp_path / "run")]))}
    ensemble = {function for function, caller in _entered(
        lambda: cli.main(["ensemble", "noisy_lossy_medium", "--paths", "4",
                          "--out", str(tmp_path / "ensemble")]))
        if caller == "stochastic.py"}
    assert {("ermakov.py", "read_frame"), ("ermakov.py", "closed_form_path")} <= ensemble
    assert ensemble <= run, ensemble - run


def test_one_refinement_loop_takes_every_pass():
    # a solo propagation and an ensemble chunk's stack refine through the
    # same loop: no second pass or loop beside it
    calls = _enclosing_functions(lambda node: isinstance(node, ast.Call)
                                 and isinstance(node.func, ast.Name)
                                 and node.func.id == "_doubling_pass")
    assert calls == [("characteristic.py", "propagate_stack")]
    tree = ast.parse((SRC / "characteristic.py").read_text())
    refine = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "propagate_stack")
    (loop,) = [node for node in ast.walk(refine) if isinstance(node, ast.While)]
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_doubling_pass"
               for node in ast.walk(loop))


def _builds(error: str, text: str = ""):
    """Where `error(...)` is built, with `text` in its message when given."""
    return _enclosing_functions(
        lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == error
        and (not text or any(isinstance(arg, ast.Constant) and text in str(arg.value)
                             for arg in node.args)))


def test_positivity_judged_in_one_place():
    # the sampler redraws on the medium's error; it judges no xi or eta
    # itself, and a single profile's mapping is the stack of one
    assert _builds("InvalidMediumError") == [("coefficients.py", "medium_to_hamiltonian_stack")]
    tree = ast.parse((SRC / "stochastic.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("xi", "eta")]


def test_the_sampler_maps_no_profile_itself():
    # a draw reaches sample_path already mapped (a coefficient set or the
    # mapping's error), so no profile is told apart from a set
    tree = ast.parse((SRC / "stochastic.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and "MediumProfile" in ast.unparse(node.args[1])]


def test_kinetic_start_rule_written_once():
    # the core's initial data and the frame constants both divide by a(0)
    assert _builds("SingularCoefficientError", "a(0)") == [("characteristic.py",
                                                             "initial_kinetic")]


def _assigned(name: str, value=lambda node: True):
    """(file, function) of every assignment to `name` whose value `value`
    accepts."""
    return _enclosing_functions(lambda node: isinstance(node, ast.Assign) and value(node.value)
                                and any(isinstance(target, ast.Name) and target.id == name
                                        for target in node.targets))


def test_frame_formulas_written_once():
    # build_frame's stack of one and an ensemble chunk's stack assemble
    # through the same lines; alpha's formula is one function, which the
    # driven transport calls too
    assert _enclosing_functions(lambda node: isinstance(node, ast.FunctionDef)
                                and node.name == "_alpha") == [("ermakov.py", "_alpha")]
    for name in ("beta", "delta", "eps"):
        assert _assigned(name) == [("ermakov.py", "closed_form_path")], name
    def calls_alpha(value):
        return isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_alpha"

    assert _assigned("alpha", lambda value: not calls_alpha(value)) == []


def test_the_guard_band_is_one_constant():
    # the principal pieces are NaN where |mu0| < verify._GUARD max|mu0|, per
    # path, for every caller: no function takes a band of its own
    def takes_guard(node):
        return isinstance(node, (ast.FunctionDef, ast.Lambda)) and "guard" in [
            arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]

    assert _enclosing_functions(takes_guard) == []
    assert _assigned("_GUARD") == [("verify.py", "")]


def test_no_path_is_keyed_by_identity_or_bytes():
    # a chunk's paths are the columns of one set: no stage groups them by
    # the objects they hold (id) or by the bytes of their arrays (tobytes)
    keys = _enclosing_functions(lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "id" or getattr(node.func, "attr", None) == "tobytes"))
    assert keys == []


def test_the_sampler_takes_no_outside_draw():
    # a path's draws are its own, alone as in a chunk: no caller hands the
    # sampler a draw mapped elsewhere
    assert list(inspect.signature(stochastic.sample_path).parameters) == [
        "spec", "base", "grid", "path_index"]


def test_every_ensemble_stage_takes_a_chunk_as_one_call(monkeypatch):
    # one chunk of 64 chi-noise paths that all keep their shared steps:
    # the draw, its mapping, the core, the frame read, the assembly and
    # both observables are each one call on the chunk's 64 paths
    calls = []

    def recording(name, fn, width):
        def call(*args, **kwargs):
            calls.append((name, width(*args)))
            return fn(*args, **kwargs)
        return call

    for name, width in (("sample_path", lambda spec, base, grid, paths: len(paths)),
                        ("medium_to_hamiltonian_stack", lambda profile, t_max: profile.width),
                        ("propagate_stack", lambda cs, *args: cs.width),
                        ("read_frame", lambda prop, *args: prop.coefficients.width),
                        ("closed_form_path", lambda frame, *args: frame.coefficients.width),
                        ("means", lambda path: path.beta.shape[0]),
                        ("variances", lambda path, n: path.beta.shape[0])):
        monkeypatch.setattr(stochastic, name, recording(name, getattr(stochastic, name), width))
    spec = stochastic.NoiseSpec(target="chi", model="ornstein_uhlenbeck", amplitude=0.05,
                                correlation_time=1.0, seed=17, paths=stochastic._CHUNK_PATHS)
    base = MediumProfile(xi=ConstantFunction(1.0), eta=ConstantFunction(1.0),
                         chi=ConstantFunction(0.1))
    summary = stochastic.run_ensemble(spec, base, grid=np.linspace(0, 2, 41))
    assert summary.n_failed == 0
    assert calls == [(name, 64) for name in ("sample_path", "medium_to_hamiltonian_stack",
                                             "propagate_stack", "read_frame", "closed_form_path",
                                             "means", "variances")]


def test_the_shared_invariant_checks_are_built_in_one_function():
    # run and verify judge the commutator, the Wronskian law and the
    # quasi-invariants through one suite, and the uncertainty product
    # against one floor (n + 1/2)^2
    shared = ("commutator", "wronskian", "quasi_invariants")

    def is_check(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"

    def builds_shared(node):
        if isinstance(node, ast.Dict):
            return any(getattr(key, "value", None) in shared and is_check(value)
                       for key, value in zip(node.keys, node.values))
        return (isinstance(node, ast.Assign) and is_check(node.value)
                and any(isinstance(target, ast.Subscript)
                        and getattr(target.slice, "value", None) in shared
                        for target in node.targets))

    assert _enclosing_functions(builds_shared) == [("verify.py", "invariant_checks")]
    floors = _enclosing_functions(lambda node: isinstance(node, ast.BinOp)
                                  and isinstance(node.op, ast.Pow)
                                  and isinstance(node.left, ast.BinOp)
                                  and getattr(node.left.right, "value", None) == 0.5)
    assert floors == [("verify.py", "uncertainty_floor")]


def test_every_manifest_is_written_by_one_function():
    # run and ensemble hand their own entries to one epilogue, which alone
    # adds the entries every manifest shares and the verdict, and alone
    # calls _write_manifest
    shared = {"command", "name", "version", "config", "grid_points", "outputs", "all_passed"}

    def sets_shared(node):
        if isinstance(node, ast.Dict):
            return any(getattr(key, "value", None) in shared for key in node.keys)
        return isinstance(node, ast.keyword) and node.arg in shared

    def writes_manifest(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_manifest"

    assert {found for found in _enclosing_functions(sets_shared)
            if found[0] == "cli.py"} == {("cli.py", "_emit")}
    assert _enclosing_functions(writes_manifest) == [("cli.py", "_emit")]


def test_the_medium_tau_is_written_once():
    # tau = -(chi + xi')/xi is the log-derivative of the medium's a; the
    # core's rates read it there
    def medium_tau(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and sorted(map(ast.unparse, (node.left, node.right))) == ["chi(t)", "xi.deriv(t)"])

    assert _enclosing_functions(medium_tau) == [("coefficients.py", "_medium_set")]


def test_only_the_table_holds_a_spline():
    # TableFunction is the one piecewise polynomial (a table, its derivative
    # and a medium's running integral): only it, and the spline solve it
    # calls, name scipy's spline, a PPoly or a table's PPoly (`.pp`)
    def spline(node):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name in ("pp", "CubicSpline", "PPoly", "construct_fast")

    owners = {scope.split(".")[0] for _, scope in _enclosing_functions(spline)}
    assert owners == {"TableFunction", "_uniform_spline"}


def test_no_coefficient_class_forwards_its_reads():
    # each coefficient class reads for itself: no __call__ ends by handing
    # t to an interpolant it holds (self._x(t)), and no class takes another
    # object's scalar read as its own (self.scalar = x.scalar)
    def forwards(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__call__":
            func = getattr(getattr(node.body[-1], "value", None), "func", None)
            return (isinstance(func, ast.Attribute) and func.attr != "scalar"
                    and getattr(func.value, "id", None) == "self")
        return (isinstance(node, ast.Assign) and getattr(node.value, "attr", None) == "scalar"
                and any(getattr(target, "attr", None) == "scalar" for target in node.targets))

    assert [found for found in _enclosing_functions(forwards)
            if found[0] == "coefficients.py"] == []


def test_the_direct_solves_read_each_coefficient_by_its_scalar_read(monkeypatch):
    # both oracles bind every coefficient's scalar read before the solve:
    # on each bundled scenario (the noisy one's path 0), no generic read of
    # any coefficient class (its __call__) is made once a direct solve's
    # DOP853 loop has started, over thousands of right-hand-side calls
    generic, solves = Counter(), []

    def counted(cls):
        real = cls.__call__

        def call(self, t):
            generic[cls.__name__] += 1
            return real(self, t)
        return call

    for cls in (ConstantFunction, ExponentialFunction, SinusoidFunction, TableFunction,
                coefficients._LinearIntegral, coefficients.MediumExponential):
        monkeypatch.setattr(cls, "__call__", counted(cls))
    solver = characteristic._dop853_on_grid

    def counting_solver(rhs, *args, **kwargs):
        started = Counter()

        def call(t, y):
            if not started:
                started.update(generic, rhs=0)
            started["rhs"] += 1
            return rhs(t, y)
        out = solver(call, *args, **kwargs)
        solves.append((started.pop("rhs"), started, dict(generic)))
        return out

    monkeypatch.setattr(characteristic, "_dop853_on_grid", counting_solver)
    monkeypatch.setattr(verify, "_dop853_on_grid", counting_solver)
    for name, path in sorted(bundled_scenarios().items()):
        scenario = load_config(path)
        cs = scenario.build_coefficients()
        grid = build_grid(scenario, cs)
        if scenario.noise is not None:
            cs = stochastic.sample_path(scenario.noise, scenario.profile, grid)
        solves.clear()
        verify.riccati_oracle(cs, grid, init=scenario.init, rtol=1e-8, atol=1e-10)
        if cs.medium is not None:
            characteristic.classical_mode_equivalence(cs.medium, grid)
        assert len(solves) == (1 + (cs.medium is not None)
                               + (not (cs.c.is_zero and cs.d.is_zero))), name
        for rhs_calls, at_start, at_end in solves:
            assert rhs_calls > 100 and at_end == at_start, (name, rhs_calls, at_start, at_end)
