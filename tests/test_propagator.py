"""The Magnus propagator core: accuracy, order, error control, guards."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quadmode import characteristic, ermakov, preset_coefficients
from quadmode.characteristic import (
    _STEP_EXPONENT,
    Propagation,
    _Segments,
    _doubling_pass,
    _initial_edges,
    _prefix_products,
    build_tau_sigma,
    integrate_characteristic,
    propagate,
    propagate_stack,
)
from quadmode.coefficients import (CoefficientSet, ConstantFunction, SinusoidFunction,
                                   TableFunction)
from quadmode.config import build_grid, bundled_scenarios, load_config
from quadmode.ermakov import ErmakovInit, build_frame
from quadmode.errors import BlowUpError, QuadmodeError, StiffnessError
from quadmode.stochastic import sample_path


def dop853_basis(cs, grid):
    """(mu0, mu0', mu1, mu1') on the grid from DOP853 at rtol 1e-13."""
    tau, four_sigma = build_tau_sigma(cs)

    def rhs(t, y):
        tv, sv = tau(t), four_sigma(t)
        return (y[1], tv * y[1] - sv * y[0], y[3], tv * y[3] - sv * y[2])

    sol = solve_ivp(rhs, (0.0, grid[-1]), (0.0, 2.0 * float(cs.a(0.0)), 1.0, 0.0),
                    t_eval=grid, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y


def basis_rows(basis):
    return np.vstack([basis.mu0, basis.mu0p, basis.mu1, basis.mu1p])


def scenario_coefficients(name):
    scenario = load_config(bundled_scenarios()[name])
    grid = build_grid(scenario)
    if scenario.noise is None:
        return scenario.build_coefficients(scenario.grid.t_max), grid
    return sample_path(scenario.noise, scenario.profile, grid), grid  # realization 0


def test_static_oscillator_on_and_off_grid():
    cs = preset_coefficients("static_oscillator")
    grid = np.linspace(0.0, 10.0, 201)
    basis = integrate_characteristic(cs, grid)
    np.testing.assert_allclose(basis.mu0, np.sin(grid), rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.mu1, np.cos(grid), rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.mu0p, np.cos(grid), rtol=0, atol=1e-12)
    for t in (0.0, 0.123, math.pi, 7.77, 10.0):
        mu0, mu0p, mu1, mu1p, ell = basis.dense(t)
        assert mu0 == pytest.approx(math.sin(t), abs=1e-12)
        assert mu0p == pytest.approx(math.cos(t), abs=1e-12)
        assert mu1 == pytest.approx(math.cos(t), abs=1e-12)
        assert mu1p == pytest.approx(-math.sin(t), abs=1e-12)
        assert ell == 0.0


def test_halving_the_step_cuts_the_error_sixtyfourfold():
    # the core is of order 6: the global error falls by 2^6 per halving
    cs = preset_coefficients("parametric", depth=0.5, frequency=2.0)
    y0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact = dop853_basis(cs, np.array([0.0, 10.0]))[:, -1]
    errors = []
    for n in (80, 160):
        edges = np.linspace(0.0, 10.0, n + 1)
        seg = _Segments((cs,), edges[:-1], np.diff(edges), nested=False)
        y = _prefix_products(seg.prop[:, :, 0])[..., -1] @ y0
        errors.append(np.max(np.abs(np.array([y[0, 0], y[1, 0], y[0, 1], y[1, 1]]) - exact)))
    assert 48.0 < errors[0] / errors[1] < 80.0, errors


@pytest.mark.parametrize("name, rtol, atol", [
    ("parametric_modulation", 1e-10, 1e-12),  # run tolerance
    ("noisy_lossy_medium", 1e-8, 1e-10),      # ensemble tolerance
])
def test_doubling_estimate_meets_rtol(name, rtol, atol):
    cs, grid = scenario_coefficients(name)
    reference = dop853_basis(cs, grid)
    basis = integrate_characteristic(cs, grid, rtol=rtol, atol=atol)
    bound = atol + rtol * np.max(np.abs(reference), axis=1, keepdims=True)
    assert np.all(np.abs(basis_rows(basis) - reference) <= bound)


def test_blow_up_reports_time_within_one_step():
    # mu'' = 100 mu: mu1' = 10 sinh(10 t) is the first entry to pass 1e150
    cs = preset_coefficients("constant", a=0.5, b=-50.0)
    with pytest.raises(BlowUpError) as err:
        propagate(cs, 80.0)
    crossing = math.asinh(1e149) / 10.0
    step = _STEP_EXPONENT / 10.0  # longest step at growth rate 10
    assert crossing - step <= err.value.t <= crossing


def test_unresolvable_coefficient_stops_at_the_step_cap():
    # a 1e9 rad/s modulation is never resolved: refinement must give up
    cs = CoefficientSet(a=ConstantFunction(0.5), b=SinusoidFunction(0.5, 0.4, 1e9),
                        c=ConstantFunction(0.0), d=ConstantFunction(0.0),
                        f=ConstantFunction(0.0), g=ConstantFunction(0.0))
    with pytest.raises(StiffnessError, match="did not converge"):
        propagate(cs, 10.0)


def frame_reads(frame, t):
    """(state, z, z', lambda, angle, stars) of a frame at t, from the frame
    read of its propagation as a stack of one."""
    izc = np.array([[1j * (frame.c1 - frame.c2)]])
    return tuple(x[..., 0, :] for x in ermakov._frame_read((frame.basis.dense,), t, izc,
                                                            frame.init.beta0))


def test_driven_reads_match_grid_and_rerun_is_identical():
    # a driven and an undriven frame take the same route through the core
    init = ErmakovInit(alpha0=0.2, beta0=1.3, delta0=0.3, eps0=-0.7)
    grid = np.linspace(0.0, 6.0, 121)
    for cs in (preset_coefficients("driven", force=1.0),
               preset_coefficients("parametric", depth=0.1, frequency=2.0)):
        f1 = build_frame(cs, grid, init=init)
        f2 = build_frame(cs, grid, init=init)
        for a, b in ((f1.basis.dense.ts, f2.basis.dense.ts), (f1.z, f2.z),
                     (f1.delta_star, f2.delta_star), (f1.kappa_star, f2.kappa_star)):
            assert a.tobytes() == b.tobytes()
        _, z, _, lam, _, stars = frame_reads(f1, grid[::10])
        np.testing.assert_allclose(z, f1.z[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(lam, f1.lam[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(stars[0], f1.delta_star[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(stars[2], f1.kappa_star[::10], rtol=0, atol=1e-13)
        assert np.any(f1.kappa_star != 0.0) == cs.driven
        # step nodes follow the error estimate, not the output density
        dense = build_frame(cs, np.linspace(0.0, 6.0, 6001), init=init)
        assert dense.basis.dense.ts.tobytes() == f1.basis.dense.ts.tobytes()


def scenario_frame(name):
    """build_frame at the scenario's own solver settings (realization 0 for
    a noisy scenario)."""
    scenario = load_config(bundled_scenarios()[name])
    cs, grid = scenario_coefficients(name)
    solver = scenario.solver
    return build_frame(cs, grid, init=scenario.init,
                       rtol=solver["rtol"], atol=solver["atol"])


def node_rule_frame(name):
    """Realization 3 of noisy_lossy_medium at the ensemble tolerances, or a
    bundled scenario's frame."""
    if name != "noisy_lossy_medium":
        return scenario_frame(name)
    scenario = load_config(bundled_scenarios()[name])
    grid = build_grid(scenario)
    cs = sample_path(scenario.noise, scenario.profile, grid, path_index=3)
    return build_frame(cs, grid, init=scenario.init, rtol=1e-8, atol=1e-10)


def read_one(prop, t):
    """(state, q, r) at t from the one reader, as a stack of one."""
    state, q, r = Propagation.read_stack((prop,), t)
    return state[:, 0], None if q is None else q[0], None if r is None else r[0]


def partial_step_reads(prop, t):
    """(state, q, r) at t, each as one partial Magnus step from its left
    node, node or not: the reader's route before reads at step nodes
    became lookups."""
    k = np.clip(np.searchsorted(prop.ts, t, side="right") - 1, 0, prop.ts.size - 2)
    y_left = np.take(prop.y, k, axis=-1)
    seg = _Segments((prop.coefficients,), prop.ts[k], t - prop.ts[k],
                    nested=prop.driven is not None)
    y = characteristic._mul(seg.prop[:, :, 0], y_left)
    state = np.vstack([y[0, 0], y[1, 0], y[0, 1], y[1, 1], prop.ell[k] + seg.dell[0]])
    if prop.driven is None:
        return state, None, None
    w, u, v = seg.transport_rates(prop.driven, y_left, prop.ell[k])
    return (state, prop.q[k] + seg.q_steps(w)[0],
            prop.r[k] + seg.r_steps(w, u, v, prop.q[k])[0])


@pytest.mark.parametrize("name", ["noisy_lossy_medium", "driven_oscillator"])
def test_reads_at_step_nodes_are_the_stored_states(monkeypatch, name):
    frame = node_rule_frame(name)
    prop = frame.basis.dense
    stored = np.vstack([prop.y[0, 0], prop.y[1, 0], prop.y[0, 1], prop.y[1, 1], prop.ell])
    state, q, r = read_one(prop, prop.ts)
    assert state.tobytes() == prop(prop.ts).tobytes() == stored.tobytes()
    assert (q is None) == (r is None) == (name == "noisy_lossy_medium")
    if q is not None:
        assert q.tobytes() == prop.q.tobytes() and r.tobytes() == prop.r.tobytes()
    # before t_end, a partial step of length zero gave the same bytes
    old = partial_step_reads(prop, prop.ts)
    assert old[0][:, :-1].tobytes() == stored[:, :-1].tobytes()
    np.testing.assert_allclose(old[0][:, -1], stored[:, -1], rtol=1e-13, atol=0)
    if name == "noisy_lossy_medium":
        # the noise table's knots are the grid and steps start at knots, so
        # a grid read takes no partial step at all
        assert np.isin(frame.grid, prop.ts).all()
        monkeypatch.setattr(characteristic, "_Segments", None)
        basis = frame.basis
        assert prop(frame.grid).tobytes() == np.vstack(
            [basis.mu0, basis.mu0p, basis.mu1, basis.mu1p, basis.ell]).tobytes()


@pytest.mark.parametrize("name", ["noisy_lossy_medium", "driven_oscillator"])
def test_reads_off_the_step_nodes_are_partial_steps(name):
    prop = node_rule_frame(name).basis.dense
    mids = 0.5 * (prop.ts[:-1] + prop.ts[1:])
    # off-node times mixed with nodes, unsorted, past t_end by rounding
    t = np.concatenate([mids[::-1], prop.ts[::3], [prop.ts[-1] * (1.0 + 1e-15)]])
    off = ~np.isin(t, prop.ts)
    state, q, r = read_one(prop, t)
    old_state, old_q, old_r = partial_step_reads(prop, t[off])
    assert state[:, off].tobytes() == old_state.tobytes()
    assert prop(t)[:, off].tobytes() == old_state.tobytes()
    if q is not None:
        assert q[off].tobytes() == old_q.tobytes() and r[off].tobytes() == old_r.tobytes()


def record_passes(monkeypatch):
    """Per refinement pass: its step edges and the number of segments it
    evaluated."""
    passes = []
    init, doubling = _Segments.__init__, characteristic._doubling_pass

    def counting_init(self, rates, tl, theta, nested):
        passes[-1][1] += tl.size
        init(self, rates, tl, theta, nested)

    def recording_pass(rates, edges, *args):
        passes.append([edges.copy(), 0])
        with monkeypatch.context() as m:
            m.setattr(_Segments, "__init__", counting_init)
            return doubling(rates, edges, *args)

    monkeypatch.setattr(characteristic, "_doubling_pass", recording_pass)
    return passes


# scenarios whose refinement takes at least three passes
@pytest.mark.parametrize("name", ["parametric_modulation", "driven_oscillator"])
def test_every_pass_evaluates_its_own_steps(monkeypatch, name):
    passes = record_passes(monkeypatch)
    scenario_frame(name)
    assert len(passes) >= 3
    for edges, evaluated in passes:
        assert evaluated == 3 * (edges.size - 1)  # whole step and two halves


def noisy_path_sets(paths):
    """Coefficient sets of noisy_lossy_medium's first realizations and the
    run grid's end."""
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    grid = build_grid(scenario)
    return [sample_path(scenario.noise, scenario.profile, grid, idx) for idx in paths], grid[-1]


# 600 segments per path: the whole stack in one call, two paths per call,
# and one path per call in segment chunks
@pytest.mark.parametrize("chunk", [characteristic._CHUNK, 1500, 256])
@pytest.mark.parametrize("rtol", [1e-8, 1e-12])  # the ensemble's, and one that rejects steps
def test_stacked_pass_equals_solo_passes(monkeypatch, chunk, rtol):
    sets, t_end = noisy_path_sets(range(5))
    edges = _initial_edges(sets[0], t_end)
    assert all(np.array_equal(_initial_edges(cs, t_end), edges) for cs in sets)
    y0 = np.stack([[[0.0, 1.0], [2.0 * float(cs.a(0.0)), 0.0]] for cs in sets], axis=-1)
    solo = [_doubling_pass(sets[p:p + 1], edges, y0[..., p:p + 1], None, rtol, rtol * 1e-2)
            for p in range(len(sets))]
    monkeypatch.setattr(characteristic, "_CHUNK", chunk)
    ts, ys, ells, qs, rs, ratio, exponent, bad = _doubling_pass(sets, edges, y0, None,
                                                                rtol, rtol * 1e-2)
    assert qs is None and rs is None
    assert (ratio > 1.0).any() == (rtol < 1e-8)
    for p, (ts1, ys1, ells1, _, _, ratio1, exponent1, bad1) in enumerate(solo):
        assert ts.tobytes() == ts1.tobytes()
        for stacked, alone in ((ys[:, :, p], ys1[:, :, 0]), (ells[p], ells1[0]),
                               (ratio[p], ratio1[0]), (exponent[p], exponent1[0]),
                               (bad[p], bad1[0])):
            assert stacked.tobytes() == alone.tobytes()


def outcome(result):
    """A Propagation's arrays, or an error's class, message and t."""
    if isinstance(result, QuadmodeError):
        return type(result), str(result), result.t
    return result.ts.tobytes(), result.y.tobytes(), result.ell.tobytes()


def propagate_alone(cs, t_end, rtol):
    try:
        return propagate(cs, t_end, rtol=rtol, atol=rtol * 1e-2)
    except QuadmodeError as exc:
        return exc


def test_stacked_tables_of_a_are_each_set_alone(monkeypatch):
    # three tables of a on the same knots, each its own spline (no block):
    # the shared pass reads them as lone interpolants side by side, and
    # tau's a'/a through their stacked log_deriv
    t = np.linspace(0.0, 4.0, 41)
    half, zero = ConstantFunction(0.5), ConstantFunction(0.0)
    sets = [CoefficientSet(TableFunction(t, 0.5 + 0.1 * k * np.sin(t)), half, zero, zero, zero,
                           zero) for k in (1, 2, 3)]
    stack_sizes = []
    doubling = characteristic._doubling_pass
    monkeypatch.setattr(characteristic, "_doubling_pass", lambda rates, *args: (
        stack_sizes.append(len(rates)) or doubling(rates, *args)))
    stacked = propagate_stack(sets, 4.0)
    monkeypatch.undo()
    assert stack_sizes[0] == 3
    for cs, result in zip(sets, stacked):
        alone = propagate(cs, 4.0)
        for mine, theirs in ((result.ts, alone.ts), (result.y, alone.y), (result.ell, alone.ell)):
            assert mine.tobytes() == theirs.tobytes()


def test_stack_results_are_the_solo_results(monkeypatch):
    # sets that share their 8 starting steps: a free particle passes the
    # shared pass, the others refine alone (one to an overflow); a sine
    # that vanishes at t = 0 never joins; two noisy paths share their
    # knots, and their tables end at t = 10, inside the window
    half, zero = ConstantFunction(0.5), ConstantFunction(0.0)
    sets = [preset_coefficients("free_particle"),
            preset_coefficients("parametric", depth=0.5, frequency=2.0),
            preset_coefficients("constant", a=0.5, b=-50.0),
            CoefficientSet(SinusoidFunction(0.0, 0.5, 1.0), half, zero, zero, zero, zero),
            *noisy_path_sets([0, 1])[0],
            preset_coefficients("caldirola_kanai", rate=0.05)]
    stack_sizes = []
    doubling = characteristic._doubling_pass

    def recording_pass(rates, *args):
        stack_sizes.append(len(rates))
        return doubling(rates, *args)

    for rtol in (1e-10, 1e-3):
        stack_sizes.clear()
        monkeypatch.setattr(characteristic, "_doubling_pass", recording_pass)
        stacked = propagate_stack(sets, 40.0, rtol=rtol, atol=rtol * 1e-2)
        monkeypatch.undo()
        # one pass of the four, one of the two noisy paths (which raises,
        # so each takes it again alone), and refinement passes alone
        assert stack_sizes[0] == 4 and stack_sizes.count(2) == 1
        assert stack_sizes.count(1) == len(stack_sizes) - 2 > 2
        for cs, result in zip(sets, stacked):
            assert outcome(result) == outcome(propagate_alone(cs, 40.0, rtol))
        assert [type(r).__name__ for r in stacked] == [
            "Propagation", "Propagation", "BlowUpError", "SingularCoefficientError",
            "CoefficientEvaluationError", "CoefficientEvaluationError", "Propagation"]
