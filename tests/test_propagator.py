"""The Magnus propagator core: accuracy, order, error control, guards."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quadmode import characteristic, preset_coefficients
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
from quadmode.coefficients import (_ZERO, CoefficientSet, ConstantFunction, SinusoidFunction,
                                   TableFunction, medium_to_hamiltonian_stack)
from quadmode.config import build_grid, bundled_scenarios, load_config, parse_config
from quadmode.ermakov import ErmakovInit, build_frame, closed_form_path, read_frame
from quadmode.errors import BlowUpError, CoefficientEvaluationError, QuadmodeError, StiffnessError
from quadmode.observables import heisenberg_residual
from quadmode.stochastic import _perturbed, sample_path
from quadmode.verify import principal_pieces, quasi_invariants, riccati_oracle, wronskian_drift


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
        mu0, mu0p, mu1, mu1p, ell = basis.dense.read(t)[0][:, 0, 0]
        assert mu0 == pytest.approx(math.sin(t), abs=1e-12)
        assert mu0p == pytest.approx(math.cos(t), abs=1e-12)
        assert mu1 == pytest.approx(math.cos(t), abs=1e-12)
        assert mu1p == pytest.approx(-math.sin(t), abs=1e-12)
        assert ell == 0.0


def general_omega(theta, tau, four_sigma):
    """Omega from the general 2x2 commutator on full entry tuples, the
    zeros of alpha1's (0, 0) entry and of the first rows of alpha2 and
    alpha3 included."""
    (t1, t2, t3), (s1, s2, s3) = tau, four_sigma
    k2, k3 = math.sqrt(15.0) / 3.0 * theta, 10.0 / 3.0 * theta
    a1 = (0.0, theta, -theta * s2, theta * t2)
    a2 = (0.0, 0.0, k2 * (s1 - s3), k2 * (t3 - t1))
    a3 = (0.0, 0.0, k3 * (2.0 * s2 - s1 - s3), k3 * (t1 - 2.0 * t2 + t3))
    c1 = characteristic._commutator(a1, a2)
    c2 = tuple(-x / 60.0 for x in characteristic._commutator(
        a1, [2.0 * x + y for x, y in zip(a3, c1)]))
    outer = characteristic._commutator([c - 20.0 * x - z for x, c, z in zip(a1, c1, a3)],
                                       [x + y for x, y in zip(a2, c2)])
    return tuple(x + z / 12.0 + w / 240.0 for x, z, w in zip(a1, a3, outer))


def test_magnus_exponent_skips_only_known_zeros():
    # steps with varying, constant and zero rates: Omega equals the general
    # form entry for entry, and its exponential is the same to the bit (the
    # (0, 0) entry may differ in the sign of an exact zero, which exp drops)
    rng = np.random.default_rng(11)
    m = 4000
    theta = rng.uniform(1e-4, 1.0, m)
    tau = rng.normal(size=(3, m)) * rng.choice([0.0, 1e-8, 1.0, 1e3], size=m)
    four_sigma = rng.normal(size=(3, m)) * rng.choice([0.0, 1e-8, 1.0, 1e3], size=m)
    constant = rng.random(m) < 0.3
    tau[:, constant] = tau[1, constant]
    four_sigma[:, constant] = np.abs(four_sigma[1, constant])
    four_sigma[:, :8] = -0.0
    tau[:, 4:12] = -0.0  # a static medium's tau
    with np.errstate(all="ignore"):  # the steps with large rates overflow exp
        ours = characteristic._omega(theta, tau, four_sigma)
        general = general_omega(theta, tau, four_sigma)
        for x, y in zip(ours, general):
            assert np.array_equal(x, y)
        for x, y in zip(characteristic._expm2(*ours), characteristic._expm2(*general)):
            assert x.tobytes() == y.tobytes()


def test_halving_the_step_cuts_the_error_sixtyfourfold():
    # the core is of order 6: the global error falls by 2^6 per halving
    cs = preset_coefficients("parametric", depth=0.5, frequency=2.0)
    y0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact = dop853_basis(cs, np.array([0.0, 10.0]))[:, -1]
    errors = []
    for n in (80, 160):
        edges = np.linspace(0.0, 10.0, n + 1)
        seg = _Segments(cs, edges[:-1], np.diff(edges), nested=False)
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
    with pytest.raises(StiffnessError, match="did not converge") as err:
        propagate(cs, 10.0)
    assert "step cap of 200000 half steps" in str(err.value)


def test_unresolvable_force_stops_at_the_smallest_step():
    # forces of 1e200 keep the transport's estimate past any tolerance
    # while the steps halve down to 64 ulp of t_end, at t = 0
    cs = CoefficientSet(a=ConstantFunction(0.5), b=ConstantFunction(0.5),
                        c=ConstantFunction(0.0), d=ConstantFunction(0.0),
                        f=ConstantFunction(1e200), g=ConstantFunction(1e200))
    with pytest.raises(StiffnessError, match="did not converge above the smallest step") as err:
        build_frame(cs, np.linspace(0.0, 10.0, 201))
    assert err.value.t == 0.0


def test_refinement_stops_at_the_pass_cap(monkeypatch):
    # parametric_modulation refines in three passes or more
    monkeypatch.setattr(characteristic, "_MAX_PASSES", 2)
    with pytest.raises(StiffnessError, match="did not converge within the pass cap of 2 "):
        scenario_frame("parametric_modulation")


def test_driven_reads_match_grid_and_rerun_is_identical():
    # a driven and an undriven frame take the same route through the core
    init = ErmakovInit(alpha0=0.2, beta0=1.3, delta0=0.3, eps0=-0.7)
    grid = np.linspace(0.0, 6.0, 121)
    for cs in (preset_coefficients("driven", force=1.0),
               preset_coefficients("parametric", depth=0.1, frequency=2.0)):
        f1 = build_frame(cs, grid, init=init)
        f2 = build_frame(cs, grid, init=init)
        for a, b in ((f1.dense.ts, f2.dense.ts), (f1.z, f2.z),
                     (f1.delta_star, f2.delta_star), (f1.kappa_star, f2.kappa_star)):
            assert a.tobytes() == b.tobytes()
        coarse = read_frame(f1.dense, grid[::10], init)
        np.testing.assert_allclose(coarse.z, f1.z[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(coarse.lam, f1.lam[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(coarse.delta_star, f1.delta_star[::10], rtol=0, atol=1e-13)
        np.testing.assert_allclose(coarse.kappa_star, f1.kappa_star[::10], rtol=0, atol=1e-13)
        assert np.any(f1.kappa_star != 0.0) == cs.driven
        # step nodes follow the error estimate, not the output density
        fine = build_frame(cs, np.linspace(0.0, 6.0, 6001), init=init)
        assert fine.dense.ts.tobytes() == f1.dense.ts.tobytes()


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
    """(state, q, r) at t from the one reader, of a propagation's one path."""
    state, q, r, _ = prop.read(t)
    return state[:, 0], None if q is None else q[0], None if r is None else r[0]


def partial_step_reads(prop, t):
    """(state, q, r) at t, each as one partial Magnus step from its left
    node, node or not: the reader's route before reads at step nodes
    became lookups."""
    k = np.clip(np.searchsorted(prop.ts, t, side="right") - 1, 0, prop.ts.size - 2)
    y, ell = prop.y[:, :, 0], prop.ell[0]  # the stored nodes of the one path
    y_left = np.take(y, k, axis=-1)
    seg = _Segments(prop.coefficients, prop.ts[k], t - prop.ts[k],
                    nested=prop.driven is not None)
    y = characteristic._mul(seg.prop[:, :, 0], y_left)
    state = np.vstack([y[0, 0], y[1, 0], y[0, 1], y[1, 1], ell[k] + seg.dell[0]])
    if prop.driven is None:
        return state, None, None
    q, r = prop.q[0], prop.r[0]
    w, u, v = seg.transport_rates(prop.driven, y_left, ell[k])
    return state, q[k] + seg.q_steps(w)[0], r[k] + seg.r_steps(w, u, v, q[k])[0]


@pytest.mark.parametrize("name", ["noisy_lossy_medium", "driven_oscillator"])
def test_reads_at_step_nodes_are_the_stored_states(monkeypatch, name):
    frame = node_rule_frame(name)
    prop = frame.dense
    stored = np.vstack([prop.y[0, 0], prop.y[1, 0], prop.y[0, 1], prop.y[1, 1], prop.ell])
    state, q, r = read_one(prop, prop.ts)
    assert state.tobytes() == stored.tobytes()
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
        assert read_one(prop, frame.grid)[0].tobytes() == np.vstack(
            [frame.mu0, frame.mu0p, frame.mu1, frame.mu1p, frame.ell]).tobytes()


@pytest.mark.parametrize("name", ["noisy_lossy_medium", "driven_oscillator"])
def test_reads_off_the_step_nodes_are_partial_steps(name):
    prop = node_rule_frame(name).dense
    mids = 0.5 * (prop.ts[:-1] + prop.ts[1:])
    # off-node times mixed with nodes, unsorted, past t_end by rounding
    t = np.concatenate([mids[::-1], prop.ts[::3], [prop.ts[-1] * (1.0 + 1e-15)]])
    off = ~np.isin(t, prop.ts)
    state, q, r = read_one(prop, t)
    old_state, old_q, old_r = partial_step_reads(prop, t[off])
    assert state[:, off].tobytes() == old_state.tobytes()
    # each t's left step node, which read_frame anchors arg z at
    left = prop.read(t)[3]
    assert (prop.ts[left] <= t).all() and (t < np.append(prop.ts, math.inf)[left + 1]).all()
    assert left[-1] == prop.ts.size - 1
    if q is not None:
        assert q[off].tobytes() == old_q.tobytes() and r[off].tobytes() == old_r.tobytes()


@pytest.mark.parametrize("name", ["static_oscillator", "lossy_medium", "driven_oscillator"])
def test_reads_outside_the_window_raise(name):
    # no read extrapolates by one long partial step from the last node
    # (gamma(30) on static_oscillator would read -5.575, exact -15), and a
    # set whose coefficients have no window is stopped all the same
    frame = scenario_frame(name)
    prop = frame.dense
    assert prop.ts[-1] == 10.0
    for t in (12.0, 30.0, -1.0, math.nan):
        with pytest.raises(CoefficientEvaluationError, match="window") as info:
            closed_form_path(frame, [t])
        assert info.value.name == "window"
        assert info.value.t == t or math.isnan(t) and math.isnan(info.value.t)
    end = read_frame(prop, np.array([10.0]), frame.init)
    stored = [prop.y[0, 0, 0], prop.y[1, 0, 0], prop.y[0, 1, 0], prop.y[1, 1, 0], prop.ell[0]]
    for mine, node in zip((end.mu0, end.mu0p, end.mu1, end.mu1p, end.ell), stored):
        assert mine.tobytes() == node[-1:].tobytes()


def test_the_basis_is_the_frame_of_the_unforced_set():
    # f is tabulated on knots that a-d do not share, and g is not zero: the
    # basis steps neither at f's knots nor with the transport
    knots = np.linspace(0.0, 10.0, 37)
    cs = CoefficientSet(ConstantFunction(0.5), SinusoidFunction(1.0, 0.2, 1.7), _ZERO, _ZERO,
                        TableFunction(knots, np.cos(0.9 * knots)), ConstantFunction(0.25))
    grid = np.linspace(0.0, 10.0, 201)
    basis = integrate_characteristic(cs, grid, rtol=1e-9, atol=1e-11)
    unforced = build_frame(replace(cs, f=_ZERO, g=_ZERO), grid, rtol=1e-9, atol=1e-11)
    for name in ("mu0", "mu0p", "mu1", "mu1p", "ell", "lam"):
        assert getattr(basis, name).tobytes() == getattr(unforced, name).tobytes()
    assert basis.dense.ts.tobytes() == unforced.dense.ts.tobytes()
    assert basis.dense.driven is None


def test_a_driven_adaptive_grid_is_the_unforced_sets_step_nodes():
    # the run's frame refines with the transport, so some of the grid's
    # points are read by partial steps
    raw = load_config(bundled_scenarios()["driven_oscillator"]).raw
    scenario = parse_config(dict(raw, grid={"t_max": 10.0, "adaptive": True}))
    cs = scenario.build_coefficients(10.0)
    grid = build_grid(scenario, cs)
    solver = scenario.solver
    basis = integrate_characteristic(cs, grid, rtol=solver["rtol"], atol=solver["atol"])
    frame = build_frame(cs, grid, init=scenario.init, rtol=solver["rtol"], atol=solver["atol"])
    assert grid.tobytes() == basis.dense.ts.tobytes()
    assert (grid.size, frame.dense.ts.size) == (33, 163)
    assert np.count_nonzero(~np.isin(grid, frame.dense.ts)) == 6


class ReferenceSegments:
    """_Segments as it was taken stage by stage: the whole step and each
    of the three sub-steps in its own _omega/_expm2/_quadrature call, and
    one call of `driven` per Gauss node, each over every segment."""

    def __init__(self, cs, tl, theta, nested):
        self.tl, self.theta = tl, theta
        paths = cs.width or 1
        span = max(1, characteristic._CHUNK // paths)
        with np.errstate(all="ignore"):
            chunks = [self._chunk(cs, paths, tl[i:i + span], theta[i:i + span], nested)
                      for i in range(0, tl.size, span)]
        parts = [characteristic._concatenate(field, axis=-1) for field in zip(*chunks)]
        self.prop, self.exponent, self.dell = parts[:3]
        if nested:
            self.sub_prop, self.sub_dell = parts[3:]

    @staticmethod
    def _chunk(cs, paths, tl, theta, nested):
        gauss, omega, expm2 = characteristic._GAUSS, characteristic._omega, characteristic._expm2
        quadrature = characteristic._quadrature
        m = tl.size
        nodes = [tl + c * theta for c in gauss]
        if nested:
            nodes += [tl + ci * cj * theta for ci in gauss for cj in gauss]
        tau, four_sigma, ell_rate = (x.reshape(paths, -1, m).swapaxes(0, 1).reshape(-1, paths * m)
                                     for x in characteristic._rates(cs, paths,
                                                                    np.concatenate(nodes)))
        theta = characteristic._concatenate([theta] * paths, axis=0)
        parts = [*expm2(*omega(theta, tau[:3], four_sigma[:3])), quadrature(theta, ell_rate[:3])]
        if nested:
            sub = [slice(3 + 3 * i, 6 + 3 * i) for i in range(3)]
            parts += [np.stack([expm2(*omega(c * theta, tau[r], four_sigma[r]))[0]
                                for c, r in zip(gauss, sub)]),
                      np.stack([quadrature(c * theta, ell_rate[r]) for c, r in zip(gauss, sub)])]
        return [x.reshape(x.shape[:-1] + (paths, m)) for x in parts]

    def transport_rates(self, driven, y_left, ell_left):
        terms = [driven(self.tl + c * self.theta, characteristic._mul(self.sub_prop[i], y_left),
                        ell_left + self.sub_dell[i])
                 for i, c in enumerate(characteristic._GAUSS)]
        return [np.stack(parts) for parts in zip(*terms)]

    def q_steps(self, w):
        return characteristic._quadrature(self.theta, w)

    def r_steps(self, w, u, v, q_left):
        stages = [q_left + self.theta * (c0 * w[0] + c1 * w[1] + c2 * w[2])
                  for c0, c1, c2 in characteristic._COLLOCATION]
        return characteristic._quadrature(self.theta, [(q * u[i]).imag + (q * q * v[i]).real
                                                       for i, q in enumerate(stages)])


def driven_sets():
    """Driven coefficient sets: constant, sinusoidal and tabulated f, the
    last with a nonzero g.  The last two modulate b the same way, so that
    the rates, and with them every sub-step, depend on the node times."""
    times = np.linspace(0.0, 10.0, 41)
    zero = ConstantFunction(0.0)
    return {"constant": preset_coefficients("driven", force=1.0),
            "sinusoid": CoefficientSet(a=ConstantFunction(0.5), b=SinusoidFunction(0.5, 0.3, 2.0),
                                       c=zero, d=zero, f=SinusoidFunction(0.2, 0.7, 1.3), g=zero),
            "table": CoefficientSet(a=ConstantFunction(0.5),
                                    b=TableFunction(times, 0.5 + 0.2 * np.sin(1.7 * times)),
                                    c=zero, d=zero, f=TableFunction(times, np.cos(0.9 * times)),
                                    g=ConstantFunction(0.25))}


def off_node_segments(prop, t):
    """The partial steps a read of the times t off the step nodes takes:
    (tl, theta) and the stored y, ell and q at their left nodes."""
    t = t[~np.isin(t, prop.ts)]
    k = np.minimum(np.searchsorted(prop.ts, t, side="right") - 1, prop.ts.size - 2)
    return (prop.ts[k], t - prop.ts[k], np.take(prop.y, k, axis=-1),
            np.take(prop.ell, k, axis=-1), prop.q[:, k])


@pytest.mark.parametrize("kind", ["constant", "sinusoid", "table"])
@pytest.mark.parametrize("points", [24, 20001])
def test_one_call_per_stage_is_bitwise_the_stage_by_stage_route(kind, points):
    cs = driven_sets()[kind]
    init = ErmakovInit(alpha0=0.2, beta0=1.3, delta0=0.3, eps0=-0.7)
    frame = build_frame(cs, np.linspace(0.0, 10.0, 201), init=init)
    prop = frame.dense
    rng = np.random.default_rng(points)
    t = np.sort(rng.uniform(0.0, 10.0, 24)) if points == 24 else np.linspace(0.0, 10.0, points)
    tl, theta, y_left, ell_left, q_left = off_node_segments(prop, t)
    ours, theirs = (cls(cs, tl, theta, nested=True) for cls in (_Segments, ReferenceSegments))
    if points > 24:  # several blocks, the last one short
        assert tl.size > ours.span and tl.size % ours.span
    for name in ("prop", "exponent", "dell", "sub_prop", "sub_dell"):
        mine, ref = getattr(ours, name), getattr(theirs, name)
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes(), name
    rates = ours.transport_rates(prop.driven, y_left, ell_left)
    ref_rates = theirs.transport_rates(prop.driven, y_left, ell_left)
    for mine, ref in zip(rates, ref_rates):
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes()
    assert ours.q_steps(rates[0]).tobytes() == theirs.q_steps(ref_rates[0]).tobytes()
    assert ours.r_steps(*rates, q_left).tobytes() == theirs.r_steps(*ref_rates, q_left).tobytes()


def test_driven_read_calls_stay_within_the_chunk(monkeypatch):
    # a 20,001-point read of driven_oscillator: no Magnus-exponent or
    # transport call sees more than _CHUNK elements, and the read's heap
    # peak is no higher than the stage-by-stage route's
    frame = scenario_frame("driven_oscillator")
    prop, t = frame.dense, np.linspace(0.0, 10.0, 20001)
    sizes = []
    omega = characteristic._omega

    def recording_omega(theta, tau, four_sigma):
        sizes.append(theta.size)
        return omega(theta, tau, four_sigma)

    def recording_driven(t, y, ell):
        sizes.append(ell.size)
        return driven(t, y, ell)

    driven = prop.driven
    recording = replace(prop, driven=recording_driven)
    with monkeypatch.context() as m:
        m.setattr(characteristic, "_omega", recording_omega)
        closed_form_path(replace(frame, dense=recording), t)
    assert sizes and max(sizes) <= characteristic._CHUNK

    def peak(segments):
        with monkeypatch.context() as m:
            m.setattr(characteristic, "_Segments", segments)
            closed_form_path(frame, t)  # warm: lazy splines, first-call caches
            tracemalloc.start()
            try:
                closed_form_path(frame, t)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(_Segments) <= peak(ReferenceSegments)


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


def noisy_path_sets(paths, **noise):
    """noisy_lossy_medium's first draws of the given paths (with its noise
    spec changed by `noise`): as one coefficient set with a column per
    path, as each path's own set (sample_path), and the run grid's end."""
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    grid = build_grid(scenario)
    spec = replace(scenario.noise, **noise)
    cs, errors = medium_to_hamiltonian_stack(
        _perturbed(spec, scenario.profile, grid, [(idx, 0) for idx in paths]), grid[-1])
    assert errors == [None] * len(paths)
    return cs, [sample_path(spec, scenario.profile, grid, idx) for idx in paths], grid[-1]


# 600 segments per path: the whole set in one call, and 300 or 51
# segments of its five paths per call
@pytest.mark.parametrize("chunk", [characteristic._CHUNK, 1500, 256])
@pytest.mark.parametrize("rtol", [1e-8, 1e-12])  # the ensemble's, and one that rejects steps
def test_stacked_pass_equals_solo_passes(monkeypatch, chunk, rtol):
    cs, sets, t_end = noisy_path_sets(range(5))
    edges = _initial_edges(cs, t_end)
    assert all(np.array_equal(_initial_edges(solo, t_end), edges) for solo in sets)
    y0 = np.stack([[[0.0, 1.0], [2.0 * float(solo.a(0.0)), 0.0]] for solo in sets], axis=-1)
    solo = [_doubling_pass(sets[p], edges, y0[..., p:p + 1], None, rtol, rtol * 1e-2)
            for p in range(len(sets))]
    monkeypatch.setattr(characteristic, "_CHUNK", chunk)
    ts, ys, ells, qs, rs, ratio, exponent, bad = _doubling_pass(cs, edges, y0, None,
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


def recorded_stack(monkeypatch, cs, t_end, rtol):
    """propagate_stack's groups, with the number of paths of each doubling
    pass it took."""
    sizes = []
    doubling = characteristic._doubling_pass
    monkeypatch.setattr(characteristic, "_doubling_pass", lambda stack, *args: (
        sizes.append(stack.width or 1) or doubling(stack, *args)))
    groups = propagate_stack(cs, t_end, rtol=rtol, atol=rtol * 1e-2)
    monkeypatch.undo()
    return groups, sizes


def test_noisy_xi_columns_read_one_derivative_spline(monkeypatch):
    # xi noise: tau reads xi' of every column through one derivative
    # spline of the table, built on the shared pass's first read; each
    # path's propagation is bitwise its own set's, alone
    cs, sets, t_end = noisy_path_sets(range(3), target="xi", amplitude=0.2)
    assert "_deriv" not in vars(cs.medium.xi)
    groups, sizes = recorded_stack(monkeypatch, cs, t_end, 1e-8)
    assert sizes[0] == 3 and "_deriv" in vars(cs.medium.xi)
    assert sorted(p for paths, _ in groups for p in paths) == [0, 1, 2]
    for paths, result in groups:
        for row, p in enumerate(paths):
            alone = propagate(sets[p], t_end, rtol=1e-8, atol=1e-10)
            mine = result if len(paths) == 1 else Propagation(
                result.ts, result.y[:, :, row], result.ell[row], sets[p])
            assert outcome(mine) == outcome(alone)


def test_stack_results_are_the_solo_results(monkeypatch):
    # telegraph chi noise of amplitude 9 over t in [0, 40]: on seed 10,
    # paths 1 and 6 keep the shared pass's steps, paths 0, 2 and 4 pass the
    # overflow guard in it, and the rest refine alone (path 5 to an
    # overflow).  A window past the noise tables raises for the whole set,
    # as for each path alone
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    spec = replace(scenario.noise, model="telegraph", amplitude=9.0, correlation_time=40.0,
                   seed=10)
    grid = np.linspace(0.0, 40.0, 401)
    cs, errors = medium_to_hamiltonian_stack(
        _perturbed(spec, scenario.profile, grid, [(idx, 0) for idx in range(8)]), 40.0)
    assert errors == [None] * 8
    groups, sizes = recorded_stack(monkeypatch, cs, 40.0, 1e-6)
    assert sizes[0] == 8 and sizes.count(1) == len(sizes) - 1
    assert [(paths, type(result).__name__) for paths, result in groups
            if len(paths) > 1 or isinstance(result, QuadmodeError)] == [
        ([0], "BlowUpError"), ([2], "BlowUpError"), ([4], "BlowUpError"), ([1, 6], "Propagation"),
        ([5], "BlowUpError")]
    for paths, result in groups:
        for row, p in enumerate(paths):
            alone = propagate_alone(sample_path(spec, scenario.profile, grid, p), 40.0, 1e-6)
            mine = result if len(paths) == 1 else Propagation(
                result.ts, result.y[:, :, row], result.ell[row], cs.take([p]))
            assert outcome(mine) == outcome(alone)
    with pytest.raises(CoefficientEvaluationError) as stacked:
        propagate_stack(cs, 50.0)
    with pytest.raises(CoefficientEvaluationError) as alone:
        propagate(cs.take([0]), 50.0)
    assert (str(stacked.value), stacked.value.t) == (str(alone.value), alone.value.t)


def test_wronskian_law_of_a_chunk_frame_is_each_paths_own():
    # a(0) has a column per path: row p of the law is path p's own
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    grid = build_grid(scenario)
    cs, sets, t_end = noisy_path_sets(range(8))
    [(paths, prop)] = propagate_stack(cs, t_end, rtol=1e-8, atol=1e-10)
    assert paths == list(range(8))
    frame = read_frame(prop, grid, scenario.init)
    predicted = frame.wronskian_predicted()
    assert predicted.shape == (8, grid.size)
    for p, solo in enumerate(sets):
        alone = build_frame(solo, grid, init=scenario.init, rtol=1e-8, atol=1e-10)
        assert predicted[p].tobytes() == alone.wronskian_predicted().tobytes()
    assert wronskian_drift(frame) <= 1e-8


@pytest.mark.parametrize("paths", [4, 8])
def test_checks_of_a_chunk_frame_are_each_paths_own(paths):
    # a(0), the mu0 guard's scale and the t = 0 limits are per path, and
    # the Heisenberg residual differentiates along t, not the path axis:
    # with 8 paths that read 1052 where the solo paths' worst is 4.1e-10
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    grid = build_grid(scenario)
    cs, sets, t_end = noisy_path_sets(range(paths))
    [(kept, prop)] = propagate_stack(cs, t_end, rtol=1e-8, atol=1e-10)
    assert kept == list(range(paths))
    frame = read_frame(prop, grid, scenario.init)
    solos = [build_frame(solo, grid, init=scenario.init, rtol=1e-8, atol=1e-10) for solo in sets]
    pieces = ((principal_pieces, ("alpha0", "beta0", "gamma0", "delta0", "eps0", "kappa0",
                                  "mask")),
              (quasi_invariants, ("state", "transport", "amplitude", "action", "mask")))
    for piece, names in pieces:
        mine = piece(frame)
        for p, solo in enumerate(solos):
            alone = piece(solo)
            for name in names:
                assert getattr(mine, name)[p].tobytes() == getattr(alone, name).tobytes(), name
    assert heisenberg_residual(frame) == max(heisenberg_residual(solo) for solo in solos)


@pytest.mark.parametrize("path", [0, 1, 2])
def test_xi_noise_basis_and_closed_form_read_one_medium(path):
    # the core's rate reads xi' (tau = -(chi + xi')/xi), the assembly xi
    # itself (a = exp(-Ichi)/(2 xi)): a table's derivative is its value
    # spline's own, so both describe one medium.  With the derivative a
    # spline through finite differences of the samples, the drift read
    # 1.5e-2, 1.2e-2 and 1.3e-2 at either rtol and the oracle deviation
    # 4.8e-3, 3.0e-3 and 1.5e-3
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    drift, deviation = xi_noise_gaps(path, 0.05, build_grid(scenario))
    assert drift <= 1e-8
    assert deviation <= 1e-8


def xi_noise_gaps(path, amplitude, grid):
    """(the worse Wronskian drift of frames at rtol 1e-8 and 1e-12, the
    closed form of the second against riccati_oracle at rtol 1e-12) on
    path `path` of noisy_lossy_medium with its OU noise on xi at
    `amplitude`, tabulated on `grid`."""
    scenario = load_config(bundled_scenarios()["noisy_lossy_medium"])
    spec = replace(scenario.noise, target="xi", amplitude=amplitude)
    cs = sample_path(spec, scenario.profile, grid, path)
    frames = [build_frame(cs, grid, init=scenario.init, rtol=rtol, atol=rtol * 1e-2)
              for rtol in (1e-8, 1e-12)]
    oracle = riccati_oracle(cs, grid, init=scenario.init, rtol=1e-12, atol=1e-14)
    return (max(wronskian_drift(frame) for frame in frames),
            max(float(np.max(np.abs(mine - theirs)))
                for mine, theirs in zip(closed_form_path(frames[1]).columns(), oracle.columns())))


@pytest.mark.parametrize("path, dt, t_max", [(125, 0.05, 10.0), (924, 0.0125, 10.0),
                                             (0, 5e-4, 4.0)])
def test_rough_xi_noise_tau_is_the_log_derivative_of_a(path, dt, t_max):
    # over a tabulated xi, a(t) = exp(-Ichi)/(2 xi) exponentiates the
    # antiderivative of the scan spline through chi/xi (4001 points), and
    # the core's tau reads that spline's derivative.  With tau the exact
    # -(chi + xi')/xi, these paths read Wronskian drift 3.3e-7, 3.6e-4 and
    # 3.8e-5 and oracle deviation 2.2e-5, 7.3e-3 and 1.4e-5; now they read
    # 9.1e-10, 1.7e-10 and 1.0e-10 and 2.4e-8, 5.4e-9 and 7.8e-12.  At
    # dt = 5e-4, xi has several knots between two scan points.  A case
    # takes about 0.2 s at dt = 0.05 or 0.0125 and 0.8 s at dt = 5e-4 on
    # a 2-core x86 machine
    drift, deviation = xi_noise_gaps(path, 0.3, np.linspace(0.0, t_max, round(t_max / dt) + 1))
    assert drift <= 1e-8
    assert deviation <= 1e-7  # verify's oracle tolerance
