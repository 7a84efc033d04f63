"""Closed-form path vs direct integration, principal pieces, invariants."""

import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quadmode import ConstantFunction, observables, preset_coefficients, verify
from quadmode.characteristic import _dop853_on_grid, build_tau_sigma
from quadmode.coefficients import (
    CoefficientSet,
    MediumProfile,
    SinusoidFunction,
    medium_to_hamiltonian,
)
from quadmode.config import (TOLERANCE_DEFAULTS, Scenario, build_grid, bundled_scenarios,
                             load_config)
from quadmode.ermakov import ComplexFrame, ErmakovInit, build_frame, closed_form_path
from quadmode.errors import (BlowUpError, CoefficientEvaluationError, ConfigError,
                             QuadmodeError, StiffnessError)
from quadmode.observables import ansatz_path, commutator_defects, compute_observables
from quadmode.stochastic import sample_path
from quadmode.verify import (
    battery,
    invariant_checks,
    principal_pieces,
    quasi_invariants,
    riccati_oracle,
    wronskian_drift,
)

TIGHT = dict(rtol=1e-12, atol=1e-14)

DISPLACED = ErmakovInit(alpha0=0.2, beta0=1.3, gamma0=0.1,
                        delta0=0.3, eps0=-0.7, kappa0=0.05)


def grid_to(t_end, n=201):
    return np.linspace(0.0, t_end, n)


def driven_constant_cs():
    return CoefficientSet(
        a=ConstantFunction(0.5),
        b=ConstantFunction(0.5),
        c=ConstantFunction(0.3),
        d=ConstantFunction(0.1),
        f=ConstantFunction(0.2),
        g=ConstantFunction(0.1),
    )


def assert_paths_close(got, want, tol):
    for name in ("alpha", "beta", "gamma", "delta", "eps", "kappa"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), atol=tol, rtol=tol,
            err_msg=name,
        )


def test_static_ground_state_is_stationary():
    cs = preset_coefficients("static_oscillator")
    path = closed_form_path(build_frame(cs, grid_to(4 * math.pi), **TIGHT))
    np.testing.assert_allclose(path.alpha, 0.0, atol=1e-12)
    np.testing.assert_allclose(path.beta, 1.0, atol=1e-12)
    np.testing.assert_allclose(path.gamma, -path.grid / 2, atol=1e-11)
    np.testing.assert_allclose(path.delta, 0.0, atol=1e-13)
    np.testing.assert_allclose(path.eps, 0.0, atol=1e-13)
    np.testing.assert_allclose(path.kappa, 0.0, atol=1e-13)


def test_squeezed_vacuum_amplitude():
    # beta(0) = sqrt(2): |z|^2 = 1 + 3 sin^2 t, beta = sqrt(2)/|z|
    cs = preset_coefficients("static_oscillator")
    init = ErmakovInit(beta0=math.sqrt(2.0))
    path = closed_form_path(build_frame(cs, grid_to(math.pi, 129), init=init, **TIGHT))
    t = path.grid
    np.testing.assert_allclose(
        path.beta, math.sqrt(2.0) / np.sqrt(1 + 3 * np.sin(t) ** 2), atol=1e-12
    )
    i = np.searchsorted(t, math.pi / 4)
    assert t[i] == pytest.approx(math.pi / 4, abs=1e-12)
    assert path.beta[i] == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)


def test_frame_constants_identities():
    cs = driven_constant_cs()
    frame = build_frame(cs, grid_to(3.0), init=DISPLACED, **TIGHT)
    assert frame.c1 + frame.c2 == pytest.approx(1.0)
    assert frame.c1 - frame.c2.conjugate() == pytest.approx(DISPLACED.beta0**2)
    assert frame.z[0] == pytest.approx(1.0)
    a0 = 0.5
    assert frame.zp[0] == pytest.approx(2j * a0 * (frame.c1 - frame.c2), abs=1e-13)
    assert frame.c3 == pytest.approx(DISPLACED.eps0 * DISPLACED.beta0 + 1j * DISPLACED.delta0)


@pytest.mark.parametrize(
    "cs,init,t_end,tol",
    [
        (preset_coefficients("driven", force=1.0), ErmakovInit(), 6.0, 1e-9),
        (preset_coefficients("caldirola_kanai", rate=0.25), ErmakovInit(), 10.0, 1e-8),
        (preset_coefficients("parametric", depth=0.1, frequency=2.0),
         ErmakovInit(beta0=math.sqrt(2.0)), 2 * math.pi, 1e-9),
        (driven_constant_cs(), DISPLACED, 5.0, 1e-8),
        (preset_coefficients("driven", force=1.0), DISPLACED, 6.0, 1e-8),
    ],
    ids=["driven-ground", "damped-kinetic", "parametric-squeezed",
         "full-coefficients", "driven-displaced"],
)
def test_closed_form_matches_direct_integration(cs, init, t_end, tol):
    grid = grid_to(t_end, 257)
    path = closed_form_path(build_frame(cs, grid, init=init, **TIGHT))
    oracle = riccati_oracle(cs, grid, init=init, **TIGHT)
    assert_paths_close(path, oracle, tol)


def test_closed_form_matches_direct_for_medium():
    prof = MediumProfile(
        xi=SinusoidFunction(1.0, 0.2, 1.0),
        eta=ConstantFunction(1.0),
        chi=ConstantFunction(0.1),
    )
    cs = medium_to_hamiltonian(prof, t_max=8.0)
    init = ErmakovInit(delta0=0.3, eps0=-0.7)
    grid = grid_to(8.0, 161)
    path = closed_form_path(build_frame(cs, grid, init=init, **TIGHT))
    oracle = riccati_oracle(cs, grid, init=init, **TIGHT)
    assert_paths_close(path, oracle, 1e-9)


def test_off_grid_evaluation_matches_direct():
    cs = preset_coefficients("driven", force=1.0)
    frame = build_frame(cs, grid_to(6.0, 241), init=DISPLACED, **TIGHT)
    probes = np.array([0.37, 1.91, 3.0, 4.44, 5.99])
    path = closed_form_path(frame, probes)
    oracle = riccati_oracle(cs, np.concatenate([[0.0], probes]), init=DISPLACED, **TIGHT)
    for name in ("alpha", "beta", "gamma", "delta", "eps", "kappa"):
        np.testing.assert_allclose(
            getattr(path, name), getattr(oracle, name)[1:], atol=1e-8, err_msg=name
        )


def test_gamma_branch_is_continuous_over_many_turns():
    cs = preset_coefficients("static_oscillator")
    path = closed_form_path(build_frame(cs, grid_to(8 * math.pi, 801), **TIGHT))
    np.testing.assert_allclose(path.gamma, -path.grid / 2, atol=1e-10)


@pytest.mark.parametrize("beta0", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("preset, params", [
    ("static_oscillator", {}), ("caldirola_kanai", {"rate": 0.25}),
    ("parametric", {"depth": 0.3}), ("driven", {}),
])
def test_gamma_branch_does_not_depend_on_the_grid(preset, params, beta0):
    # grid steps of 3 to 7 let z turn by more than pi between grid points;
    # gamma's branch comes from the core's own steps, so it stays right on
    # the grid and at the midpoints read through eval
    cs = preset_coefficients(preset, **params)
    init = ErmakovInit(beta0=beta0, gamma0=0.3)
    half_steps = np.arange(0.0, 21.25, 0.5)  # every grid point and midpoint below
    oracle = riccati_oracle(cs, half_steps, init=init, **TIGHT).gamma
    for dt in (1.0, 3.0, 4.0, 7.0):
        grid = np.arange(0.0, 21.0 + 1e-9, dt)
        mid = grid[:-1] + 0.5 * dt
        frame = build_frame(cs, grid, init=init, **TIGHT)
        path = closed_form_path(frame)
        for got, t in ((path.gamma, grid), (closed_form_path(frame, mid).gamma, mid)):
            np.testing.assert_allclose(got, oracle[np.rint(2.0 * t).astype(int)],
                                       rtol=0.0, atol=1e-10, err_msg=f"dt={dt}")
        again = closed_form_path(frame, frame.grid)
        for mine, theirs in zip(again.columns(), path.columns()):
            assert mine.tobytes() == theirs.tobytes()


def test_homogeneous_state_static():
    cs = preset_coefficients("static_oscillator")
    frame = build_frame(cs, grid_to(3.0, 301), **TIGHT)
    hs = principal_pieces(frame)
    t = hs.grid
    good = hs.mask & (t > 0.1)
    np.testing.assert_allclose(
        hs.alpha0[good], np.cos(t[good]) / (2 * np.sin(t[good])), atol=1e-10
    )
    np.testing.assert_allclose(hs.beta0[good], -1.0 / np.sin(t[good]), atol=1e-10)
    np.testing.assert_allclose(
        hs.gamma0[good], np.cos(t[good]) / (2 * np.sin(t[good])), atol=1e-10
    )
    assert not hs.mask[0]  # mu0(0) = 0 is inside the guard band


def test_homogeneous_driven_static():
    # constant unit force on the static oscillator:
    # delta0 = eps0 = tan(t/2), kappa0 = t/2 - tan(t/2)
    cs = preset_coefficients("driven", force=1.0)
    frame = build_frame(cs, grid_to(3.0, 301), **TIGHT)
    hd = principal_pieces(frame)
    t = hd.grid
    good = hd.mask & (t > 0.0)
    np.testing.assert_allclose(hd.delta0[good], np.tan(t[good] / 2), atol=1e-9)
    np.testing.assert_allclose(hd.eps0[good], np.tan(t[good] / 2), atol=1e-9)
    np.testing.assert_allclose(
        hd.kappa0[good], t[good] / 2 - np.tan(t[good] / 2), atol=1e-9
    )
    # finite limits at t = 0 (here the force has no momentum part)
    assert hd.delta0[0] == 0.0 and hd.eps0[0] == 0.0 and hd.kappa0[0] == 0.0


def test_homogeneous_driven_extraction_frame_independent():
    # the same principal triple must come out of a displaced frame
    cs = preset_coefficients("driven", force=1.0)
    f1 = build_frame(cs, grid_to(3.0, 301), **TIGHT)
    f2 = build_frame(cs, grid_to(3.0, 301), init=DISPLACED, **TIGHT)
    h1 = principal_pieces(f1)
    h2 = principal_pieces(f2)
    good = h1.mask & h2.mask
    for name in ("delta0", "eps0", "kappa0"):
        np.testing.assert_allclose(
            getattr(h1, name)[good], getattr(h2, name)[good], atol=1e-8, err_msg=name
        )


class TurningPointError(QuadmodeError):
    """The literal quadrature route for the driven homogeneous pieces was
    requested across a zero of the basis derivative."""


def homogeneous_driven_quadrature(
    frame: ComplexFrame,
    grid=None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> SimpleNamespace:
    """Literal quadrature route for the principal driven triple.

    Integrates, with y = mu0 delta0 / lambda and sigma the quarter of the
    characteristic 4*sigma combination,

        y'  = ((f - (d/a) g) mu0 + (g/2a) mu0') / lambda
        J1' = 8 a sigma lambda^2 y / mu0'^2
        J2' = 2 a lambda (f - (d/a) g) / mu0'
        K1' = 4 a sigma lambda^2 y^2 / mu0'^2
        K2' = 2 a lambda y (f - (d/a) g) / mu0'

    and assembles delta0 = lambda y / mu0, eps0 = -(2 a lambda/mu0') delta0
    + J1 + J2, kappa0 = (a mu0/mu0') delta0^2 - K1 - K2.  The integrands
    carry true poles at zeros of mu0' (turning points): integration stops
    there with TurningPointError.  Useful as an independent cross-check of
    principal_pieces away from turning points.
    """
    cs = frame.coefficients
    if grid is None:
        grid = frame.grid
    grid = np.asarray(grid, dtype=float)

    def dense(t):
        """The 5-state of the frame's one path at t (a float or an array)."""
        state = frame.dense.read(t)[0][:, 0]
        return state[:, 0] if np.ndim(t) == 0 else state

    # the integrands carry 1/mu0'^2: refuse windows with a turning point
    # up front (the step size would collapse before any event could fire)
    scan = np.linspace(grid[0], grid[-1], max(4 * grid.size, 512))
    mu0p_scan = dense(scan)[1]
    crossings = np.nonzero(np.diff(np.sign(mu0p_scan)) != 0)[0]
    if crossings.size:
        raise TurningPointError(
            f"quadrature route window contains a turning point (mu0' = 0) "
            f"near t={scan[crossings[0] + 1]:.6g}"
        )

    _, four_sigma = build_tau_sigma(cs)
    a_fn, _, _, d_fn, f_fn, g_fn = cs.functions()

    def force(t: float) -> float:
        return f_fn(t) - (d_fn(t) / a_fn(t)) * g_fn(t)

    def rhs(t, y):
        st = dense(t)
        mu0, mu0p, lam = st[0], st[1], math.exp(-st[4])
        a_t = a_fn(t)
        g_t = g_fn(t)
        sig = 0.25 * four_sigma(t)
        fr = force(t)
        lam2 = lam * lam
        return (
            (fr * mu0 + (g_t / (2.0 * a_t)) * mu0p) / lam,
            8.0 * a_t * sig * lam2 * y[0] / mu0p**2,
            2.0 * a_t * lam * fr / mu0p,
            4.0 * a_t * sig * lam2 * y[0] ** 2 / mu0p**2,
            2.0 * a_t * lam * y[0] * fr / mu0p,
        )

    def turning(t, y):
        return dense(t)[1]

    turning.terminal = True

    sol = solve_ivp(rhs, (grid[0], grid[-1]), (0.0, 0.0, 0.0, 0.0, 0.0),
                    method="RK45", t_eval=grid, rtol=rtol, atol=atol,
                    events=turning)
    if sol.status == 1:
        t_stop = float(sol.t_events[0][0]) if sol.t_events[0].size else float(sol.t[-1])
        raise TurningPointError(
            f"quadrature route hit a turning point (mu0' = 0) near t={t_stop:.6g}"
        )
    if not sol.success:
        raise StiffnessError(f"quadrature route failed: {sol.message}")

    st = dense(grid)
    mu0, mu0p, lam = st[0], st[1], np.exp(-st[4])
    a_t = np.asarray(cs.a(grid), dtype=float)
    y, j1, j2, k1, k2 = sol.y
    mask = np.abs(mu0) >= 1e-8 * np.max(np.abs(mu0))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta0 = lam * y / mu0
        eps0 = -(2.0 * a_t * lam / mu0p) * delta0 + j1 + j2
        kappa0 = (a_t * mu0 / mu0p) * delta0**2 - k1 - k2
    limit = float(cs.g(0.0)) / (2.0 * float(cs.a(0.0)))
    if abs(grid[0]) <= 1e-12:
        delta0[0], eps0[0], kappa0[0] = limit, -limit, 0.0
        mask = mask.copy()
        mask[0] = True
    for arr in (delta0, eps0, kappa0):
        arr[~mask] = np.nan
    return SimpleNamespace(grid=grid, delta0=delta0, eps0=eps0, kappa0=kappa0, mask=mask)


def test_quadrature_route_cross_checks():
    cs = preset_coefficients("driven", force=1.0)
    frame = build_frame(cs, grid_to(1.4, 141), **TIGHT)
    hd = principal_pieces(frame)
    hq = homogeneous_driven_quadrature(frame, rtol=1e-12, atol=1e-14)
    good = hd.mask & hq.mask
    for name in ("delta0", "eps0", "kappa0"):
        np.testing.assert_allclose(
            getattr(hq, name)[good], getattr(hd, name)[good], atol=1e-8, err_msg=name
        )


def test_quadrature_route_stops_at_turning_point():
    # mu0' = cos t has a zero at pi/2 inside [0, 2]
    cs = preset_coefficients("driven", force=1.0)
    frame = build_frame(cs, grid_to(2.0, 101), **TIGHT)
    with pytest.raises(TurningPointError):
        homogeneous_driven_quadrature(frame)


def test_quasi_invariants_near_zero_for_closed_form():
    cs = preset_coefficients("driven", force=1.0)
    frame = build_frame(cs, grid_to(6.0, 257), init=DISPLACED, **TIGHT)
    qi = quasi_invariants(frame)
    worst = qi.worst()
    # near the guard band the residuals are pole-amplified roundoff, so the
    # honest bound is a few orders above machine precision
    for name, val in worst.items():
        assert val < 1e-8, (name, val)


def test_quasi_invariants_need_the_frame_grid():
    frame = build_frame(preset_coefficients("static_oscillator"), grid_to(2.0, 21))
    other = closed_form_path(build_frame(preset_coefficients("static_oscillator"),
                                         grid_to(2.0, 41)))
    with pytest.raises(ValueError, match="frame grid"):
        quasi_invariants(frame, other)


def test_quasi_invariants_bound_direct_path():
    cs = driven_constant_cs()
    grid = grid_to(5.0, 257)
    frame = build_frame(cs, grid, init=DISPLACED, **TIGHT)
    oracle = riccati_oracle(cs, grid, init=DISPLACED, **TIGHT)
    qi = quasi_invariants(frame, path=oracle)
    for name, val in qi.worst().items():
        assert val < 1e-7, (name, val)


def test_wronskian_drift_small():
    cs = preset_coefficients("caldirola_kanai", rate=0.25)
    frame = build_frame(cs, grid_to(20.0, 401), **TIGHT)
    assert wronskian_drift(frame) < 1e-10


def test_direct_route_raises_on_blow_up():
    cs = preset_coefficients("constant", a=0.5, b=-50.0)
    with pytest.raises(BlowUpError) as err:
        riccati_oracle(cs, grid_to(80.0), rtol=1e-8, atol=1e-8)
    assert 0.0 < err.value.t <= 80.0


class _FailsPast:
    """0.5, but a read past t = 2 raises `error` (or is NaN when None)."""

    is_zero = False

    def __init__(self, error=None):
        self.error = error

    def __call__(self, t):
        if t <= 2.0:
            return 0.5
        if self.error is None:
            return math.nan
        raise self.error

    scalar = __call__  # the oracle's read


def _static_with(**fns):
    return dataclasses.replace(preset_coefficients("static_oscillator"), **fns)


@pytest.mark.parametrize("error", [CoefficientEvaluationError("b", 2.0, "planted"),
                                   OverflowError("planted")])
def test_direct_route_passes_exceptions_through(error, capfd):
    # the solver's Fortran loop cannot carry a Python exception; it must
    # still reach the caller as itself, at once, and print nothing
    start = time.perf_counter()
    with pytest.raises(type(error), match="planted"):
        riccati_oracle(_static_with(b=_FailsPast(error)), grid_to(5.0))
    assert time.perf_counter() - start < 1.0
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("coef,name", [("b", "direct integration"), ("d", "lambda quadrature")])
def test_direct_route_reports_where_the_solver_failed(coef, name, capfd):
    # a NaN coefficient makes DOP853 give up: the error carries the t it
    # reached (d enters only the lambda quadrature)
    with pytest.raises(StiffnessError, match=name) as err:
        riccati_oracle(_static_with(**{coef: _FailsPast()}), grid_to(5.0))
    assert err.value.t == pytest.approx(2.0, abs=0.025)
    assert capfd.readouterr().err == ""


def _six_coefficient_columns(cs, grid, init, rtol, atol):
    """The oracle's six equations as written for any set, reading all six
    coefficients whether or not they are zero."""
    a_fn, b_fn, c_fn, _, f_fn, g_fn = (fn.scalar for fn in cs.functions())

    def rhs(t, y):
        al, be, _, de, ep, _ = y.tolist()
        a_t, c_t, g_t = a_fn(t), c_fn(t), g_fn(t)
        damp = c_t + 4.0 * a_t * al
        be2 = be * be
        return [
            a_t * be2 * be2 - b_fn(t) - 2.0 * c_t * al - 4.0 * a_t * al * al,
            -damp * be,
            -a_t * be2,
            f_fn(t) + 2.0 * g_t * al - damp * de + 2.0 * a_t * be2 * be * ep,
            (g_t - 2.0 * a_t * de) * be,
            g_t * de - a_t * de * de + a_t * be2 * ep * ep,
        ]

    y0 = (init.alpha0, init.beta0, init.gamma0, init.delta0, init.eps0, init.kappa0)
    return _dop853_on_grid(rhs, y0, grid, rtol, atol).T


def _oracle_cases():
    for name, path in sorted(bundled_scenarios().items()):
        scenario = load_config(path)
        cs = scenario.build_coefficients()
        grid = build_grid(scenario, cs)
        if scenario.noise is not None:  # realization 0, as verify reads it
            cs = sample_path(scenario.noise, scenario.profile, grid)
        yield name, cs, grid, scenario.init
    for label, params in (("all six nonzero", dict(c=0.1, d=0.05, f=0.4, g=0.3)),
                          ("c = f = g = 0, d != 0", dict(d=0.05))):
        yield label, preset_coefficients("constant", a=0.5, b=0.5, **params), \
            grid_to(10.0), DISPLACED


def test_the_oracle_gives_the_six_coefficient_formulas_values_bit_for_bit():
    # every set with c = f = g = 0 (all bundled scenarios but the driven
    # one) gets a right-hand side without those terms; the columns must be
    # those of the full formula exactly.  ~0.3 s
    for name, cs, grid, init in _oracle_cases():
        oracle = riccati_oracle(cs, grid, init=init, **TIGHT)
        reference = _six_coefficient_columns(cs, grid, init, **TIGHT)
        for k, column in enumerate(oracle.columns()):
            assert np.array_equal(column, reference[k]), (name, k)


def test_the_oracle_stops_at_a_nan_in_any_checked_slot(monkeypatch):
    # the step check sees beta and the four unbounded slots (gamma only
    # decreases); a NaN in any of them is a blow-up, not a pass
    checks = []

    def no_solve(rhs, y0, grid, rtol, atol, check=None):
        checks.append(check)
        return np.tile(y0, (grid.size, 1))

    monkeypatch.setattr(verify, "_dop853_on_grid", no_solve)
    riccati_oracle(preset_coefficients("static_oscillator"), grid_to(1.0), init=DISPLACED)
    [check] = checks
    y0 = np.array([0.2, 1.3, 0.1, 0.3, -0.7, 0.05])
    check(0.5, y0)
    for slot in (0, 1, 3, 4, 5):
        y = y0.copy()
        y[slot] = math.nan
        with pytest.raises(BlowUpError):
            check(0.5, y)


def _driven_oscillator():
    return load_config(bundled_scenarios()["driven_oscillator"])


def test_a_nan_quasi_invariant_fails_its_check():
    # Python's max drops a NaN that follows a number; the check must not
    scenario = _driven_oscillator()
    frame = build_frame(scenario.build_coefficients(), build_grid(scenario),
                        init=scenario.init, **TIGHT)
    path = closed_form_path(frame)
    qi = quasi_invariants(frame, path)
    transport = qi.transport.copy()
    transport[np.flatnonzero(qi.mask)[5]] = math.nan
    verdicts = [invariant_checks(compute_observables(path), worst, commutator_defects(
        ansatz_path(path)), frame, TOLERANCE_DEFAULTS)["quasi_invariants"]["pass"]
        for worst in (qi, dataclasses.replace(qi, transport=transport))]
    assert verdicts == [True, False]


def test_a_nan_in_a_path_column_fails_every_check_that_reads_it(monkeypatch):
    # a NaN in one point of eps reaches the quasi-invariants, the oracle
    # deviation, (through w) the Heisenberg residual and both phase routes;
    # each check must fail, and those that never read eps must pass.  ~0.1 s
    for module in (verify, observables):
        def planted(frame, t=None, real=module.closed_form_path):
            path = real(frame, t)
            eps = path.eps.copy()
            eps[len(eps) // 3] = math.nan
            return dataclasses.replace(path, eps=eps)
        monkeypatch.setattr(module, "closed_form_path", planted)
    checks = battery(_driven_oscillator(), 1e-7)
    assert sorted(name for name, result in checks.items() if not result["pass"]) == [
        "heisenberg_residual", "oracle_deviation", "phase_route_agreement", "quasi_invariants"]


def test_a_noisy_battery_never_maps_the_base_medium(monkeypatch):
    # both of its windows are judged on realization 0, drawn on the grid
    real = Scenario.build_coefficients

    def refuse_noisy(self, t_max=None):
        assert self.noise is None, "the base medium of a noisy scenario was mapped"
        return real(self, t_max)

    monkeypatch.setattr(Scenario, "build_coefficients", refuse_noisy)
    checks = battery(load_config(bundled_scenarios()["noisy_lossy_medium"]), 1e-7)
    assert all(result["pass"] for result in checks.values())


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_every_bundled_battery_judges_quasi_invariants_at_one_tolerance(name):
    # noisy or not, one tolerance: the noisy scenario reads 2.0e-12
    checks = battery(load_config(bundled_scenarios()[name]), 1e-7)
    assert checks["quasi_invariants"]["tolerance"] == 1e-7
    assert checks["quasi_invariants"]["pass"]


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_every_bundled_battery_holds_the_phase_routes_together(name):
    # the worst gap over t reads 7.9e-31 to 8.9e-16 on the bundled set.
    # ~0.3 s for the seven
    check = battery(load_config(bundled_scenarios()[name]), 1e-7)["phase_route_agreement"]
    assert check["tolerance"] == 1e-6
    assert check["pass"]


def test_a_wrong_f_term_in_the_energy_route_fails_the_phase_check(monkeypatch):
    # the energy expectation with the f term's sign flipped: phase_geo is
    # wrong for every driven run, and only the state route can tell.  ~0.02 s
    real = observables.hamiltonian_expectation

    def flipped(path, n=0):
        return real(path, n) - 2.0 * (path.eps / path.beta) * path.coefficients.f(path.grid)

    monkeypatch.setattr(observables, "hamiltonian_expectation", flipped)
    checks = battery(_driven_oscillator(), 1e-7)
    assert [name for name, result in checks.items() if not result["pass"]] == [
        "phase_route_agreement"]


def test_init_validation():
    with pytest.raises(ConfigError):
        ErmakovInit(beta0=0.0)
    with pytest.raises(ConfigError):
        ErmakovInit(beta0=-1.0)
    with pytest.raises(ConfigError):
        ErmakovInit(alpha0=math.nan)
