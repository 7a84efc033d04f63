"""Independent cross-checks for the closed-form machinery.

riccati_oracle integrates the six nonlinear equations directly with a
general-purpose adaptive solver: no characteristic basis, no complex frame.
Agreement between that oracle and the closed-form assembly validates both,
since the code paths share nothing past the coefficient functions.

quasi_invariants evaluates four combinations that vanish identically along
any exact path (checked against the frame), and wronskian_drift measures
how far the integrated basis drifts off the exact first-order Wronskian
law.  Both are cheap health checks suitable for per-run diagnostics.

battery runs every check of `quadmode verify` on one scenario.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .coefficients import CoefficientSet, SinusoidFunction, medium_to_hamiltonian
from .characteristic import (
    _STATE_BOUND,
    CharacteristicBasis,
    classical_mode_equivalence,
    integrate_characteristic,
)
from .config import Scenario, build_grid
from .ermakov import (
    ComplexFrame,
    ErmakovInit,
    ErmakovPath,
    build_frame,
    closed_form_path,
    homogeneous_driven,
    homogeneous_state,
)
from .errors import BlowUpError, StiffnessError
from .observables import (
    accumulate_phases,
    ansatz_path,
    compute_observables,
    geometric_rate_state_route,
    heisenberg_residual,
    operator_invariant_defect,
    phase_rates,
)
from .stochastic import sample_path

__all__ = [
    "riccati_oracle",
    "QuasiInvariants",
    "quasi_invariants",
    "wronskian_drift",
    "check",
    "battery",
]

# tight settings for the battery; the oracle must not be the bottleneck
# when closed form and direct integration are compared
_TIGHT = dict(rtol=1e-12, atol=1e-14)
_ORACLE_METHOD = "DOP853"
# sampled (noisy) coefficients are rough at the knot scale, where the
# oracle's lower-order method accumulates less error than DOP853
_ROUGH_ORACLE_METHOD = "RK45"


def riccati_oracle(
    cs: CoefficientSet,
    grid,
    init: ErmakovInit | None = None,
    method: str = "RK45",
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ErmakovPath:
    """Direct integration of the six nonlinear auxiliary equations.

    The alpha equation is of Riccati type and genuinely blows up when beta
    reaches zero; a terminal event converts that into BlowUpError instead
    of letting the solver grind to a halt.  The damping factor
    lambda = exp(-int (c - 2d)) comes from a quadrature of its own (1 when
    c and d vanish), so the path's observables owe nothing to the
    propagator core either.
    """
    init = init or ErmakovInit()
    grid = np.asarray(grid, dtype=float)
    a_fn, b_fn, c_fn, d_fn, f_fn, g_fn = cs.functions()

    def rhs(t, y):
        al, be, _, de, ep, _ = y
        a_t = a_fn(t)
        c_t = c_fn(t)
        g_t = g_fn(t)
        damp = c_t + 4.0 * a_t * al
        return (
            a_t * be**4 - b_fn(t) - 2.0 * c_t * al - 4.0 * a_t * al * al,
            -damp * be,
            -a_t * be * be,
            f_fn(t) + 2.0 * g_t * al - damp * de + 2.0 * a_t * be**3 * ep,
            (g_t - 2.0 * a_t * de) * be,
            g_t * de - a_t * de * de + a_t * be * be * ep * ep,
        )

    def beta_vanishes(t, y):
        return y[1]

    beta_vanishes.terminal = True

    def blow_up(t, y):
        return _STATE_BOUND - max(abs(y[0]), abs(y[1]), abs(y[3]), abs(y[4]), abs(y[5]))

    blow_up.terminal = True

    y0 = (init.alpha0, init.beta0, init.gamma0, init.delta0, init.eps0, init.kappa0)
    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, method=method, t_eval=grid,
                    rtol=rtol, atol=atol, events=(beta_vanishes, blow_up))
    if sol.status == 1:
        stopped = [ev[0] for ev in sol.t_events if ev.size]
        t_stop = float(min(stopped)) if stopped else float(sol.t[-1])
        raise BlowUpError("direct path lost regularity (beta reached zero "
                          "or the state overflowed)", t=t_stop)
    if not sol.success:
        raise StiffnessError(f"direct integration failed: {sol.message}",
                             t=float(sol.t[-1]) if sol.t.size else float(grid[0]))

    lam = np.ones_like(grid)
    if not (cs.c.is_zero and cs.d.is_zero):
        # a separate solve, so the six columns stay those of the system alone
        ell = solve_ivp(lambda t, y: (c_fn(t) - 2.0 * d_fn(t),), (grid[0], grid[-1]), (0.0,),
                        method=method, t_eval=grid, rtol=rtol, atol=atol)
        if not ell.success:
            raise StiffnessError(f"lambda quadrature failed: {ell.message}", t=float(grid[0]))
        lam = np.exp(-ell.y[0])

    return ErmakovPath(
        grid=grid, alpha=sol.y[0], beta=sol.y[1], gamma=sol.y[2],
        delta=sol.y[3], eps=sol.y[4], kappa=sol.y[5],
        init=init, coefficients=cs, lam=lam,
    )


@dataclass(frozen=True)
class QuasiInvariants:
    """Four pointwise combinations that vanish along an exact path.

    state:     matches alpha against the principal state and the frame
    transport: the driven pair follows the homogeneous transport law
    amplitude: conserved modulus of the transported driven pair
    action:    closed-form relation for the accumulated kappa
    All are NaN inside the guard band around zeros of mu0 (true poles of
    the principal pieces).
    """

    grid: np.ndarray
    state: np.ndarray
    transport: np.ndarray
    amplitude: np.ndarray
    action: np.ndarray
    mask: np.ndarray

    def worst(self) -> dict:
        out = {}
        for name in ("state", "transport", "amplitude", "action"):
            vals = getattr(self, name)[self.mask]
            out[name] = float(np.max(np.abs(vals))) if vals.size else math.nan
        return out


def quasi_invariants(frame: ComplexFrame, path: ErmakovPath | None = None,
                     guard: float = 1e-6) -> QuasiInvariants:
    """Evaluate the four residuals for `path` (default: the closed-form
    path of `frame`).  Passing a directly integrated path instead checks
    the frame and the oracle against each other."""
    if path is None:
        path = closed_form_path(frame)
    if path.grid.shape != frame.grid.shape or not np.allclose(path.grid, frame.grid):
        raise ValueError("path must be sampled on the frame grid")

    basis = frame.basis
    init = frame.init
    hs = homogeneous_state(basis, guard=guard)
    hd = homogeneous_driven(frame, guard=guard)
    mask = hs.mask & hd.mask
    b0 = init.beta0
    absz = np.abs(frame.z)
    zeta = frame.c3 + 1j * hd.eps0

    with np.errstate(divide="ignore", invalid="ignore"):
        state = 2.0 * (path.alpha - hs.alpha0) / path.beta**2 \
            + frame.z.real / frame.z.imag
        transport = np.abs(
            path.eps + 1j * (path.delta - hd.delta0) / path.beta
            - zeta * frame.z / (b0 * absz)
        )
        moving = path.eps**2 + ((path.delta - hd.delta0) / path.beta) ** 2
        anchored = init.eps0**2 + ((init.delta0 + hd.eps0) / b0) ** 2
        amplitude = moving - anchored
        action = (
            path.kappa - init.kappa0 - hd.kappa0
            - ((path.delta - hd.delta0) / (2.0 * path.beta)) * path.eps
            + ((hd.eps0 + init.delta0) / (2.0 * b0)) * init.eps0
        )

    for arr in (state, transport, amplitude, action):
        arr[~mask] = np.nan
    return QuasiInvariants(grid=frame.grid, state=state, transport=transport,
                           amplitude=amplitude, action=action, mask=mask)


def wronskian_drift(basis: CharacteristicBasis) -> float:
    """Max relative deviation of the direct Wronskian from the exact law
    W(t) = W(0) (a(t)/a(0)) lambda(t)^2.  A drift here means the basis
    integration itself is under-resolved."""
    predicted = basis.wronskian_predicted()
    scale = np.maximum(np.abs(predicted), np.finfo(float).tiny)
    return float(np.max(np.abs(basis.wronskian - predicted) / scale))


def check(value: float, tol: float) -> dict:
    """One check result: passes when the value is finite and within tol."""
    ok = math.isfinite(value) and value <= tol
    return {"value": value, "tolerance": tol, "pass": bool(ok)}


def battery(scenario: Scenario, oracle_tol: float) -> dict:
    """Closed form vs direct integration plus every structural invariant,
    on the scenario's own grid at tight solver settings."""
    t_max = scenario.grid.t_max
    cs = scenario.build_coefficients(t_max)
    grid = build_grid(scenario, cs)
    profile = scenario.profile
    oracle_method = _ORACLE_METHOD
    qi_tol = 1e-7
    if scenario.noise is not None:
        # deterministic reading of a noisy scenario: realization 0.  The
        # near-pole quasi-invariant amplification (solver error / mu0^2)
        # sits orders above the smooth-scenario level.
        profile = sample_path(scenario.noise, scenario.profile, grid)
        cs = medium_to_hamiltonian(profile, t_max=t_max)
        oracle_method = _ROUGH_ORACLE_METHOD
        qi_tol = 1e-5

    frame = build_frame(cs, grid, init=scenario.init, **_TIGHT)
    path = closed_form_path(frame)
    oracle = riccati_oracle(cs, grid, init=scenario.init, method=oracle_method, **_TIGHT)
    dev = max(float(np.max(np.abs(mine - theirs)))
              for mine, theirs in zip(path.columns(), oracle.columns()))

    obs = compute_observables(path, n=scenario.n)
    qi = quasi_invariants(frame, path)
    sel = qi.mask & (grid >= 0.1)
    qi_worst = max(
        float(np.max(np.abs(getattr(qi, k)[sel]))) if np.any(sel) else math.nan
        for k in ("state", "transport", "amplitude", "action"))

    # Wronskian law over a window of length 20, rebuilt from scratch
    cs20 = scenario.build_coefficients(20.0)
    if scenario.noise is not None:
        grid20 = np.linspace(0.0, 20.0, 401)
        profile20 = sample_path(scenario.noise, scenario.profile, grid20)
        cs20 = medium_to_hamiltonian(profile20, t_max=20.0)
    basis20 = integrate_characteristic(cs20, np.linspace(0.0, 20.0, 401), **_TIGHT)

    floor = (scenario.n + 0.5) ** 2
    checks = {
        "oracle_deviation": check(dev, oracle_tol),
        "commutator": check(operator_invariant_defect(ansatz_path(path)), 1e-12),
        "heisenberg_residual": check(heisenberg_residual(frame, dt=1e-3), 1e-6),
        "quasi_invariants": check(qi_worst, qi_tol),
        "wronskian": check(wronskian_drift(basis20), 1e-8),
        "uncertainty": check(max(0.0, floor - float(np.min(obs.product))), 1e-12),
    }

    if scenario.source_kind == "medium":
        checks["classical_equivalence"] = check(
            classical_mode_equivalence(profile, grid), 1e-6)

    sinusoids = [fn for fn in cs.functions()
                 if isinstance(fn, SinusoidFunction) and fn.frequency != 0.0]
    if sinusoids:
        # both geometric-phase routes, accumulated over one period of the
        # (first) sinusoidal modulation, or the whole window when shorter
        period = min(2.0 * math.pi / abs(sinusoids[0].frequency), float(grid[-1]))
        pgrid = np.linspace(0.0, period, 629)
        ppath = closed_form_path(frame, pgrid)
        _, geo_energy = phase_rates(ppath, scenario.n)
        geo_state = geometric_rate_state_route(ppath, scenario.n)
        gap = abs(accumulate_phases(pgrid, geo_energy)[-1]
                  - accumulate_phases(pgrid, geo_state)[-1])
        checks["phase_route_agreement"] = check(gap, 1e-6)
    return checks
