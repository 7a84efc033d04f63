"""Independent cross-checks for the closed-form machinery.

riccati_oracle integrates the six nonlinear equations directly with a
general-purpose adaptive solver: no characteristic basis, no complex frame.
Agreement between that oracle and the closed-form assembly validates both,
since the code paths share nothing past the coefficient functions.  The
solver, shared with characteristic.classical_mode_equivalence, is scipy's
compiled DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, 1993),
restarted at every grid point.  A noisy realization's tables have their
knots at the grid points, so no eighth-order step straddles a knot, where
the coefficients lose smoothness and the step its order.

quasi_invariants evaluates four combinations that vanish identically along
any exact path (checked against the frame), and wronskian_drift measures
how far the integrated basis drifts off the exact first-order Wronskian
law.  Both are cheap health checks suitable for per-run diagnostics.  They
read a frame with a leading path axis (an ensemble chunk's, read_frame)
row by row: row p is path p's own, with its own a(0) and mu0 scale.

invariant_checks is the invariant suite that `quadmode run` judges every
run by, and battery runs it, with every other check of `quadmode verify`,
on one scenario.

The quasi-invariants compare the path with the principal (singular) pieces
of the closed form, built on mu0 alone (poles at its zeros) and recovered
algebraically rather than integrated through the poles (principal_pieces):

    alpha0 = mu0'/(4 a mu0) - d/(2a),  beta0 = -lambda/mu0,
    gamma0 = mu1/(2 mu0) + d(0)/(2 a(0))
    eps0   = -eps* |z| / (beta(0) mu0)
    delta0 = delta* - lambda eps0 Re(z) / |z|^2
    kappa0 = kappa* - eps* eps0 Re(z) / (2 beta(0) |z|)

with the finite limits delta0(0) = -eps0(0) = g(0)/(2 a(0)), kappa0(0) = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, _check_inside, eval_coeffs
from .characteristic import (
    _STATE_BOUND,
    _dop853_on_grid,
    check_grid,
    classical_mode_equivalence,
    initial_kinetic,
    integrate_characteristic,
)
from .config import TOLERANCE_DEFAULTS, Scenario, build_grid
from .ermakov import (
    ComplexFrame,
    ErmakovInit,
    ErmakovPath,
    build_frame,
    closed_form_path,
)
from .errors import BlowUpError
from .observables import (
    FockObservables,
    accumulate_phases,
    ansatz_path,
    commutator_defects,
    compute_observables,
    geometric_rate_state_route,
    heisenberg_residual,
)
from .stochastic import sample_path

__all__ = [
    "riccati_oracle",
    "PrincipalPieces",
    "principal_pieces",
    "QuasiInvariants",
    "quasi_invariants",
    "wronskian_drift",
    "check",
    "uncertainty_floor",
    "uncertainty_deficit",
    "invariant_checks",
    "battery",
]

# tight settings for the battery; the oracle must not be the bottleneck
# when closed form and direct integration are compared
_TIGHT = dict(rtol=1e-12, atol=1e-14)


def riccati_oracle(
    cs: CoefficientSet,
    grid,
    init: ErmakovInit | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ErmakovPath:
    """Direct integration of the six nonlinear auxiliary equations.

    The alpha equation is of Riccati type and genuinely blows up when beta
    reaches zero; a check after every accepted step converts that (beta <= 0,
    or a state past the overflow guard) into BlowUpError at that step's t
    instead of letting the solver grind to a halt.  The damping factor
    lambda = exp(-int (c - 2d)) comes from a quadrature of its own (1 when
    c and d vanish), so the path's observables owe nothing to the
    propagator core either.  Both are solved by DOP853, restarted at every
    grid point (characteristic._dop853_on_grid), and read the coefficients
    they need through their scalar reads, bound before the solve.  When c,
    f and g are all zero (every medium's set), the right-hand side is the
    same six equations without those three terms, reading a and b alone,
    and gives the same path bit for bit.  The grid must pass
    check_grid and end inside the set's window (_check_inside), as the
    core's must.
    """
    init = init or ErmakovInit()
    grid = check_grid(grid)
    _check_inside(grid[-1], *cs.window)
    a_fn, b_fn, c_fn, d_fn, f_fn, g_fn = (fn.scalar for fn in cs.functions())
    lean = cs.c.is_zero and cs.f.is_zero and cs.g.is_zero

    def rhs(t, y):
        al, be, _, de, ep, _ = y.tolist()
        a_t = a_fn(t)
        c_t = c_fn(t)
        g_t = g_fn(t)
        damp = c_t + 4.0 * a_t * al
        be2 = be * be  # products, not powers: they overflow to inf, not raise
        return [
            a_t * be2 * be2 - b_fn(t) - 2.0 * c_t * al - 4.0 * a_t * al * al,
            -damp * be,
            -a_t * be2,
            f_fn(t) + 2.0 * g_t * al - damp * de + 2.0 * a_t * be2 * be * ep,
            (g_t - 2.0 * a_t * de) * be,
            g_t * de - a_t * de * de + a_t * be2 * ep * ep,
        ]

    def lean_rhs(t, y):
        # rhs at c = f = g = 0: adding or subtracting a zero term is exact
        al, be, _, de, ep, _ = y.tolist()
        a_t = a_fn(t)
        damp = 4.0 * a_t * al
        be2 = be * be
        return [
            a_t * be2 * be2 - b_fn(t) - 4.0 * a_t * al * al,
            -damp * be,
            -a_t * be2,
            -damp * de + 2.0 * a_t * be2 * be * ep,
            -2.0 * a_t * de * be,
            -a_t * de * de + a_t * be2 * ep * ep,
        ]

    def check(t, y):
        al, be, _, de, ep, ka = y.tolist()
        # chained comparisons, each False at a NaN, which max() would drop
        if not (0.0 < be <= _STATE_BOUND and abs(al) <= _STATE_BOUND and abs(de) <= _STATE_BOUND
                and abs(ep) <= _STATE_BOUND and abs(ka) <= _STATE_BOUND):
            raise BlowUpError("direct path lost regularity (beta reached zero "
                              "or the state overflowed)", t=t)

    y0 = (init.alpha0, init.beta0, init.gamma0, init.delta0, init.eps0, init.kappa0)
    sol = _dop853_on_grid(lean_rhs if lean else rhs, y0, grid, rtol, atol, check=check).T

    lam = np.ones_like(grid)
    if not (cs.c.is_zero and cs.d.is_zero):
        # a separate solve, so the six columns stay those of the system alone
        ell = _dop853_on_grid(lambda t, y: [c_fn(t) - 2.0 * d_fn(t)], (0.0,), grid, rtol, atol,
                              name="lambda quadrature")
        lam = np.exp(-ell[:, 0])

    return ErmakovPath(
        grid=grid, alpha=sol[0], beta=sol[1], gamma=sol[2],
        delta=sol[3], eps=sol[4], kappa=sol[5],
        init=init, coefficients=cs, lam=lam,
    )


# ---------------------------------------------------------------------------
# principal (singular) pieces built on mu0 alone

# the guard band: |mu0| below this fraction of its max over the path (row)
# holds the true poles of the principal pieces, where they read NaN
_GUARD = 1e-6


@dataclass(frozen=True)
class PrincipalPieces:
    """The principal state and driven triples, with poles at zeros of mu0:
    NaN inside the guard band, where `mask` is False.  The band always
    holds t = 0 (mu0(0) = 0), where the driven triple carries its finite
    limits instead."""

    grid: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    gamma0: np.ndarray
    delta0: np.ndarray
    eps0: np.ndarray
    kappa0: np.ndarray
    mask: np.ndarray  # True where the values are meaningful


def principal_pieces(frame: ComplexFrame) -> PrincipalPieces:
    """The six pieces of the module docstring, recovered algebraically from
    the frame (the driven triple from its zero-initial-data triple, exact
    in any frame), row by row for a frame with a path axis."""
    cs = frame.coefficients
    a_t, d_t = eval_coeffs(cs, frame.grid, ("a", "d"))
    kinetic0 = initial_kinetic(cs)
    mu0 = frame.mu0
    scale = np.max(np.abs(mu0), axis=-1, keepdims=True)
    mask = np.abs(mu0) >= _GUARD * np.where(scale == 0.0, 1.0, scale)
    absz = np.abs(frame.z)
    b0 = frame.init.beta0
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha0 = frame.mu0p / (4.0 * a_t * mu0) - d_t / (2.0 * a_t)
        beta0 = -frame.lam / mu0
        # d(0)/(2 a(0)) per path, when a(0) or d(0) has a column per path
        gamma0 = frame.mu1 / (2.0 * mu0) + np.expand_dims(cs.d(0.0) / (2.0 * kinetic0), -1)
        eps0 = -frame.eps_star * absz / (b0 * mu0)
        delta0 = frame.delta_star - frame.lam * eps0 * frame.z.real / absz**2
        kappa0 = frame.kappa_star - frame.eps_star * eps0 * frame.z.real / (2.0 * b0 * absz)
    for arr in (alpha0, beta0, gamma0, delta0, eps0, kappa0):
        arr[~mask] = np.nan
    # the grid starts at t = 0 (check_grid), where the finite limits hold
    limit = cs.g(0.0) / (2.0 * kinetic0)
    delta0[..., 0], eps0[..., 0], kappa0[..., 0] = limit, -limit, 0.0
    return PrincipalPieces(grid=frame.grid, alpha0=alpha0, beta0=beta0, gamma0=gamma0,
                           delta0=delta0, eps0=eps0, kappa0=kappa0, mask=mask)


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


def quasi_invariants(frame: ComplexFrame, path: ErmakovPath | None = None) -> QuasiInvariants:
    """Evaluate the four residuals for `path` (default: the closed-form
    path of `frame`).  Passing a directly integrated path instead checks
    the frame and the oracle against each other."""
    if path is None:
        path = closed_form_path(frame)
    if path.grid.shape != frame.grid.shape or not np.allclose(path.grid, frame.grid):
        raise ValueError("path must be sampled on the frame grid")

    init = frame.init
    pieces = principal_pieces(frame)
    b0 = init.beta0
    absz = np.abs(frame.z)
    zeta = frame.c3 + 1j * pieces.eps0

    with np.errstate(divide="ignore", invalid="ignore"):
        state = 2.0 * (path.alpha - pieces.alpha0) / path.beta**2 \
            + frame.z.real / frame.z.imag
        transport = np.abs(
            path.eps + 1j * (path.delta - pieces.delta0) / path.beta
            - zeta * frame.z / (b0 * absz)
        )
        moving = path.eps**2 + ((path.delta - pieces.delta0) / path.beta) ** 2
        anchored = init.eps0**2 + ((init.delta0 + pieces.eps0) / b0) ** 2
        amplitude = moving - anchored
        action = (
            path.kappa - init.kappa0 - pieces.kappa0
            - ((path.delta - pieces.delta0) / (2.0 * path.beta)) * path.eps
            + ((pieces.eps0 + init.delta0) / (2.0 * b0)) * init.eps0
        )

    for arr in (state, transport, amplitude, action):
        arr[~pieces.mask] = np.nan
    return QuasiInvariants(grid=frame.grid, state=state, transport=transport,
                           amplitude=amplitude, action=action, mask=pieces.mask)


def wronskian_drift(frame: ComplexFrame) -> float:
    """Max relative deviation of the direct Wronskian from the exact law
    W(t) = W(0) (a(t)/a(0)) lambda(t)^2.  A drift here means the basis
    integration itself is under-resolved."""
    predicted = frame.wronskian_predicted()
    scale = np.maximum(np.abs(predicted), np.finfo(float).tiny)
    return float(np.max(np.abs(frame.wronskian - predicted) / scale))


def check(value: float, tol: float) -> dict:
    """One check result: passes when the value is finite and within tol."""
    ok = math.isfinite(value) and value <= tol
    return {"value": value, "tolerance": tol, "pass": bool(ok)}


def uncertainty_floor(n: int) -> float:
    """(n + 1/2)^2, the least uncertainty product of number state n."""
    return (n + 0.5) ** 2


def uncertainty_deficit(product, n: int) -> float:
    """How far the least of the uncertainty products `product` (an array,
    or one float) falls below the floor of number state n: 0 when none
    does, and NaN when one is not finite, so that its check fails (an
    infinite product says nothing about the floor)."""
    if not np.isfinite(product).all():
        return math.nan
    return float(np.maximum(0.0, uncertainty_floor(n) - np.min(product)))


def invariant_checks(obs: FockObservables, qi: QuasiInvariants, comm: np.ndarray,
                     frame: ComplexFrame, tolerances: dict) -> dict:
    """The invariant suite of `run` and `verify`, each check judged against
    its entry of `tolerances`: how far the least uncertainty product of
    `obs` falls below its floor, the worst pointwise commutator defect
    `comm`, the Wronskian drift of `frame`, and the worst quasi-invariant
    residual of `qi`.  A NaN in any of them fails its check."""
    return {
        "uncertainty": check(uncertainty_deficit(obs.product, obs.n), tolerances["uncertainty"]),
        "commutator": check(float(np.max(comm)), tolerances["commutator"]),
        "wronskian": check(wronskian_drift(frame), tolerances["wronskian"]),
        "quasi_invariants": check(float(np.max(list(qi.worst().values()))),
                                  tolerances["quasi_invariants"]),
    }


def battery(scenario: Scenario, oracle_tol: float) -> dict:
    """Closed form vs direct integration, every structural invariant and
    the two geometric-phase routes (run's `phase_geo`, from the energy, and
    the state's), on the scenario's own grid at tight solver settings.  A
    noisy scenario is judged on its realization 0 at the same tolerances:
    the suite's defaults, with the quasi-invariants at 1e-7."""
    def window_set(grid):
        return (scenario.build_coefficients(float(grid[-1])) if scenario.noise is None
                else sample_path(scenario.noise, scenario.profile, grid))

    grid = build_grid(scenario)
    cs = window_set(grid)
    frame = build_frame(cs, grid, init=scenario.init, **_TIGHT)
    path = closed_form_path(frame)
    oracle = riccati_oracle(cs, grid, init=scenario.init, **_TIGHT)
    dev = float(np.max([np.max(np.abs(mine - theirs))
                        for mine, theirs in zip(path.columns(), oracle.columns())]))

    # Wronskian law over a window of length 20, rebuilt from scratch
    grid20 = np.linspace(0.0, 20.0, 401)
    frame20 = integrate_characteristic(window_set(grid20), grid20, **_TIGHT)

    obs = compute_observables(path, n=scenario.n)
    checks = invariant_checks(obs, quasi_invariants(frame, path),
                              commutator_defects(ansatz_path(path)), frame20,
                              dict(TOLERANCE_DEFAULTS, quasi_invariants=1e-7))
    checks["oracle_deviation"] = check(dev, oracle_tol)
    checks["heisenberg_residual"] = check(heisenberg_residual(frame), 1e-6)

    if scenario.profile is not None:
        checks["classical_equivalence"] = check(
            classical_mode_equivalence(cs.medium, grid), 1e-6)

    geo_state = accumulate_phases(grid, geometric_rate_state_route(path, scenario.n))
    gap = float(np.max(np.abs(obs.phase_geo - geo_state)))
    checks["phase_route_agreement"] = check(gap, 1e-6)
    return checks
