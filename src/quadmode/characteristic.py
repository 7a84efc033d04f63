"""Characteristic second-order equation behind the quadratic-Hamiltonian mode.

Eliminating the nonlinear first-order system in favour of a linear one: the
auxiliary amplitude mu obeys

    mu'' - tau(t) mu' + 4 sigma(t) mu = 0

with

    tau   = a'/a - 2c + 4d
    4sigma = 4ab - 4cd + 4d^2 + 2d a'/a - 2d'

All later quantities are assembled from two standard solutions and the
damping factor lambda(t) = exp(-int_0^t (c - 2d)):

    mu0(0) = 0,  mu0'(0) = 2 a(0)
    mu1(0) = 1,  mu1'(0) = 0

mu1 enters every closed form only as mu1/mu1(0), so its initial value is a
normalization, fixed at 1.

Their Wronskian W = mu0' mu1 - mu0 mu1' satisfies the first-order law
W' = tau W, which integrates exactly to W(t) = W(0) (a(t)/a(0)) lambda(t)^2.

For coefficients derived from a dielectric medium the combinations reduce
exactly (no accumulated integral needed):

    tau = -(chi + xi')/xi,    4 sigma = upsilon^2 / (xi eta).

Propagator core
---------------
`propagate` integrates the pair (mu, mu') = Y as the linear system
Y' = A(t) Y, A = [[0, 1], [-4 sigma, tau]], with the 6th-order three-node
Gauss-Legendre Magnus step (Blanes, Casas & Ros, BIT 40 (2000) 434;
Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, sec. 4).  A step of
length h samples A at the Gauss nodes t + (1/2 -+ sqrt(15)/10) h and
t + h/2 (A1, A3 and A2) and takes

    alpha1 = h A2,  alpha2 = sqrt(15) h/3 (A3 - A1),
    alpha3 = 10 h/3 (A3 - 2 A2 + A1),
    C1 = [alpha1, alpha2],  C2 = -1/60 [alpha1, 2 alpha3 + C1],
    Omega = alpha1 + alpha3/12 + 1/240 [-20 alpha1 - alpha3 + C1, alpha2 + C2],
    Y -> exp(Omega) Y

with the closed-form exponential of a general 2x2 matrix (from its trace
and determinant).  The commutators are traceless, so tr Omega is the
three-node Gauss quadrature of int tau over the step, det exp(Omega) =
exp(tr Omega), and the Wronskian law holds to that quadrature's error.
All steps are handled at once: one vectorized coefficient call covers
every node, every step exponential is formed in one pass, and the
fundamental matrix at the step nodes is a prefix product (Hillis-Steele
doubling).  ell = int (c - 2d) is the Gauss quadrature on the same nodes.

Error control is step doubling.  Each step is also taken as two halves;
the accepted solution is the two-half product and (halves - full) / 63
(2^6 - 1) is its Richardson error estimate.  A step passes when that
estimate, applied to the state at its left node, is within
(h / t_end)(atol + rtol |Y|) elementwise, so that the local errors of all
steps add up to at most rtol (relative) plus atol (absolute) over the
window.  Estimates below 16 ulp of |Y| count as met, so a tolerance under
rounding level cannot stall the refinement.  Steps start at the knots of
tabulated coefficients (the step's order needs coefficients smooth inside
it).  Failing steps are split, by the sixth-root law of that test, and
the whole pass repeats on the new steps.  A step also fails while exp(Omega)
could grow or turn by more than e^1 or one radian, which keeps the Magnus
series in its convergent range and puts an overflow within one step of
where it happens.  Steps never depend on the output grid: every read-off, on the
grid or at any t, is one partial Magnus step from the nearest node on the
left, vectorized over all requested times.

An optional driven transport rides on the same steps and the same error
control: a complex running integral q' = w(t) and a real action
r' = Im(q u) + Re(q^2 v), where (w, u, v) are supplied from the basis
state at t (see ermakov.build_frame).  q is the three-node Gauss
quadrature of w and r the three-stage Gauss collocation (both order 6),
on the Magnus nodes; the basis there is one partial Magnus step, on its
own three nodes, from the step's left node.  Both enter the doubling test
next to the basis.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .coefficients import CoefficientSet, MediumProfile, TableFunction
from .errors import BlowUpError, ConfigError, SingularCoefficientError, StiffnessError

__all__ = [
    "CharacteristicBasis",
    "Propagation",
    "build_tau_sigma",
    "propagate",
    "integrate_characteristic",
    "classical_mode_equivalence",
]

_STATE_BOUND = 1e150  # beyond this the path is treated as blown up

# classical_mode_equivalence: initial amplitude and velocity, and tolerances
_CLASSICAL_INIT = (1.0, 0.0)
_CLASSICAL_TOL = dict(rtol=1e-10, atol=1e-12)

# three-node Gauss-Legendre nodes and weights on [0, 1], and the
# three-stage Gauss collocation matrix
_R15 = math.sqrt(15.0)
_GAUSS = (0.5 - _R15 / 10.0, 0.5, 0.5 + _R15 / 10.0)
_WEIGHTS = (5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0)
_COLLOCATION = ((5.0 / 36.0, 2.0 / 9.0 - _R15 / 15.0, 5.0 / 36.0 - _R15 / 30.0),
                (5.0 / 36.0 + _R15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _R15 / 24.0),
                (5.0 / 36.0 + _R15 / 30.0, 2.0 / 9.0 + _R15 / 15.0, 5.0 / 36.0))
_RICHARDSON = 63.0     # 2^6 - 1: the two halves' error is (halves - whole) / this

_STEP_EXPONENT = 1.0   # largest growth or turning exponent of one step
_INITIAL_STEPS = 8
_MAX_SPLIT = 16        # pieces a failing step is cut into, at most, per pass
_MAX_STEPS = 200_000   # half steps; beyond this the estimate is deemed stuck
_MAX_PASSES = 60
_ROUNDOFF = 16.0 * np.finfo(float).eps  # estimates below this are rounding noise
_CHUNK = 8192          # segments per vectorized coefficient call


def build_tau_sigma(cs: CoefficientSet):
    """Return callables (tau, four_sigma) for the characteristic equation,
    valid at scalar or array t.  Medium-derived sets use the exact closed
    combinations."""
    med = cs.medium
    if med is not None:
        xi, eta, chi = med.xi, med.eta, med.chi
        ups2 = med.upsilon**2

        def tau(t):
            x = xi(t)
            return -(chi(t) + xi.deriv(t)) / x

        def four_sigma(t):
            return ups2 / (xi(t) * eta(t))

        return tau, four_sigma

    a, b, c, d = cs.a, cs.b, cs.c, cs.d
    if a.is_zero:
        raise SingularCoefficientError("kinetic coefficient a is identically zero")
    d_zero = d.is_zero

    def tau(t):
        base = a.log_deriv(t) - 2.0 * c(t)
        return base if d_zero else base + 4.0 * d(t)

    def four_sigma(t):
        prod = 4.0 * a(t) * b(t)
        if d_zero:
            return prod
        dv = d(t)
        return prod - 4.0 * c(t) * dv + 4.0 * dv * dv + 2.0 * dv * a.log_deriv(t) - 2.0 * d.deriv(t)

    return tau, four_sigma


def _quadrature(theta, values):
    """theta times the Gauss average of `values` at the three nodes (first
    axis)."""
    v1, v2, v3 = values
    return theta * (_WEIGHTS[0] * (v1 + v3) + _WEIGHTS[1] * v2)


def _commutator(x, y):
    """[x, y] of 2x2 matrices given as their entries (00, 01, 10, 11)."""
    diag = x[1] * y[2] - y[1] * x[2]
    return (diag, x[1] * (y[3] - y[0]) - y[1] * (x[3] - x[0]),
            x[2] * (y[0] - y[3]) - y[2] * (x[0] - x[3]), -diag)


def _omega(theta, tau, four_sigma):
    """Entries (00, 01, 10, 11) of the sixth-order Magnus exponent Omega of
    the steps of lengths theta (shape (m,)), from tau and 4 sigma at their
    three Gauss nodes (shape (3, m)); see the module docstring."""
    (t1, t2, t3), (s1, s2, s3) = tau, four_sigma
    k2, k3 = _R15 / 3.0 * theta, 10.0 / 3.0 * theta
    a1 = (0.0, theta, -theta * s2, theta * t2)
    # A = [[0, 1], [-4 sigma, tau]], so alpha2 and alpha3 have a zero first row
    a2 = (0.0, 0.0, k2 * (s1 - s3), k2 * (t3 - t1))
    a3 = (0.0, 0.0, k3 * (2.0 * s2 - s1 - s3), k3 * (t1 - 2.0 * t2 + t3))
    c1 = _commutator(a1, a2)
    c2 = tuple(-x / 60.0 for x in _commutator(a1, [2.0 * x + y for x, y in zip(a3, c1)]))
    outer = _commutator([c - 20.0 * x - z for x, c, z in zip(a1, c1, a3)],
                        [x + y for x, y in zip(a2, c2)])
    return tuple(x + z / 12.0 + w / 240.0 for x, z, w in zip(a1, a3, outer))


def _expm2(o00, o01, o10, o11):
    """exp(Omega), shape (2, 2, m), from the entries of Omega (each of shape
    (m,)) in closed form, with each step's exponent |tr Omega| / 2 +
    sqrt|det(traceless part)|."""
    half_trace = 0.5 * (o00 + o11)
    b = 0.5 * (o00 - o11)  # Omega - half_trace I = [[b, o01], [o10, -b]]
    disc = b * b + o01 * o10
    with np.errstate(all="ignore"):
        root = np.sqrt(np.abs(disc))
        grow = disc > 0.0
        ch = np.where(grow, np.cosh(root), np.cos(root))
        sh = np.where(root > 1e-3, np.where(grow, np.sinh(root), np.sin(root)) / root,
                      1.0 + disc / 6.0 + disc * disc / 120.0)
        scale = np.exp(half_trace)
        out = np.empty((2, 2) + half_trace.shape)
        out[0, 0] = scale * (ch + sh * b)
        out[0, 1] = scale * sh * o01
        out[1, 0] = scale * sh * o10
        out[1, 1] = scale * (ch - sh * b)
    return out, np.abs(half_trace) + root


def _mul(a, b):
    """Products of 2x2 matrices stacked along the last axis (a (2, 2)
    matrix b multiplies every one of a)."""
    return np.einsum("ijn,jkn->ikn" if b.ndim == 3 else "ijn,jk->ikn", a, b)


def _prefix_products(mats):
    """mats[..., k] becomes mats[k] ... mats[0], in place, by Hillis-Steele
    doubling."""
    shift = 1
    with np.errstate(all="ignore"):
        while shift < mats.shape[-1]:
            mats[..., shift:] = _mul(mats[..., shift:], mats[..., :-shift])
            shift *= 2
    return mats


class _Segments:
    """Partial Magnus steps [tl, tl + theta], vectorized: the propagators,
    the ell increments and the step exponents, from the rates at the three
    Gauss nodes of each segment.  With `nested`, also the propagators and
    ell increments from tl to each of the three Gauss nodes, each itself a
    Magnus step on three nodes (nine more per segment), which the driven
    transport reads the basis at.  Coefficients are evaluated in one call
    per coefficient function for every _CHUNK segments, which bounds the
    temporaries."""

    def __init__(self, rates, tl, theta, nested: bool):
        self.tl, self.theta = tl, theta
        parts = list(zip(*(self._chunk(rates, tl[i:i + _CHUNK], theta[i:i + _CHUNK], nested)
                           for i in range(0, tl.size, _CHUNK))))
        self.prop, self.exponent, self.dell = (np.concatenate(p, axis=-1) for p in parts[:3])
        if nested:
            self.sub_prop, self.sub_dell = (np.concatenate(p, axis=-1) for p in parts[3:])

    @staticmethod
    def _chunk(rates, tl, theta, nested):
        m = tl.size
        nodes = [tl + c * theta for c in _GAUSS]
        if nested:
            nodes += [tl + ci * cj * theta for ci in _GAUSS for cj in _GAUSS]
        points = np.concatenate(nodes)
        tau, four_sigma, ell_rate = (np.broadcast_to(v, points.shape).reshape(-1, m)
                                     for v in rates(points))
        prop, exponent = _expm2(*_omega(theta, tau[:3], four_sigma[:3]))
        dell = _quadrature(theta, ell_rate[:3])
        if not nested:
            return prop, exponent, dell
        # rows 3 + 3i + j hold node j of the sub-step to Gauss node i
        rows = [slice(3 + 3 * i, 6 + 3 * i) for i in range(3)]
        sub_prop = np.stack([_expm2(*_omega(c * theta, tau[r], four_sigma[r]))[0]
                             for c, r in zip(_GAUSS, rows)])
        sub_dell = np.stack([_quadrature(c * theta, ell_rate[r]) for c, r in zip(_GAUSS, rows)])
        return prop, exponent, dell, sub_prop, sub_dell

    def transport_rates(self, driven, y_left, ell_left):
        """(w, u, v) at the three Gauss nodes, each of shape (3, m), from the
        basis state on the left edge of every segment."""
        terms = [driven(self.tl + c * self.theta, _mul(self.sub_prop[i], y_left),
                        ell_left + self.sub_dell[i])
                 for i, c in enumerate(_GAUSS)]
        return [np.stack(parts) for parts in zip(*terms)]

    def q_steps(self, w):
        """Increments of q' = w: Gauss quadrature."""
        return _quadrature(self.theta, w)

    def r_steps(self, w, u, v, q_left):
        """Increments of r' = Im(q u) + Re(q^2 v): Gauss collocation, with
        the stage values of q from the collocation matrix."""
        stages = [q_left + self.theta * (c0 * w[0] + c1 * w[1] + c2 * w[2])
                  for c0, c1, c2 in _COLLOCATION]
        return _quadrature(self.theta, [(q * u[i]).imag + (q * q * v[i]).real
                                        for i, q in enumerate(stages)])


def _interleave(first, second):
    """Alternate two arrays along their last axis."""
    out = np.empty(first.shape[:-1] + (2 * first.shape[-1],),
                   dtype=np.result_type(first, second))
    out[..., 0::2] = first
    out[..., 1::2] = second
    return out


def _scaled_error(err, left, right, share, rtol, atol):
    """Largest |err| / (share (atol + rtol |y|) + roundoff |y|) per step
    (last axis), with |y| = max(|left|, |right|)."""
    size = np.maximum(np.abs(left), np.abs(right))
    ratio = np.abs(err) / (share * (atol + rtol * size) + _ROUNDOFF * size)
    return ratio.reshape(-1, share.size).max(axis=0)


@dataclass(frozen=True, eq=False)
class Propagation:
    """The accepted steps and the states at their nodes, with vectorized
    read-off anywhere in [0, ts[-1]].

    ts are the step nodes; y[..., k] = [[mu0, mu1], [mu0', mu1']] and
    ell[k] at ts[k]; q, r hold the driven transport at the nodes when
    `driven` is set.
    """

    ts: np.ndarray
    y: np.ndarray
    ell: np.ndarray
    rates: object
    driven: object = None
    q: np.ndarray | None = None
    r: np.ndarray | None = None

    def _segments(self, t, nested):
        """The left node k of every t, the basis there and the partial
        steps from it."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1, 0, self.ts.size - 2)
        # take, not [..., k]: that lays the read axis out first in memory,
        # and the einsum products over it run ~40x slower
        return k, np.take(self.y, k, axis=-1), _Segments(self.rates, self.ts[k],
                                                          t_arr - self.ts[k], nested)

    def _state(self, k, y_left, seg):
        y = _mul(seg.prop, y_left)
        return np.vstack([y[0, 0], y[1, 0], y[0, 1], y[1, 1], self.ell[k] + seg.dell])

    def __call__(self, t):
        """5-state (mu0, mu0', mu1, mu1', ell) at scalar or array t."""
        state = self._state(*self._segments(t, nested=False))
        return state[:, 0] if np.ndim(t) == 0 else state

    def read(self, t):
        """(state, q, r) at array t: the 5-state and, when `driven` is set,
        the transport q, r (else None, None).  The complex frame reads its
        grid and any off-grid times here, driven or not."""
        k, y_left, seg = self._segments(t, nested=self.driven is not None)
        if self.driven is None:
            return self._state(k, y_left, seg), None, None
        w, u, v = seg.transport_rates(self.driven, y_left, self.ell[k])
        return (self._state(k, y_left, seg), self.q[k] + seg.q_steps(w),
                self.r[k] + seg.r_steps(w, u, v, self.q[k]))


def _coefficient_rates(cs: CoefficientSet):
    tau, four_sigma = build_tau_sigma(cs)
    c, d = cs.c, cs.d

    def rates(t):
        with np.errstate(all="ignore"):
            return tau(t), four_sigma(t), c(t) - 2.0 * d(t)

    return rates


def _initial_edges(cs: CoefficientSet, t_end: float) -> np.ndarray:
    """Starting steps: the knots of any tabulated coefficient, so that no
    step straddles a spline knot (the Magnus step's order needs smooth
    coefficients inside the step), else a few equal steps."""
    fns = list(cs.functions())
    if cs.medium is not None:
        fns += [cs.medium.xi, cs.medium.eta, cs.medium.chi]
    knots = [fn.times for fn in fns if isinstance(fn, TableFunction)]
    if not knots:
        return np.linspace(0.0, t_end, _INITIAL_STEPS + 1)
    inner = np.unique(np.concatenate(knots))
    inner = inner[(inner > 1e-9 * t_end) & (inner < t_end * (1.0 - 1e-9))]
    return np.concatenate([[0.0], inner, [t_end]])


def _doubling_pass(rates, edges, y0, driven, rtol, atol):
    """Take every step of `edges` whole and as two halves, all at once:
    segments k, n + k and 2n + k are step k, its first half and its second
    half, each evaluated afresh (nested when `driven` is set).

    Returns the half-step nodes and the states there (basis, ell and, when
    driven, the transport q, r), each step's error ratio (<= 1 passes) and
    exponent, and which nodes are past the overflow guard."""
    t0, h = edges[:-1], np.diff(edges)
    n = h.size
    mid = t0 + 0.5 * h
    seg = _Segments(rates, np.concatenate([t0, t0, mid]), np.concatenate([h, 0.5 * h, 0.5 * h]),
                    nested=driven is not None)
    full, first, second = (seg.prop[..., i * n:(i + 1) * n] for i in range(3))
    dell = seg.dell.reshape(3, n)
    share = h / edges[-1]
    ts = np.append(_interleave(t0, mid), edges[-1])
    with np.errstate(all="ignore"):
        # node 2k is t0[k], node 2k + 1 is mid[k]
        ys = np.empty((2, 2, 2 * n + 1))
        ys[..., 0] = y0
        np.einsum("ijn,jk->ikn", _prefix_products(_interleave(first, second)), y0,
                  out=ys[..., 1:])
        ells = np.concatenate([[0.0], np.cumsum(_interleave(dell[1], dell[2]))])
        left, right = slice(0, -1, 2), slice(2, None, 2)
        estimate = _mul(_mul(second, first) - full, ys[..., left]) / _RICHARDSON
        ratio = np.maximum(
            _scaled_error(estimate, ys[..., left], ys[..., right], share, rtol, atol),
            _scaled_error((dell[1] + dell[2] - dell[0]) / _RICHARDSON, ells[left], ells[right],
                          share, rtol, atol))
        bad = ~np.isfinite(ells) | ~np.isfinite(ys).all(axis=(0, 1)) \
            | (np.abs(ys) > _STATE_BOUND).any(axis=(0, 1))
        qs = rs = None
        if driven is not None:
            def lefts(nodes):  # left node of the full, first-half, second-half segments
                return np.concatenate([nodes[..., left], nodes[..., left], nodes[..., 1::2]],
                                      axis=-1)

            w, u, v = seg.transport_rates(driven, lefts(ys), lefts(ells))
            dq = seg.q_steps(w).reshape(3, n)
            qs = np.concatenate([[0.0], np.cumsum(_interleave(dq[1], dq[2]))])
            dr = seg.r_steps(w, u, v, lefts(qs)).reshape(3, n)
            rs = np.concatenate([[0.0], np.cumsum(_interleave(dr[1], dr[2]))])
            for inc, nodes in ((dq, qs), (dr, rs)):
                ratio = np.maximum(ratio, _scaled_error((inc[1] + inc[2] - inc[0]) / _RICHARDSON,
                                                        nodes[left], nodes[right],
                                                        share, rtol, atol))
                bad |= ~np.isfinite(nodes) | (np.abs(nodes) > _STATE_BOUND)
    return ts, ys, ells, qs, rs, ratio, seg.exponent[:n], bad


def _split(edges, reject, ratio, exponent):
    """New step edges: each rejected step cut into equal pieces, enough for
    the error law to pass next time (or the exponent cap), or None past the
    step cap or the smallest step.  A step's error ratio falls as the 6th
    power of its length (local error h^7 against a tolerance share
    proportional to h), so n pieces divide it by n^6."""
    t0, h = edges[:-1], np.diff(edges)
    with np.errstate(all="ignore"):
        by_error = np.ceil(1.1 * np.cbrt(np.sqrt(ratio)))
        by_size = np.ceil(1.05 * exponent / _STEP_EXPONENT)
    by_error = np.where(np.isfinite(by_error), np.clip(by_error, 2, _MAX_SPLIT), _MAX_SPLIT)
    by_size = np.where(np.isfinite(by_size), by_size, _MAX_SPLIT)
    pieces = np.where(reject, np.maximum(by_error, by_size), 1).astype(np.int64)
    total = int(pieces.sum())
    if 2 * total > _MAX_STEPS or np.min(h[reject]) < 64 * np.finfo(float).eps * edges[-1]:
        return None
    owner = np.repeat(np.arange(h.size), pieces)
    offset = np.arange(total) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.append(t0[owner] + h[owner] * offset / pieces[owner], edges[-1])


def propagate(cs: CoefficientSet, t_end: float, rtol: float = 1e-10,
              atol: float = 1e-12, driven=None) -> Propagation:
    """Integrate both standard solutions and ell over [0, t_end] with the
    Magnus core, refining steps until the doubling estimate meets
    rtol/atol (see the module docstring).

    `driven(t, y, ell) -> (w, u, v)` adds the transport q' = w,
    r' = Im(q u) + Re(q^2 v) with q(0) = r(0) = 0.  Raises BlowUpError when
    a state passes the overflow guard (t is the last good node) and
    StiffnessError when the estimate does not converge within the step cap.
    """
    t_end = float(t_end)
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ConfigError("the integration window must have positive finite length",
                          field="grid.t_max")
    a0 = float(cs.a(0.0))
    if a0 == 0.0 or not np.isfinite(a0):
        raise SingularCoefficientError("a(0) must be finite and nonzero")
    rates = _coefficient_rates(cs)
    y0 = np.array([[0.0, 1.0], [2.0 * a0, 0.0]])
    edges = _initial_edges(cs, t_end)

    for _ in range(_MAX_PASSES):
        ts, ys, ells, qs, rs, ratio, exponent, bad = _doubling_pass(
            rates, edges, y0, driven, rtol, atol)
        # steps past the first node beyond the guard are not judged
        first_bad = int(np.argmax(bad)) if bad.any() else ts.size
        live = np.arange(ratio.size) <= (first_bad - 1) // 2
        reject = live & ~((ratio <= 1.0) & (exponent <= _STEP_EXPONENT))
        if not reject.any():
            if first_bad < ts.size:
                raise BlowUpError("characteristic solution exceeded the overflow guard",
                                  t=float(ts[max(first_bad - 1, 0)]))
            return Propagation(ts=ts, y=ys, ell=ells, rates=rates, driven=driven, q=qs, r=rs)
        t_stuck = float(edges[np.argmax(reject)])
        edges = _split(edges, reject, ratio, exponent)
        if edges is None:
            break
    raise StiffnessError("step-doubling estimate did not converge within "
                         f"{_MAX_STEPS} steps", t=t_stuck)


@dataclass(frozen=True)
class CharacteristicBasis:
    """Two standard solutions of the characteristic equation on a grid,
    together with the damping exponent ell = int (c - 2d) and convenience
    accessors.  `dense` is the Propagation that reads the full 5-state
    between grid points."""

    grid: np.ndarray
    mu0: np.ndarray
    mu0p: np.ndarray
    mu1: np.ndarray
    mu1p: np.ndarray
    ell: np.ndarray
    coefficients: CoefficientSet
    dense: Propagation

    @property
    def lam(self) -> np.ndarray:
        """Damping factor lambda = exp(-ell) on the grid."""
        return np.exp(-self.ell)

    @property
    def wronskian(self) -> np.ndarray:
        """Direct Wronskian mu0' mu1 - mu0 mu1' on the grid."""
        return self.mu0p * self.mu1 - self.mu0 * self.mu1p

    def wronskian_predicted(self) -> np.ndarray:
        """Wronskian from the integrated first-order law:
        W(t) = W(0) (a(t)/a(0)) lambda(t)^2, W(0) = 2 a(0)."""
        a = self.coefficients.a
        a_ratio = np.asarray(a(self.grid), dtype=float) / float(a(0.0))
        return 2.0 * float(a(0.0)) * a_ratio * self.lam**2

    @classmethod
    def from_state(cls, grid, state, cs, dense):
        return cls(grid=grid, mu0=state[0], mu0p=state[1], mu1=state[2], mu1p=state[3],
                   ell=state[4], coefficients=cs, dense=dense)


def check_grid(grid) -> np.ndarray:
    """Validate an output grid for the core: 1-d, from t = 0, strictly
    increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ConfigError("time grid must be a 1-d array with at least 2 points")
    if abs(grid[0]) > 1e-12:
        raise ConfigError("time grid must start at t = 0", field="grid.t0")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("time grid must be strictly increasing")
    return grid


def integrate_characteristic(
    cs: CoefficientSet,
    grid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> CharacteristicBasis:
    """Both standard solutions and the damping exponent on `grid`, read off
    the propagator core.  The grid must start at 0 (where the standard
    initial data live); the core's reader stays attached as `dense` for
    off-grid evaluation."""
    grid = check_grid(grid)
    prop = propagate(cs, grid[-1], rtol=rtol, atol=atol)
    return CharacteristicBasis.from_state(grid, prop(grid), cs, prop)


def classical_mode_equivalence(profile: MediumProfile, grid) -> float:
    """Max deviation between the quantum normalized mean position and the
    classical mode amplitude for the same medium and initial data.

    Classical side: q'' + ((xi' + chi)/xi) q' + (upsilon^2/(xi eta)) q = 0,
    with xi' from an independent 4th-order difference so the comparison does
    not share the analytic derivative path.  Quantum side: the normalized
    first-moment system xbar' = 2 a pbar, pbar' = -2 b xbar with
    xbar(0) = q0, pbar(0) = qdot0 / (2 a(0)).  The initial data (q0, qdot0)
    = (1, 0) and the solver tolerances are fixed (_CLASSICAL_*).
    """
    grid = np.asarray(grid, dtype=float)
    from .coefficients import medium_to_hamiltonian  # local to avoid cycle at import

    cs = medium_to_hamiltonian(profile, t_max=float(grid[-1]))
    a_fn, b_fn = cs.a, cs.b
    xi, eta, chi = profile.xi, profile.eta, profile.chi
    ups2 = profile.upsilon**2
    h = 1e-4

    def xi_prime(t: float) -> float:
        # keep the 5-point stencil inside [0, t_max]
        t = min(max(t, 2 * h), float(grid[-1]) - 2 * h)
        return (xi(t - 2 * h) - 8 * xi(t - h) + 8 * xi(t + h) - xi(t + 2 * h)) / (12 * h)

    def rhs(t, y):
        xq, pq, q, qd = y
        x = xi(t)
        return (
            2.0 * a_fn(t) * pq,
            -2.0 * b_fn(t) * xq,
            qd,
            -((xi_prime(t) + chi(t)) / x) * qd - (ups2 / (x * eta(t))) * q,
        )

    q0, qdot0 = _CLASSICAL_INIT
    y0 = (q0, qdot0 / (2.0 * float(a_fn(0.0))), q0, qdot0)
    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, t_eval=grid, method="DOP853",
                    **_CLASSICAL_TOL)
    if not sol.success:
        raise StiffnessError(f"equivalence check failed to integrate: {sol.message}")
    return float(np.max(np.abs(sol.y[0] - sol.y[2])))
