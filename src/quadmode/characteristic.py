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
normalization, fixed at 1.  The equation reads only a-d, so this basis is
the unforced set's (f = g = 0): integrate_characteristic returns that
set's frame (ermakov.build_frame), and the basis is no record of its own.

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
where it happens.  Steps never depend on the output grid.  A read-off at a
step node, t_end included, returns the state stored there; at any other t
in [0, t_end] it is one partial Magnus step from the nearest node on the
left, vectorized over all such times; a t outside by the one window rule
(coefficients._first_outside) raises.
(A noisy path's grid is all step nodes, because the noise table's knots
are the grid and steps start at knots.)

A pass also carries a set whose reads have columns (an ensemble chunk's
noisy paths, one table with a column per path over the run grid, so all
share their starting steps).  Its arrays, and a Propagation's, have a
path axis just before the step axis, one row for a plain set.  The rates
are build_tau_sigma's formulas applied to the set once per block of
segments: a read of the noisy table has shape (P, m), every other read
(m,), and they broadcast over the path axis.  Every reduction (prefix
products, running sums, error maxima) stays within its path, so each
path's states, ratios and guard flags are bitwise those of a pass over it
alone.  Only the first pass is shared: a path with a rejected step refines
alone, through the same loop, from that pass's ratios, on the set's take
of its column (propagate_stack, which gives the paths that kept the shared
steps one Propagation, read as one, and each refined path its own
Propagation or the error that ends it).  A solo path is a set without
columns: propagate and Propagation.read add no route of their own.
Driven sets (below) are always plain.

An optional driven transport rides on the same steps and the same error
control: a complex running integral q' = w(t) and a real action
r' = Im(q u) + Re(q^2 v), where (w, u, v) are supplied from the basis
state at t (see ermakov.build_frame).  q is the three-node Gauss
quadrature of w and r the three-stage Gauss collocation (both order 6),
on the Magnus nodes; the basis there is one partial Magnus step, on its
own three nodes, from the step's left node.  Both enter the doubling test
next to the basis.  Each stage of a driven block is one call: the whole
steps and the three sub-steps (lengths h, c1 h, c2 h, c3 h) side by side in
one exponent call (_omega, _expm2, _quadrature), and the three Magnus
nodes side by side in one call of the integrands.  A driven block holds a
quarter of an undriven one's segments, so no call sees more than _CHUNK
elements.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (_ZERO, CoefficientSet, ConstantFunction, MediumProfile,
                           TableFunction, _check_inside, medium_to_hamiltonian)
from .errors import (BlowUpError, ConfigError, QuadmodeError, SingularCoefficientError,
                     StiffnessError)

__all__ = [
    "Propagation",
    "build_tau_sigma",
    "propagate",
    "propagate_stack",
    "integrate_characteristic",
    "classical_mode_equivalence",
]

_STATE_BOUND = 1e150  # beyond this the path is treated as blown up

# classical_mode_equivalence: initial amplitude and velocity, and tolerances
_CLASSICAL_INIT = (1.0, 0.0)
_CLASSICAL_TOL = dict(rtol=1e-10, atol=1e-12)
_DIRECT_STEPS = 100_000  # DOP853 steps per grid interval of a direct solve

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
_CHUNK = 8192          # elements per call: segments x paths (x 4 stages when driven)


def build_tau_sigma(cs: CoefficientSet):
    """Return callables (tau, four_sigma) for the characteristic equation,
    valid at scalar or array t.  Medium-derived sets use the exact closed
    combinations: tau = a'/a is the medium's own log-derivative of a."""
    med = cs.medium
    if med is not None:
        xi, eta = med.xi, med.eta
        ups2 = med.upsilon**2

        def four_sigma(t):
            return ups2 / (xi(t) * eta(t))

        return cs.a.log_deriv, four_sigma

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
    # A = [[0, 1], [-4 sigma, tau]], so alpha1 = [[0, theta], [p, q]], and
    # alpha2 = [[0, 0], [u, v]] and alpha3 = [[0, 0], [e, f]] have a zero
    # first row: the commutators below are written without those zeros
    p, q = -theta * s2, theta * t2
    u, v = k2 * (s1 - s3), k2 * (t3 - t1)
    e, f = k3 * (2.0 * s2 - s1 - s3), k3 * (t1 - 2.0 * t2 + t3)
    # C1 = [alpha1, alpha2] = [[d1, g1], [h1, -d1]]
    d1, g1, h1 = theta * u, theta * v, u * q - p * v
    # C2 = -1/60 [alpha1, W], W = 2 alpha3 + C1 = [[d1, g1], [w2, w3]]
    w2, w3 = 2.0 * e + h1, 2.0 * f - d1
    d2 = theta * w2 - g1 * p
    c2 = (-d2 / 60.0, -(theta * (w3 - d1) - g1 * q) / 60.0,
          -(p * (d1 - w3) + w2 * q) / 60.0, d2 / 60.0)
    outer = _commutator((d1, g1 - 20.0 * theta, h1 - 20.0 * p - e, -d1 - 20.0 * q - f),
                        (c2[0], c2[1], u + c2[2], v + c2[3]))
    return (outer[0] / 240.0, theta + outer[1] / 240.0, p + e / 12.0 + outer[2] / 240.0,
            q + f / 12.0 + outer[3] / 240.0)


def _expm2(o00, o01, o10, o11):
    """exp(Omega), shape (2, 2, m), from the entries of Omega (each of shape
    (m,)) in closed form, with each step's exponent |tr Omega| / 2 +
    sqrt|det(traceless part)|."""
    half_trace = 0.5 * (o00 + o11)
    b = 0.5 * (o00 - o11)  # Omega - half_trace I = [[b, o01], [o10, -b]]
    disc = b * b + o01 * o10
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
    """Products of 2x2 matrices stacked along the trailing axes (which
    broadcast)."""
    return np.einsum("ij...,jk...->ik...", a, b)


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
    """Partial Magnus steps [tl, tl + theta], vectorized over the segments
    and over the columns of the coefficient set `cs` (one path for a plain
    set): the propagators, the ell increments and the step exponents, from
    the rates at the three Gauss nodes of each segment, with the path axis
    just before the segment axis.  With `nested`, also the propagators and
    ell increments from tl to each of the three Gauss nodes, each itself a
    Magnus step on three nodes (nine more per segment), which the driven
    transport reads the basis at.

    Each block of segments takes one call each of _rates, _omega, _expm2
    and _quadrature: a nested block lays its whole steps and the three
    sub-steps (lengths theta, c1 theta, c2 theta, c3 theta) side by side,
    and the transport takes all three Gauss nodes of a block in one call of
    `driven`.  A block holds _CHUNK // (stages x paths) segments, 4 stages
    when nested, else 1, so that no call sees more than _CHUNK elements;
    every operation is elementwise, so the block size changes no bit."""

    def __init__(self, cs, tl, theta, nested: bool):
        self.tl, self.theta = tl, theta
        paths = cs.width or 1
        scales = (1.0, *_GAUSS) if nested else (1.0,)  # step lengths, in theta
        self.span = span = max(1, _CHUNK // (len(scales) * paths))  # segments per block
        with np.errstate(all="ignore"):  # non-finite values are judged by the callers
            chunks = [self._chunk(cs, paths, tl[i:i + span], theta[i:i + span], scales)
                      for i in range(0, tl.size, span)]
        parts = [_concatenate(field, axis=-1) for field in zip(*chunks)]
        self.prop, self.exponent, self.dell = parts[:3]
        if nested:
            self.sub_prop, self.sub_dell = parts[3:]

    @staticmethod
    def _chunk(cs, paths, tl, theta, scales):
        m, stages = tl.size, len(scales)
        # node j of the step of length s theta is tl + (s c_j) theta, the
        # product s c_j first: c_j (s theta) rounds differently
        nodes = [tl + s * c * theta for c in _GAUSS for s in scales]
        # (node row, stage x path x segment): the stages and paths side by
        # side on one flat axis, so that the arithmetic below runs on 1-d
        # arrays
        tau, four_sigma, ell_rate = (
            x.reshape(paths, 3, stages, m).transpose(1, 2, 0, 3).reshape(3, stages * paths * m)
            for x in _rates(cs, paths, np.concatenate(nodes)))
        theta = np.concatenate([s * theta for s in scales for _ in range(paths)])
        parts = [*_expm2(*_omega(theta, tau, four_sigma)), _quadrature(theta, ell_rate)]
        parts = [x.reshape(x.shape[:-1] + (stages, paths, m)) for x in parts]
        whole = [x[..., 0, :, :] for x in parts]
        if stages == 1:
            return whole
        # the sub-steps' propagators and ell increments, sub-step first
        return whole + [np.moveaxis(parts[0][..., 1:, :, :], -3, 0),
                        np.moveaxis(parts[2][..., 1:, :, :], -3, 0)]

    def transport_rates(self, driven, y_left, ell_left):
        """(w, u, v) at the three Gauss nodes, each of shape (3, P, m), from
        the basis state on the left edge of every segment: one call of
        `driven` per block, on its three nodes side by side."""
        blocks = []
        for i in range(0, self.tl.size, self.span):
            b = slice(i, i + self.span)
            tl, theta = self.tl[b], self.theta[b]
            terms = driven(np.concatenate([tl + c * theta for c in _GAUSS]),
                           np.concatenate([_mul(sub[..., b], y_left[..., b])
                                           for sub in self.sub_prop], axis=-1),
                           np.concatenate([ell_left[..., b] + sub[..., b]
                                           for sub in self.sub_dell], axis=-1))
            # (P, 3 x block) -> (3, P, block)
            blocks.append([np.moveaxis(x.reshape(x.shape[:-1] + (3, -1)), -2, 0) for x in terms])
        return [_concatenate(parts, axis=-1) for parts in zip(*blocks)]

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


def _concatenate(parts, axis):
    """np.concatenate, without the copy when there is one part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _thirds(x):
    """The whole steps, first halves and second halves of a pass's
    segments (last axis)."""
    n = x.shape[-1] // 3
    return x[..., :n], x[..., n:2 * n], x[..., 2 * n:]


def _running(increments):
    """Running sums along the last axis, starting from 0."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,), dtype=increments.dtype)
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def _scaled_error(err, left, right, share, rtol, atol):
    """|err| / (share (atol + rtol |y|) + roundoff |y|) elementwise, with
    |y| = max(|left|, |right|)."""
    size = np.maximum(np.abs(left), np.abs(right))
    return np.abs(err) / (share * (atol + rtol * size) + _ROUNDOFF * size)


@dataclass(frozen=True, eq=False)
class Propagation:
    """The accepted steps and the states at their nodes, with vectorized
    read-off anywhere in [0, ts[-1]]: a t that is a node reads the stored
    values, any other t one partial Magnus step from its left node.

    ts are the step nodes; y[..., p, k] = [[mu0, mu1], [mu0', mu1']] and
    ell[p, k] of path p at ts[k], with a row per column of `coefficients`,
    the set the rates are read from (one row for a plain set); q, r hold
    the driven transport at the nodes, (1, n), when `driven` is set.
    """

    ts: np.ndarray
    y: np.ndarray
    ell: np.ndarray
    coefficients: CoefficientSet
    driven: object = None
    q: np.ndarray | None = None
    r: np.ndarray | None = None

    def read(self, t):
        """(state, q, r, left) at array t, with a path axis: the 5-state
        (5, P, m), P the set's columns (1 for a plain set); when driven,
        the transport q, r (1, m), else None, None; and each t's left step
        node, an index into ts.  Every t is filled from its left node, and
        a t that is not a node then takes one partial step from there, all
        in one call.  A t that breaks the one window rule
        (coefficients._first_outside) against [0, ts[-1]] raises
        CoefficientEvaluationError naming it."""
        ts, driven = self.ts, self.driven
        t = np.atleast_1d(np.asarray(t, dtype=float))
        _check_inside(t, 0.0, ts[-1], detail="outside the propagated window")
        left = np.maximum(np.searchsorted(ts, t, side="right") - 1, 0)
        # take, not [..., k]: that lays the read axis out first in memory,
        # and the einsum products over it run ~40x slower
        y, ell = self.y, self.ell
        state = _state(np.take(y, left, axis=-1), np.take(ell, left, axis=-1))
        q = r = None
        if driven is not None:
            q, r = self.q[:, left], self.r[:, left]
        off = np.flatnonzero(ts[left] != t)
        if off.size:
            k = np.minimum(left[off], ts.size - 2)
            y_left = np.take(y, k, axis=-1)
            ell_left = np.take(ell, k, axis=-1)
            seg = _Segments(self.coefficients, ts[k], t[off] - ts[k], nested=driven is not None)
            state[..., off] = _state(_mul(seg.prop, y_left), ell_left + seg.dell)
            if driven is not None:
                w, u, v = seg.transport_rates(driven, y_left, ell_left)
                q_left = self.q[:, k]
                q[:, off] = q_left + seg.q_steps(w)
                r[:, off] = self.r[:, k] + seg.r_steps(w, u, v, q_left)
        return state, q, r, left


def _state(y, ell):
    """The 5-state rows (mu0, mu0', mu1, mu1', ell) from the basis y and ell."""
    return np.stack([y[0, 0], y[1, 0], y[0, 1], y[1, 1], ell])


def _rates(cs, paths: int, t) -> np.ndarray:
    """tau, 4 sigma and the ell rate c - 2d of the coefficient set at the
    1-d times t, shape (3, paths, t.size): build_tau_sigma's formulas,
    whose reads of the set's columns (paths, t.size) and of every other
    function (t.size,) broadcast over the path axis."""
    out = np.empty((3, paths, t.size))
    tau, four_sigma = build_tau_sigma(cs)
    out[0] = tau(t)
    out[1] = four_sigma(t)
    out[2] = cs.c(t) - 2.0 * cs.d(t)
    return out


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


def _doubling_pass(cs, edges, y0, driven, rtol, atol):
    """Take every step of `edges` whole and as two halves, all at once, for
    the P paths of the coefficient set `cs` (its columns, or one path for a
    plain set; `y0` of shape (2, 2, P)): segments k, n + k and 2n + k are
    step k, its first half and its second half, each evaluated afresh
    (nested when `driven` is set, which only a plain set takes).

    Returns the half-step nodes and, per path (the axis before the last),
    the states there (basis, ell and, when driven, the transport q, r),
    each step's error ratio (<= 1 passes) and exponent, and which nodes are
    past the overflow guard."""
    t0, h = edges[:-1], np.diff(edges)
    n = h.size
    mid = t0 + 0.5 * h
    seg = _Segments(cs, np.concatenate([t0, t0, mid]), np.concatenate([h, 0.5 * h, 0.5 * h]),
                    nested=driven is not None)
    full, first, second = _thirds(seg.prop)
    dell = _thirds(seg.dell)
    share = h / edges[-1]
    ts = np.append(_interleave(t0, mid), edges[-1])
    with np.errstate(all="ignore"):
        # node 2k is t0[k], node 2k + 1 is mid[k]
        ys = np.empty(y0.shape + (2 * n + 1,))
        ys[..., 0] = y0
        np.einsum("ijpn,jkp->ikpn", _prefix_products(_interleave(first, second)), y0,
                  out=ys[..., 1:])
        ells = _running(_interleave(dell[1], dell[2]))
        left, right = slice(0, -1, 2), slice(2, None, 2)
        estimate = _mul(_mul(second, first) - full, ys[..., left]) / _RICHARDSON
        ratio = np.maximum(
            _scaled_error(estimate, ys[..., left], ys[..., right], share, rtol,
                          atol).max(axis=(0, 1)),
            _scaled_error((dell[1] + dell[2] - dell[0]) / _RICHARDSON, ells[..., left],
                          ells[..., right], share, rtol, atol))
        bad = ~np.isfinite(ells) | ~np.isfinite(ys).all(axis=(0, 1)) \
            | (np.abs(ys) > _STATE_BOUND).any(axis=(0, 1))
        qs = rs = None
        if driven is not None:
            def lefts(nodes):  # left node of the full, first-half, second-half segments
                return np.concatenate([nodes[..., left], nodes[..., left], nodes[..., 1::2]],
                                      axis=-1)

            w, u, v = seg.transport_rates(driven, lefts(ys), lefts(ells))
            dq = _thirds(seg.q_steps(w))
            qs = _running(_interleave(dq[1], dq[2]))
            dr = _thirds(seg.r_steps(w, u, v, lefts(qs)))
            rs = _running(_interleave(dr[1], dr[2]))
            for inc, nodes in ((dq, qs), (dr, rs)):
                ratio = np.maximum(ratio, _scaled_error((inc[1] + inc[2] - inc[0]) / _RICHARDSON,
                                                        nodes[..., left], nodes[..., right],
                                                        share, rtol, atol))
                bad |= ~np.isfinite(nodes) | (np.abs(nodes) > _STATE_BOUND)
    return ts, ys, ells, qs, rs, ratio, seg.exponent[..., :n], bad


def _split(edges, reject, ratio, exponent):
    """New step edges: each rejected step cut into equal pieces, enough for
    the error law to pass next time (or the exponent cap); or, past the
    step cap or below the smallest step, the words naming that limit.  A
    step's error ratio falls as the 6th power of its length (local error
    h^7 against a tolerance share proportional to h), so n pieces divide it
    by n^6."""
    t0, h = edges[:-1], np.diff(edges)
    with np.errstate(all="ignore"):
        by_error = np.ceil(1.1 * np.cbrt(np.sqrt(ratio)))
        by_size = np.ceil(1.05 * exponent / _STEP_EXPONENT)
    by_error = np.where(np.isfinite(by_error), np.clip(by_error, 2, _MAX_SPLIT), _MAX_SPLIT)
    by_size = np.where(np.isfinite(by_size), by_size, _MAX_SPLIT)
    # capped before the cast, so that no count leaves the int64 range; any
    # count at the cap is past the step cap below
    pieces = np.where(reject, np.minimum(np.maximum(by_error, by_size), _MAX_STEPS),
                      1).astype(np.int64)
    total = int(pieces.sum())
    if 2 * total > _MAX_STEPS:
        return f"within the step cap of {_MAX_STEPS} half steps"
    smallest = 64 * np.finfo(float).eps * edges[-1]
    if np.min(h[reject]) < smallest:
        return f"above the smallest step of {smallest:.3g} (64 ulp of t_end)"
    owner = np.repeat(np.arange(h.size), pieces)
    offset = np.arange(total) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.append(t0[owner] + h[owner] * offset / pieces[owner], edges[-1])


def propagate(cs: CoefficientSet, t_end: float, rtol: float = 1e-10,
              atol: float = 1e-12, driven=None) -> Propagation:
    """Integrate both standard solutions and ell over [0, t_end] with the
    Magnus core, refining steps until the doubling estimate meets
    rtol/atol (see the module docstring), for a plain set.

    `driven(t, y, ell) -> (w, u, v)` adds the transport q' = w,
    r' = Im(q u) + Re(q^2 v) with q(0) = r(0) = 0.  Raises BlowUpError when
    a state passes the overflow guard (t is the last good node) and
    StiffnessError, naming the limit, when the estimate does not converge
    within the step cap, above the smallest step or within the pass cap.
    """
    ((_, result),) = propagate_stack(cs, t_end, rtol, atol, driven)
    if isinstance(result, QuadmodeError):
        raise result
    return result


def initial_kinetic(cs):
    """a(0) (per column, when a has columns), if finite and nonzero, else
    SingularCoefficientError at t = 0."""
    a0 = cs.a(0.0)
    if not np.all((a0 != 0.0) & np.isfinite(a0)):
        raise SingularCoefficientError("a(0) must be finite and nonzero", t=0.0)
    return float(a0) if np.ndim(a0) == 0 else a0


def propagate_stack(cs: CoefficientSet, t_end: float, rtol: float = 1e-10,
                    atol: float = 1e-12, driven=None) -> list:
    """`propagate` of each column of the coefficient set (a plain set is
    one path), as [(columns, result)]: the columns that kept the steps of
    the first doubling pass, taken together, with their one Propagation
    (over the set's take of them), and each column that refined alone with
    its Propagation or the QuadmodeError that ended it (BlowUpError,
    StiffnessError).  Every column's result is bitwise the one propagate
    gives that column alone.  The starting steps and a(0) are the set's
    own, found once.  A bad window (or a t_end past the set's, _check_inside),
    a bad a(0) in any column, and a pass whose coefficient reads raise,
    raise for the whole set.

    One refinement loop takes every pass: the first takes all the paths,
    and a path with a rejected step goes on alone, on the set's take of
    its column, from that pass's ratios."""
    t_end = float(t_end)
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ConfigError("the integration window must have positive finite length",
                          field="grid.t_max")
    _check_inside(t_end, *cs.window)
    y0 = np.zeros((2, 2, cs.width or 1))
    y0[0, 1] = 1.0
    y0[1, 0] = 2.0 * initial_kinetic(cs)
    out = []
    # (set, its paths, their steps, pass number)
    work = [(cs, list(range(y0.shape[-1])), _initial_edges(cs, t_end), 1)]
    while work:
        stack, paths, edges, passes = work.pop()
        ts, ys, ells, qs, rs, ratio, exponent, bad = _doubling_pass(
            stack, edges, y0[:, :, paths], driven, rtol, atol)
        kept = []
        for i, p in enumerate(paths):
            # steps past the first node beyond the guard are not judged
            first_bad = int(np.argmax(bad[i])) if bad[i].any() else ts.size
            live = np.arange(ratio.shape[-1]) <= (first_bad - 1) // 2
            reject = live & ~((ratio[i] <= 1.0) & (exponent[i] <= _STEP_EXPONENT))
            if not reject.any():
                if first_bad < ts.size:
                    out.append(([p], BlowUpError("characteristic solution exceeded the overflow "
                                                 "guard", t=float(ts[max(first_bad - 1, 0)]))))
                else:
                    kept.append(i)
                continue
            refined = _split(edges, reject, ratio[i], exponent[i])
            if passes == _MAX_PASSES and not isinstance(refined, str):
                refined = f"within the pass cap of {_MAX_PASSES} refinement passes"
            if isinstance(refined, str):
                out.append(([p], StiffnessError("step-doubling estimate did not converge "
                                                + refined, t=float(edges[np.argmax(reject)]))))
            else:
                work.append((stack.take([i]) if len(paths) > 1 else stack, [p], refined,
                             passes + 1))
        if kept:
            group = stack if len(kept) == len(paths) else stack.take(kept)
            pick = slice(None) if group is stack else kept
            out.append(([paths[i] for i in kept], Propagation(
                ts=ts, y=ys[:, :, pick], ell=ells[pick], coefficients=group, driven=driven,
                q=None if qs is None else qs[pick], r=None if rs is None else rs[pick])))
    return out


def check_grid(grid) -> np.ndarray:
    """Validate an output grid for the core: 1-d, finite, from t = 0,
    strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ConfigError("time grid must be a 1-d array with at least 2 points")
    if not np.isfinite(grid).all():
        raise ConfigError("time grid entries must be finite")
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
):
    """The characteristic basis on `grid`: the frame of the unforced set
    (cs with f = g = 0; the equation reads only a-d), by
    ermakov.build_frame.  The grid must start at 0 (where the standard
    initial data live)."""
    from .ermakov import build_frame  # ermakov imports this module

    return build_frame(replace(cs, f=_ZERO, g=_ZERO), grid, rtol=rtol, atol=atol)


def _dop853_on_grid(rhs, y0, grid, rtol: float, atol: float, check=None,
                    name: str = "direct integration") -> np.ndarray:
    """States of y' = rhs(t, y), y(grid[0]) = y0, at every point of `grid`
    (shape (grid.size, len(y0))): the direct solves of the oracles, which
    share nothing with the propagator core.  `rhs` is called with a float
    t, thousands of times a solve; the oracles' rhs read the coefficients
    they need through their scalar reads (`fn.scalar`), bound before the
    solve, and riccati_oracle's reads neither c, f nor g when all three are
    zero.

    scipy's compiled DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
    1993) runs its step loop in Fortran and is restarted at each grid point
    in turn, from the smallest grid spacing as its first step.  A noisy
    realization's tables have their knots at the grid points, so no step
    straddles a knot, where the coefficients lose smoothness and an
    eighth-order step its order.  `rhs` returns a list; its arithmetic may
    overflow to inf (the step is then rejected), and `check(t, y)`, when
    given, sees the state after every accepted step and may raise to stop.
    An exception raised in either reaches the caller as itself, at once; a
    solver failure raises StiffnessError with the t where it stopped.
    scipy.integrate is imported here, on the first direct solve, so that a
    process that makes none never loads it.
    """
    from scipy.integrate import ode

    raised = []

    def guarded(fn, stop):
        # an exception cannot cross the Fortran loop, which would carry on
        # with garbage: keep it, answer `stop` from now on, re-raise below
        def call(*args):
            if not raised:
                try:
                    return fn(*args)
                except BaseException as exc:
                    raised.append(exc)
            return stop
        return call

    solver = ode(guarded(rhs, [0.0] * len(y0)))
    solver.set_integrator("dop853", rtol=rtol, atol=atol, nsteps=_DIRECT_STEPS,
                          first_step=float(np.min(np.diff(grid))))
    # the solout callback ends the run (-1) as soon as an exception is kept
    solver.set_solout(guarded(check or (lambda t, y: None), -1))
    solver.set_initial_value(y0, float(grid[0]))
    out = np.empty((grid.size, len(y0)))
    out[0] = y0
    with warnings.catch_warnings(record=True) as failure, np.errstate(all="ignore"):
        warnings.simplefilter("always", UserWarning)  # scipy's report of a failure
        for k in range(1, grid.size):
            out[k] = solver.integrate(grid[k])
            if raised:
                raise raised[0]
            if not solver.successful():
                raise StiffnessError(f"{name} failed: {failure[-1].message}", t=float(solver.t))
    return out


def classical_mode_equivalence(profile: MediumProfile, grid) -> float:
    """Max deviation between the quantum normalized mean position and the
    classical mode amplitude for the same medium and initial data.

    Classical side: q'' + ((xi' + chi)/xi) q' + (upsilon^2/(xi eta)) q = 0,
    with xi' from an independent 4th-order difference so the comparison does
    not share the analytic derivative path.  Quantum side: the normalized
    first-moment system xbar' = 2 a pbar, pbar' = -2 b xbar with
    xbar(0) = q0, pbar(0) = qdot0 / (2 a(0)).  The initial data (q0, qdot0)
    = (1, 0) and the solver tolerances are fixed (_CLASSICAL_*).  Both sides
    are one solve by DOP853, restarted at every grid point (_dop853_on_grid),
    so that a noisy realization's knots are never inside a step, and read
    every coefficient through its scalar read, bound before the solve.
    The grid must pass check_grid, as the core's does.
    """
    grid = check_grid(grid)
    cs = medium_to_hamiltonian(profile, t_max=float(grid[-1]))
    a_fn, b_fn = cs.a.scalar, cs.b.scalar
    xi, eta, chi = profile.xi.scalar, profile.eta.scalar, profile.chi.scalar
    ups2 = profile.upsilon**2
    h = 1e-4
    t_lo, t_hi = 2 * h, float(grid[-1]) - 2 * h

    def xi_prime(t: float) -> float:
        # keep the 5-point stencil inside [0, t_max]
        t = min(max(t, t_lo), t_hi)
        return (xi(t - 2 * h) - 8 * xi(t - h) + 8 * xi(t + h) - xi(t + 2 * h)) / (12 * h)

    if isinstance(profile.xi, ConstantFunction):  # the same stencil at every t
        value = xi_prime(t_lo)
        xi_prime = lambda t: value  # noqa: E731

    def rhs(t, y):
        xq, pq, q, qd = y.tolist()
        x = xi(t)
        return [
            2.0 * a_fn(t) * pq,
            -2.0 * b_fn(t) * xq,
            qd,
            -((xi_prime(t) + chi(t)) / x) * qd - (ups2 / (x * eta(t))) * q,
        ]

    q0, qdot0 = _CLASSICAL_INIT
    y0 = (q0, qdot0 / (2.0 * float(a_fn(0.0))), q0, qdot0)
    sol = _dop853_on_grid(rhs, y0, grid, name="equivalence check", **_CLASSICAL_TOL)
    return float(np.max(np.abs(sol[:, 0] - sol[:, 2])))
