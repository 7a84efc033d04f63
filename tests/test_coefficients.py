"""Coefficient functions, presets, and the medium mapping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmode import (
    CoefficientEvaluationError,
    ConfigError,
    ConstantFunction,
    ExponentialFunction,
    InvalidMediumError,
    SinusoidFunction,
    TableFunction,
    medium_to_hamiltonian,
    preset_coefficients,
)
from quadmode.coefficients import (
    MediumProfile,
    _fd4_derivative_samples,
    _UniformCubic,
    eval_coeffs,
    function_from_spec,
)


def test_constant_and_exponential_values():
    c = ConstantFunction(0.5)
    assert c(3.7) == 0.5
    assert c.deriv(3.7) == 0.0
    assert c.is_zero is False
    assert ConstantFunction(0.0).is_zero is True

    e = ExponentialFunction(0.5, -2.0)
    assert e(1.0) == pytest.approx(0.5 * math.exp(-2.0), rel=1e-15)
    assert e.deriv(1.0) == pytest.approx(-2.0 * e(1.0), rel=1e-15)
    assert e.log_deriv(0.3) == -2.0


def test_sinusoid_and_array_eval():
    s = SinusoidFunction(0.5, 0.05, 2.0)
    t = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(s(t), 0.5 + 0.05 * np.sin(2.0 * t), rtol=1e-15)
    np.testing.assert_allclose(s.deriv(t), 0.1 * np.cos(2.0 * t), rtol=1e-14)


def test_table_matches_smooth_function():
    t = np.linspace(0.0, 4.0, 401)
    tab = TableFunction(t, np.cos(t))
    probe = np.linspace(0.05, 3.95, 57)
    np.testing.assert_allclose(tab(probe), np.cos(probe), atol=5e-9)
    np.testing.assert_allclose(tab.deriv(probe), -np.sin(probe), atol=5e-7)
    # scalar path agrees with the vector path
    assert tab(1.2345) == pytest.approx(float(tab(np.array([1.2345]))[0]), abs=1e-15)


def test_table_rejects_bad_input():
    with pytest.raises(ConfigError):
        TableFunction([0.0, 0.1, 0.3, 0.4, 0.5], [1, 1, 1, 1, 1])  # nonuniform
    with pytest.raises(ConfigError):
        TableFunction([0.0, 0.1, 0.2], [1, 1, 1])  # too short
    tab = TableFunction(np.linspace(0, 1, 11), np.ones(11))
    with pytest.raises(CoefficientEvaluationError):
        tab(1.5)


def test_caldirola_kanai_preset_values():
    cs = preset_coefficients("caldirola_kanai", rate=1.0)
    a, b, c, d, f, g = eval_coeffs(cs, 1.0)
    assert a == pytest.approx(0.5 * math.exp(-2.0), rel=1e-15)
    assert b == pytest.approx(0.5 * math.exp(2.0), rel=1e-15)
    assert c == d == f == g == 0.0
    assert not cs.driven


def test_driven_preset_flags_linear_terms():
    cs = preset_coefficients("driven", force=1.0)
    assert cs.driven
    _, _, _, _, f, _ = eval_coeffs(cs, 0.0)
    assert f == 1.0


def test_constant_preset_requires_kinetic_term():
    with pytest.raises(ConfigError):
        preset_coefficients("constant", b=0.5)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_coefficients("harmonic")


def test_eval_coeffs_window_and_finiteness():
    cs = preset_coefficients("static_oscillator")
    cs = type(cs)(*cs.functions(), window=(0.0, 2.0))
    with pytest.raises(CoefficientEvaluationError):
        eval_coeffs(cs, 2.5)
    # the error names the first time outside the window, not the smallest
    with pytest.raises(CoefficientEvaluationError) as exc:
        eval_coeffs(cs, np.array([0.0, 1.0, 9.0, 3.0]))
    assert exc.value.t == 9.0
    bad = type(cs)(ExponentialFunction(1.0, 1000.0), *cs.functions()[1:], window=(0.0, 2.0))
    with pytest.raises(CoefficientEvaluationError):
        eval_coeffs(bad, 1.5)


def test_medium_mapping_identities():
    # xi = eta = 1, chi = 0.1: a = e^{-0.1 t}/2, b = e^{0.1 t}/2
    prof = MediumProfile(
        xi=ConstantFunction(1.0), eta=ConstantFunction(1.0), chi=ConstantFunction(0.1)
    )
    cs = medium_to_hamiltonian(prof, t_max=10.0)
    t = np.linspace(0.0, 10.0, 41)
    a, b, c, d, f, g = eval_coeffs(cs, t)
    np.testing.assert_allclose(a, 0.5 * np.exp(-0.1 * t), rtol=1e-10)
    np.testing.assert_allclose(b, 0.5 * np.exp(+0.1 * t), rtol=1e-10)
    assert np.all(c == 0) and np.all(d == 0) and np.all(f == 0) and np.all(g == 0)
    # the product 4ab = upsilon^2/(xi eta) holds pointwise regardless of chi
    np.testing.assert_allclose(4 * a * b, np.ones_like(t), rtol=1e-12)
    # exact logarithmic derivatives
    np.testing.assert_allclose(cs.a.log_deriv(t), -0.1 * np.ones_like(t), atol=1e-12)
    np.testing.assert_allclose(cs.b.log_deriv(t), +0.1 * np.ones_like(t), atol=1e-12)


def test_medium_mapping_time_dependent_xi():
    # xi = 1 + 0.2 sin t: log-deriv of a is -(chi + xi')/xi
    from scipy.integrate import quad

    xi = SinusoidFunction(1.0, 0.2, 1.0)
    prof = MediumProfile(xi=xi, eta=ConstantFunction(1.0), chi=ConstantFunction(0.05))
    for t_max in (6.0, 20.0, 100.0):
        cs = medium_to_hamiltonian(prof, t_max=t_max)
        t = np.linspace(0.0, t_max, 25)
        expect = -(0.05 + 0.2 * np.cos(t)) / (1.0 + 0.2 * np.sin(t))
        np.testing.assert_allclose(cs.a.log_deriv(t), expect, rtol=1e-12)
        # a * xi * exp(Ichi) should stay exactly 1/2
        a = cs.a(t)
        ratio = 0.5 / (a * xi(t))
        incr = np.diff(np.log(ratio))
        # d/dt log ratio = chi/xi, check against quadrature of the exact integrand
        for i in (5, 12, 20):
            val, _ = quad(lambda s: 0.05 / (1.0 + 0.2 * math.sin(s)), 0.0, t[i],
                          epsabs=1e-13, limit=200)
            assert math.log(ratio[i]) == pytest.approx(val, abs=1e-10), (t_max, i)
        assert incr.shape == (24,)


def test_medium_rejects_nonpositive_xi():
    prof = MediumProfile(
        xi=SinusoidFunction(0.5, 1.0, 1.0),  # dips negative
        eta=ConstantFunction(1.0),
        chi=ConstantFunction(0.0),
    )
    with pytest.raises(InvalidMediumError):
        medium_to_hamiltonian(prof, t_max=10.0)


def test_medium_rejects_nonfinite_chi_over_xi():
    # exp(1000 t) overflows inside the window: a numerical error naming chi
    prof = MediumProfile(
        xi=SinusoidFunction(1.0, 0.2, 1.0),
        eta=ConstantFunction(1.0),
        chi=ExponentialFunction(1.0, 1000.0),
    )
    with pytest.raises(CoefficientEvaluationError, match="chi"):
        medium_to_hamiltonian(prof, t_max=10.0)


def test_medium_allows_transient_gain():
    # negative chi is transient gain, not an invalid medium
    prof = MediumProfile(
        xi=ConstantFunction(1.0),
        eta=ConstantFunction(1.0),
        chi=ConstantFunction(-0.01),
    )
    cs = medium_to_hamiltonian(prof, t_max=5.0)
    a, b, *_ = eval_coeffs(cs, 5.0)
    assert a == pytest.approx(0.5 * math.exp(0.05), rel=1e-10)


def test_medium_profile_validation():
    with pytest.raises(ConfigError):
        MediumProfile(
            xi=ConstantFunction(1.0),
            eta=ConstantFunction(1.0),
            chi=ConstantFunction(0.0),
            upsilon=0.0,
        )


def test_function_from_spec_round_trip():
    f = function_from_spec({"kind": "constant", "value": 0.25})
    assert f(0.0) == 0.25
    g = function_from_spec({"kind": "exponential", "amplitude": 0.5, "rate": -2.0})
    assert g(1.0) == pytest.approx(0.5 * math.exp(-2.0))
    s = function_from_spec({"kind": "sinusoid", "offset": 0.5, "amplitude": 0.05, "frequency": 2.0})
    assert s(0.0) == 0.5
    tab = function_from_spec(
        {"kind": "table", "times": [0, 0.25, 0.5, 0.75, 1.0], "values": [1, 1, 1, 1, 1]}
    )
    assert tab(0.6) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        function_from_spec({"kind": "spline"})
    with pytest.raises(ConfigError):
        function_from_spec({"kind": "exponential", "amplitude": 1.0})  # missing rate


uniform_tables = st.integers(5, 64).flatmap(lambda n: st.tuples(
    st.floats(-10.0, 10.0), st.floats(1e-3, 2.0),
    st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))


@settings(max_examples=40, deadline=None)
@given(uniform_tables)
def test_table_derivative_spline_is_built_on_first_use(table):
    t0, dt, values = table
    times = t0 + dt * np.arange(len(values))
    values = np.array(values)
    probe = np.linspace(times[0], times[-1], 37)
    eager = _UniformCubic(times, _fd4_derivative_samples(times, values))

    fn = TableFunction(times, values)
    fn(probe)
    assert "_deriv" not in vars(fn)  # values alone never build it
    assert fn.deriv(probe).tobytes() == eager(probe).tobytes()
    assert fn.deriv(float(probe[5])) == eager(float(probe[5]))

    fn = TableFunction(times, values)
    with np.errstate(all="ignore"):
        assert fn.log_deriv(probe).tobytes() == (eager(probe) / fn(probe)).tobytes()
    assert "_deriv" in vars(fn)


@settings(max_examples=60, deadline=None)
@given(uniform_tables, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
# a steep table far from t = 0: offsets taken from x0 + i dx instead of the
# knot itself drift by ~1e-13 and cost 2.9e-10 max|y| at the knots
@example((9.9, 1e-3, [1000.0 * (-1) ** k for k in range(64)]), [0.5])
def test_uniform_table_scalar_reads_match_array_reads(table, fractions):
    t0, dt, values = table
    times = t0 + dt * np.arange(len(values))
    cubic = _UniformCubic(times, values)
    lo, hi, slack = cubic.lo, cubic.hi, cubic.slack
    inside = np.concatenate([times, lo + (hi - lo) * np.array(fractions),
                             [lo - 0.5 * slack, hi + 0.5 * slack]])
    for fn in (cubic, cubic.antiderivative()):
        tol = 1e-10 * max(float(np.max(np.abs(fn(times)))), 1e-300)
        array = fn(inside)
        for t, want in zip(inside.tolist(), array.tolist()):
            assert abs(fn(t) - want) <= tol, (t, fn(t), want)
        for t in (lo - 2.0 * slack, hi + 2.0 * slack):
            with pytest.raises(CoefficientEvaluationError):
                fn(t)
            with pytest.raises(CoefficientEvaluationError) as exc:
                fn(np.array([0.5 * (lo + hi), t]))
            # the reported time is the read that left the window
            assert not lo - slack <= exc.value.t <= hi + slack, (exc.value.t, lo, hi)
    # anchored at t = 0 whenever the window holds it
    if lo <= 0.0 <= hi:
        integral = cubic.antiderivative()
        assert abs(integral(0.0)) <= 1e-10 * max(float(np.max(np.abs(integral(times)))), 1e-300)
