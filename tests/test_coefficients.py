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
    medium_to_hamiltonian_stack,
    read_stack,
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


@pytest.mark.parametrize("n, width", [(5, 1), (41, 3), (201, 64), (201, 67)])
def test_table_columns_equal_one_table_per_column(n, width):
    # one spline solve over many columns gives each column's own spline bit
    # for bit: the ensemble's chunked sampling relies on it
    t = np.linspace(0.0, 10.0, n)
    values = np.random.default_rng(n + width).standard_normal((n, width))
    probe = np.linspace(0.0, 10.0, 333)
    tables = TableFunction.columns(t, values)
    assert len(tables) == width
    for table, column in zip(tables, values.T):
        single = TableFunction(t, column)
        assert table.values.tobytes() == single.values.tobytes()
        for a, b in ((table, single), (table._interp.antiderivative(),
                                       single._interp.antiderivative())):
            assert a(probe).tobytes() == b(probe).tobytes()
            assert a(1.2345) == b(1.2345)
        assert table.deriv(probe).tobytes() == single.deriv(probe).tobytes()
    with pytest.raises(ConfigError, match="uniformly spaced"):
        TableFunction.columns(t ** 2, values)
    values[n // 2, width - 1] = np.inf
    with pytest.raises(ConfigError, match="finite"):
        TableFunction.columns(t, values)


def test_stacked_reads_are_the_reads_one_by_one():
    # a block's columns (some repeated), a lone table and presets, read as
    # one stack: each row is bitwise that function's own read
    t = np.linspace(0.0, 10.0, 201)
    values = 1.0 + 0.1 * np.random.default_rng(5).standard_normal((201, 4))
    columns = TableFunction.columns(t, values)
    fns = [columns[2], columns[0], TableFunction(t, values[:, 1]), ConstantFunction(0.7),
           columns[2], SinusoidFunction(1.0, 0.2, 3.0)]
    probe = np.linspace(0.0, 10.0, 333)
    for method in ("__call__", "deriv", "log_deriv"):
        rows = read_stack(fns, probe, method)
        assert rows.shape == (len(fns), probe.size)
        for row, fn in zip(rows, fns):
            assert row.tobytes() == np.broadcast_to(getattr(fn, method)(probe), row.shape).tobytes()
    with pytest.raises(CoefficientEvaluationError):
        read_stack(columns, np.array([1.0, 10.5]))


@pytest.mark.parametrize("target", ["chi", "xi"])
def test_medium_stack_is_each_medium_alone(target):
    # chi tables over a constant xi take their integrals from one block
    # antiderivative, xi tables from one spline over the scan; a profile
    # whose xi dips below zero is rejected in its own entry
    t = np.linspace(0.0, 4.0, 81)
    noise = 0.3 * np.random.default_rng(11).standard_normal((81, 6))
    noise[40, 4] = -2.0
    one, base = ConstantFunction(1.0), 1.0 if target == "xi" else 0.1
    medium = {"xi": one, "eta": one, "chi": ConstantFunction(0.1)}
    profiles = [MediumProfile(**dict(medium, **{target: table}), upsilon=1.3)
                for table in TableFunction.columns(t, base + noise)]
    stacked = medium_to_hamiltonian_stack(profiles, 4.0)
    probe = np.linspace(0.0, 4.0, 157)
    for profile, result in zip(profiles, stacked):
        try:
            alone = medium_to_hamiltonian(profile, 4.0)
        except InvalidMediumError as exc:
            assert (type(result), result.t) == (InvalidMediumError, exc.t)
            continue
        for name in ("a", "b"):
            mine, theirs = getattr(result, name), getattr(alone, name)
            assert mine(probe).tobytes() == theirs(probe).tobytes()
            assert mine(1.234) == theirs(1.234)
    kept = [cs for cs in stacked if not isinstance(cs, InvalidMediumError)]
    assert len(kept) < len(stacked) if target == "xi" else len(kept) == len(stacked)
    rows = read_stack([cs.a for cs in kept], probe)
    assert rows.tobytes() == np.stack([cs.a(probe) for cs in kept]).tobytes()


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


@pytest.mark.parametrize("chi", [1e308, 1.5e308])
def test_chi_past_the_float_range_is_each_medium_own_error(chi):
    # chi ~ 1e308 over xi draws near 1: chi/xi leaves the float range in its
    # samples (where xi < 1.5e308 / max float) or in the spline through
    # them.  Either is that medium's own error naming chi, the one it meets
    # alone, whatever its neighbours in the stack; a medium beside them
    # maps as it does alone
    from dataclasses import replace

    from quadmode.stochastic import NoiseSpec, _perturbed

    base = MediumProfile(xi=ConstantFunction(1.0), eta=ConstantFunction(1.0),
                         chi=ConstantFunction(chi))
    spec = NoiseSpec(target="xi", model="ornstein_uhlenbeck", amplitude=0.2,
                     correlation_time=1.0, seed=3, paths=8)
    profiles = _perturbed(spec, base, np.linspace(0.0, 2.0, 41), [(i, 0) for i in range(8)])
    profiles.append(replace(profiles[0], chi=ConstantFunction(0.1)))
    stacked = medium_to_hamiltonian_stack(profiles, 2.0)
    details = set()
    for profile, result in zip(profiles[:-1], stacked):
        with pytest.raises(CoefficientEvaluationError) as alone:
            medium_to_hamiltonian(profile, 2.0)
        assert isinstance(result, CoefficientEvaluationError) and result.name == "chi"
        assert (result.t, str(result)) == (alone.value.t, str(alone.value))
        details.add(str(result).split(": ")[-1])
    assert details == ({"its spline overflows the float range"} if chi == 1e308 else
                       {"its spline overflows the float range", "chi/xi is not finite"})
    probe = np.linspace(0.0, 2.0, 77)
    assert stacked[-1].a(probe).tobytes() == medium_to_hamiltonian(
        profiles[-1], 2.0).a(probe).tobytes()


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


def _medium(chi, xi=ConstantFunction(1.0)):
    profile = MediumProfile(xi=xi, eta=ConstantFunction(1.3), chi=chi, upsilon=1.2)
    return medium_to_hamiltonian(profile, t_max=10.0)


_KNOTS = np.linspace(0.0, 10.0, 41)
_TABLE = TableFunction(_KNOTS, 0.1 + 0.05 * np.sin(3.0 * _KNOTS))
_SCALAR_KINDS = {
    "constant": ConstantFunction(0.7),
    "exponential": ExponentialFunction(0.5, -0.3),
    "sinusoid": SinusoidFunction(0.5, 0.1, 2.0, 0.3),
    "table": _TABLE,
    **{f"medium_{name}.{coef}": getattr(cs, coef)
       for name, cs in (("constant_chi", _medium(ConstantFunction(0.1))),
                        ("table_chi", _medium(_TABLE)),
                        ("sinusoid_xi", _medium(_TABLE, SinusoidFunction(1.0, 0.2, 1.0))))
       for coef in "ab"},
}


@pytest.mark.parametrize("kind", sorted(_SCALAR_KINDS))
def test_scalar_reads_agree_bitwise_across_types(kind):
    # the float fast paths give the bits of the general scalar path
    fn = _SCALAR_KINDS[kind]
    for t in (0.0, 0.37, 2.5, 2.5 + 1e-12, 7.123456789, 10.0):
        reads = [fn(t), fn(np.float64(t)), fn(np.array(t))]
        assert len({np.asarray(r, dtype=float).tobytes() for r in reads}) == 1, (t, reads)
