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
    _first_outside,
    eval_coeffs,
    function_from_spec,
    medium_to_hamiltonian_stack,
)
from quadmode.ermakov import build_frame, closed_form_path


def rule_slack(lo, hi):
    """The slack of the one window rule over [lo, hi], checked against the
    rule itself: a read outside by half of it passes, by twice it fails."""
    slack = 1e-9 * max(1.0, *(abs(end) for end in (lo, hi) if math.isfinite(end)))
    for edge, side in ((lo, -1.0), (hi, 1.0)):
        if math.isfinite(edge):
            assert _first_outside(edge + side * 0.5 * slack, lo, hi) is None
            assert _first_outside(edge + side * 2.0 * slack, lo, hi) == edge + side * 2.0 * slack
    return slack


def test_constant_and_exponential_values():
    c = ConstantFunction(0.5)
    assert c(3.7) == 0.5
    assert c(3) == 0.5 and c(np.float32(3.7)) == 0.5  # other scalars take the scalar route
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
    # one table over many columns (one spline solve) reads each column as
    # that column's own table, bit for bit, and so does the column taken
    # out of it: the ensemble's chunks rely on it
    t = np.linspace(0.0, 10.0, n)
    values = np.random.default_rng(n + width).standard_normal((n, width))
    probe = np.linspace(0.0, 10.0, 333)
    table = TableFunction(t, values)
    assert table.width == width
    rows, slopes = table(probe), table.deriv(probe)
    assert rows.shape == slopes.shape == (width, probe.size)
    antiderivative = table.antiderivative()
    for i, column in enumerate(values.T):
        single, taken = TableFunction(t, column), table.take([i])
        assert single.width is None and taken.width is None
        assert taken.values.tobytes() == single.values.tobytes()
        for a, b in ((taken, single), (taken.antiderivative(),
                                       single.antiderivative())):
            assert a(probe).tobytes() == b(probe).tobytes()
            assert a(1.2345) == b(1.2345)
        assert rows[i].tobytes() == single(probe).tobytes()
        assert table(1.2345)[i] == single(1.2345)
        assert antiderivative(probe)[i].tobytes() == single.antiderivative()(probe).tobytes()
        assert slopes[i].tobytes() == single.deriv(probe).tobytes()
        assert taken.deriv(probe).tobytes() == single.deriv(probe).tobytes()
    with pytest.raises(ConfigError, match="uniformly spaced"):
        TableFunction(t ** 2, values)
    values[n // 2, width - 1] = np.inf
    with pytest.raises(ConfigError, match="finite"):
        TableFunction(t, values)


def test_stacked_reads_are_the_reads_one_by_one():
    # a table's columns, some taken again and repeated, read as one: each
    # row is bitwise that column's own read, whether or not the table's
    # derivative spline was built before the take
    t = np.linspace(0.0, 10.0, 201)
    values = 1.0 + 0.1 * np.random.default_rng(5).standard_normal((201, 4))
    probe = np.linspace(0.0, 10.0, 333)
    for built in (False, True):
        table = TableFunction(t, values)
        if built:
            table.deriv(probe)
        picked = table.take([2, 0, 2, 3])
        for method in ("__call__", "deriv", "log_deriv"):
            rows = getattr(picked, method)(probe)
            assert rows.shape == (4, probe.size)
            for row, column in zip(rows, (2, 0, 2, 3)):
                alone = getattr(TableFunction(t, values[:, column]), method)(probe)
                assert row.tobytes() == alone.tobytes()
    with pytest.raises(CoefficientEvaluationError):
        table(np.array([1.0, 10.5]))


@pytest.mark.parametrize("target", ["chi", "xi", "eta"])
def test_medium_stack_is_each_medium_alone(target):
    # a chi table over a constant xi takes its integral from one
    # antiderivative of its columns, an xi table from one spline over the
    # scan, and an eta table shares the one integral of a plain chi table;
    # a column whose xi or eta dips below zero is rejected in its own entry
    t = np.linspace(0.0, 4.0, 81)
    noise = 0.3 * np.random.default_rng(11).standard_normal((81, 6))
    noise[40, 4] = -2.0
    one, base = ConstantFunction(1.0), 0.1 if target == "chi" else 1.0
    medium = {"xi": one, "eta": one, "chi": TableFunction(t, 0.1 + 0.05 * np.sin(t))}
    profile = MediumProfile(**dict(medium, **{target: TableFunction(t, base + noise)}),
                            upsilon=1.3)
    cs, errors = medium_to_hamiltonian_stack(profile, 4.0)
    probe = np.linspace(0.0, 4.0, 157)
    kept = []
    for p, error in enumerate(errors):
        try:
            alone = medium_to_hamiltonian(profile.take([p]), 4.0)
        except InvalidMediumError as exc:
            assert (type(error), error.t) == (InvalidMediumError, exc.t)
            continue
        assert error is None
        kept.append((len(kept), alone))
    assert len(kept) < len(errors) if target != "chi" else len(kept) == len(errors)
    assert cs.width == len(kept)
    for name in ("a", "b"):
        # a function that reads no column (a, over eta noise) serves all
        rows = np.broadcast_to(getattr(cs, name)(probe), (cs.width, probe.size))
        points = np.broadcast_to(getattr(cs, name)(1.234), (cs.width,))
        for row, alone in kept:
            theirs = getattr(alone, name)
            assert rows[row].tobytes() == theirs(probe).tobytes()
            assert points[row] == theirs(1.234)
            assert getattr(cs.take([row]), name)(probe).tobytes() == theirs(probe).tobytes()


def test_medium_functions_keep_the_coefficient_protocol():
    # a and b of a medium are never identically zero, and their derivative
    # is the value times the exact logarithmic derivative
    profile = MediumProfile(xi=SinusoidFunction(1.0, 0.2, 1.0), eta=ConstantFunction(1.0),
                            chi=ConstantFunction(0.1))
    cs = medium_to_hamiltonian(profile, 4.0)
    t = np.linspace(0.5, 3.5, 7)
    for fn in (cs.a, cs.b):
        assert fn.is_zero is False
        assert fn.deriv(t).tobytes() == (fn(t) * fn.log_deriv(t)).tobytes()
        np.testing.assert_allclose(fn.deriv(t), (fn(t + 1e-6) - fn(t - 1e-6)) / 2e-6, rtol=1e-6)


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


def _raises_naming(read, t, name=None):
    with pytest.raises(CoefficientEvaluationError) as exc:
        read(t)
    assert exc.value.t == t or math.isnan(t) and math.isnan(exc.value.t), (t, exc.value.t)
    assert name is None or exc.value.name == name


def test_every_time_read_keeps_one_window_rule():
    # a table (scalar and array reads, and its derivative), a medium set
    # through eval_coeffs, and a frame read off its grid: a t that is not
    # finite, or outside by twice the slack, raises naming it; a t outside
    # by half the slack reads the edge
    times = np.linspace(100.0, 110.0, 41)  # far from t = 0: the slack is the window's end's
    table = TableFunction(times, np.cos(times))
    slack = rule_slack(100.0, 110.0)
    for read in (table, table.deriv):
        for t in (math.nan, 100.0 - 2.0 * slack, 110.0 + 2.0 * slack):
            _raises_naming(read, t, "table")
            _raises_naming(lambda t: read(np.array([105.0, t])), t, "table")
        for t, edge in ((100.0 - 0.5 * slack, 100.0), (110.0 + 0.5 * slack, 110.0)):
            assert read(t) == read(edge)
            assert read(np.array([t])).tobytes() == read(np.array([edge])).tobytes()

    knots = np.linspace(0.0, 10.0, 41)
    cs = medium_to_hamiltonian(MediumProfile(
        xi=TableFunction(knots, 1.0 + 0.1 * np.sin(knots)),
        eta=TableFunction(knots, 1.2 + 0.1 * np.cos(knots)), chi=ConstantFunction(0.1)), 10.0)
    frame = build_frame(cs, np.linspace(0.0, 10.0, 101))
    slack = rule_slack(*cs.window)
    assert slack == 1e-8
    for t in (math.nan, -2.0 * slack, 10.0 + 2.0 * slack):
        _raises_naming(lambda t: eval_coeffs(cs, t), t, "window")
        _raises_naming(lambda t: eval_coeffs(cs, np.array([5.0, t])), t, "window")
        _raises_naming(lambda t: closed_form_path(frame, [5.0, t]), t, "window")
    for t, edge in ((-0.5 * slack, 0.0), (10.0 + 0.5 * slack, 10.0)):
        assert eval_coeffs(cs, t) == eval_coeffs(cs, edge)
        near, at = closed_form_path(frame, [t]), closed_form_path(frame, [edge])
        for mine, theirs in zip(near.columns(), at.columns()):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-7)
    # a preset's window [0, inf) has one finite end, which alone sets the
    # slack and bounds a read
    preset = preset_coefficients("static_oscillator")
    assert rule_slack(*preset.window) == 1e-9
    for t in (math.nan, math.inf, -2e-9):
        _raises_naming(lambda t: eval_coeffs(preset, t), t, "window")
    assert eval_coeffs(preset, 1e300)[0] == 0.5


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


@pytest.mark.parametrize("xi", [1.0, 1.7, 0.3])
def test_medium_reads_over_a_table_chi_are_bitwise_for_every_constant_xi(xi):
    # over a constant xi, a and b read the tabulated chi's own running
    # integral A at rate -1/xi and +1/xi: every read, plain or of columns
    # and of their takes, is bitwise 0.5/xi exp(-(1/xi) A(t)) (b's alike),
    # which an A whose PPoly is scaled by 1/xi instead is not
    eta, upsilon = 1.3, 1.2
    t = np.linspace(0.0, 10.0, 41)
    columns = 0.1 + 0.02 * np.random.default_rng(4).standard_normal((41, 5))
    profile = MediumProfile(xi=ConstantFunction(xi), eta=ConstantFunction(eta),
                            chi=TableFunction(t, columns), upsilon=upsilon)
    stack = medium_to_hamiltonian_stack(profile, t_max=10.0)[0]
    plain = TableFunction(t, 0.1 + 0.05 * np.sin(3.0 * t))
    cases = [(medium_to_hamiltonian(MediumProfile(
        xi=ConstantFunction(xi), eta=ConstantFunction(eta), chi=plain, upsilon=upsilon),
        t_max=10.0), plain), (stack, profile.chi)]
    cases += [(stack.take(picked), profile.chi.take(picked)) for picked in ([3], [4, 0])]
    probe = np.linspace(0.0, 10.0, 173)
    for cs, chi in cases:
        integral = chi.antiderivative()

        def want(t):
            return (0.5 / xi * np.exp(-(1 / xi) * integral(t)),
                    0.5 * upsilon**2 / eta * np.exp((1 / xi) * integral(t)))

        for got, expected in zip((cs.a(probe), cs.b(probe)), want(probe)):
            assert got.tobytes() == expected.tobytes()
        for t_read in probe[::7].tolist():
            for fn, expected in zip((cs.a, cs.b), want(t_read)):
                for got in (fn(t_read), fn.scalar(t_read)):
                    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), t_read


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
    # them.  Either is that column's own error naming chi, the one it meets
    # alone, whatever its neighbours in the table; a column beside them
    # (xi ~ 1e10, so chi/xi stays far inside) maps as it does alone
    from dataclasses import replace

    from quadmode.stochastic import NoiseSpec, _perturbed

    base = MediumProfile(xi=ConstantFunction(1.0), eta=ConstantFunction(1.0),
                         chi=ConstantFunction(chi))
    spec = NoiseSpec(target="xi", model="ornstein_uhlenbeck", amplitude=0.2,
                     correlation_time=1.0, seed=3, paths=8)
    grid = np.linspace(0.0, 2.0, 41)
    drawn = _perturbed(spec, base, grid, [(i, 0) for i in range(8)]).xi.values
    profile = replace(base, xi=TableFunction(grid, np.column_stack([drawn, np.full(41, 1e10)])))
    cs, errors = medium_to_hamiltonian_stack(profile, 2.0)
    details = set()
    for p, result in enumerate(errors[:-1]):
        with pytest.raises(CoefficientEvaluationError) as alone:
            medium_to_hamiltonian(profile.take([p]), 2.0)
        assert isinstance(result, CoefficientEvaluationError) and result.name == "chi"
        assert (result.t, str(result)) == (alone.value.t, str(alone.value))
        details.add(str(result).split(": ")[-1])
    assert details == ({"its spline overflows the float range"} if chi == 1e308 else
                       {"its spline overflows the float range", "chi/xi is not finite"})
    assert errors[-1] is None and cs.width is None
    probe = np.linspace(0.0, 2.0, 77)
    assert cs.a(probe).tobytes() == medium_to_hamiltonian(profile.take([8]), 2.0).a(probe).tobytes()


def test_chi_past_the_float_range_fails_every_column_that_shares_it():
    # eta noise over a general chi/xi with no columns: its overflow is the
    # same error in every column, each the one that column meets alone
    t = np.linspace(0.0, 2.0, 41)
    eta = TableFunction(t, 1.0 + 0.1 * np.random.default_rng(2).standard_normal((41, 3)))
    profile = MediumProfile(xi=SinusoidFunction(1.0, 0.5, 2.0), eta=eta,
                            chi=ConstantFunction(1.5e308))
    cs, errors = medium_to_hamiltonian_stack(profile, 2.0)
    assert cs is None
    for p, error in enumerate(errors):
        with pytest.raises(CoefficientEvaluationError) as alone:
            medium_to_hamiltonian(profile.take([p]), 2.0)
        assert (error.name, error.t, str(error)) == ("chi", alone.value.t, str(alone.value))


def test_chi_over_a_constant_xi_is_judged_on_the_knots_of_chi():
    # a tabulated chi over a constant xi integrates chi's own spline: its
    # chi/xi is judged on chi's knots inside [0, t_max], column by column,
    # each column's error the one it meets alone, and the rest map together
    times = np.linspace(-1.0, 5.0, 7)
    columns = np.ones((7, 4))
    columns[0, 0] = 1e20  # at t = -1, outside the window: not judged
    columns[3, 1] = 1e20  # at t = 2
    columns[:, 2] = 1e20
    profile = MediumProfile(xi=ConstantFunction(1e-300), eta=ConstantFunction(1.0),
                            chi=TableFunction(times, columns))
    cs, errors = medium_to_hamiltonian_stack(profile, 5.0)
    assert errors[0] is None and errors[3] is None
    for p, t in ((1, 2.0), (2, 0.0)):
        with pytest.raises(CoefficientEvaluationError) as alone:
            medium_to_hamiltonian(profile.take([p]), 5.0)
        assert (errors[p].name, errors[p].t, str(errors[p])) == ("chi", t, str(alone.value))
        assert str(errors[p]).endswith("chi/xi is not finite")
    assert cs.medium.chi.values.tobytes() == columns[:, [0, 3]].tobytes()


def test_a_finer_table_from_0_whose_spacing_divides_t_max_sets_the_scan():
    from quadmode.coefficients import _SCAN_NODES, _scan

    def scan(times, t_max=4.0):
        chi = TableFunction(times, np.ones(times.size))
        return _scan(MediumProfile(xi=ConstantFunction(1.0), eta=ConstantFunction(1.0),
                                   chi=chi), t_max)

    fine = np.linspace(0.0, 4.0, 8001)
    assert scan(fine).tobytes() == fine.tobytes()
    assert scan(np.linspace(0.0, 5.0, 10001)).tobytes() == fine.tobytes()  # past t_max
    assert scan(fine - 1.0, 3.0).size == _SCAN_NODES  # starts before 0
    assert scan(np.linspace(0.0, 4.1, 8001)).size == _SCAN_NODES  # 8000.5 steps to t_max
    assert scan(np.linspace(0.0, 4.0, 3001)).size == _SCAN_NODES  # coarser


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
    with pytest.raises(ConfigError, match="must be an object") as err:
        function_from_spec([1.0], where="coefficients.medium.xi")
    assert err.value.field == "coefficients.medium.xi"
    # a missing kind names itself, as every other missing key does
    with pytest.raises(ConfigError, match="is required") as err:
        function_from_spec({"value": 1.0}, where="coefficients.medium.xi")
    assert err.value.field == "coefficients.medium.xi.kind"


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
    eager = TableFunction(times, values).derivative()  # the value spline's own derivative

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
    cubic = TableFunction(times, values)
    lo, hi = cubic.lo, cubic.hi
    slack = rule_slack(lo, hi)
    inside = np.concatenate([times, lo + (hi - lo) * np.array(fractions),
                             [lo - 0.5 * slack, hi + 0.5 * slack]])
    for fn in (cubic, cubic.derivative(), cubic.antiderivative()):
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


_COLUMNS = TableFunction(_KNOTS, 1.0 + 0.1 * np.random.default_rng(2).standard_normal((41, 3)))
_COLUMN_SET = medium_to_hamiltonian_stack(MediumProfile(
    xi=ConstantFunction(1.0), eta=ConstantFunction(1.3), upsilon=1.2,
    chi=TableFunction(_KNOTS, 0.1 + 0.02 * np.random.default_rng(3).standard_normal((41, 3)))),
    t_max=10.0)[0]


def _table_reads(name, table):
    reads = {name: table, f"{name}.derivative": table.derivative(),
             f"{name}.antiderivative": table.antiderivative(),
             f"{name}.deriv": table._deriv}
    if table.width:
        reads.update({f"{name}.take": table.take([1]),
                      f"{name}.take.derivative": table.take([1]).derivative()})
    return reads


# every coefficient type, by label, and whether it reads a table (and so
# has a window)
_READS = {
    "constant": (ConstantFunction(0.7), False),
    "exponential": (ExponentialFunction(0.5, -0.3), False),
    "sinusoid": (SinusoidFunction(0.5, 0.1, 2.0, 0.3), False),
    "linear_integral": (_medium(ConstantFunction(0.1)).a._integral, False),
    "scaled_integral": (_medium(_TABLE).a._integral, True),
    "columns.scaled_integral": (_COLUMN_SET.a._integral, True),
    **{label: (fn, True) for name, table in (("table", _TABLE), ("columns", _COLUMNS))
       for label, fn in _table_reads(name, table).items()},
    **{f"medium_{name}.{coef}": (getattr(cs, coef), name != "constant_chi")
       for name, cs in (("constant_chi", _medium(ConstantFunction(0.1))),
                        ("table_chi", _medium(_TABLE)),
                        ("sinusoid_xi", _medium(_TABLE, SinusoidFunction(1.0, 0.2, 1.0))),
                        ("columns", _COLUMN_SET), ("columns.take", _COLUMN_SET.take([1])))
       for coef in "ab"},
}


@pytest.mark.parametrize("label", sorted(_READS))
def test_every_type_has_one_scalar_read(label):
    # fn.scalar is the scalar read: bitwise fn(t) at a float or an
    # np.float64 t, the array read's value at that t (so a reader left
    # bound to another interpolant's coefficients shows), and the same
    # error past the window
    fn, windowed = _READS[label]
    probe = [0.0, 0.37, 2.5, 2.5 + 1e-12, 7.123456789, 10.0]
    array = np.asarray(fn(np.array(probe)), dtype=float)
    scale = max(float(np.max(np.abs(array))), 1e-300)
    for k, t in enumerate(probe):
        read = fn.scalar(t)
        assert type(read) is type(fn(t))
        assert np.asarray(read).tobytes() == np.asarray(fn(t)).tobytes(), t
        assert np.asarray(fn.scalar(np.float64(t))).tobytes() == np.asarray(read).tobytes(), t
        np.testing.assert_allclose(read, array[..., k], rtol=1e-12, atol=1e-12 * scale)
    if windowed:
        for t in (-1e-7, 10.0 + 1e-7):
            with pytest.raises(CoefficientEvaluationError) as generic:
                fn(t)
            with pytest.raises(CoefficientEvaluationError) as scalar:
                fn.scalar(t)
            assert (scalar.value.name, scalar.value.t) == (generic.value.name, t) == ("table", t)


def _column(label, p):
    """The read `label` of _READS over column p alone."""
    if label.startswith("medium_columns."):
        return getattr(_COLUMN_SET.take([p]), label[-1])
    if label == "columns.scaled_integral":
        return _COLUMN_SET.take([p]).a._integral
    return _table_reads("columns", _COLUMNS.take([p]))[label]


@pytest.mark.parametrize("label", sorted(label for label in _READS if label.split(".")[0] in (
    "columns", "medium_columns") and ".take" not in label))
def test_a_column_read_is_each_columns_own(label):
    # a (P,) scalar read of a table with columns, row p, is bitwise the
    # scalar read of its take([p])
    fn, _ = _READS[label]
    for t in (0.0, 0.37, 2.5, 7.123456789, 10.0):
        rows = fn.scalar(t)
        assert rows.shape == (3,)
        for p in range(3):
            assert rows[p] == _column(label, p).scalar(t), (t, p)
