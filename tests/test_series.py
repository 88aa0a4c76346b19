import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PROBLEMS, random_series
from hatmfp import expr as expr_module
from hatmfp.engine import HatmConfig, run
from hatmfp.errors import ConfigError, DomainError, ExponentError
from hatmfp.expr import (
    Mul, X, Y, add, cosh, evaluate, monic, monomials, mul, normalize, pow_, sinh,
)
from hatmfp.series import (
    Coefficient,
    FracSeries,
    FracTerm,
    GammaArg,
    TimeFactor,
)

ALPHAS = (0.5, 0.75, 1.0)
PROBES = ((0.8, 0.9, 0.3), (1.4, 1.2, 0.7))  # (x, y, t)


def values(series, alpha, probes=PROBES):
    return [series.evaluate(x, t, alpha, y=y) for x, y, t in probes]


# ------------------------------------------------------------- gamma tokens


def test_gamma_arg_value():
    g = GammaArg(Fraction(1), 2)  # the argument 1 + 2*alpha
    assert g.value(0.5) == pytest.approx(2.0, rel=1e-15)
    assert g.value(0.75) == pytest.approx(2.5, rel=1e-15)
    c = Coefficient(1.0, (g,), ())
    assert c.value(0.75) == pytest.approx(math.gamma(2.5), rel=1e-14)


@given(
    st.lists(
        # tokens on the positive axis: a >= 0 and a + b > 0
        st.tuples(st.fractions(min_value=0, max_value=20, max_denominator=12),
                  st.integers(-4, 4)).filter(lambda ab: ab[0] + ab[1] > 0),
        max_size=12,
    )
)
def test_gamma_args_sort_by_a_then_b(pairs):
    args = [GammaArg(a, b) for a, b in pairs]
    assert sorted(args) == sorted(args, key=lambda g: (g.a, g.b))


def test_gamma_ratio_round_trip_is_exact():
    c = Coefficient.number(1.7)
    a, b = GammaArg(Fraction(1), 1), GammaArg(Fraction(1), 2)
    there = c.gamma_ratio(a, b)
    back = there.gamma_ratio(b, a)
    # multiset cancellation: tokens vanish, factor is untouched
    assert back == c
    assert back.num == ()
    assert back.den == ()
    assert back.factor == 1.7


def test_coefficient_merge_same_signature():
    a = GammaArg(Fraction(1), 1)
    c1 = Coefficient.number(2.0).gamma_ratio(a, GammaArg(Fraction(1), 2))
    c2 = Coefficient.number(3.0).gamma_ratio(a, GammaArg(Fraction(1), 2))
    merged = c1.plus(c2)
    assert merged == Coefficient.number(5.0).gamma_ratio(a, GammaArg(Fraction(1), 2))
    with pytest.raises(DomainError, match="different gamma tokens"):
        c1.plus(Coefficient.number(1.0))


def test_coefficient_cancellation_drops_dust():
    c = Coefficient.number(1.0)
    out = c.plus(c.scaled(-1.0))
    assert out.is_zero


def test_integer_b_tokens_fold_numerically():
    # gamma(3 + 0*alpha) is a plain number and folds into the factor
    c = Coefficient.number(1.0).gamma_ratio(GammaArg(Fraction(3), 0), GammaArg(Fraction(2), 0))
    assert c.num == ()
    assert c.den == ()
    assert c.factor == pytest.approx(2.0, rel=1e-15)


def test_coefficient_value_log_space():
    c = Coefficient.number(-2.0).gamma_ratio(
        GammaArg(Fraction(1), 4), GammaArg(Fraction(1), 1)
    )
    alpha = 0.6
    want = -2.0 * math.gamma(1 + 4 * alpha) / math.gamma(1 + alpha)
    assert c.value(alpha) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "coef",
    [
        # gamma(400.5) is about e^1997: exp of its logarithm overflows
        Coefficient(1.0, (GammaArg(Fraction(400), 1),), ()),
        # 1.7e308 / gamma(1.5) is finite in log space, not as a float
        Coefficient(1.7e308, (), (GammaArg(Fraction(1), 1),)),
    ],
    ids=["exp", "product"],
)
def test_coefficient_value_past_the_float_range_is_a_domain_error(coef):
    with pytest.raises(DomainError, match="overflows a float"):
        coef.value(0.5)


def test_parallel_ratio():
    a = GammaArg(Fraction(1), 1)
    b = GammaArg(Fraction(1), 2)
    c1 = Coefficient.number(2.0).gamma_ratio(a, b)
    c2 = Coefficient.number(-0.5).gamma_ratio(a, b)
    assert c1.parallel_ratio(c2) == pytest.approx(-0.25, rel=1e-12)
    c3 = Coefficient.number(2.0).gamma_ratio(b, a)
    assert c1.parallel_ratio(c3) is None


# -------------------------------------------------------------- time factors


def test_time_factor_exponent():
    tf = TimeFactor(Fraction(3, 2), 2)
    assert tf.exponent(0.5) == pytest.approx(2.5)


def test_time_factor_guards():
    with pytest.raises(ExponentError):
        TimeFactor(Fraction(0), -1)
    with pytest.raises(ExponentError):
        TimeFactor(Fraction(-1), 0)
    # q < 0 is fine when the fixed part keeps the exponent nonnegative
    tf = TimeFactor(Fraction(2), -1)
    assert tf.exponent(1.0) == pytest.approx(1.0)


# ---------------------------------------------------------- caputo / integral


def test_caputo_annihilates_constants_in_time():
    s = FracSeries.from_spatial(add(X, 1))  # t^0
    assert s.caputo_derivative().is_zero


def test_caputo_power_rule_exact():
    # D^alpha t^alpha = gamma(1+alpha)
    s = FracSeries.from_spatial(X, q=1)
    d = s.caputo_derivative()
    for alpha in ALPHAS:
        want = math.gamma(1 + alpha) * 1.3
        assert d.evaluate(1.3, 0.7, alpha) == pytest.approx(want, rel=1e-14)


def test_caputo_matches_classical_derivative_at_alpha_one():
    # D^1 t^2 = 2 t
    s = FracSeries.from_spatial(X, p=2)
    d = s.caputo_derivative()
    assert d.evaluate(1.0, 0.7, 1.0) == pytest.approx(1.4, rel=1e-14)


def test_caputo_alpha_one_finite_difference():
    rng = random.Random(7)
    s = random_series(rng)
    d = s.caputo_derivative()
    t0, h = 0.7, 1e-6
    for x, y, _ in PROBES:
        num = (s.evaluate(x, t0 + h, 1.0, y=y) - s.evaluate(x, t0 - h, 1.0, y=y)) / (2 * h)
        sym = d.evaluate(x, t0, 1.0, y=y)
        assert sym == pytest.approx(num, rel=1e-5, abs=1e-5)


def test_frac_integral_of_one():
    s = FracSeries.from_spatial(mul(2, X))  # 2x * t^0
    j = s.frac_integral()
    for alpha in ALPHAS:
        want = 2 * 1.1 * 0.6**alpha / math.gamma(1 + alpha)
        assert j.evaluate(1.1, 0.6, alpha) == pytest.approx(want, rel=1e-14)


def test_round_trip_caputo_integral_random():
    rng = random.Random(20260815)
    for _ in range(100):
        s = random_series(rng)
        rt = s.frac_integral().caputo_derivative()
        for alpha in ALPHAS:
            a = values(s, alpha)
            b = values(rt, alpha)
            for va, vb in zip(a, b):
                assert abs(va - vb) <= 1e-12 * max(1.0, abs(va))


def test_round_trip_other_order():
    # D^alpha then J^alpha returns the t-dependent part exactly
    s = FracSeries.from_spatial(sinh(X), q=2).add(
        FracSeries.from_spatial(X, p=Fraction(1, 2), q=1)
    )
    rt = s.caputo_derivative().frac_integral()
    for alpha in ALPHAS:
        assert values(rt, alpha) == pytest.approx(values(s, alpha), rel=1e-13)


def test_caputo_linearity():
    rng = random.Random(99)
    s1, s2 = random_series(rng), random_series(rng)
    lhs = s1.scale(2.5).add(s2.scale(-1.25)).caputo_derivative()
    rhs = s1.caputo_derivative().scale(2.5).add(s2.caputo_derivative().scale(-1.25))
    for alpha in ALPHAS:
        assert values(lhs, alpha) == pytest.approx(values(rhs, alpha), rel=1e-12, abs=1e-12)


# --------------------------------------------------------------- taylor expand


def test_taylor_expand_remainder():
    s = FracSeries.from_spatial(sinh(X))
    e = s.taylor_expand(1, 12)  # sinh(x) e^t
    assert [(t.time.p, t.time.q) for t in e.terms] == [(j, 0) for j in range(12)]
    x, t = 1.2, 0.1
    want = math.sinh(x) * math.exp(t)
    assert e.evaluate(x, t, 0.75) == pytest.approx(want, rel=1e-12)
    assert abs(e.evaluate(x, t, 0.75) - want) < 1e-8


def test_taylor_expand_negative_rate():
    s = FracSeries.from_spatial(X)
    e = s.taylor_expand(-1, 16)
    assert e.evaluate(2.0, 0.2, 1.0) == pytest.approx(2.0 * math.exp(-0.2), rel=1e-12)


def test_taylor_expand_leaves_pure_powers_alone():
    # exp(0*t) is 1: rate 0 leaves the series as it is
    s = FracSeries.from_spatial(X, q=1)
    assert s.taylor_expand(0, 5) == s


def test_taylor_expand_guards():
    with pytest.raises(ConfigError):
        FracSeries.from_spatial(X).taylor_expand(1, 0)
    # (10**30)**11 / 11! is an int quotient that no float holds
    with pytest.raises(DomainError, match="Taylor weight .* overflows a float"):
        FracSeries.from_spatial(X).taylor_expand(10**30, 12)


# -------------------------------------------------------------------- algebra


def test_add_and_scale_pointwise():
    rng = random.Random(3)
    s1, s2 = random_series(rng), random_series(rng)
    total = s1.add(s2.scale(-2.0))
    for alpha in ALPHAS:
        a, b, c = values(s1, alpha), values(s2, alpha), values(total, alpha)
        for va, vb, vc in zip(a, b, c):
            assert vc == pytest.approx(va - 2 * vb, rel=1e-12, abs=1e-12)


def test_multiply_pointwise():
    rng = random.Random(4)
    for _ in range(20):
        s1, s2 = random_series(rng, 3), random_series(rng, 3)
        prod = s1.multiply(s2)
        for alpha in ALPHAS:
            a, b, c = values(s1, alpha), values(s2, alpha), values(prod, alpha)
            for va, vb, vc in zip(a, b, c):
                assert abs(vc - va * vb) <= 1e-10 * max(1.0, abs(va * vb))


def test_multiply_merges_exponents():
    s1 = FracSeries.from_spatial(X, q=1)
    s2 = FracSeries.from_spatial(Y, p=Fraction(1, 2), q=2)
    prod = s1.multiply(s2)
    assert len(prod.terms) == 1
    tf = prod.terms[0].time
    assert (tf.p, tf.q) == (Fraction(1, 2), 3)


def test_multiply_past_the_expansion_cap_keeps_one_opaque_term(monkeypatch):
    # two two-monomial tables make four pairs; past a cap of 3 the product
    # stays one atom, the product of the two canonical trees
    monkeypatch.setattr(expr_module, "EXPAND_CAP", 3)
    a = FracSeries.from_spatial(add(X, 0.431), 2.0, q=1)
    b = FracSeries.from_spatial(add(Y, 0.257), p=1)
    prod = a.multiply(b)
    (term,) = prod.terms
    (((atom, exponent),), coef) = term.monos[0]
    assert len(term.monos) == 1 and (exponent, coef) == (1, 1.0)
    assert atom is mul(add(X, 0.431), add(Y, 0.257))
    x, y, t, alpha = 0.8, 1.3, 0.4, 0.5
    want = 2.0 * (x + 0.431) * (y + 0.257) * t ** (1 + alpha)
    assert prod.evaluate(x, t, alpha, y) == pytest.approx(want, rel=1e-14)


def test_spatial_derivative_orders():
    s = FracSeries.from_spatial(mul(sinh(X), Y), q=1)
    d1 = s.spatial_derivative("x")
    d2 = d1.spatial_derivative("x")
    dy = s.spatial_derivative("y")
    x, y, t, alpha = 0.9, 1.3, 0.5, 0.75
    ta = t**alpha
    assert d1.evaluate(x, t, alpha, y=y) == pytest.approx(math.cosh(x) * y * ta, rel=1e-13)
    assert d2.evaluate(x, t, alpha, y=y) == pytest.approx(math.sinh(x) * y * ta, rel=1e-13)
    assert dy.evaluate(x, t, alpha, y=y) == pytest.approx(math.sinh(x) * ta, rel=1e-13)


def test_spatial_derivative_is_built_once():
    s = FracSeries.from_spatial(mul(sinh(X), Y), q=1)
    dx = s.spatial_derivative("x")
    assert s.spatial_derivative("x") is dx
    assert s.spatial_derivative("y") is not dx
    # the cache is not part of the value
    assert s == FracSeries(s.terms) and s.to_obj() == FracSeries(s.terms).to_obj()


def test_spatial_derivative_vs_finite_difference():
    rng = random.Random(11)
    for _ in range(10):
        s = random_series(rng, 3)
        d = s.spatial_derivative("x")
        x0, h, alpha = 1.05, 1e-5, 0.75
        for _, y, t in PROBES:
            num = (s.evaluate(x0 + h, t, alpha, y=y) - s.evaluate(x0 - h, t, alpha, y=y)) / (2 * h)
            sym = d.evaluate(x0, t, alpha, y=y)
            assert abs(sym - num) <= 1e-6 * max(1.0, abs(sym))


# ------------------------------------------------------------------ evaluation


def test_evaluate_zero_to_zero_power():
    s = FracSeries.from_spatial(X)  # t^0
    assert s.evaluate(2.0, 0.0, 0.5) == 2.0


def test_evaluate_guards():
    s = FracSeries.from_spatial(X)
    with pytest.raises(ConfigError):
        s.evaluate(1.0, 0.5, 1.5)
    with pytest.raises(ConfigError):
        s.evaluate(1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        s.evaluate(1.0, -0.5, 1.0)


def test_evaluate_time_power_that_overflows_is_a_domain_error():
    # t**40 at t = 1e10 overflows a float
    with pytest.raises(DomainError, match="^series value overflows a float at x=1.0, y=0.0, t="):
        FracSeries.from_spatial(X, p=40).evaluate(1.0, 1e10, 0.5)


@pytest.mark.parametrize("point, name", [
    (dict(x=math.nan, t=0.3), "x"), (dict(x=1.0, y=math.inf, t=0.3), "y"),
    (dict(x=1.0, t=math.nan), "t"), (dict(x=1.0, t=math.inf), "t"),
])
def test_evaluate_refuses_a_point_that_is_not_finite(point, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite, got {point[name]}$"):
        FracSeries.from_spatial(X).evaluate(alpha=0.5, **point)


def test_evaluate_exponential_factor():
    # x t^alpha e^(2t), its exponential expanded: 20 powers leave a
    # remainder below 1e-18 of the value at t = 0.49
    s = FracSeries.from_spatial(X, q=1).taylor_expand(2, 20)
    alpha, x, t = 0.5, 1.5, 0.49
    want = x * t**alpha * math.exp(2 * t)
    assert s.evaluate(x, t, alpha) == pytest.approx(want, rel=1e-14)


# --------------------------------------------------------------------- collect


def test_collect_merges_equal_spatial_parts():
    t1 = FracTerm(Coefficient.number(2.0), monomials(mul(X, X)), TimeFactor(Fraction(0), 1))
    t2 = FracTerm(Coefficient.number(3.0), monomials(pow_(X, 2)), TimeFactor(Fraction(0), 1))
    s = FracSeries((t1, t2)).collected()
    assert len(s.terms) == 1
    assert s.evaluate(2.0, 1.0, 1.0) == pytest.approx(20.0, rel=1e-12)


def test_collect_drops_cancelled_groups():
    t1 = FracTerm(
        Coefficient.number(1.0), monomials(mul(sinh(X), cosh(X))), TimeFactor(Fraction(0), 0)
    )
    t2 = FracTerm(
        Coefficient.number(-0.5), monomials(mul(2, cosh(X), sinh(X))), TimeFactor(Fraction(0), 0)
    )
    assert FracSeries((t1, t2)).collected().is_zero


def test_collect_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        once = random_series(rng, 5)
        twice = FracSeries(once.terms)
        assert once == twice
        assert once.to_obj() == twice.to_obj()


def test_a_series_is_collected_as_made():
    # the constructor is the one collect: the order of the terms given does
    # not matter, and collected() returns the series itself
    a, b = GammaArg(Fraction(1), 1), GammaArg(Fraction(1), 2)
    c = Coefficient.number(1.0).gamma_ratio(a, b)
    t0, t1 = TimeFactor(Fraction(0), 0), TimeFactor(Fraction(0), 1)
    terms = [
        FracTerm(c.scaled(2.0), monomials(X), t1),
        FracTerm(Coefficient.number(1.0), monomials(sinh(X)), t1),
        FracTerm(Coefficient.number(-4.0), monomials(cosh(X)), t0),
        FracTerm(c.scaled(3.0), monomials(X), t1),
    ]
    s = FracSeries(terms)
    assert s == FracSeries(reversed(terms))
    assert s.collected() is s
    assert [(t.coef, t.monos, t.time) for t in s.terms] == [
        (Coefficient.number(-4.0), monomials(cosh(X)), t0),
        (Coefficient.number(1.0), monomials(sinh(X)), t1),
        (c.scaled(5.0), monomials(X), t1),
    ]
    assert FracSeries([FracTerm(Coefficient.number(0.0), monomials(X), t0)]).is_zero


def test_coefficient_is_canonical_as_made():
    a, b = GammaArg(Fraction(1, 2), 1), GammaArg(Fraction(3, 2), 1)
    # tokens are sorted, so the order given does not split a collect
    assert Coefficient(1.0, (a, b), ()) == Coefficient(1.0, (b, a), ())
    assert Coefficient(1.0, (b, a), ()).num == (a, b)
    t1 = TimeFactor(Fraction(0), 1)
    (term,) = FracSeries([FracTerm(Coefficient(1.0, (a, b), ()), monomials(X), t1),
                          FracTerm(Coefficient(1.0, (b, a), ()), monomials(X), t1)]).terms
    assert term.coef == Coefficient(2.0, (a, b), ())
    # a token on both sides cancels; one without an alpha part folds
    assert Coefficient(2.0, (a,), (a,)) == Coefficient.number(2.0)
    assert Coefficient(2.0, (GammaArg(Fraction(3), 0),), ()) == Coefficient.number(4.0)
    # a zero factor is the one zero, 0.0 with no tokens
    assert Coefficient(-0.0, (a,), (b,)) == Coefficient(0.0, (), ())
    assert str(Coefficient(-0.0, (a,), (b,)).factor) == "0.0"
    for factor in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="overflows a float"):
            Coefficient(factor, (), ())


def test_collect_orders_terms_deterministically():
    rng = random.Random(6)
    s = random_series(rng, 6)
    keys = [(t.time.q, t.time.p) for t in s.terms]
    assert keys == sorted(keys)


def test_basis_substitutes_known_tree():
    # equal monomial sums collect onto the one canonical node
    t = FracTerm(
        Coefficient.number(1.0),
        monomials(add(mul(0.5, sinh(X)), mul(0.5, sinh(X)))),
        TimeFactor(Fraction(0), 0),
    )
    u = FracTerm(Coefficient.number(1.0), monomials(mul(2, sinh(X))), TimeFactor(Fraction(0), 0))
    s = FracSeries((t, u)).collected()
    assert len(s.terms) == 1
    assert s.terms[0].spatial is sinh(X)
    assert s.evaluate(1.0, 0.5, 1.0) == pytest.approx(3 * math.sinh(1.0), rel=1e-12)


def test_collect_keeps_function_vanishing_on_sample_panel():
    # sinh - (sinh + p) with p zero at every panel abscissa is -p, not 0
    p = mul(*(add(X, -r) for r in (0.531, 0.877, 1.203, 1.618)))
    t0 = TimeFactor(Fraction(0), 0)
    s = FracSeries(
        (
            FracTerm(Coefficient.number(1.0), monomials(sinh(X)), t0),
            FracTerm(Coefficient.number(-1.0), monomials(add(sinh(X), p)), t0),
        )
    ).collected()
    want = -evaluate(p, 2.0)
    assert want == pytest.approx(-0.5022538058979997, rel=1e-12)
    assert s.evaluate(2.0, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_collect_keeps_tiny_independent_terms():
    # 1e-13 x + 1e-13 x^2 at x = 3: x^2 must not fold into a multiple of x
    t0 = TimeFactor(Fraction(0), 0)
    s = FracSeries(
        (
            FracTerm(Coefficient.number(1.0), monomials(mul(1e-13, X)), t0),
            FracTerm(Coefficient.number(1.0), monomials(mul(1e-13, pow_(X, 2))), t0),
        )
    ).collected()
    (term,) = s.terms
    assert term.spatial is normalize(add(X, pow_(X, 2)))
    assert s.evaluate(3.0, 1.0, 1.0) == pytest.approx(1.2e-12, rel=1e-12)


def test_collect_terms_are_monic():
    t0 = TimeFactor(Fraction(0), 1)
    s = FracSeries(
        (FracTerm(Coefficient.number(3.0), monomials(add(mul(-2, sinh(X)), X)), t0),)
    ).collected()
    (term,) = s.terms
    assert term.spatial is normalize(add(sinh(X), mul(-0.5, X)))
    assert term.coef.factor == -6.0


def test_collect_returns_a_canonical_monic_node_as_is():
    # the one table-to-tree builder returns the interned node of a table
    node = normalize(add(sinh(X), mul(-0.5, X)))
    t0 = TimeFactor(Fraction(0), 1)
    s = FracSeries((FracTerm(Coefficient.number(3.0), monomials(node), t0),))
    (term,) = s.collected().terms
    assert term.spatial is node
    assert term.coef == Coefficient.number(3.0)
    (dterm,) = s.spatial_derivative("x").terms
    assert dterm.spatial is normalize(add(cosh(X), -0.5))


def test_collect_merges_parallel_coefficients():
    # same gamma tokens, proportional factors: the spatial parts add up
    a, b = GammaArg(Fraction(1), 1), GammaArg(Fraction(1), 2)
    c = Coefficient.number(2.0).gamma_ratio(a, b)
    t1 = TimeFactor(Fraction(0), 1)
    s = FracSeries(
        (
            FracTerm(c, monomials(pow_(cosh(X), 2)), t1),
            FracTerm(c.scaled(-1.0), monomials(pow_(sinh(X), 2)), t1),
            FracTerm(c.scaled(0.5), monomials(X), t1),
        )
    ).collected()
    (term,) = s.terms
    assert term.spatial is normalize(add(1, mul(0.5, X)))


def test_collect_weights_tables():
    # the tables of one (time, tokens) key sum, weighted by their factors:
    # sinh x + x and sinh x - x, weighted 2 and -2, sum to 4x
    t0 = TimeFactor(Fraction(0), 1)
    terms = [
        FracTerm(Coefficient.number(2.0), monomials(add(sinh(X), X)), t0),
        FracTerm(Coefficient.number(-2.0), monomials(add(sinh(X), mul(-1, X))), t0),
    ]
    for collected in (FracSeries(terms), FracSeries(terms[:1]).add(FracSeries(terms[1:]))):
        (term,) = collected.terms
        assert (term.coef, term.monos) == (Coefficient.number(4.0), monomials(X))
    # proportional tables, 2 T + 3 (2 T), are one term 8 T with the tokens
    c = Coefficient.number(1.0).gamma_ratio(GammaArg(Fraction(1), 1), GammaArg(Fraction(1), 2))
    table = monomials(add(sinh(X), mul(0.5, X)))
    s = FracSeries((
        FracTerm(c.scaled(2.0), table, t0),
        FracTerm(c.scaled(3.0), monomials(add(mul(2, sinh(X)), X)), t0),
    ))
    assert [(t.coef, t.monos) for t in s.terms] == [(c.scaled(8.0), table)]
    # 3 (x + x^2) - 1.5 (2x + 2x^2) leaves no term; the term at the same
    # time with other tokens stays
    other = FracTerm(Coefficient.number(1.0), monomials(X), t0)
    s = FracSeries((
        FracTerm(c.scaled(3.0), monomials(add(X, pow_(X, 2))), t0),
        other,
        FracTerm(c.scaled(-1.5), monomials(mul(2, add(X, pow_(X, 2)))), t0),
    ))
    assert s.terms == (other,)


def assert_collected(series):
    """No two terms share (time, tokens), every table is monic, and the
    terms are sorted by (time, tokens)."""
    keys = [(t.time, t.coef.num, t.coef.den) for t in series.terms]
    assert len(set(keys)) == len(keys)
    assert all(monic(t.monos) == (1.0, t.monos) for t in series.terms)
    order = [(t.time.sort_key, t.coef.num, t.coef.den) for t in series.terms]
    assert order == sorted(order)


def test_collect_invariant():
    rng = random.Random(19)
    for _ in range(30):
        s, other = random_series(rng, 5), random_series(rng, 4)
        pure = s.taylor_expand(1, 4)
        # frac_integral gives each term the tokens of its old time, so sums
        # and products of integrals share times with different tokens
        si, oi = pure.frac_integral(), other.frac_integral()
        # the terms of three series listed one after another are uncollected
        loaded = FracSeries.from_obj(si.to_obj() + oi.to_obj() + s.to_obj())
        for series in (s, s.add(other), s.multiply(other), pure, si, si.caputo_derivative(),
                       si.add(other), si.multiply(oi), si.scale(-2.5), loaded):
            assert_collected(series)
    # W1 keeps one term per time: deformation_step binds the terms that
    # share one
    problem, _ = PROBLEMS["W1"]
    for u in run(problem, HatmConfig(0.5, -1.0, 5)):
        assert_collected(u)
        assert len({t.time for t in u.terms}) == len(u.terms)


def test_several_monomials_load_as_one_term_each():
    # a term of an older report may list a sum of gamma monomials
    tokens = [{"factor": 2.5, "num": [["1", 1]], "den": [["1", 2]]},
              {"factor": -0.75, "num": [], "den": [["3/2", 1]]}]
    obj = {"coef_tokens": tokens, "spatial": "(add x (sinh x))", "p": "1/2", "q": 1, "c": 0}
    s = FracSeries.from_obj([obj])
    time, monos = TimeFactor(Fraction(1, 2), 1), monomials(add(X, sinh(X)))
    # a loaded series is collected: its terms are sorted by (time, tokens)
    assert [(t.coef.factor, t.monos, t.time) for t in s.terms] == [
        (-0.75, monos, time), (2.5, monos, time)
    ]
    for alpha in ALPHAS:
        x, t = 0.8, 0.3
        coef = (2.5 * math.gamma(1 + alpha) / math.gamma(1 + 2 * alpha)
                - 0.75 / math.gamma(1.5 + alpha))
        want = coef * (x + math.sinh(x)) * t ** (0.5 + alpha)
        assert s.evaluate(x, t, alpha) == pytest.approx(want, rel=1e-14)


def test_from_obj_coefficients_are_canonical():
    # tokens read from a file are sorted, cancelled and folded as by every
    # other coefficient maker, so a collect merges terms listed in any order
    def term(factor, num, den=()):
        tokens = [{"factor": factor, "num": [list(a) for a in num], "den": [list(a) for a in den]}]
        return {"coef_tokens": tokens, "spatial": "x", "p": "0", "q": 1, "c": 0}

    s = FracSeries.from_obj([term(1.0, [("3/2", 1), ("1/2", 1)]),
                             term(2.0, [("1/2", 1), ("3/2", 1)])]).collected()
    tokens = (GammaArg(Fraction(1, 2), 1), GammaArg(Fraction(3, 2), 1))
    assert [(t.coef.factor, t.coef.num, t.coef.den) for t in s.terms] == [(3.0, tokens, ())]
    (only,) = FracSeries.from_obj([term(2.0, [("3/2", 1), ("1/2", 1)], [("3/2", 1)])]).terms
    assert (only.coef.num, only.coef.den) == (tokens[:1], ())
    (folded,) = FracSeries.from_obj([term(2.0, [("3", 0)])]).terms
    assert (folded.coef.factor, folded.coef.num) == (4.0, ())


def test_from_obj_loads_collected():
    def term(factor, spatial):
        tokens = [{"factor": factor, "num": [], "den": []}]
        return {"coef_tokens": tokens, "spatial": spatial, "p": "0", "q": 1, "c": 0}

    # x - x and a term with a zero factor load as the zero series
    for obj in ([term(1.0, "x"), term(-1.0, "x")], [term(0.0, "(sinh x)")]):
        s = FracSeries.from_obj(obj)
        assert s.is_zero
        assert s.to_obj() == []
    # 2 (3 x) + x is one term 7 x, its table monic
    (only,) = FracSeries.from_obj([term(2.0, "(mul 3 x)"), term(1.0, "x")]).terms
    assert (only.coef.factor, only.monos) == (7.0, monomials(X))


# --------------------------------------------------------------- serialization


def test_json_schema_fields():
    # every term is a pure power of t; the report keeps c = 0 for its readers
    s = FracSeries.from_spatial(sinh(X), factor=-2.0, p=Fraction(1, 2), q=3)
    obj = s.to_obj()
    assert obj == [
        {
            "coef_tokens": [{"factor": -2.0, "num": [], "den": []}],
            "spatial": "(sinh x)",
            "p": "1/2",
            "q": 3,
            "c": 0,
        }
    ]


def test_json_round_trip_identity():
    rng = random.Random(8)
    for _ in range(25):
        s = random_series(rng, 4)
        text = s.to_json()
        again = FracSeries.from_json(text)
        assert again.to_json() == text
        for alpha in ALPHAS:
            assert values(again, alpha) == values(s, alpha)


def test_json_round_trip_preserves_tokens():
    s = FracSeries.from_spatial(X, q=1).caputo_derivative().frac_integral()
    again = FracSeries.from_json(s.to_json())
    assert again == s


@pytest.mark.parametrize(
    "where, bad",
    [("p", "1/0"), ("p", "half"), ("num", [["1/0", 1]]), ("den", [["x", 1]])],
)
def test_from_obj_rejects_a_bad_rational(where, bad):
    (obj,) = FracSeries.from_spatial(X, q=1).frac_integral().to_obj()
    if where == "p":
        obj["p"] = bad
    else:
        obj["coef_tokens"][0][where] = bad
    with pytest.raises(DomainError, match="bad numeric token"):
        FracSeries.from_obj([obj])


@pytest.mark.parametrize(
    "where, bad",
    [
        ("num", [["-1/2", 0]]),  # gamma(-1/2) < 0, and lgamma drops the sign
        ("num", [["0", 0]]),  # the pole at 0
        ("den", [["-1/2", 1]]),  # -1/2 + alpha <= 0 for alpha <= 1/2
        ("den", [["1", 0.5]]),  # b is an integer
        ("q", 0.5),
        ("c", 1.5),
        ("c", 1),  # a series term is a pure power of t
        ("factor", math.nan),  # evaluate would return nan
        ("factor", math.inf),
        ("factor", "1e999"),
        ("factor", "abc"),
        ("factor", True),  # JSON true is not a number
        ("coef_tokens", "x"),
        ("coef_tokens", None),  # missing
    ],
)
def test_from_obj_refuses_tokens_off_the_positive_axis_and_fractional_integers(where, bad):
    (obj,) = FracSeries.from_spatial(X, q=1).frac_integral().to_obj()
    if bad is None:
        del obj[where]
    elif where in ("q", "c", "coef_tokens"):
        obj[where] = bad
    else:
        obj["coef_tokens"][0][where] = bad
    with pytest.raises(DomainError):
        FracSeries.from_obj([obj])
    # a + b*alpha with a = 0 stays positive on (0, 1]
    obj = {"coef_tokens": [{"factor": 2.0, "num": [["0", 1]], "den": []}],
           "spatial": "x", "p": "0", "q": 0, "c": 0}
    value = FracSeries.from_obj([obj]).evaluate(1.5, 1.0, 0.5)
    assert value == pytest.approx(3.0 * math.gamma(0.5), rel=1e-14)


def test_json_is_plain_data():
    s = FracSeries.from_spatial(X, q=2)
    parsed = json.loads(s.to_json())
    assert isinstance(parsed, list)
    assert parsed[0]["q"] == 2


# ------------------------------------------------------------------ properties


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_property_round_trip(seed):
    s = random_series(random.Random(seed))
    rt = s.frac_integral().caputo_derivative()
    for alpha in ALPHAS:
        for va, vb in zip(values(s, alpha), values(rt, alpha)):
            assert abs(va - vb) <= 1e-12 * max(1.0, abs(va))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_property_serialization_stable(seed):
    s = random_series(random.Random(seed))
    assert FracSeries.from_json(s.to_json()).to_json() == s.to_json()
