import math
from collections import Counter

import pytest

from helpers import (
    MIXED,
    ORACLE,
    PROBLEMS,
    assert_q_map_close,
    constant_image_coeffs,
    identity_coeffs,
    oracle_solution,
    q_coefficient_map,
    symbolic_residual,
    tree_value,
)
from hatmfp import engine, expr, fokker_planck, series
from hatmfp.errors import ConfigError, DegreeError, DomainError
from hatmfp.engine import (
    HatmConfig,
    OperatorMonomial,
    ProblemSpec,
    apply_operator,
    build_rm,
    h_curve,
    partial_sum,
    recombine,
    residual,
    run,
    run_report,
)
from hatmfp.expr import (
    ONE, X, Y, add, canonical, const, cosh, evaluate, monomials, mul, parse_prefix, pow_, sinh,
)
from hatmfp.fokker_planck import (
    PRESET_IDS, CoefficientSpec, build_backward, build_forward, preset,
)
from hatmfp.series import FracSeries


def cfg(alpha=0.75, order=3, **kw):
    return HatmConfig(alpha=alpha, order=order, **kw)


# --------------------------------------------------------------- config guards


def test_config_validation():
    with pytest.raises(ConfigError):
        recombine(run(preset("4.1"), cfg(order=1)), 0.0)
    with pytest.raises(ConfigError):
        cfg(order=-1)
    with pytest.raises(ConfigError):
        cfg(alpha=0.0)
    with pytest.raises(ConfigError):
        cfg(alpha=1.0001)
    with pytest.raises(ConfigError):
        cfg(taylor_terms=0)


def test_problem_spec_guards():
    with pytest.raises(ConfigError):
        ProblemSpec(dim=3, operator=(), initial=X)
    with pytest.raises(ConfigError):
        # y appears in a one-dimensional problem
        ProblemSpec(dim=1, operator=(OperatorMonomial(monomials(Y), ((1, 0),)),), initial=X)
    with pytest.raises(ConfigError):
        # a y-derivative in either factor of a one-dimensional problem
        ProblemSpec(1, (OperatorMonomial(monomials(ONE), ((0, 0), (0, 1))),), initial=X)
    with pytest.raises(DegreeError):
        OperatorMonomial(monomials(ONE), ((3, 0),))
    with pytest.raises(DegreeError):
        OperatorMonomial(monomials(ONE), ((1, 0), (0, 3)))


def test_one_dimensional_check_reads_the_source():
    # a source in y would print iterates in y that eval reads at y = 0
    with pytest.raises(ConfigError, match="^variable y in a one-dimensional problem$"):
        ProblemSpec(1, (), X, source=((0, FracSeries.from_spatial(Y)),))
    with pytest.raises(ConfigError, match="^variable y in a one-dimensional problem$"):
        ProblemSpec(1, (), X, source=((1, FracSeries.from_spatial(mul(X, Y), q=1)),))
    # a zero source is dropped before the check, as it is from the spec
    zero = FracSeries.from_spatial(Y).scale(0.0)
    assert ProblemSpec(1, (), X, source=((0, zero),)).source == ()


@pytest.mark.parametrize("derivs", [(), ((0, 0),) * 3])
def test_operator_monomial_takes_one_or_two_factors(derivs):
    with pytest.raises(DegreeError, match="one or two factors"):
        OperatorMonomial(monomials(ONE), derivs)


def test_only_constant_auxiliary_function():
    # H = 1 is built into the recursion; there is no knob to set it
    with pytest.raises(TypeError):
        cfg(aux_function=1.0)


# ------------------------------------------------------------- operator action


def test_apply_operator_identity_preset():
    # the hyperbolic drift/diffusion pair acts as the identity on
    # multiples of sinh(x) (their e^t parts cancel)
    prob = preset("4.2")
    u0 = FracSeries.from_spatial(prob.initial)
    groups = apply_operator(prob, [u0], 1)
    assert sorted(groups) == [0, 1] and groups[1].is_zero
    out = groups[0]
    assert out.evaluate(1.0, 0.4, 0.75) == pytest.approx(math.sinh(1.0), rel=1e-10)
    assert out.evaluate(1.7, 0.0, 0.5) == pytest.approx(math.sinh(1.7), rel=1e-10)


def test_apply_operator_quadratic_identity():
    prob = preset("4.5")
    u0 = FracSeries.from_spatial(prob.initial)
    (out,) = apply_operator(prob, [u0], 1).values()
    assert out.evaluate(1.3, 0.2, 1.0) == pytest.approx(1.3**2, rel=1e-10)


def test_apply_operator_drift_only():
    # hand problem: N[u] = x * du/dx on u = x^2 t^alpha
    prob = ProblemSpec(dim=1, operator=(OperatorMonomial(monomials(X), ((1, 0),)),), initial=X)
    u = FracSeries.from_spatial(pow_(X, 2), q=1)
    (out,) = apply_operator(prob, [u], 1).values()
    alpha, x, t = 0.5, 1.4, 0.3
    assert out.evaluate(x, t, alpha) == pytest.approx(2 * x**2 * t**alpha, rel=1e-12)
    # at order m the linear part acts on history[m-1] alone
    (later,) = apply_operator(prob, [FracSeries.from_spatial(X), u], 2).values()
    assert later.evaluate(x, t, alpha) == out.evaluate(x, t, alpha)


def test_apply_operator_past_the_expansion_cap_keeps_one_opaque_term(monkeypatch):
    # N[u] = (x + 0.37) du/dx on u = (x^2 + 0.59 x) t^alpha: two monomials
    # times two make four pairs; past a cap of 3 the product stays one atom
    monkeypatch.setattr(expr, "EXPAND_CAP", 3)
    mono = OperatorMonomial(monomials(add(X, 0.37)), ((1, 0),))
    prob = ProblemSpec(dim=1, operator=(mono,), initial=X)
    u = FracSeries.from_spatial(add(pow_(X, 2), mul(0.59, X)), q=1)
    (out,) = apply_operator(prob, [u], 1).values()
    (term,) = out.terms
    (((atom, exponent),), coef) = term.monos[0]
    assert len(term.monos) == 1 and (exponent, coef) == (1, 1.0)
    assert atom is mul(add(X, 0.37), add(X, 0.295))  # the derivative, monic
    alpha, x, t = 0.5, 1.3, 0.4
    want = (x + 0.37) * (2 * x + 0.59) * t**alpha
    assert out.evaluate(x, t, alpha) == pytest.approx(want, rel=1e-14)


def test_apply_operator_quadratic_convolution():
    # N[u] = u * du/dx; with history (u0, u1) the homotopy convolution at
    # m=2 is u1*u0' + u0*u1'
    prob = ProblemSpec(
        dim=1,
        operator=(OperatorMonomial(monomials(ONE), ((0, 0), (1, 0))),),
        initial=X,
    )
    u0 = FracSeries.from_spatial(X)
    u1 = FracSeries.from_spatial(pow_(X, 2), q=1)
    (out,) = apply_operator(prob, [u0, u1], 2).values()
    alpha, x, t = 0.75, 1.2, 0.5
    want = x**2 * t**alpha + x * 2 * x * t**alpha
    assert out.evaluate(x, t, alpha) == pytest.approx(want, rel=1e-12)


def test_apply_operator_at_first_order_uses_square():
    # apply_operator at m = 1 with history (s,) is N[s], the symbolic
    # residual of tests/helpers.py: the convolution is then s * s
    prob = ProblemSpec(
        dim=1,
        operator=(OperatorMonomial(monomials(ONE), ((0, 0), (0, 0))),),
        initial=X,
    )
    s = FracSeries.from_spatial(X, q=1)
    (out,) = apply_operator(prob, (s,), 1).values()
    alpha, x, t = 0.5, 1.5, 0.64
    assert out.evaluate(x, t, alpha) == pytest.approx((x * t**alpha) ** 2, rel=1e-12)


# ----------------------------------------------------------- deformation steps


def test_first_iterate_of_drift_diffusion_problem():
    # R_1 = D^alpha u0 - N[u0]; for the unit-drift problem N[x] = 1, so
    # u_1 = -hbar * t^alpha / gamma(1+alpha)
    prob = preset("4.1")
    for h in (-1.0, -0.7):
        for alpha in (0.5, 1.0):
            u1 = recombine(run(prob, cfg(alpha=alpha, order=1)), h)[1]
            want = -h * 0.3**alpha / math.gamma(1 + alpha)
            assert u1.evaluate(2.0, 0.3, alpha) == pytest.approx(want, rel=1e-12)


def test_iterates_match_hand_recursion():
    for pid, f in (("4.3", add(X, 1)), ("4.4", X), ("4.5", pow_(X, 2))):
        for h in (-1.0, -0.6):
            alpha = 0.75
            us = recombine(run(preset(pid), cfg(alpha=alpha, order=3)), h)
            x, y = 1.25, 0.8
            fval = evaluate(f, x, y)
            for m in (1, 2, 3):
                got = q_coefficient_map(us[m], alpha, x, y)
                want = {q: c * fval for q, c in identity_coeffs(m, h, alpha).items()}
                assert_q_map_close(got, want, rel=1e-10)


def test_iterates_constant_image_problem():
    alpha, h = 0.5, -0.8
    us = recombine(run(preset("4.1"), cfg(alpha=alpha, order=3)), h)
    for m in (1, 2, 3):
        got = q_coefficient_map(us[m], alpha, 1.7)  # spatial part is the constant 1
        assert_q_map_close(got, constant_image_coeffs(m, h, alpha), rel=1e-10)


def test_build_rm_source_enters_once():
    # pure-source problem (no operator): D^alpha u = t^alpha, u(x,0) = x,
    # whose solution is x + J^alpha[t^alpha]; the source must enter the
    # recursion once, at m = 1, else iterates never stop
    source = FracSeries.from_spatial(ONE, q=1)
    prob = ProblemSpec(dim=1, operator=(), initial=X, source=((0, source),))
    x, t, alpha = 1.0, 0.5, 0.5
    jg = math.gamma(1 + alpha) / math.gamma(1 + 2 * alpha) * t ** (2 * alpha)
    u0 = FracSeries.from_spatial(X)
    assert build_rm(prob, [u0], 1) == {0: source}
    us = run(prob, cfg(alpha=alpha, order=2))
    assert us[1].evaluate(x, t, alpha) == pytest.approx(jg, rel=1e-12)
    assert build_rm(prob, us[:2], 2) == {}
    # with no second copy of the source the hbar = -1 series terminates
    assert us[2].is_zero
    assert partial_sum(us, 2).evaluate(x, t, alpha) == pytest.approx(x + jg, rel=1e-12)
    # at other hbar, u_2 = (1 + hbar) u_1 carries no second -hbar J^alpha[g]
    h = -0.7
    us = recombine(run(prob, cfg(alpha=alpha, order=2)), h)
    assert us[1].evaluate(x, t, alpha) == pytest.approx(-h * jg, rel=1e-12)
    assert us[2].evaluate(x, t, alpha) == pytest.approx(-h * (1 + h) * jg, rel=1e-12)


def test_run_length_and_zeroth_iterate():
    prob = preset("4.3")
    us = run(prob, cfg(order=4))
    assert len(us) == 5
    assert us[0].evaluate(1.2, 0.9, 0.75) == pytest.approx(2.2, rel=1e-15)


def test_run_order_zero():
    us = run(preset("4.1"), cfg(order=0))
    assert len(us) == 1


# ----------------------------------------------------------------- partial sums


def test_partial_sum_truncations():
    prob = preset("4.2")
    us = run(prob, cfg(alpha=1.0, order=4))
    x, t = 1.0, 0.3
    want = math.sinh(x) * sum(t**k / math.factorial(k) for k in range(3))
    assert partial_sum(us, 2).evaluate(x, t, 1.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(IndexError):
        partial_sum(us, 9)


def test_partial_sum_exponential_truncation():
    # four-term truncation at alpha = 1 of the sinh problem:
    # sinh(1) * (1 + 0.3 + 0.045 + 0.0045)
    us = run(preset("4.2"), cfg(alpha=1.0, order=3))
    got = partial_sum(us, 3).evaluate(1.0, 0.3, 1.0)
    assert got == pytest.approx(math.sinh(1.0) * 1.3495, rel=1e-12)


# -------------------------------------------------------------------- residual


def test_residual_of_initial_guess():
    # truncating at u0 leaves |D^alpha x - N[x]| = |0 - 1| = 1
    prob = preset("4.1")
    s = FracSeries.from_spatial(X)
    vals = residual(prob, [s], 0.5, -1.0, [(1.0, 0.0, 0.3), (2.0, 0.0, 0.8)])
    assert vals == [pytest.approx(1.0, abs=1e-14), pytest.approx(1.0, abs=1e-14)]


def test_residual_shrinks_with_order():
    prob = preset("4.5")
    prev = None
    for order in (2, 4, 8):
        (r,) = residual(prob, run(prob, cfg(alpha=1.0, order=order)), 1.0, -1.0,
                        [(1.0, 0.0, 0.3)])
        assert prev is None or r < prev
        prev = r
    assert prev < 1e-4


@pytest.mark.parametrize("alpha,bounds", [(0.75, (1e-8, 1e-5)), (1.0, (1e-13, 1e-7))])
def test_convergent_oracle_that_does_not_collapse(alpha, bounds):
    # one term per iterate, whose table moves away from f's; at M = 24 the
    # partial sum meets the mode sum at t = 0.3 and 0.5
    iterates = run(ORACLE, cfg(alpha=alpha, order=24))
    assert all(len(u.terms) == 1 for u in iterates)
    assert len({u.terms[0].monos for u in iterates}) > 1
    total = partial_sum(iterates, 24)
    for t, bound in zip((0.3, 0.5), bounds):
        exact = oracle_solution(1.0, t, alpha)
        assert abs(total.evaluate(1.0, t, alpha) - exact) <= bound * abs(exact), t


def test_convergent_oracle_residual_falls_with_order():
    values = []
    for order in (4, 8, 12, 16):
        c = cfg(alpha=0.75, order=order)
        (r,) = residual(ORACLE, run(ORACLE, c), 0.75, -1.0, [(1.0, 0.0, 0.3)])
        values.append(r)
    assert all(a > b for a, b in zip(values, values[1:])), values


def test_operator_coefficients_are_canonical():
    # a merged coefficient is a canonical table: MIXED's x u e^t term once
    # kept (add (mul 2 x) (mul 2 x))
    for problem in [preset(pid) for pid in PRESET_IDS] + [MIXED]:
        for mono in problem.operator:
            assert mono.monos == monomials(canonical(mono.monos)), mono.monos


def test_operators_built_from_trees_at_the_parse_limit_run():
    # the operator holds tables, so no tree of a coefficient is built past
    # the parse limit. The forward diffusion is left out: the second
    # derivative of a deep nest has exponentially many monomials.
    u = (FracSeries.from_spatial(X),)
    for text in ("(sinh " * 100 + "x" + ")" * 100, "(pow (cosh " * 50 + "x" + ") 2)" * 50):
        e = parse_prefix(text)
        assert e.depth == expr.MAX_NESTING
        for problem in (build_backward(1, [e], [[e]], X),
                        build_forward(1, [CoefficientSpec(e, u_degree=1)], [[0]], X)):
            groups = apply_operator(problem, u, 1)
            assert groups and not any(g.is_zero for g in groups.values())


def test_residual_sums_the_tree_values_of_the_coefficients():
    # table_value reads an operator's coefficient bit for bit as evaluate
    # reads the tree of its table
    c = cfg(alpha=0.5, order=2)
    points = [(0.7, 0.4, 0.3), (1.3, 0.9, 0.6)]
    for problem in [preset(pid) for pid in PRESET_IDS] + [MIXED]:
        s = partial_sum(run(problem, c), 2)
        linear = s.caputo_derivative()
        want = []
        for px, py, pt in points:
            operator = sum(
                evaluate(canonical(mono.monos), px, py)
                * math.exp(mono.exp_rate * pt)
                * math.prod(engine._derived(s, d).evaluate(px, pt, c.alpha, py)
                            for d in mono.derivs)
                for mono in problem.operator
            ) + sum(math.exp(rate * pt) * g.evaluate(px, pt, c.alpha, py)
                    for rate, g in problem.source)
            want.append(abs(linear.evaluate(px, pt, c.alpha, py) - operator))
        assert residual(problem, [s], c.alpha, -1.0, points) == want


def test_linear_residual_is_the_next_iterate():
    # for a linear problem D^alpha v_(M+1) = N[v_M], and the sum S_M of
    # v_0..v_M leaves D^alpha S_M - N[S_M] - g = -N[v_M]: the residual at
    # -1 is |D^alpha v_(M+1)| exactly, with no closed form needed
    problem = build_backward(1, [mul(-1, X)], [[add(pow_(X, 2), sinh(X))]], cosh(X))
    free = run(problem, cfg(alpha=0.5, order=5))
    points = [(0.7, 0.0, 0.2), (1.3, 0.0, 0.5)]
    for order in (2, 3, 4):
        got = residual(problem, free[: order + 1], 0.5, -1.0, points)
        nxt = free[order + 1].caputo_derivative()
        want = [abs(nxt.evaluate(x, t, 0.5)) for x, _, t in points]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), order


# the symbolic N[s] multiplies every pair of terms of s, so the oracle is
# run on MIXED at M = 1
@pytest.mark.parametrize("hbar", [-1.0, -0.7, -1.3])
@pytest.mark.parametrize(
    "problem, keywords",
    [PROBLEMS["4.4"], PROBLEMS["4.5"], PROBLEMS["W1"], PROBLEMS["W2"], (MIXED, {"order": 1})],
    ids=["4.4", "4.5", "W1", "W2", "mixed"],
)
def test_residual_matches_symbolic(problem, keywords, hbar):
    # the values of the hbar-free run, recombined at hbar, against the
    # symbolic residual of the partial sum of the series recombined at hbar
    c = cfg(alpha=0.5, **keywords)
    free = run(problem, c)
    s = partial_sum(recombine(free, hbar), c.order)
    points = [(0.6, 0.4, 0.1), (1.0, 0.8, 0.3), (1.5, 1.2, 0.7)]
    if problem.dim == 1:
        points = [(x, 0.0, t) for x, _, t in points]
    got = residual(problem, free, 0.5, hbar, points)
    want = symbolic_residual(problem, s, c, points)
    for (x, y, t), g, w in zip(points, got, want):
        # relative to D^alpha s where the residual is a small difference
        scale = max(w, abs(s.caputo_derivative().evaluate(x, t, c.alpha, y)))
        assert abs(g - w) <= 1e-12 * scale, (x, y, t, g, w)


@pytest.mark.parametrize("problem", [MIXED, preset("4.4"), PROBLEMS["W2"][0]],
                         ids=["mixed", "4.4", "W2"])
def test_residual_differentiates_only_the_last_iterate(monkeypatch, problem):
    # the run keeps on v_0..v_(M-1) the derivatives that its operator terms
    # took, so residual differentiates the terms of v_M alone
    free = run(problem, cfg(alpha=0.5, order=2))
    calls = {"residual": Counter(), "v_M": Counter()}

    def counted(into):
        def derivative(monos, name):
            calls[into][monos, name] += 1
            return expr.table_derivative(monos, name)
        monkeypatch.setattr(series, "table_derivative", derivative)

    counted("residual")
    residual(problem, free, 0.5, -0.7, [(1.0, 0.5, 0.3)])
    counted("v_M")
    fresh = FracSeries(free[-1].terms)  # the terms of v_M, with no derivative kept
    for d in {d for mono in problem.operator for d in mono.derivs}:
        engine._derived(fresh, d)
    assert calls["v_M"] and calls["residual"] == calls["v_M"]


# --------------------------------------------------------------------- h-curve


def test_h_curve_pairs_and_flat_region():
    prob = preset("4.2")
    c = cfg(alpha=0.75, order=8)
    hs = [-1.05, -1.0, -0.95]
    free = run(prob, c)
    pairs = h_curve(free, 0.75, (1.0, 0.0, 0.3), hs)
    assert [h for h, _ in pairs] == hs
    near = [sums[-1] for _, sums in pairs]
    wide = [sums[-1] for _, sums in h_curve(free, 0.75, (1.0, 0.0, 0.3), [-2.0, -1.0, -0.2])]
    assert max(near) - min(near) < (max(wide) - min(wide)) / 100.0
    # the h = -1 entry is the plain run
    want = partial_sum(free, 8).evaluate(1.0, 0.3, 0.75)
    assert pairs[1][1][8] == pytest.approx(want, rel=1e-14)


def test_h_curve_evaluates_each_iterate_once(monkeypatch):
    # every hbar is a weighted sum of the values of v_0..v_M: the series are
    # evaluated once at the probe, and no series is built
    free = run(preset("4.5"), cfg(alpha=0.5, order=10))
    evaluated, collected = [], []
    evaluate, collect = series.FracSeries.evaluate, series._collect

    def counted(self, *args, **kwargs):
        evaluated.append(self)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(series.FracSeries, "evaluate", counted)
    monkeypatch.setattr(series, "_collect", lambda terms: collected.append(1) or collect(terms))
    for count in (3, 19):
        evaluated.clear()
        h_values = [-2.0 + 1.8 * i / (count - 1) for i in range(count)]
        h_curve(free, 0.5, (1.0, 0.0, 0.3), h_values)
        assert evaluated == free
    assert collected == []


def test_h_curve_exact_point():
    # the unit-drift problem sums to x + t at alpha = 1, so the curve
    # value at hbar = -1, probe (1, 1), is exactly 2
    free = run(preset("4.1"), cfg(alpha=1.0, order=3))
    ((_, sums),) = h_curve(free, 1.0, (1.0, 0.0, 1.0), [-1.0])
    assert sums[3] == pytest.approx(2.0, rel=1e-14)


def test_h_curve_rejects_zero():
    with pytest.raises(ConfigError, match="^hbar must be nonzero, got 0.0$"):
        h_curve(run(preset("4.1"), cfg()), 0.75, (1.0, 0.0, 0.3), [-1.0, 0.0])


def test_h_curve_refuses_a_probe_that_is_not_finite():
    with pytest.raises(DomainError, match="^t must be finite, got nan$"):
        h_curve(run(preset("4.1"), cfg()), 0.75, (1.0, 0.0, math.nan), [-1.0])


def test_h_curve_partial_sum_that_overflows_is_a_domain_error():
    # u = 1e308 + 1e308 t at alpha = 1: S_1 at t = 1 is past the float range
    problem = ProblemSpec(1, (OperatorMonomial(monomials(ONE), ((0, 0),)),), const(1e308))
    with pytest.raises(DomainError, match="^a partial sum at hbar=-1.0 overflows a float$"):
        h_curve(run(problem, cfg(alpha=1.0, order=1)), 1.0, (1.0, 0.0, 1.0), [-1.0])


def test_recombination_weight_past_the_float_range_is_a_domain_error():
    # comb(1099, k - 1) is an integer too large for a float for middle k.
    # recombine and recombine_values take every weight from _weights, called
    # here at that order alone: recombine_values([1.0] * 1101, -0.5) reaches
    # the same refusal at u_1031, after seconds of smaller orders
    with pytest.raises(DomainError, match=r"^the weight of v_\d+ in u_1100 overflows a float"):
        list(engine._weights(1100, -0.5))


# ------------------------------------------------------------------ run report


def test_run_report_shape():
    c = cfg(alpha=0.5, order=3)
    report = run_report(preset("4.3"), c, -0.7, problem_label="preset:4.3")
    assert report["problem"] == "preset:4.3"
    assert report["config"] == {
        "alpha": 0.5,
        "hbar": -0.7,
        "order": 3,
        "taylor_terms": 12,
    }
    # the report recombines the hbar-free run at its hbar
    assert report["iterates"] == [u.to_obj() for u in recombine(run(preset("4.3"), c), -0.7)]
    assert len(report["iterates"]) == 4
    assert isinstance(report["partial_sum"], list)
    assert report["taylor_events"] == []
    assert report["bind_events"] == []
    assert report["wall_time_s"] >= 0.0
    s = FracSeries.from_obj(report["partial_sum"])
    assert s.evaluate(1.0, 0.4, 0.5) > 0.0


def test_bind_events_reported():
    # W2 (forward, A = 0, B = u, f = sinh x): from u_3 on, the quadratic
    # convolution leaves several terms at t^(m alpha), bound into one
    prob = build_forward(1, [[]], [[CoefficientSpec(ONE, u_degree=1)]], sinh(X))
    report = run_report(prob, cfg(alpha=0.5, order=5), -1.0)
    assert report["bind_events"] == [
        {"order": 3, "terms_bound": 2},
        {"order": 4, "terms_bound": 2},
        {"order": 5, "terms_bound": 3},
    ]
    assert [len(u) for u in report["iterates"]] == [1] * 6
    (term,) = report["iterates"][5]
    assert term["coef_tokens"][0]["num"] == term["coef_tokens"][0]["den"] == []


def test_unshared_times_keep_gamma_tokens():
    # every iterate of 4.5 holds at most one term per time, so nothing
    # binds and each coefficient past u_0 keeps its gamma tokens
    for hbar in (-1.0, -0.7):
        events = {}
        iterates = recombine(run(preset("4.5"), cfg(alpha=0.5, order=10), events), hbar)
        assert events == {}
        for u in iterates[1:]:
            assert all(t.coef.den for t in u.terms)


def test_taylor_events_recorded():
    # N[u] = e^t du/dx keeps a genuine exponential coefficient alive,
    # forcing an expansion before every integration step
    prob = ProblemSpec(
        dim=1, operator=(OperatorMonomial(monomials(ONE), ((1, 0),), exp_rate=1),), initial=X
    )
    events = {}
    run(prob, cfg(alpha=0.5, order=3, taylor_terms=9), events)
    rows = events["taylor_events"]
    assert rows, "surviving exponential coefficients must force expansions"
    assert all(e["taylor_terms"] == 9 for e in rows)
    assert all(e["terms_expanded"] > 0 for e in rows)
    assert [e["order"] for e in rows] == sorted(e["order"] for e in rows)
    # W1's e^t diffusion: each step expands every term of its rate-1 group,
    # which grows by taylor_terms - 1 times per order
    problem, _ = PROBLEMS["W1"]
    for alpha in (0.5, 1.0):
        events = {}
        run(problem, cfg(alpha=alpha, order=4), events)
        assert events["taylor_events"] == [
            {"order": m, "terms_expanded": n, "taylor_terms": 12}
            for m, n in ((1, 1), (2, 12), (3, 23), (4, 34))
        ]


def test_hyperbolic_preset_needs_no_expansion():
    # the e^t parts of the sinh problem cancel identically on the iterate
    # family, so nothing survives to be expanded
    events = {}
    run(preset("4.2"), cfg(alpha=0.5, order=4), events)
    assert events == {}
    events41 = {}
    run(preset("4.1"), cfg(order=2), events41)
    assert events41 == {}


def test_hyperbolic_iterates_are_single_sinh_terms():
    for alpha in (0.5, 1.0):
        for u in run(preset("4.2"), cfg(alpha=alpha, order=5)):
            (term,) = u.terms
            assert term.spatial is sinh(X)


def test_backward_iterate_stays_compact():
    # W1: backward, A = -x, B = x^2 e^t, f = cosh x. Binding the terms
    # that share a time leaves u_3 one term per time: 34 terms and 205
    # coefficient plus spatial monomials.
    prob = build_backward(
        1, [mul(-1, X)], [[CoefficientSpec(pow_(X, 2), exp_rate=1)]], cosh(X)
    )
    u3 = run(prob, cfg(alpha=0.5, order=3))[3]
    assert len({t.time for t in u3.terms}) == len(u3.terms) == 34
    size = sum(1 + len(monomials(t.spatial)) for t in u3.terms)
    assert size <= 550


def test_run_builds_no_tree(monkeypatch):
    # a term's spatial part is its table: W1's recursion multiplies,
    # differentiates and collects tables, and builds a tree for none
    prob = build_backward(
        1, [mul(-1, X)], [[CoefficientSpec(pow_(X, 2), exp_rate=1)]], cosh(X)
    )
    monomials(prob.initial)  # the input's atoms get their canonical arguments
    calls = []
    original = expr.canonical

    def counted(monos):
        calls.append(monos)
        return original(monos)

    for module in (expr, series, engine, fokker_planck):
        if getattr(module, "canonical", None) is original:
            monkeypatch.setattr(module, "canonical", counted)
    iterates = run(prob, cfg(alpha=0.5, order=4))
    assert len(iterates[4].terms) > 1
    assert calls == []


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_evaluate_is_the_tree_walk_bit_for_bit(name):
    # the table sum applies the operations of the walk over each term's
    # tree, in the same order
    problem, keywords = PROBLEMS[name]
    keywords = {**keywords, **{"W1": {"order": 3}, "W2": {"order": 6}}.get(name, {})}
    alpha = 0.5
    for u in recombine(run(problem, HatmConfig(alpha=alpha, **keywords)), -0.7):
        for x, y, t in ((0.7, 0.6, 0.3), (1.3, 1.1, 0.8), (2.1, 0.4, 1.0)):
            assert u.evaluate(x, t, alpha, y) == tree_value(u, x, t, alpha, y)


def test_run_is_deterministic():
    prob = preset("4.4")
    c = cfg(alpha=0.75, order=6)
    a = partial_sum(recombine(run(prob, c), -0.9), 6).to_json()
    b = partial_sum(recombine(run(prob, c), -0.9), 6).to_json()
    assert a == b
