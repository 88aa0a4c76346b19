import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hatmfp
from hatmfp.engine import HatmConfig, apply_operator, partial_sum, run
from hatmfp.errors import ConfigError, DegreeError, PresetError
from hatmfp.expr import (
    ONE,
    X,
    Y,
    add,
    canonical,
    const,
    cosh,
    evaluate,
    monomials,
    mul,
    pow_,
    sinh,
    tanh,
    variables,
)
from hatmfp.fokker_planck import (
    PRESET_IDS,
    CoefficientSpec,
    build_backward,
    build_forward,
    load_problem,
    preset,
    problem_from_obj,
    problem_to_obj,
    reference_solution,
)
from hatmfp.series import FracSeries
from helpers import same_on_panel, tree_derivative, tree_operator
from test_expr import small_trees

POINTS = [(0.7, 0.4), (1.3, 0.9), (2.1, 0.25)]


def linear(problem):
    return tuple(m for m in problem.operator if len(m.derivs) == 1)


def quadratic(problem):
    return tuple(m for m in problem.operator if len(m.derivs) == 2)


def act(problem, phi, x, t=0.0, y=0.0, alpha=0.5):
    """Numeric value of the expanded operator applied to the plain
    spatial profile phi."""
    groups = apply_operator(problem, (FracSeries.from_spatial(phi),), 1)
    return sum(math.exp(rate * t) * g.evaluate(x, t, alpha, y) for rate, g in groups.items())


def dx(expr, n=1, var="x"):
    for _ in range(n):
        expr = tree_derivative(expr, var)
    return expr


# ---------------------------------------------------------- forward expansion


def test_forward_expansion_matches_product_rule():
    # -d/dx(A u) + d2/dx2(B u), checked against direct symbolic
    # differentiation of the products
    a = add(pow_(X, 2), const(1))
    b = sinh(X)
    phi = cosh(X)
    prob = build_forward(1, [a], [[b]], phi)
    for x, _ in POINTS:
        want = -evaluate(dx(mul(a, phi)), x) + evaluate(dx(mul(b, phi), 2), x)
        assert act(prob, phi, x) == pytest.approx(want, rel=1e-12)


def test_forward_exponential_coefficients():
    # separable e^(c t) factors ride along unchanged
    a = CoefficientSpec(X, exp_rate=1)
    b = CoefficientSpec(pow_(X, 2), exp_rate=2)
    phi = add(sinh(X), pow_(X, 2))
    prob = build_forward(1, [a], [[b]], phi)
    x, t = 1.1, 0.4
    want = -math.exp(t) * evaluate(dx(mul(X, phi)), x) + math.exp(2 * t) * evaluate(
        dx(mul(pow_(X, 2), phi), 2), x
    )
    assert act(prob, phi, x, t) == pytest.approx(want, rel=1e-12)


def test_forward_two_dimensional():
    a1, a2 = mul(X, Y), pow_(Y, 2)
    b = [[pow_(X, 2), mul(X, Y)], [const(1), pow_(Y, 2)]]
    phi = add(mul(pow_(X, 2), Y), sinh(X))
    prob = build_forward(2, [a1, a2], b, phi)
    for (x, y) in [(0.8, 0.5), (1.4, 1.1)]:
        want = -evaluate(dx(mul(a1, phi)), x, y=y) - evaluate(
            dx(mul(a2, phi), var="y"), x, y=y
        )
        for (i, j), bij in zip([(0, 0), (0, 1), (1, 0), (1, 1)], sum(b, [])):
            vi, vj = "xy"[i], "xy"[j]
            want += evaluate(dx(dx(mul(bij, phi), var=vi), var=vj), x, y=y)
        assert act(prob, phi, x, y=y) == pytest.approx(want, rel=1e-12)


def test_forward_quadratic_drift():
    # u_degree = 1 turns the drift term into -d/dx(A u^2)
    a = CoefficientSpec(add(X, const(2)), u_degree=1, exp_rate=1)
    phi = add(sinh(X), const(1))
    prob = build_forward(1, [a], [[0]], phi)
    assert linear(prob) == ()
    x, t = 1.2, 0.3
    want = -math.exp(t) * evaluate(dx(mul(add(X, const(2)), phi, phi)), x)
    assert act(prob, phi, x, t) == pytest.approx(want, rel=1e-12)


def test_forward_quadratic_diffusion():
    b = CoefficientSpec(cosh(X), u_degree=1)
    phi = pow_(X, 2)
    prob = build_forward(1, [0], [[b]], phi)
    for x, _ in POINTS:
        want = evaluate(dx(mul(cosh(X), phi, phi), 2), x)
        assert act(prob, phi, x) == pytest.approx(want, rel=1e-12)


def test_forward_two_dimensional_quadratic():
    # u_degree = 1 in every slot: -sum_i d_i(A_i u^2) + sum_ij d_i d_j(B_ij u^2);
    # the unequal off-diagonal entries pin which derivative pairs with which
    a = [mul(X, Y), add(Y, const(1))]
    b = [[pow_(X, 2), mul(X, Y)], [sinh(Y), const(2)]]
    phi = add(mul(pow_(X, 2), Y), cosh(Y))
    state = [CoefficientSpec(e, u_degree=1) for e in a]
    diffusion = [[CoefficientSpec(e, u_degree=1) for e in row] for row in b]
    prob = build_forward(2, state, diffusion, phi)
    assert linear(prob) == ()
    square = mul(phi, phi)
    for x, y in [(0.8, 0.5), (1.4, 1.1), (0.3, 1.7)]:
        want = -sum(evaluate(dx(mul(ai, square), var=v), x, y=y) for ai, v in zip(a, "xy"))
        for (i, j), bij in zip([(0, 0), (0, 1), (1, 0), (1, 1)], sum(b, [])):
            want += evaluate(dx(dx(mul(bij, square), var="xy"[i]), var="xy"[j]), x, y=y)
        assert act(prob, phi, x, y=y) == pytest.approx(want, rel=1e-12)


def test_quadratic_groups_merge():
    # two state-carrying drift pieces collapse into one pair of
    # derivative patterns, not two
    specs = [CoefficientSpec(X, u_degree=1), CoefficientSpec(sinh(X), u_degree=1)]
    prob = build_forward(1, [specs], [[0]], X)
    assert len(quadratic(prob)) == 2
    phi = cosh(X)
    x = 0.9
    want = -evaluate(dx(mul(add(X, sinh(X)), phi, phi)), x)
    assert act(prob, phi, x) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------- backward form


def test_backward_keeps_coefficients_outside():
    a = add(X, const(1))
    b = pow_(X, 2)
    phi = sinh(X)
    prob = build_backward(1, [a], [[b]], phi)
    assert quadratic(prob) == ()
    for x, _ in POINTS:
        want = -evaluate(a, x) * evaluate(dx(phi), x) + evaluate(b, x) * evaluate(
            dx(phi, 2), x
        )
        assert act(prob, phi, x) == pytest.approx(want, rel=1e-12)
        # same data in forward form differs once coefficients vary in x
        assert act(build_forward(1, [a], [[b]], phi), phi, x) != pytest.approx(
            want, rel=1e-6
        )


def test_backward_two_dimensional_mixed_terms():
    b = [[pow_(X, 2), mul(X, Y)], [const(1), pow_(Y, 2)]]
    phi = mul(pow_(X, 2), pow_(Y, 2))
    prob = build_backward(2, [mul(X, Y), add(Y, const(1))], b, phi)
    x, y = 1.3, 0.6
    want = (
        -x * y * evaluate(dx(phi), x, y=y)
        - (y + 1) * evaluate(dx(phi, var="y"), x, y=y)
        + x**2 * evaluate(dx(phi, 2), x, y=y)
        + (x * y + 1) * evaluate(dx(dx(phi), var="y"), x, y=y)
        + y**2 * evaluate(dx(phi, 2, var="y"), x, y=y)
    )
    assert act(prob, phi, x, y=y) == pytest.approx(want, rel=1e-12)


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    k=st.integers(0, 2),
)
def test_constant_coefficients_make_forms_agree(a, b, k):
    # with constant A and B the product rule contributes nothing, so the
    # two forms define the same operator
    phi = [sinh(X), pow_(X, 2), add(cosh(X), X)][k]
    fwd = build_forward(1, [a], [[b]], phi)
    bwd = build_backward(1, [a], [[b]], phi)
    for x, t in POINTS:
        assert act(fwd, phi, x) == pytest.approx(act(bwd, phi, x), rel=1e-12, abs=1e-12)


def test_backward_rejects_state_dependent_coefficients():
    with pytest.raises(DegreeError, match=r"A\[0\]"):
        build_backward(1, [CoefficientSpec(X, u_degree=1)], [[1]], X)
    with pytest.raises(DegreeError, match=r"B\[0\]\[0\]"):
        build_backward(1, [X], [[CoefficientSpec(ONE, u_degree=1)]], X)


def test_u_degree_capped_at_one():
    with pytest.raises(DegreeError):
        CoefficientSpec(X, u_degree=2)
    with pytest.raises(DegreeError):
        CoefficientSpec(X, u_degree=-1)


# ------------------------------------------------------------ entry handling


def test_shape_guards():
    with pytest.raises(ConfigError):
        build_forward(1, [X, X], [[ONE]], X)
    with pytest.raises(ConfigError):
        build_forward(2, [X, Y], [[ONE, ONE]], X)
    with pytest.raises(ConfigError):
        build_backward(1, [X], [[ONE, ONE]], X)


def test_entry_interpretation():
    # zero entries vanish entirely
    empty = build_forward(1, [0], [[0.0]], X)
    assert empty.operator == ()
    # numbers, Fractions, bare expressions, and nested lists (sums) all
    # mean the same operator
    split = build_forward(1, [[X, 2]], [[Fraction(1, 2)]], X)
    joined = build_forward(1, [add(X, const(2))], [[0.5]], X)
    phi = sinh(X)
    for x, _ in POINTS:
        assert act(split, phi, x) == pytest.approx(act(joined, phi, x), rel=1e-12)
    # a string entry is a prefix expression, as in a problem file
    assert build_forward(1, ["x"], [["(sinh x)"]], X) == build_forward(1, [X], [[sinh(X)]], X)
    with pytest.raises(ConfigError):
        build_forward(1, [object()], [[ONE]], X)


def test_antisymmetric_mixed_diffusion_cancels():
    # B12 = -B21 makes the two mixed-derivative expansions cancel
    # pattern by pattern, so nothing survives the merge
    b = [[const(0), X], [mul(const(-1), X), const(0)]]
    prob = build_forward(2, [0, 0], b, X)
    assert prob.operator == ()


def _negative_cosh_power(table) -> bool:
    return any(e < 0 and getattr(a, "kind", "") == "cosh" for sig, _ in table for a, e in sig)


def assert_matches_tree_expansion(problem, form, drift, diffusion):
    """The operator of a builder against tree_operator: the same
    derivative patterns, rates and order, and tables equal to 1e-14 of
    their largest coefficient.

    Where a negative power of cosh(u) meets positive ones, the rewrite of
    cosh(u)**2 depends on the order of the products (cosh * cosh / cosh
    leaves 1/cosh + sinh**2/cosh, not cosh), so the two expansions may hold
    different monomials of one function: those are compared by value."""
    want = tree_operator(form, drift, diffusion)
    got = [(m.derivs, m.exp_rate, m.monos) for m in problem.operator]
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for (_, _, table), (_, _, ref) in zip(got, want):
        if [sig for sig, _ in table] != [sig for sig, _ in ref]:
            assert _negative_cosh_power(table + ref)
            assert same_on_panel(canonical(table), canonical(ref))
            continue
        scale = max(abs(c) for _, c in ref)
        assert all(abs(c - r) <= 1e-14 * scale for (_, c), (_, r) in zip(table, ref))


one_d_trees = small_trees().filter(lambda e: "y" not in variables(e))


@given(one_d_trees, one_d_trees, st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_table_builders_match_the_tree_expansion(a, b, rate, da, db):
    drift = [[CoefficientSpec(a, rate, da), CoefficientSpec(b, 0, db)]]
    diffusion = [[[CoefficientSpec(b, rate, db), CoefficientSpec(a)]]]
    assert_matches_tree_expansion(
        build_forward(1, drift, diffusion, X), "forward", drift, diffusion
    )
    drift = [[CoefficientSpec(a, rate)]]
    diffusion = [[[CoefficientSpec(b), CoefficientSpec(a, 1 - rate)]]]
    assert_matches_tree_expansion(
        build_backward(1, drift, diffusion, X), "backward", drift, diffusion
    )


def test_two_dimensional_table_builders_match_the_tree_expansion():
    drift = [[CoefficientSpec(mul(X, sinh(Y)), 1)], [CoefficientSpec(cosh(add(X, Y)), 0, 1)]]
    diffusion = [
        [[CoefficientSpec(pow_(X, 2))], [CoefficientSpec(mul(X, Y), 0, 1)]],
        [[CoefficientSpec(sinh(mul(X, Y)))], [CoefficientSpec(tanh(Y), 1)]],
    ]
    problem = build_forward(2, drift, diffusion, X)
    assert len(quadratic(problem)) == 5
    assert_matches_tree_expansion(problem, "forward", drift, diffusion)
    # the backward form takes the same entries without their factors of u
    drift = [drift[0], [CoefficientSpec(cosh(add(X, Y)))]]
    diffusion[0][1] = [CoefficientSpec(mul(X, Y))]
    assert_matches_tree_expansion(
        build_backward(2, drift, diffusion, X), "backward", drift, diffusion
    )


# -------------------------------------------------------------------- presets


def test_builder_keeps_coefficient_vanishing_on_sample_panel():
    # a drift that is zero at every sample panel abscissa is still a
    # drift: u0 + u1 = cosh(x) - t p(x) sinh(x) at alpha = 1, hbar = -1
    p = mul(*(add(X, -r) for r in (0.531, 0.877, 1.203, 1.618)))
    prob = build_backward(1, [p], [[0]], cosh(X))
    assert len(linear(prob)) == 1
    us = run(prob, HatmConfig(alpha=1.0, hbar=-1.0, order=1))
    want = math.cosh(2.0) - evaluate(p, 2.0) * math.sinh(2.0)
    assert want == pytest.approx(1.9405912477816947, rel=1e-12)
    assert partial_sum(us, 1).evaluate(2.0, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_preset_catalogue():
    assert PRESET_IDS == ("4.1", "4.2", "4.3", "4.4", "4.5")
    dims = {pid: preset(pid).dim for pid in PRESET_IDS}
    assert dims == {"4.1": 1, "4.2": 1, "4.3": 1, "4.4": 2, "4.5": 1}
    # only the last preset carries a quadratic nonlinearity
    assert [pid for pid in PRESET_IDS if quadratic(preset(pid))] == ["4.5"]
    assert all(preset(pid).source == () for pid in PRESET_IDS)


def test_preset_initial_profiles():
    # interning makes the initial profiles pointer-comparable
    assert preset("4.1").initial is X
    assert preset("4.2").initial is sinh(X)
    assert preset("4.3").initial is add(X, const(1))
    assert preset("4.4").initial is X
    assert preset("4.5").initial is pow_(X, 2)


def test_unknown_preset():
    with pytest.raises(PresetError, match="4.1"):
        preset("9.9")


def test_presets_carry_their_exact_solutions():
    assert hatmfp.reference_solution is reference_solution
    # at alpha = 1: 4.1 is x + t, 4.5 is x^2 e^t
    assert reference_solution("4.1", 0.5, 2.0, 1.0) == 2.5
    assert reference_solution("4.5", 1.5, 1.0, 1.0) == pytest.approx(2.25 * math.e, rel=1e-12)
    with pytest.raises(PresetError, match="4.1"):
        reference_solution("9.9", 1.0, 0.5, 1.0)


def test_reference_solution_refuses_alpha_outside_the_unit_interval():
    # these once gave values, 2.0 for 4.1 at alpha = 0, or a gamma pole
    for pid in ("4.1", "4.2"):
        for alpha in (0.0, -0.5, -1.0, 1.5):
            with pytest.raises(ConfigError, match="alpha must lie in"):
                reference_solution(pid, 1.0, 0.5, alpha)


def test_plane_preset_merged_groups():
    # hand expansion of the two-dimensional drift (x, 5y) with diffusion
    # diag-plus-ones matrix ((x^2, 1), (1, y^2)):
    #   -2 u + 3x u_x - y u_y + x^2 u_xx + 2 u_xy + y^2 u_yy
    prob = preset("4.4")
    x, y = 1.3, 0.7
    assert prob.operator == linear(prob)
    got = {m.derivs[0]: evaluate(canonical(m.monos), x, y) for m in prob.operator}
    assert all(m.exp_rate == 0 for m in prob.operator)
    want = {
        (0, 0): -2.0,
        (1, 0): 3 * x,
        (0, 1): -y,
        (2, 0): x**2,
        (1, 1): 2.0,
        (0, 2): y**2,
    }
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-14)
    # the two unit off-diagonal entries fold into a single constant
    mixed = next(m for m in prob.operator if m.derivs == ((1, 1),))
    assert mixed.monos == monomials(const(2.0))


def test_quadratic_preset_merged_groups():
    # drift 4u/x - x/3 with diffusion u: the state-free piece expands to
    # u/3 + (x/3) u_x, the state-carrying pieces to
    #   (4/x^2) u^2 - (8/x) u u_x + 2 u_x^2 + 2 u u_xx
    prob = preset("4.5")
    x = 1.7
    lin = {m.derivs[0]: evaluate(canonical(m.monos), x) for m in linear(prob)}
    assert lin == {
        (0, 0): pytest.approx(1 / 3, rel=1e-14),
        (1, 0): pytest.approx(x / 3, rel=1e-14),
    }
    # one-factor monomials first, each two-factor pattern sorted
    assert prob.operator == linear(prob) + quadratic(prob)
    quad = {m.derivs: evaluate(canonical(m.monos), x) for m in quadratic(prob)}
    assert quad == {
        ((0, 0), (0, 0)): pytest.approx(4 / x**2, rel=1e-14),
        ((0, 0), (1, 0)): pytest.approx(-8 / x, rel=1e-14),
        ((1, 0), (1, 0)): pytest.approx(2.0, rel=1e-14),
        ((0, 0), (2, 0)): pytest.approx(2.0, rel=1e-14),
    }


# ---------------------------------------------------------- definition files


def test_problem_round_trip_through_obj():
    drift = [mul(const(-1), X)]
    diffusion = [[CoefficientSpec(pow_(X, 2), exp_rate=1)]]
    obj = problem_to_obj("forward", 1, drift, diffusion, sinh(X))
    assert obj["form"] == "forward" and obj["dim"] == 1
    assert obj["B"][0][0] == {"expr": "(pow x 2)", "exp_rate": 1}
    json.dumps(obj)  # plain data
    assert problem_from_obj(obj) == build_forward(1, drift, diffusion, sinh(X))


def test_problem_obj_with_source():
    obj = {
        "form": "backward",
        "dim": 1,
        "A": ["x"],
        "B": [["1"]],
        "f": "x",
        "g": [{"expr": "x", "coef": 2.0, "p": "1/2", "q": 1, "c": 0},
              {"expr": "1", "coef": -1.0, "p": "0", "q": 0, "c": -1}],
    }
    prob = problem_from_obj(obj)
    x, t, alpha = 1.5, 0.3, 0.75
    # one pure-power series per rate of exp(c*t), rates ascending
    (decaying, plain) = prob.source
    assert (decaying[0], plain[0]) == (-1, 0)
    assert decaying[1].evaluate(x, t, alpha) == -1.0
    assert plain[1].evaluate(x, t, alpha) == pytest.approx(
        2.0 * x * t ** (0.5 + alpha), rel=1e-12
    )
    # and the writer emits the same entries back
    out = problem_to_obj("backward", 1, [X], [[ONE]], X, source=prob.source)
    assert out["g"] == [{"expr": "1", "coef": -1.0, "p": "0", "q": 0, "c": -1},
                        {"expr": "x", "coef": 2.0, "p": "1/2", "q": 1, "c": 0}]
    assert problem_from_obj(out) == prob


def test_problem_to_obj_refuses_a_source_coefficient_in_alpha():
    # J^alpha[x t^alpha] = Gamma(1+alpha)/Gamma(1+2 alpha) x t^(2 alpha): at
    # alpha = 0.5 its coefficient is sqrt(pi)/2, where a file binding
    # alpha = 1 would hold 1/2
    source = FracSeries.from_spatial(X, q=1).frac_integral()
    assert source.evaluate(1.0, 1.0, 0.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
    with pytest.raises(ConfigError, match="alpha"):
        problem_to_obj("backward", 1, [X], [[ONE]], X, source=((0, source),))


def test_problem_obj_sums_and_degrees():
    obj = {
        "form": "forward",
        "dim": 1,
        "A": [[{"expr": "(mul 4 (pow x -1))", "u_degree": 1}, "(mul -1/3 x)"]],
        "B": [[{"expr": "1", "u_degree": 1}]],
        "f": "(pow x 2)",
    }
    assert problem_from_obj(obj) == preset("4.5")


def test_problem_from_obj_validation():
    base = {"form": "forward", "dim": 1, "A": ["0"], "B": [["1"]], "f": "x"}
    with pytest.raises(ConfigError, match="form"):
        problem_from_obj({**base, "form": "sideways"})
    # a missing key, a syntax error and a zero denominator read alike
    for bad, cause in (
        ({k: v for k, v in base.items() if k != "f"}, "missing key 'f'"),
        ({**base, "f": "(pow x"}, "unexpected end"),
        ({**base, "f": "1/0"}, "bad numeric token '1/0'"),
    ):
        with pytest.raises(ConfigError, match=f"^invalid problem definition: {cause}"):
            problem_from_obj(bad)
    with pytest.raises(ConfigError):
        problem_from_obj({**base, "f": "(sinh x"})
    with pytest.raises(ConfigError):
        problem_from_obj({**base, "A": [{"expr": "x", "u_degree": 2}]})
    # a JSON boolean is no number, and a string is no list of entries;
    # a plain integer still is a number
    for change, named in (
        ({"A": [True]}, "True"),
        ({"B": [[False]]}, "False"),
        ({"dim": 2, "A": "xy", "B": [["1", "0"], ["0", "1"]]}, "'A'"),
        ({"dim": 2, "A": ["x", "y"], "B": ["10", "01"]}, "'B'"),
    ):
        with pytest.raises(ConfigError, match=named):
            problem_from_obj({**base, **change})
    assert problem_from_obj({**base, "A": [0], "B": [[1]]}) == problem_from_obj(base)
    # backward form with a state-dependent coefficient is a definition
    # error, reported as such
    with pytest.raises(ConfigError):
        problem_from_obj(
            {**base, "form": "backward", "A": [{"expr": "x", "u_degree": 1}]}
        )


def test_problem_from_obj_names_an_unknown_key():
    base = {"form": "forward", "dim": 1, "A": ["0"], "B": [["1"]], "f": "x"}
    for change, key in (
        ({"source": [{"expr": "x"}]}, "'source'"),
        ({"A": [{"expr": "1", "exp_rte": 1}]}, "'exp_rte'"),
        ({"g": [{"expr": "x", "cof": 2.0}]}, "'cof'"),
    ):
        with pytest.raises(ConfigError, match=f"unknown key {key}"):
            problem_from_obj({**base, **change})


def test_load_problem_file(tmp_path):
    obj = {
        "form": "backward",
        "dim": 1,
        "A": ["(mul -1 (add x 1))"],
        "B": [[{"expr": "(pow x 2)", "exp_rate": 1}]],
        "f": "(add x 1)",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert load_problem(path) == preset("4.3")
    assert load_problem(str(path)) == preset("4.3")


def test_load_problem_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_problem(path)
