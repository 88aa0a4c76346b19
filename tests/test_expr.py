import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatmfp import expr as expr_module
from hatmfp.errors import DomainError, HatmError, SingularityError
from hatmfp.expr import (
    ONE,
    X,
    Y,
    ZERO,
    Add,
    Const,
    Func,
    Mul,
    Pow,
    add,
    canonical,
    const,
    cosh,
    coth,
    csch,
    differentiate,
    evaluate,
    keyed_sum,
    monic,
    monomials,
    mul,
    normalize,
    parse_prefix,
    pow_,
    proportional_ratio,
    recip,
    sinh,
    size,
    table_derivative,
    table_product,
    table_value,
    tanh,
    to_prefix,
    var,
    variables,
)
from hatmfp.fokker_planck import CoefficientSpec, build_forward
from hatmfp.series import Coefficient, FracSeries
from helpers import PANEL, panel_values, same_on_panel, tree_derivative


# ---------------------------------------------------------------- construction


def test_constant_folding():
    assert add(1, 2) is const(3)
    assert mul(2, 3, X) == mul(6, X)
    assert mul(0, sinh(X)) is ZERO
    assert mul(1, X) is X
    assert add(X, 0) is X
    assert pow_(X, 0) is ONE
    assert pow_(X, 1) is X
    assert pow_(const(2), 3) is const(8)
    assert sinh(const(0)) is ZERO


def test_flattening():
    e = add(add(X, Y), add(1, X))
    assert isinstance(e, Add)
    assert len(e.children) == 4  # const + three variable leaves
    m = mul(mul(2, X), mul(3, Y))
    assert isinstance(m, Mul)
    assert m.children[0] == const(6)


def test_interning_shares_nodes():
    a = mul(sinh(X), pow_(X, 2))
    b = mul(sinh(X), pow_(X, 2))
    assert a is b
    assert parse_prefix(to_prefix(a)) is a


def test_operator_overloads():
    e = (X + 1) * 2 - Y / X
    assert evaluate(e, 3.0, 4.0) == pytest.approx(8.0 - 4.0 / 3.0, rel=1e-15)
    assert evaluate(-X, 5.0) == -5.0
    assert evaluate(X**2, 3.0) == 9.0
    assert evaluate(2.0 / X, 4.0) == 0.5


def test_var_names_guarded():
    with pytest.raises(DomainError):
        var("z")
    with pytest.raises(DomainError):
        differentiate(X, "z")


def test_hyperbolic_of_a_large_constant_is_a_domain_error():
    for build in (sinh, cosh):
        with pytest.raises(DomainError, match="does not fit in a float"):
            build(1000)


@pytest.mark.parametrize("make", [
    lambda: const(10**400),
    lambda: const(Fraction(10**400, 3)),
    lambda: X * 10**400,
    lambda: pow_(const(1e200), 2),
    lambda: pow_(const(10.0), Fraction(10**400)),
    lambda: Coefficient(10**400, (), ()),
    lambda: Coefficient.number(10**400),
    lambda: build_forward(1, [10**400], [[0]], X),
    lambda: pow_(X, math.inf),
    lambda: pow_(X, math.nan),
], ids=["const", "const-fraction", "coerced", "power", "power-exponent", "coefficient",
        "number", "operator-entry", "power-inf", "power-nan"])
def test_a_python_number_past_the_float_range_is_a_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_fractional_power_of_negative_constant():
    with pytest.raises(DomainError):
        pow_(const(-2.0), Fraction(1, 2))


# ------------------------------------------------------------------ evaluation


def test_evaluate_basics():
    assert evaluate(X, 2.0, 7.0) == 2.0
    assert evaluate(Y, 2.0, 7.0) == 7.0
    assert evaluate(pow_(X, Fraction(3, 2)), 4.0) == 8.0
    assert evaluate(coth(X), 1.0) == pytest.approx(math.cosh(1) / math.sinh(1), rel=1e-15)
    assert evaluate(csch(X), 1.0) == pytest.approx(1 / math.sinh(1), rel=1e-15)


@pytest.mark.parametrize("x, y, name", [
    (math.nan, 0.0, "x"), (math.inf, 0.0, "x"), (1.0, math.nan, "y"), (1.0, -math.inf, "y"),
])
def test_evaluate_refuses_a_point_that_is_not_finite(x, y, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite, got {x if name == 'x' else y}$"):
        evaluate(X, x, y)


def test_table_value_that_overflows_is_a_domain_error():
    with pytest.raises(DomainError, match="^spatial value overflows a float at x=1000.0, y=0.0$"):
        table_value(monomials(pow_(X, 400)), 1e3, 0.0, {})


def _func_kinds(e) -> set:
    if isinstance(e, Func):
        return {e.kind} | _func_kinds(e.arg)
    if isinstance(e, (Add, Mul)):
        return set().union(*(_func_kinds(c) for c in e.children))
    return _func_kinds(e.base) if isinstance(e, Pow) else set()


U = add(X, mul(2, Y))
M = mul(2, X, Y)


@pytest.mark.parametrize(
    "build, arg, table, ref",
    [
        (tanh, X, {((cosh(X), -1), (sinh(X), 1)): 1.0}, math.tanh),
        (tanh, U, {((cosh(U), -1), (sinh(U), 1)): 1.0}, math.tanh),
        (coth, X, {((cosh(X), 1), (sinh(X), -1)): 1.0}, lambda v: math.cosh(v) / math.sinh(v)),
        (coth, U, {((cosh(U), 1), (sinh(U), -1)): 1.0}, lambda v: math.cosh(v) / math.sinh(v)),
        (csch, X, {((sinh(X), -1),): 1.0}, lambda v: 1 / math.sinh(v)),
        (csch, U, {((sinh(U), -1),): 1.0}, lambda v: 1 / math.sinh(v)),
        (recip, X, {((X, -1),): 1.0}, lambda v: 1 / v),
        (recip, M, {((X, -1), (Y, -1)): 0.5}, lambda v: 1 / v),
    ],
)
def test_other_functions_are_built_from_table_atoms(build, arg, table, ref):
    name = build.__name__
    for e in (build(arg), parse_prefix(f"({name} {to_prefix(arg)})")):
        assert _func_kinds(e) <= {"sinh", "cosh"}
        assert dict(monomials(e)) == table
        for px, py in ((0.37, 0.2), (1.3, -0.45), (-2.1, 0.8)):
            want = ref(evaluate(arg, px, py))
            assert abs(evaluate(e, px, py) - want) <= 1e-15 * abs(want)
    if name != "tanh":
        with pytest.raises(SingularityError):
            evaluate(build(X), 0.0)


def test_evaluate_singularities():
    with pytest.raises(SingularityError):
        evaluate(coth(X), 0.0)
    with pytest.raises(SingularityError):
        evaluate(recip(X), 0.0)
    with pytest.raises(SingularityError):
        evaluate(pow_(X, -2), 0.0)
    # shifted pole; the error names the point
    with pytest.raises(SingularityError, match=r"^negative power of 0\.0 at x=1\.0, y=0\.5$"):
        evaluate(recip(add(X, -1)), 1.0, 0.5)


def test_evaluate_shared_subtrees():
    # value of a deliberately DAG-shaped sum: (s + s) with s shared
    s = mul(sinh(X), cosh(X))
    e = add(s, s, mul(2, s))
    assert evaluate(e, 0.7) == pytest.approx(4 * math.sinh(0.7) * math.cosh(0.7), rel=1e-14)


# -------------------------------------------------------------- differentiation


def deriv_value(expr, x, name="x", y=1.1):
    return evaluate(differentiate(expr, name), x, y)


def test_derivative_rules_numeric():
    x = 0.83
    assert deriv_value(sinh(X), x) == pytest.approx(math.cosh(x), rel=1e-14)
    assert deriv_value(cosh(X), x) == pytest.approx(math.sinh(x), rel=1e-14)
    th = math.tanh(x)
    assert deriv_value(tanh(X), x) == pytest.approx(1 - th * th, rel=1e-13)
    csch2 = 1.0 / math.sinh(x) ** 2
    assert deriv_value(coth(X), x) == pytest.approx(-csch2, rel=1e-13)
    cothx = math.cosh(x) / math.sinh(x)
    assert deriv_value(csch(X), x) == pytest.approx(-cothx / math.sinh(x), rel=1e-13)
    assert deriv_value(recip(X), x) == pytest.approx(-1.0 / x**2, rel=1e-14)
    assert deriv_value(pow_(X, Fraction(3, 2)), x) == pytest.approx(1.5 * math.sqrt(x), rel=1e-14)


def test_partial_derivatives():
    e = mul(pow_(X, 2), Y)
    assert deriv_value(e, 2.0, "x", y=3.0) == pytest.approx(12.0)
    assert deriv_value(e, 2.0, "y", y=3.0) == pytest.approx(4.0)
    assert differentiate(sinh(X), "y") is ZERO


def test_product_and_chain_rule():
    e = mul(sinh(X), coth(X))  # d = cosh*coth - sinh*csch^2
    x = 1.21
    want = math.cosh(x) * math.cosh(x) / math.sinh(x) - 1.0 / math.sinh(x)
    assert deriv_value(e, x) == pytest.approx(want, rel=1e-13)
    nested = sinh(pow_(X, 2))
    assert deriv_value(nested, x) == pytest.approx(2 * x * math.cosh(x * x), rel=1e-13)


@st.composite
def small_trees(draw):
    depth = draw(st.integers(0, 2))

    def build(d):
        if d == 0:
            return draw(st.sampled_from((X, Y, const(2.0), add(X, 2), pow_(X, 2))))
        kind = draw(st.sampled_from(("add", "mul", "sinh", "cosh", "tanh", "pow")))
        if kind == "add":
            return add(build(d - 1), build(d - 1))
        if kind == "mul":
            return mul(build(d - 1), build(d - 1))
        if kind == "pow":
            return pow_(build(d - 1), draw(st.sampled_from((2, 3))))
        return {"sinh": sinh, "cosh": cosh, "tanh": tanh}[kind](build(d - 1))

    return build(depth)


@given(small_trees())
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(expr):
    x0, y0, h = 0.9, 1.1, 1e-6
    sym = deriv_value(expr, x0, "x", y=y0)
    num = (evaluate(expr, x0 + h, y0) - evaluate(expr, x0 - h, y0)) / (2 * h)
    scale = max(1.0, abs(sym), abs(evaluate(expr, x0, y0)))
    assert abs(sym - num) <= 1e-6 * scale


# ---------------------------------------------------------- sampled equality


def test_numeric_equality_identities():
    assert same_on_panel(mul(coth(X), sinh(X)), cosh(X))
    assert same_on_panel(
        add(pow_(coth(X), 2), mul(-1, pow_(csch(X), 2))), ONE
    )
    assert not same_on_panel(sinh(X), cosh(X))


def test_proportional_ratio():
    fa = panel_values(mul(3.5, sinh(X)))
    fb = panel_values(sinh(X))
    assert proportional_ratio(fa, fb) == pytest.approx(3.5, rel=1e-12)
    assert proportional_ratio(panel_values(X), panel_values(Y)) is None
    assert proportional_ratio(panel_values(X), panel_values(ZERO)) is None


# -------------------------------------------------------------------- normalize


def test_normalize_merges_monomials():
    assert normalize(mul(X, X)) is pow_(X, 2)
    assert normalize(mul(X, recip(X))) is ONE
    assert normalize(add(X, X)) is mul(2, X)
    e = add(mul(2, X, Y), mul(3, Y, X))  # same monomial, different order
    assert normalize(e) is mul(5, X, Y)


def test_normalize_exact_cancellation():
    e = add(mul(sinh(X), cosh(X)), mul(-1, cosh(X), sinh(X)))
    assert normalize(e) is ZERO


def test_normalize_refuses_an_overflowing_monomial():
    # 1e300 * (1e10 x + 1) scales a table by a constant; (1e200 x + 1)^2
    # multiplies two tables; (1e200 x)^2 raises one monomial to a power.
    # None drops the term that overflows.
    trees = (mul(1e300, add(mul(1e10, X), 1)), pow_(add(mul(1e200, X), 1), 2),
             pow_(mul(1e200, X), 2))
    for e in trees:
        with pytest.raises(DomainError, match="overflows a float"):
            normalize(e)


def test_normalize_is_idempotent_and_cached():
    e = mul(add(X, 1), add(X, -1))
    n = normalize(e)
    assert normalize(n) is n
    assert normalize(e) is n
    assert same_on_panel(n, add(pow_(X, 2), const(-1)))


def test_normalize_value_preserving():
    trees = (
        mul(add(X, Y), add(X, mul(-1, Y))),
        pow_(add(X, 1), 3),
        mul(coth(X), add(sinh(X), cosh(X))),
        recip(mul(2, X)),
        pow_(mul(X, Y), Fraction(1, 2)),
    )
    for e in trees:
        n = normalize(e)
        for px, py in ((0.7, 1.3), (1.9, 0.4)):
            assert evaluate(n, px, py) == pytest.approx(evaluate(e, px, py), rel=1e-12)


def test_normalize_opaque_fallbacks():
    # non-monomial base with fractional exponent stays an atom
    e = pow_(add(X, 1), Fraction(1, 2))
    assert normalize(e) is e
    # reciprocal of a sum stays an atom
    r = recip(add(X, 1))
    assert normalize(r) is r


@pytest.mark.parametrize(
    "text",
    [
        "(pow (mul -1 x) 1/2)",  # the power of a monomial leaves the real domain
        "(recip (add x (mul -1 x)))",  # the base collects to 0
        "(coth (add x (mul -1 x)))",  # the argument collects to the pole 0
    ],
)
def test_canonical_form_falls_back_to_one_opaque_atom(text):
    e = parse_prefix(text)
    # coth u is cosh(u) * sinh(u)**-1: cosh(0) folds to 1, and the
    # power of sinh(0) is the atom
    atom = e.children[1] if text.startswith("(coth") else e
    assert monomials(e) == ((((atom, 1),), 1.0),)


def test_normalize_keeps_derivatives_compact():
    # repeated (operator-style) differentiation through normalize stays small
    e = coth(X)
    for _ in range(8):
        e = normalize(add(differentiate(differentiate(e, "x"), "x"), mul(X, e)))
    # canonical form holds ~50 monomials here; unexpanded trees would
    # already be past 10^7 nodes at this depth
    assert size(e) < 2000


def test_normalize_reduces_hyperbolic_atoms():
    # tanh, coth and csch become powers of sinh and cosh, and cosh keeps
    # an exponent below 2, so hyperbolic identities hold node for node
    assert normalize(mul(coth(X), sinh(X))) is cosh(X)
    assert normalize(mul(tanh(X), cosh(X))) is sinh(X)
    assert normalize(mul(csch(X), sinh(X))) is ONE
    assert normalize(add(pow_(cosh(X), 2), mul(-1, pow_(sinh(X), 2)))) is ONE
    assert normalize(pow_(cosh(X), 3)) is normalize(mul(cosh(X), add(1, pow_(sinh(X), 2))))
    # the argument is canonical too
    assert normalize(sinh(add(X, X))) is sinh(mul(2, X))


def test_monomials_table_is_exact():
    # a polynomial that vanishes on every sample panel abscissa is still a
    # nonzero table
    p = mul(*(add(X, -r) for r in (0.531, 0.877, 1.203, 1.618)))
    assert all(abs(v) < 1e-12 for v in panel_values(p))
    table = dict(monomials(p))
    assert len(table) == 5
    assert table[((X, 4),)] == 1.0
    assert monomials(add(p, mul(-1, p))) == ()
    assert normalize(add(p, mul(-1, p))) is ZERO


def monic_table(e):
    return monic(monomials(e))


def test_monic_scales_largest_monomial_to_one():
    scale, monos = monic_table(add(mul(-4, sinh(X)), mul(2, X)))
    assert scale == -4.0
    node = canonical(monos)
    assert node is normalize(add(sinh(X), mul(-0.5, X)))
    assert monic_table(mul(3, add(mul(-4, sinh(X)), mul(2, X))))[1] == monos
    assert monic_table(node) == (1.0, monos)
    assert monic_table(add(X, mul(-1, X))) == (0.0, ())
    assert canonical(()) is ZERO


@given(small_trees())
@settings(max_examples=60, deadline=None)
def test_derivative_table_is_the_table_of_the_derivative_tree(e):
    node = normalize(e)
    for name in ("x", "y"):
        want = monic_table(tree_derivative(node, name))
        assert monic(table_derivative(monomials(node), name)) == want
        assert differentiate(e, name) is canonical(table_derivative(monomials(e), name))


def assert_canonical(table):
    """A tuple of (signature, coefficient) sorted by signature, no
    signature twice and no zero coefficient."""
    assert type(table) is tuple
    sigs = [sig for sig, _ in table]
    assert all(a < b for a, b in zip(sigs, sigs[1:])), sigs
    assert all(c != 0.0 for _, c in table)


@given(small_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_every_kernel_table_is_canonical(e, data):
    table = monomials(e)
    tables = [table, table_product([table, monomials(add(X, 1))]), table_product([table, table])]
    for name in ("x", "y"):
        tables.append(table_derivative(table, name))
        tables += [expr_module._atom_derivative(atom, name) for sig, _ in table for atom, _ in sig]
    for t in tables:
        assert_canonical(t)
        assert keyed_sum(data.draw(st.permutations(t))) == t
        assert keyed_sum([*t, *((s, -c) for s, c in t)]) == ()
    assert normalize(e) is canonical(table)


def test_derivative_table_is_cached_and_checks_the_variable():
    # the derivative of a table is kept on the series that holds it
    node = normalize(mul(X, sinh(Y)))
    s = FracSeries.from_spatial(node)
    assert s.spatial_derivative("y") is s.spatial_derivative("y")
    want = (1.0, monic_table(mul(X, cosh(Y)))[1])
    assert monic(table_derivative(monomials(node), "y")) == want
    with pytest.raises(DomainError):
        table_derivative(monomials(node), "z")


def assert_atom_derivative_matches_the_tree(atom, names=("x", "y")):
    for name in names:
        got = canonical(expr_module._atom_derivative(atom, name))
        want = tree_derivative(atom, name)
        for x, y in PANEL:
            assert evaluate(got, x, y) == pytest.approx(evaluate(want, x, y), rel=1e-12, abs=1e-300)


def only_atom(tree):
    ((((atom, one),), coef),) = monomials(tree)
    assert (one, coef) == (1, 1.0)
    return atom


@pytest.mark.parametrize("tree", [
    X,
    Y,
    sinh(add(X, mul(2, Y), 1)),
    cosh(add(pow_(X, 2), Y)),
    pow_(add(X, sinh(X)), Fraction(1, 2)),
    pow_(add(X, cosh(X)), -1),
    pow_(add(Y, mul(X, cosh(Y))), Fraction(-3, 2)),
], ids=["x", "y", "sinh-of-sum", "cosh-of-sum", "sqrt", "reciprocal", "power-in-two-variables"])
def test_atom_derivative_matches_the_tree_derivative(tree):
    assert_atom_derivative_matches_the_tree(only_atom(tree))


def test_atom_derivative_of_an_opaque_sum_and_product(monkeypatch):
    # a sum never passes the cap as a table; its rule is the one of an Add
    assert_atom_derivative_matches_the_tree(add(mul(X, Y), sinh(Y), cosh(mul(3, X))))
    monkeypatch.setattr(expr_module, "EXPAND_CAP", 3)
    # four pairs of monomials: one opaque atom, and so is each product of
    # two of its factors in its derivative
    e = mul(add(X, 23), add(Y, 29), add(X, 31))
    assert only_atom(e) is e
    assert_atom_derivative_matches_the_tree(e)
    dx = expr_module._atom_derivative(e, "x")
    assert len(dx) == 2 and all(isinstance(a, Mul) for ((a, _),), _ in dx)


def test_derivative_of_a_cube_past_the_cap_is_one_opaque_monomial():
    # the cube of a 120-monomial table is opaque; its product rule multiplies
    # 239 monomials by 120, past EXPAND_CAP, into one opaque atom again
    base = add(*(pow_(X, k) for k in range(1, 121)))
    cube = only_atom(pow_(base, 3))
    ((sig, coef),) = table_derivative(monomials(cube), "x")
    assert coef == 1.0 and isinstance(sig[0][0], Mul)
    got = table_value(((sig, coef),), 0.5, 0.0, {})
    assert got == pytest.approx(evaluate(tree_derivative(cube, "x"), 0.5), rel=1e-12)
    assert got == pytest.approx(12.0, rel=1e-12)
    assert_atom_derivative_matches_the_tree(cube)


def sinh_nest(depth):
    e = X
    for _ in range(depth):
        e = sinh(e)
    return e


@pytest.mark.parametrize("tree", [
    pow_(add(*(pow_(X, k) for k in range(1, 121))), 3),
    sinh_nest(16),  # its second derivative has a monomial of 15 factors cosh(u)**2
    mul(X, recip(X)),
    pow_(add(X, mul(-1, X), -2), Fraction(1, 2)),
    coth(add(X, Y)),
], ids=["cube", "sinh-nest", "x-over-x", "root-of-a-negative", "coth"])
def test_table_derivative_raises_only_package_errors(tree):
    for names in (("x", "x"), ("y", "x"), ("z",)):
        table = monomials(tree)
        try:
            for name in names:
                table = table_derivative(table, name)
        except HatmError:
            pass


def test_expansion_cap_guards_products_only(monkeypatch):
    # four monomials each; the derivative of p and the sum p + q have eight
    ks = (3, 5, 7, 11)
    p = normalize(mul(sinh(X), add(*(pow_(X, k) for k in ks))))
    q = normalize(add(*(pow_(Y, k) for k in ks)))
    # the tables at the default cap, from trees of their own
    dp = add(*(add(mul(cosh(X), pow_(X, k)), mul(k, sinh(X), pow_(X, k - 1))) for k in ks))
    want_d = monic_table(dp)
    want_s = monic_table(add(*(pow_(Y, k) for k in ks), *(mul(sinh(X), pow_(X, k)) for k in ks)))
    assert len(want_d[1]) == len(want_s[1]) == 8
    monkeypatch.setattr(expr_module, "EXPAND_CAP", 4)
    # sums and derivatives grow linearly and expand past the cap
    assert monic(table_derivative(monomials(p), "x")) == want_d
    (term,) = FracSeries.from_spatial(p).add(FracSeries.from_spatial(q)).terms
    assert (term.coef.factor, term.monos) == want_s
    # a product of two three-monomial tables has nine pairs
    e = mul(add(X, mul(7, Y), 3), add(pow_(X, 2), mul(-2, Y), 5))
    assert monomials(e) == ((((e, 1),), 1.0),)


def test_cosh_rewrite_past_the_cap(monkeypatch):
    monkeypatch.setattr(expr_module, "EXPAND_CAP", 4)
    # the square of a one-monomial table is one monomial, whose factors
    # cosh(u)**2 rewrite into two monomials each
    c = (cosh(X), cosh(Y), cosh(add(X, 1)))
    assert len(monomials(pow_(mul(*c[:2]), 2))) == 4
    e = pow_(mul(*c), 2)
    assert monomials(e) == ((((e, 1),), 1.0),)
    # the second derivative of a 4-deep sinh nest has a monomial with three
    # factors cosh(u)**2, eight monomials rewritten: the derivative is refused
    first = table_derivative(monomials(sinh(sinh(sinh(sinh(X))))), "x")
    assert len(first) == 1
    with pytest.raises(DomainError, match="EXPAND_CAP"):
        table_derivative(first, "x")


def test_expansion_overflow_leaves_an_opaque_atom(monkeypatch):
    monkeypatch.setattr(expr_module, "EXPAND_CAP", 4)
    e = pow_(add(X, mul(7, Y), 3), 5)
    (only,) = monomials(e)
    assert only == (((e, 1),), 1.0)
    n = normalize(mul(2, e))
    assert evaluate(n, 0.4, 0.2) == pytest.approx(2 * evaluate(e, 0.4, 0.2), rel=1e-15)


# ---------------------------------------------------------------- serialization


def test_prefix_round_trip_examples():
    for text in (
        "(mul (sinh x) (pow x 2))",
        "(add 1 x (mul -3 y))",
        "(pow (add x 1) -2)",
        "(coth x)",
        "(recip (add x 1))",
        "(pow x 1/2)",
        "-2.5",
        "x",
    ):
        e = parse_prefix(text)
        assert parse_prefix(to_prefix(e)) is e


def test_prefix_rejects_garbage():
    for text in ("(mul x", "(frob x)", "(pow x)", "x y", "(sinh x y)", "()"):
        with pytest.raises(DomainError):
            parse_prefix(text)


@pytest.mark.parametrize(
    "text",
    ["(pow x", "(", "1/0", "(pow x 1/0)", 5, None,
     "1e999", "(mul 1e200 1e200 x)", "(sinh 1000)", "(pow 10 400)"],  # past the float range
)
def test_prefix_rejects_truncated_and_non_text_input(text):
    with pytest.raises(DomainError):
        parse_prefix(text)


def test_prefix_refuses_nesting_past_the_limit():
    deep = "(add x " * expr_module.MAX_NESTING + "x" + ")" * expr_module.MAX_NESTING
    assert normalize(parse_prefix(deep)) is mul(expr_module.MAX_NESTING + 1, X)
    # a thousand levels would overflow the parser's own recursion
    for depth in (expr_module.MAX_NESTING + 1, 1000):
        with pytest.raises(DomainError, match="nests deeper than"):
            parse_prefix("(add x " * depth + "x" + ")" * depth)


def _parentheses(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


@given(small_trees())
@settings(max_examples=60, deadline=None)
def test_depth_counts_the_parentheses_of_the_prefix_form(expr):
    assert expr.depth == _parentheses(to_prefix(expr))


def test_api_trees_past_the_nesting_limit_are_refused_where_they_enter():
    nests = [X]
    for _ in range(300):
        nests.append(sinh(nests[-1]))
    deep, limit = nests[300], nests[expr_module.MAX_NESTING]
    assert (deep.depth, limit.depth) == (300, expr_module.MAX_NESTING)
    for enter in (FracSeries.from_spatial, CoefficientSpec):
        with pytest.raises(DomainError, match="nests deeper than"):
            enter(deep)
    # the limit enters; its derivative is one level deeper and still builds
    assert not FracSeries.from_spatial(limit).is_zero
    assert CoefficientSpec(limit).spatial is limit
    assert differentiate(limit, "x").depth > expr_module.MAX_NESTING


@given(small_trees())
@settings(max_examples=60, deadline=None)
def test_prefix_round_trip_property(expr):
    again = parse_prefix(to_prefix(expr))
    assert panel_values(again) == panel_values(expr)


# ----------------------------------------------------------------------- misc


def test_size_and_variables():
    e = mul(sinh(X), pow_(Y, 2))
    assert size(e) == 5
    assert variables(e) == {"x", "y"}
    assert variables(const(4.0)) == set()
    assert variables(add(X, 1)) == {"x"}


def test_size_counts_paths():
    s = add(X, Y)
    assert size(mul(s, s)) == 7
