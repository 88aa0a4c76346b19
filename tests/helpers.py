"""Shared fixtures for the suite: closed-form iterate coefficients,
random-series builders, the direct hbar recursion, the symbolic residual,
the tree derivative, the sorted signature product and the tree expansion
of an operator, the problems the engine is checked on, the subordination
oracle, small comparison utilities (among them values on a fixed panel of
sample points) and an in-process runner of the command line."""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import mpmath

from hatmfp.cli import main
from hatmfp.engine import HatmConfig, ProblemSpec, apply_operator
from hatmfp.expr import (
    ONE, ZERO, Add, Const, Func, Mul, Pow, SpatialExpr, Var, X, Y, add, const, cosh, evaluate,
    monomials, mul, pow_, sinh,
)
from hatmfp.fokker_planck import (
    CoefficientSpec, build_backward, build_forward, preset, problem_from_obj,
)
from hatmfp.series import FracSeries, FracTerm, Coefficient, TimeFactor
from hatmfp.special import mittag_leffler


def gamma1(k: int, alpha: float) -> float:
    """gamma(k*alpha + 1), the denominator family of every iterate."""
    return math.gamma(k * alpha + 1.0)


def identity_coeffs(m: int, h: float, alpha: float) -> dict[int, float]:
    """Per-exponent iterate coefficients when the spatial operator acts as
    the identity on multiples of the initial condition.

    u_m = f(x) * sum_q c[q] t^(q*alpha); these are the c[q], hand-solved
    from the deformation recursion u_m = chi_m u_{m-1} + h (u_{m-1} -
    (1-chi_m) u_0 - J^alpha[u_{m-1}]) for m = 1..3.
    """
    g = {k: gamma1(k, alpha) for k in (1, 2, 3)}
    if m == 1:
        return {1: -h / g[1]}
    if m == 2:
        return {1: -h * (1 + h) / g[1], 2: h * h / g[2]}
    if m == 3:
        return {
            1: -h * (1 + h) ** 2 / g[1],
            2: 2 * h * h * (1 + h) / g[2],
            3: -(h**3) / g[3],
        }
    raise ValueError(f"identity_coeffs covers m <= 3, got {m}")


def constant_image_coeffs(m: int, h: float, alpha: float) -> dict[int, float]:
    """Per-exponent coefficients for the drift-1/diffusion-1 problem whose
    operator maps the initial condition to the constant 1 and the constant
    to zero: u_m = (1) * c[1] t^alpha with c telescoping in (1+h)."""
    return {1: -h * (1 + h) ** (m - 1) / gamma1(1, alpha)}


def q_coefficient_map(series: FracSeries, alpha: float, x: float, y: float = 0.0):
    """{q: numeric coefficient of t^(q*alpha)} with the spatial part bound
    at (x, y). Only for series with pure q*alpha exponents."""
    out: dict[int, float] = {}
    for term in series.terms:
        assert term.time.p == 0, f"unexpected fixed exponent {term.time.p}"
        val = term.coef.value(alpha) * evaluate(term.spatial, x, y)
        out[term.time.q] = out.get(term.time.q, 0.0) + val
    return out


def tree_value(series: FracSeries, x: float, t: float, alpha: float, y: float = 0.0) -> float:
    """The value of a series of pure powers of t, walking the tree of each
    term: the reference for FracSeries.evaluate at t > 0."""
    total = 0.0
    for term in series.terms:
        spatial = evaluate(term.spatial, x, y)
        total += term.coef.value(alpha) * spatial * t ** term.time.exponent(alpha)
    return total


# A fixed panel of sample points, away from the poles of coth, csch and 1/x.
PANEL = tuple((x, y) for x in (0.531, 0.877, 1.203, 1.618) for y in (0.733, 1.414))


def panel_values(expr: SpatialExpr) -> tuple[float, ...]:
    """Values of a tree on PANEL, in panel order."""
    return tuple(evaluate(expr, x, y) for x, y in PANEL)


def same_on_panel(a: SpatialExpr, b: SpatialExpr) -> bool:
    """Whether two trees agree on PANEL within 1e-10 relative (1e-12
    absolute near zero)."""
    return all(
        abs(va - vb) <= max(1e-12, 1e-10 * max(abs(va), abs(vb)))
        for va, vb in zip(panel_values(a), panel_values(b))
    )


def assert_q_map_close(got: dict[int, float], want: dict[int, float], rel: float):
    scale = max(abs(v) for v in want.values())
    for q in sorted(set(got) | set(want)):
        g = got.get(q, 0.0)
        w = want.get(q, 0.0)
        assert abs(g - w) <= rel * max(abs(w), scale), (q, g, w)


SPATIAL_POOL: tuple[SpatialExpr, ...] = (
    X,
    add(X, 1),
    pow_(X, 2),
    sinh(X),
    cosh(X),
    mul(X, Y),
    add(pow_(X, 2), mul(3, Y)),
)

P_POOL = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


def random_series(rng: random.Random, n_terms: int = 4) -> FracSeries:
    """Small random series over the shared spatial pool; q >= 1 so the
    Caputo derivative always has a fractional exponent to lower."""
    terms = []
    for _ in range(n_terms):
        coef = Coefficient.number(rng.uniform(-3.0, 3.0))
        spatial = rng.choice(SPATIAL_POOL)
        p = rng.choice(P_POOL)
        q = rng.randint(1, 3)
        terms.append(FracTerm(coef, monomials(spatial), TimeFactor(p, q)))
    return FracSeries(tuple(terms)).collected()


def direct_iterates(problem: ProblemSpec, cfg: HatmConfig, hbar: float) -> list[FracSeries]:
    """Iterates [u_0, ..., u_order] of the deformation equation with hbar
    carried through every step, the reference for engine.recombine of
    engine.run:

        u_m = chi_m u_{m-1} + hbar * R_m,
        R_m = u_{m-1} - (1 - chi_m)(u_0 + J^alpha[g]) - J^alpha[N_{m-1}],

    chi_m = 0 for m = 1, else 1; the exp(rate*t) of each (rate, series)
    pair of the operator terms and the source is Taylor-expanded before
    each integration.
    """

    def integrated(groups) -> FracSeries:
        """J^alpha of sum series * exp(rate*t) over (rate, series) pairs;
        at rate 0 the expansion leaves a series as it is."""
        parts = [g.taylor_expand(rate, cfg.taylor_terms) for rate, g in groups]
        return FracSeries(tuple(t for p in parts for t in p.terms)).collected().frac_integral()

    history = [FracSeries.from_spatial(problem.initial)]
    for m in range(1, cfg.order + 1):
        u_prev = history[m - 1]
        parts = list(u_prev.terms)
        if m == 1:
            parts.extend(history[0].scale(-1.0).terms)
            parts.extend(integrated(problem.source).scale(-1.0).terms)
        op = apply_operator(problem, history, m)
        parts.extend(integrated(op.items()).scale(-1.0).terms)
        rm = FracSeries(tuple(parts)).collected()
        step = rm.scale(hbar).terms
        if m > 1:
            step = u_prev.terms + step
        history.append(FracSeries(tuple(step)).collected())
    return history


def symbolic_residual(
    problem: ProblemSpec, s: FracSeries, cfg: HatmConfig, points
) -> list[float]:
    """|D^alpha s - N[s] - g| with N[s] built as a series for each rate,
    apply_operator at m = 1 with history (s,): the reference for
    engine.residual."""
    groups = [*apply_operator(problem, (s,), 1).items(), *problem.source]
    derivative = s.caputo_derivative()
    return [
        abs(derivative.evaluate(x=px, y=py, t=pt, alpha=cfg.alpha) - sum(
            math.exp(rate * pt) * g.evaluate(x=px, y=py, t=pt, alpha=cfg.alpha)
            for rate, g in groups
        ))
        for px, py, pt in points
    ]


@lru_cache(maxsize=None)
def tree_derivative(expr: SpatialExpr, name: str) -> SpatialExpr:
    """Partial derivative in `name` by the rules on the tree, with no
    table: the reference for expr.table_derivative and expr.differentiate."""
    if isinstance(expr, Const):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == name else ZERO
    if isinstance(expr, Add):
        return add(*(tree_derivative(c, name) for c in expr.children))
    if isinstance(expr, Mul):
        parts = []
        for i, child in enumerate(expr.children):
            rest = expr.children[:i] + expr.children[i + 1 :]
            parts.append(mul(tree_derivative(child, name), *rest))
        return add(*parts)
    if isinstance(expr, Pow):
        return mul(
            const(float(expr.exponent)),
            pow_(expr.base, expr.exponent - 1),
            tree_derivative(expr.base, name),
        )
    assert isinstance(expr, Func), expr
    outer = cosh(expr.arg) if expr.kind == "sinh" else sinh(expr.arg)
    return mul(outer, tree_derivative(expr.arg, name))


def sig_product_by_sort(sa: tuple, sb: tuple) -> tuple:
    """Product of two monomial signatures through a dict of exponents and a
    full sort: the reference for the one-pass merge of expr._sig_mul."""
    if not sa or not sb:
        return sa or sb
    exps = dict(sa)
    for atom, e in sb:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted((a, e) for a, e in exps.items() if e != 0))


def tree_operator(form: str, drift, diffusion) -> list[tuple]:
    """(derivs, exp_rate, table) of each operator monomial, expanded on
    trees: tree_derivative, scale with mul, then monomials of the add of each
    derivative pattern. Entries are sequences of CoefficientSpec. The
    reference for build_forward and build_backward, which work on tables."""
    unit, names = ((1, 0), (0, 1)), ("x", "y")
    pieces = []  # (coefficient tree, derivs, rate)
    for i, entry in enumerate(drift):
        for spec in entry:
            a, rate, n = spec.spatial, spec.exp_rate, spec.u_degree + 1
            u = ((0, 0),) * spec.u_degree
            if form == "backward":
                pieces.append((mul(-1, a), (unit[i],), rate))
                continue
            pieces.append((mul(-1, tree_derivative(a, names[i])), u + ((0, 0),), rate))
            pieces.append((mul(-n, a), u + (unit[i],), rate))
    for i, row in enumerate(diffusion):
        for j, entry in enumerate(row):
            pair = tuple(p + q for p, q in zip(unit[i], unit[j]))
            for spec in entry:
                b, rate, n = spec.spatial, spec.exp_rate, spec.u_degree + 1
                u = ((0, 0),) * spec.u_degree
                if form == "backward":
                    pieces.append((b, (pair,), rate))
                    continue
                dbi = tree_derivative(b, names[i])
                pieces.append((tree_derivative(dbi, names[j]), u + ((0, 0),), rate))
                pieces.append((mul(n, dbi), u + (unit[j],), rate))
                pieces.append((mul(n, tree_derivative(b, names[j])), u + (unit[i],), rate))
                if spec.u_degree:
                    pieces.append((mul(2, b), (unit[i], unit[j]), rate))
                pieces.append((mul(n, b), u + (pair,), rate))
    groups: dict = {}
    for coef, derivs, rate in pieces:
        groups.setdefault((tuple(sorted(derivs)), rate), []).append(coef)
    out = [(derivs, rate, monomials(add(*coefs))) for (derivs, rate), coefs in groups.items()]
    return sorted((o for o in out if o[2]), key=lambda o: len(o[0]))


# name -> (problem, HatmConfig keywords besides alpha)
# Backward form with A = -x, B = x^2/2, f = 1 + x + x^2 + x^3. The operator
# maps x^k to lambda_k x^k, lambda_k = k + k(k-1)/2, so the series does not
# collapse onto f but converges to u = sum_k x^k E_alpha(lambda_k t^alpha).
ORACLE = build_backward(
    1, [mul(-1, X)], [[mul(0.5, pow_(X, 2))]], add(1, X, pow_(X, 2), pow_(X, 3))
)


def oracle_solution(x: float, t: float, alpha: float) -> float:
    return sum(x**k * mittag_leffler(alpha, (k + k * (k - 1) / 2) * t**alpha) for k in range(4))


PROBLEMS = {
    **{pid: (preset(pid), {"order": 4}) for pid in ("4.1", "4.2", "4.3", "4.4", "4.5")},
    # W2: forward, A = 0, B = u, f = sinh x (quadratic convolution)
    "W2": (
        build_forward(1, [[]], [[CoefficientSpec(ONE, u_degree=1)]], sinh(X)),
        {"order": 5},
    ),
    # W1: backward, A = -x, B = x^2 e^t, f = cosh x (Taylor-truncated)
    "W1": (
        build_backward(
            1, [mul(-1, X)], [[CoefficientSpec(pow_(X, 2), exp_rate=1)]], cosh(X)
        ),
        {"order": 2, "taylor_terms": 6},
    ),
    "oracle": (ORACLE, {"order": 4}),
    # no operator: D^alpha u = t^alpha, u(x, 0) = x
    "source": (
        ProblemSpec(
            dim=1, operator=(), initial=X,
            source=((0, FracSeries.from_spatial(ONE, q=1)),),
        ),
        {"order": 4},
    ),
}


# W3: forward, A = x u e^t + sinh x + 2, B = cosh x u + x^2 e^t, f = x + 1.
# It does not collapse, and its collects sum several different tables at
# one (time, tokens) key.
MIXED_OBJ = {
    "form": "forward", "dim": 1,
    "A": [[{"expr": "x", "u_degree": 1, "exp_rate": 1}, "(sinh x)", "2"]],
    "B": [[[{"expr": "(cosh x)", "u_degree": 1}, {"expr": "(pow x 2)", "exp_rate": 1}]]],
    "f": "(add x 1)",
}
MIXED = problem_from_obj(MIXED_OBJ)


def subordinated(u1, t: float) -> float:
    """The alpha = 1/2 solution at time t of a time-independent linear
    problem from its alpha = 1 solution u1 (Mainardi, Luchko & Pagnini,
    Fract. Calc. Appl. Anal. 4 (2001) 153):

        u(t) = integral over s > 0 of M(s) u1(s t**(1/2)) ds,
        M(s) = exp(-s**2 / 4) / sqrt(pi),

    by mpmath.quad at 30 digits. u1 maps an mpmath time to an mpmath value.
    It holds where the series diverges, so it is a truth to test sums of
    divergent iterates against."""
    with mpmath.workdps(30):
        root = mpmath.sqrt(mpmath.mpf(t))
        value = mpmath.quad(lambda s: mpmath.exp(-s * s / 4) * u1(s * root), [0, mpmath.inf])
        return float(value / mpmath.sqrt(mpmath.pi))


def heat_gaussian(x: float):
    """u1(t) at x of u_t = u_xx from u(x, 0) = exp(-x**2), the heat kernel:
    (1 + 4t)**(-1/2) exp(-x**2 / (1 + 4t))."""
    x = mpmath.mpf(x)
    return lambda t: mpmath.exp(-x * x / (1 + 4 * t)) / mpmath.sqrt(1 + 4 * t)


def invoke_cli(*args) -> SimpleNamespace:
    """Run `hatmfp ARGS...` in this process. The result has exit_code,
    stdout, stderr, output (stdout then stderr) and exception: the
    exception that ended the run, or None when it exited 0."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            exit_code = main([str(a) for a in args])
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return SimpleNamespace(
        exit_code=exit_code, stdout=stdout.getvalue(), stderr=stderr.getvalue(),
        output=stdout.getvalue() + stderr.getvalue(), exception=exception,
    )
