"""Shared fixtures for the suite: closed-form iterate coefficients,
random-series builders, the direct hbar recursion, the symbolic residual,
the problems the engine is checked on, small comparison utilities (among
them values on a fixed panel of sample points) and an in-process runner
of the command line."""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction
from types import SimpleNamespace

from hatmfp.cli import main
from hatmfp.engine import HatmConfig, ProblemSpec, apply_operator
from hatmfp.expr import ONE, SpatialExpr, add, cosh, evaluate, monomials, mul, pow_, sinh, X, Y
from hatmfp.fokker_planck import CoefficientSpec, build_backward, build_forward, preset
from hatmfp.series import FracSeries, FracTerm, Coefficient, TimeFactor


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
        assert term.time.c == 0, "exponential factor left in iterate"
        assert term.time.p == 0, f"unexpected fixed exponent {term.time.p}"
        val = term.coef.value(alpha) * evaluate(term.spatial, x, y)
        out[term.time.q] = out.get(term.time.q, 0.0) + val
    return out


def tree_value(series: FracSeries, x: float, t: float, alpha: float, y: float = 0.0) -> float:
    """The value of a series of pure powers of t, walking the tree of each
    term: the reference for FracSeries.evaluate at t > 0."""
    total = 0.0
    for term in series.terms:
        assert term.time.c == 0, "exponential factor left in iterate"
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


def random_series(rng: random.Random, n_terms: int = 4, with_exp: bool = False) -> FracSeries:
    """Small random series over the shared spatial pool; q >= 1 so the
    Caputo derivative always has a fractional exponent to lower."""
    terms = []
    for _ in range(n_terms):
        coef = Coefficient.number(rng.uniform(-3.0, 3.0))
        spatial = rng.choice(SPATIAL_POOL)
        p = rng.choice(P_POOL)
        q = rng.randint(1, 3)
        c = rng.choice((-1, 0, 1, 2)) if with_exp else 0
        terms.append(FracTerm(coef, monomials(spatial), TimeFactor(p, q, c)))
    return FracSeries(tuple(terms)).collected()


def direct_iterates(problem: ProblemSpec, cfg: HatmConfig) -> list[FracSeries]:
    """Iterates [u_0, ..., u_order] of the deformation equation with hbar
    carried through every step, the reference for engine.run:

        u_m = chi_m u_{m-1} + hbar * R_m,
        R_m = u_{m-1} - (1 - chi_m)(u_0 + J^alpha[g]) - J^alpha[N_{m-1}],

    chi_m = 0 for m = 1, else 1; exp(c*t) factors are Taylor-expanded
    before each integration.
    """

    def integrated(series: FracSeries) -> FracSeries:
        if series.has_exponential:
            series = series.taylor_expand(cfg.taylor_terms)
        return series.frac_integral()

    history = [FracSeries.from_spatial(problem.initial)]
    for m in range(1, cfg.order + 1):
        u_prev = history[m - 1]
        parts = list(u_prev.terms)
        if m == 1:
            parts.extend(history[0].scale(-1.0).terms)
            if not problem.source.is_zero:
                parts.extend(integrated(problem.source).scale(-1.0).terms)
        op = apply_operator(problem, history, m)
        parts.extend(integrated(op).scale(-1.0).terms)
        rm = FracSeries(tuple(parts)).collected()
        step = rm.scale(cfg.hbar).terms
        if m > 1:
            step = u_prev.terms + step
        history.append(FracSeries(tuple(step)).collected())
    return history


def symbolic_residual(
    problem: ProblemSpec, s: FracSeries, cfg: HatmConfig, points
) -> list[float]:
    """|D^alpha s - N[s] - g| with N[s] built as a series, apply_operator
    at m = 1 with history (s,): the reference for engine.residual."""
    mismatch = (
        s.caputo_derivative()
        .add(apply_operator(problem, (s,), 1).scale(-1.0))
        .add(problem.source.scale(-1.0))
    )
    return [
        abs(mismatch.evaluate(x=px, y=py, t=pt, alpha=cfg.alpha))
        for px, py, pt in points
    ]


# name -> (problem, HatmConfig keywords besides alpha and hbar)
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
    # no operator: D^alpha u = t^alpha, u(x, 0) = x
    "source": (
        ProblemSpec(
            dim=1, operator=(), initial=X,
            source=FracSeries.from_spatial(ONE, q=1),
        ),
        {"order": 4},
    ),
}


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
