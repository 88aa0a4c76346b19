"""Homotopy-analysis deformation engine.

Given an initial state f, a source g and an operator N, a sum of
monomials that each take one or two factors of u, the engine runs the
hbar-free recursion

    v_0 = f,    v_1 = J^alpha[g + N_0],    v_m = J^alpha[N_{m-1}]  (m >= 2)

where J^alpha is the fractional integral and N_{m-1} the operator terms
at order m-1: a one-factor monomial acts on v_{m-1}, and a two-factor
one takes the homotopy convolution sum_k of its factors on v_{m-1-k}
and v_k, so a nonlinear term needs no Adomian or He polynomials. Any
exp(c*t) factors are Taylor-expanded before integration, and those
truncations are recorded on the run report.

Coefficients stay symbolic in alpha until a step's exact collect
leaves terms that share a TimeFactor, or a coefficient that is a sum of
several monomials: those terms are bound at cfg.alpha, and the terms of
one time summed into one term (also recorded on the report), so the
iterates of a run are valid at cfg.alpha only. A term alone at its time
with a one-monomial coefficient keeps its gamma tokens, so problems
whose iterates never share a time, such as the collapsing presets, stay
fully symbolic.

With the auxiliary function H = 1, the iterates of the deformation
equation u_m = chi_m u_{m-1} + hbar * Linv[R_m] (chi_1 = 0, else 1) at
any hbar are fixed combinations of the v_m, the HAM/HPM correspondence
(Liang & Jeffrey, Commun. Nonlinear Sci. Numer. Simul. 14 (2009) 4057):

    u_m = sum_{k=1..m} C(m-1, k-1) (-hbar)^k (1+hbar)^(m-k) v_k,

so hbar enters only through these weights; the v_m are the iterates
at -1. recombine() applies them to the series, recombine_values() to
the values of the v_m at one point, which is all h_curve needs.

Each spatial derivative of an iterate is built once and kept on the
series (FracSeries.spatial_derivative), so the operator terms of every
later step, and residual(), reuse it.
"""

from __future__ import annotations

import math
import time as _time
from collections import Counter
from functools import reduce
from itertools import product
from typing import Iterator, Sequence

from .errors import ConfigError, DegreeError, DomainError, ExponentError, Value, store
from .expr import SpatialExpr, evaluate, monomials, table_product, variables
from .series import Coefficient, FracSeries, FracTerm, TimeFactor, _check_alpha

MultiIndex = tuple[int, int]  # derivative orders in (x, y)


def _check_multi_index(deriv: MultiIndex, what: str) -> None:
    if len(deriv) != 2 or any(d < 0 for d in deriv):
        raise DegreeError(f"{what} must be a pair of nonnegative orders, got {deriv}")
    if sum(deriv) > 2:
        raise DegreeError(f"{what} exceeds second order: {deriv}")


class OperatorMonomial(Value):
    """coef(x, y) * exp(exp_rate * t) * prod_i d^derivs[i] u, with one
    slot (a linear term) or two (a quadratic term) in derivs."""

    _fields = ("coef", "derivs", "exp_rate")

    def __init__(
        self, coef: SpatialExpr, derivs: tuple[MultiIndex, ...], exp_rate: int = 0
    ) -> None:
        if len(derivs) not in (1, 2):
            raise DegreeError(
                f"an operator monomial takes one or two factors of u, got {derivs}"
            )
        for deriv in derivs:
            _check_multi_index(deriv, "deriv")
        store(self, "coef", coef)
        store(self, "derivs", derivs)
        store(self, "exp_rate", exp_rate)


class ProblemSpec(Value):
    """An initial state, an operator and a source (zero if None)."""

    _fields = ("dim", "operator", "initial", "source")

    def __init__(
        self, dim: int, operator: tuple[OperatorMonomial, ...], initial: SpatialExpr, source=None
    ) -> None:
        if dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {dim}")
        if dim == 1:
            used = variables(initial)
            for mono in operator:
                used |= variables(mono.coef)
                if any(d[1] != 0 for d in mono.derivs):
                    raise ConfigError("y-derivative in a one-dimensional problem")
            if "y" in used:
                raise ConfigError("variable y in a one-dimensional problem")
        source = FracSeries.zero() if source is None else source
        store(self, "dim", dim)
        store(self, "operator", operator)
        store(self, "initial", initial)
        store(self, "source", source)


class HatmConfig(Value):
    """Run parameters. The auxiliary function of the deformation is the
    constant H = 1."""

    _fields = ("alpha", "hbar", "order", "taylor_terms")

    def __init__(self, alpha: float, hbar: float, order: int, taylor_terms: int = 12) -> None:
        _check_alpha(alpha)
        if not math.isfinite(hbar):
            raise ConfigError(f"hbar must be finite, got {hbar}")
        if hbar == 0.0:
            raise ConfigError("hbar must be nonzero")
        if order < 0:
            raise ConfigError(f"order must be >= 0, got {order}")
        if taylor_terms < 1:
            raise ConfigError(f"taylor_terms must be >= 1, got {taylor_terms}")
        store(self, "alpha", alpha)
        store(self, "hbar", hbar)
        store(self, "order", order)
        store(self, "taylor_terms", taylor_terms)


def _derived(series: FracSeries, deriv: MultiIndex) -> FracSeries:
    out = series
    for _ in range(deriv[0]):
        out = out.spatial_derivative("x")
    for _ in range(deriv[1]):
        out = out.spatial_derivative("y")
    return out


def apply_operator(
    problem: ProblemSpec,
    history: Sequence[FracSeries],
    m: int,
) -> FracSeries:
    """Operator terms at deformation order m.

    A monomial with one slot acts on history[m-1]; one with two slots
    takes the homotopy convolution sum_{k=0}^{m-1} of derivative pairs
    from history[m-1-k] and history[k]. At m = 1 with history (s,) this
    is N[s] itself, the two-slot part acting on s * s.
    """
    if m < 1:
        raise ConfigError(f"apply_operator needs m >= 1, got {m}")
    terms: list[FracTerm] = []
    for mono in problem.operator:
        rate = TimeFactor(0, 0, mono.exp_rate)
        splits = [(m - 1,)] if len(mono.derivs) == 1 else [(m - 1 - k, k) for k in range(m)]
        for split in splits:
            derived = [_derived(history[n], d).terms for n, d in zip(split, mono.derivs)]
            for factors in product(*derived):
                terms.append(FracTerm(
                    reduce(Coefficient.times, (f.coef for f in factors)),
                    table_product([monomials(mono.coef), *(f.monos for f in factors)]),
                    reduce(TimeFactor.plus, (f.time for f in factors)).plus(rate),
                ))
    return FracSeries(tuple(terms)).collected()


def build_rm(
    problem: ProblemSpec,
    history: Sequence[FracSeries],
    m: int,
) -> FracSeries:
    """Right-hand side of the m-th hbar-free step before integration:
    the operator terms at order m-1, plus the source at m = 1."""
    op = apply_operator(problem, history, m)
    return op.add(problem.source) if m == 1 else op


def deformation_step(
    problem: ProblemSpec,
    cfg: HatmConfig,
    history: Sequence[FracSeries],
    m: int,
    events: dict | None = None,
) -> FracSeries:
    """v_m = J^alpha[build_rm], Taylor-expanding exp(c*t) factors first.

    Terms that still share a TimeFactor after the exact collect, and
    terms whose coefficient has several monomials, are bound to numbers
    at cfg.alpha and collected again, which sums each time into one
    term. A term alone at its time with one monomial keeps its gamma
    tokens, whose exact cancellation in later steps binding would lose.
    The result is valid at cfg.alpha only.

    Given an events dict, an expansion appends the row {"order",
    "terms_expanded", "taylor_terms"} to its "taylor_events" list and a
    binding the row {"order", "terms_bound"} to "bind_events"."""
    rhs = build_rm(problem, history, m)
    exponential = sum(1 for t in rhs.terms if t.time.c != 0)
    if exponential:
        if events is not None:
            events.setdefault("taylor_events", []).append(
                {"order": m, "terms_expanded": exponential, "taylor_terms": cfg.taylor_terms}
            )
        rhs = rhs.taylor_expand(cfg.taylor_terms)
    v = rhs.frac_integral()
    per_time = Counter(t.time for t in v.terms)
    binds = [per_time[t.time] > 1 or len(t.coef.monomials) > 1 for t in v.terms]
    if not any(binds):
        return v
    if events is not None:
        events.setdefault("bind_events", []).append({"order": m, "terms_bound": sum(binds)})
    return FracSeries(tuple(
        FracTerm(Coefficient.number(t.coef.value(cfg.alpha)), t.monos, t.time) if bind else t
        for t, bind in zip(v.terms, binds)
    )).collected()


def _weights(m: int, hbar: float) -> Iterator[tuple[int, float]]:
    """(k, weight) for each nonzero weight of v_k in u_m (m >= 1), from
    the binomial formula of the module docstring."""
    for k in range(1, m + 1):
        try:
            weight = math.comb(m - 1, k - 1) * (-hbar) ** k * (1 + hbar) ** (m - k)
        except OverflowError:
            weight = math.inf
        if not math.isfinite(weight):
            raise DomainError(f"the weight of v_{k} in u_{m} overflows a float at hbar={hbar}")
        if weight != 0.0:
            yield k, weight


def recombine(free: Sequence[FracSeries], hbar: float) -> list[FracSeries]:
    """Iterates [u_0, ..., u_M] at hbar from the hbar-free [v_0, ..., v_M]
    (module docstring); zero weights are skipped, so at hbar = -1 each
    u_m is v_m itself."""
    out = [free[0]]
    for m in range(1, len(free)):
        parts = [free[k].scale(weight) for k, weight in _weights(m, hbar)]
        if len(parts) == 1:
            out.append(parts[0])
        else:
            out.append(FracSeries(tuple(t for p in parts for t in p.terms)).collected())
    return out


def recombine_values(values: Sequence[float], hbar: float) -> list[float]:
    """recombine() on numbers: [u_0, ..., u_M] at one point from the
    values [v_0, ..., v_M] of the hbar-free iterates there. The
    recombination is linear, so it commutes with evaluation."""
    return [values[0]] + [
        sum(weight * values[k] for k, weight in _weights(m, hbar))
        for m in range(1, len(values))
    ]


def run(
    problem: ProblemSpec,
    cfg: HatmConfig,
    events: dict | None = None,
) -> list[FracSeries]:
    """Iterates [u_0, ..., u_order] at cfg.hbar, valid at cfg.alpha only
    (deformation_step binds the coefficients of terms sharing a time)."""
    free = [FracSeries.from_spatial(problem.initial)]
    for m in range(1, cfg.order + 1):
        free.append(deformation_step(problem, cfg, free, m, events))
    return recombine(free, cfg.hbar)


def partial_sum(iterates: Sequence[FracSeries], upto: int) -> FracSeries:
    if not 0 <= upto < len(iterates):
        raise IndexError(f"partial_sum up to {upto} needs {upto + 1} iterates")
    terms: list[FracTerm] = []
    for series in iterates[: upto + 1]:
        terms.extend(series.terms)
    return FracSeries(tuple(terms)).collected()


def residual(
    problem: ProblemSpec,
    s: FracSeries,
    cfg: HatmConfig,
    points: Sequence[tuple[float, float, float]],
) -> list[float]:
    """|D^alpha s - N[s] - g| of the full nonlinear equation at (x, y, t).

    D^alpha s - g stays a series; N[s] is summed at each point from the
    values of the derivatives of s, so a two-slot monomial multiplies
    two numbers instead of every pair of terms of s."""
    if s.has_exponential:
        raise ExponentError("residual needs a taylor-expanded (c = 0) series")
    linear = s.caputo_derivative().add(problem.source.scale(-1.0))
    out = []
    for px, py, pt in points:
        try:
            operator = sum(
                evaluate(mono.coef, px, py)
                * math.exp(mono.exp_rate * pt)
                * math.prod(_derived(s, d).evaluate(px, pt, cfg.alpha, py) for d in mono.derivs)
                for mono in problem.operator
            )
            value = abs(linear.evaluate(px, pt, cfg.alpha, py) - operator)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"the residual overflows a float at x={px}, y={py}, t={pt}")
        out.append(value)
    return out


def h_curve(
    problem: ProblemSpec,
    cfg: HatmConfig,
    probe: tuple[float, float, float],
    h_values: Sequence[float],
) -> list[tuple[float, list[float]]]:
    """(hbar, [S_0, ..., S_order]) for each convergence-control parameter:
    S_n is the partial sum up to order n at the probe point. The flat
    stretch of the curve S_n(hbar) marks usable hbar, and it widens with n.

    The recursion runs once, at hbar = -1, and each of its iterates is
    evaluated once at the probe; every hbar recombines those numbers
    (recombine_values) and sums each prefix of them. The weights grow like
    |1+hbar|^order, so the rounding error of a row grows with them when
    |1+hbar| > 1."""
    px, py, pt = probe
    free = run(problem, HatmConfig(cfg.alpha, -1.0, cfg.order, cfg.taylor_terms))
    values = [v.evaluate(x=px, y=py, t=pt, alpha=cfg.alpha) for v in free]
    out = []
    for h in h_values:
        HatmConfig(cfg.alpha, h, cfg.order, cfg.taylor_terms)  # validates h != 0
        u = recombine_values(values, h)
        sums = [sum(u[: n + 1]) for n in range(len(u))]
        if not all(map(math.isfinite, sums)):
            raise DomainError(f"a partial sum at hbar={h} overflows a float")
        out.append((h, sums))
    return out


def run_report(
    problem: ProblemSpec,
    cfg: HatmConfig,
    problem_label: str = "custom",
) -> dict:
    """Run and package everything a caller needs to replay the result."""
    events: dict = {"taylor_events": [], "bind_events": []}
    started = _time.perf_counter()
    iterates = run(problem, cfg, events)
    elapsed = _time.perf_counter() - started
    total = partial_sum(iterates, cfg.order)
    return {
        "problem": problem_label,
        "config": {
            "alpha": cfg.alpha,
            "hbar": cfg.hbar,
            "order": cfg.order,
            "taylor_terms": cfg.taylor_terms,
        },
        "iterates": [s.to_obj() for s in iterates],
        "partial_sum": total.to_obj(),
        **events,
        "wall_time_s": elapsed,
    }
