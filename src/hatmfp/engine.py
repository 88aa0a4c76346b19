"""Homotopy-analysis deformation engine.

Given an initial state f, a source g and an operator N, a sum of
monomials that each take one or two factors of u, the engine runs the
hbar-free recursion

    v_0 = f,    v_1 = J^alpha[g + N_0],    v_m = J^alpha[N_{m-1}]  (m >= 2)

where J^alpha is the fractional integral and N_{m-1} the operator terms
at order m-1: a one-factor monomial acts on v_{m-1}, and a two-factor
one takes the homotopy convolution sum_k of its factors on v_{m-1-k}
and v_k, so a nonlinear term needs no Adomian or He polynomials. Each
step expands the exp(rate*t) of operator monomials and source terms to
taylor_terms powers of t before integrating, and records that truncation
on the run report, so every iterate is pure powers of t.

Coefficients stay symbolic in alpha until terms share a TimeFactor in
a step's series, which they do when their gamma tokens differ: those
terms are bound at cfg.alpha, and the terms of one time summed into one
term (also recorded on the report), so the iterates of a run are valid
at cfg.alpha only. A term alone at its time
keeps its gamma tokens, so problems whose iterates never share a time,
such as the collapsing presets, stay fully symbolic.

With the auxiliary function H = 1, the iterates of the deformation
equation u_m = chi_m u_{m-1} + hbar * Linv[R_m] (chi_1 = 0, else 1) at
any hbar are fixed combinations of the v_m, the HAM/HPM correspondence
(Liang & Jeffrey, Commun. Nonlinear Sci. Numer. Simul. 14 (2009) 4057):

    u_m = sum_{k=1..m} C(m-1, k-1) (-hbar)^k (1+hbar)^(m-k) v_k,

so run() returns the hbar-free [v_0, ..., v_M], the iterates at -1, and
hbar enters only through these weights: recombine() applies them to the
series, recombine_values() to the values of the v_m at one point.

Each spatial derivative of an iterate is built once and kept on the
series (FracSeries.spatial_derivative), so the operator terms of every
later step reuse it, as residual() does on the iterates of a run.

The engine keeps only the recursion: its term products come from
series.term_products, its sums of series from FracSeries.add, and an
operator monomial holds its coefficient as a table, as a FracTerm does.
"""

from __future__ import annotations

import math
import time as _time
from collections import Counter
from typing import Iterator, Sequence

from .errors import ConfigError, DegreeError, DomainError, Value, store
from .expr import SpatialExpr, table_value, variables
from .series import Coefficient, FracSeries, FracTerm, _check_alpha, term_products

MultiIndex = tuple[int, int]  # derivative orders in (x, y)


def _check_multi_index(deriv: MultiIndex, what: str) -> None:
    if len(deriv) != 2 or any(d < 0 for d in deriv):
        raise DegreeError(f"{what} must be a pair of nonnegative orders, got {deriv}")
    if sum(deriv) > 2:
        raise DegreeError(f"{what} exceeds second order: {deriv}")


class OperatorMonomial(Value):
    """monos(x, y) * exp(exp_rate * t) * prod_i d^derivs[i] u, monos a sorted
    table of ``expr.monomials`` as in a FracTerm, with one slot (a linear
    term) or two (a quadratic term) in derivs."""

    _fields = ("monos", "derivs", "exp_rate")

    def __init__(self, monos: tuple, derivs: tuple[MultiIndex, ...], exp_rate: int = 0) -> None:
        if len(derivs) not in (1, 2):
            raise DegreeError(
                f"an operator monomial takes one or two factors of u, got {derivs}"
            )
        for deriv in derivs:
            _check_multi_index(deriv, "deriv")
        if isinstance(monos, SpatialExpr):
            raise TypeError("monos is a table: pass monomials(tree), not a tree")
        store(self, "monos", monos)
        store(self, "derivs", derivs)
        store(self, "exp_rate", exp_rate)


class ProblemSpec(Value):
    """An initial state, an operator and a source g, given as (rate,
    series) pairs for g = sum series * exp(rate*t); None is no source."""

    _fields = ("dim", "operator", "initial", "source")

    def __init__(
        self, dim: int, operator: tuple[OperatorMonomial, ...], initial: SpatialExpr, source=None
    ) -> None:
        if dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {dim}")
        source = tuple((rate, g) for rate, g in source or () if not g.is_zero)
        if dim == 1:
            if any(d[1] != 0 for mono in operator for d in mono.derivs):
                raise ConfigError("y-derivative in a one-dimensional problem")
            tables = [m.monos for m in operator] + [t.monos for _, g in source for t in g.terms]
            used = variables(initial)
            used.update(*(variables(atom) for tb in tables for sig, _ in tb for atom, _ in sig))
            if "y" in used:
                raise ConfigError("variable y in a one-dimensional problem")
        store(self, "dim", dim)
        store(self, "operator", operator)
        store(self, "initial", initial)
        store(self, "source", source)


# Powers of t kept where an exp(rate*t) factor is expanded.
TAYLOR_TERMS = 12


def check_hbar(hbar: float) -> None:
    """Refuse an hbar that is a bool, not finite, or 0, with ConfigError."""
    if isinstance(hbar, bool) or not math.isfinite(hbar) or hbar == 0.0:
        want = "a number" if isinstance(hbar, bool) else "finite" if hbar else "nonzero"
        raise ConfigError(f"hbar must be {want}, got {hbar!r}")


class HatmConfig(Value):
    """Run parameters. The auxiliary function of the deformation is the
    constant H = 1, so hbar is not one: recombine() applies it to a run."""

    _fields = ("alpha", "order", "taylor_terms")

    def __init__(self, alpha: float, order: int, taylor_terms=TAYLOR_TERMS) -> None:
        if isinstance(alpha, bool):
            raise ConfigError(f"alpha must be a number, got {alpha!r}")
        _check_alpha(alpha)
        for name, value, least in (("order", order, 0), ("taylor_terms", taylor_terms, 1)):
            if type(value) is not int:  # a bool is refused too
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        store(self, "alpha", alpha)
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
) -> dict[int, FracSeries]:
    """Operator terms at deformation order m, one series for each rate:
    {rate: series}, the terms being series * exp(rate*t).

    A monomial with one slot acts on history[m-1]; one with two slots
    takes the homotopy convolution sum_{k=0}^{m-1} of derivative pairs
    from history[m-1-k] and history[k]. At m = 1 with history (s,) this
    is N[s] itself, the two-slot part acting on s * s.
    """
    if m < 1:
        raise ConfigError(f"apply_operator needs m >= 1, got {m}")
    products: dict[int, list[FracTerm]] = {}
    for mono in problem.operator:
        terms = products.setdefault(mono.exp_rate, [])
        splits = [(m - 1,)] if len(mono.derivs) == 1 else [(m - 1 - k, k) for k in range(m)]
        for split in splits:
            factors = (_derived(history[n], d).terms for n, d in zip(split, mono.derivs))
            terms.extend(term_products(mono.monos, *factors))
    return {rate: FracSeries(terms) for rate, terms in products.items()}


def build_rm(
    problem: ProblemSpec,
    history: Sequence[FracSeries],
    m: int,
) -> dict[int, FracSeries]:
    """Right-hand side of the m-th hbar-free step before integration, by
    rate: the operator terms at order m-1, plus the source at m = 1."""
    groups = apply_operator(problem, history, m)
    if m == 1:
        for rate, g in problem.source:
            groups[rate] = groups[rate].add(g) if rate in groups else g
    return groups


def deformation_step(
    problem: ProblemSpec,
    cfg: HatmConfig,
    history: Sequence[FracSeries],
    m: int,
    events: dict | None = None,
) -> FracSeries:
    """v_m = J^alpha[build_rm], each rate's terms first multiplied by
    exp(rate*t) cut to cfg.taylor_terms powers of t (taylor_expand).

    Terms that still share a TimeFactor in the integrated series (their
    gamma tokens differ) are bound to numbers at cfg.alpha, and the
    series of the bound terms sums each time into one term. A term alone
    at its time keeps its gamma tokens, whose exact cancellation in later
    steps binding would lose. The result is valid at cfg.alpha only.

    Given an events dict, an expansion appends the row {"order",
    "terms_expanded", "taylor_terms"} to its "taylor_events" list and a
    binding the row {"order", "terms_bound"} to "bind_events"."""
    groups = sorted((rate, g) for rate, g in build_rm(problem, history, m).items() if g.terms)
    exponential = sum(len(g.terms) for rate, g in groups if rate)
    if exponential and events is not None:
        row = {"order": m, "terms_expanded": exponential, "taylor_terms": cfg.taylor_terms}
        events.setdefault("taylor_events", []).append(row)
    expanded = [g.taylor_expand(rate, cfg.taylor_terms) if rate else g for rate, g in groups]
    v = FracSeries.zero().add(*expanded).frac_integral()
    per_time = Counter(t.time for t in v.terms)
    binds = [per_time[t.time] > 1 for t in v.terms]
    if not any(binds):
        return v
    if events is not None:
        events.setdefault("bind_events", []).append({"order": m, "terms_bound": sum(binds)})
    return FracSeries(
        FracTerm(Coefficient.number(t.coef.value(cfg.alpha)), t.monos, t.time) if bind else t
        for t, bind in zip(v.terms, binds)
    )


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
    (module docstring); zero weights are skipped and unit ones not applied,
    so at hbar = -1 each u_m is v_m itself, with the derivatives kept on it."""
    check_hbar(hbar)
    out = [free[0]]
    for m in range(1, len(free)):
        parts = [free[k] if w == 1.0 else free[k].scale(w) for k, w in _weights(m, hbar)]
        out.append(parts[0] if len(parts) == 1 else FracSeries.zero().add(*parts))
    return out


def recombine_values(values: Sequence[float], hbar: float) -> list[float]:
    """recombine() on numbers: [u_0, ..., u_M] at one point from the
    values [v_0, ..., v_M] of the hbar-free iterates there. The
    recombination is linear, so it commutes with evaluation."""
    check_hbar(hbar)
    return [values[0]] + [
        sum(weight * values[k] for k, weight in _weights(m, hbar))
        for m in range(1, len(values))
    ]


def run(problem: ProblemSpec, cfg: HatmConfig, events: dict | None = None) -> list[FracSeries]:
    """The hbar-free iterates [v_0, ..., v_order], valid at cfg.alpha only
    (deformation_step binds the coefficients of terms sharing a time); a
    DomainError of step m names order m. recombine() gives the iterates at
    any other hbar."""
    free = [FracSeries.from_spatial(problem.initial)]
    for m in range(1, cfg.order + 1):
        try:
            free.append(deformation_step(problem, cfg, free, m, events))
        except DomainError as exc:
            raise DomainError(f"order {m}: {exc}") from exc
    return free


def partial_sum(iterates: Sequence[FracSeries], upto: int) -> FracSeries:
    if not 0 <= upto < len(iterates):
        raise IndexError(f"partial_sum up to {upto} needs {upto + 1} iterates")
    return FracSeries.zero().add(*iterates[: upto + 1])


def residual(
    problem: ProblemSpec, free: Sequence[FracSeries], alpha: float, hbar: float,
    points: Sequence[tuple[float, float, float]],
) -> list[float]:
    """|D^alpha S - N[S] - g| at (x, y, t), S the partial sum at hbar of the
    hbar-free iterates free = [v_0, ..., v_M] of a run at alpha. At
    each point D^alpha S and each derivative d S sum recombine_values of the
    values of [D^alpha v_k] or [d v_k] (the run kept d v_k for k < M), and
    N[S] + g is a sum of products of numbers. The residual of one series s
    is residual(problem, [s], alpha, -1.0, points)."""
    families = {d: [_derived(v, d) for v in free] for mono in problem.operator for d in mono.derivs}
    families["linear"] = [v.caputo_derivative() for v in free]
    out = []
    for px, py, pt in points:
        atoms: dict = {}
        try:
            at = {key: sum(recombine_values([v.evaluate(px, pt, alpha, py) for v in family], hbar))
                  for key, family in families.items()}
            operator = sum(
                table_value(mono.monos, px, py, atoms)
                * math.exp(mono.exp_rate * pt)
                * math.prod(at[d] for d in mono.derivs)
                for mono in problem.operator
            ) + sum(math.exp(rate * pt) * g.evaluate(px, pt, alpha, py)
                    for rate, g in problem.source)
            value = abs(at["linear"] - operator)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"the residual overflows a float at x={px}, y={py}, t={pt}")
        out.append(value)
    return out


def h_curve(
    free: Sequence[FracSeries],
    alpha: float,
    probe: tuple[float, float, float],
    h_values: Sequence[float],
) -> list[tuple[float, list[float]]]:
    """(hbar, [S_0, ..., S_M]) for each convergence-control parameter: S_n
    is the partial sum up to order n at the probe, from the hbar-free
    iterates [v_0, ..., v_M] of a run at alpha. The flat
    stretch of the curve S_n(hbar) marks usable hbar, and it widens with n.

    Each v_k is evaluated once at the probe; every hbar recombines those
    numbers (recombine_values) and sums each prefix of them. The weights
    grow like |1+hbar|^M, so a row's rounding error grows with them when |1+hbar| > 1."""
    px, py, pt = probe
    values = [v.evaluate(x=px, y=py, t=pt, alpha=alpha) for v in free]
    out = []
    for h in h_values:
        u = recombine_values(values, h)
        sums = [sum(u[: n + 1]) for n in range(len(u))]
        if not all(map(math.isfinite, sums)):
            raise DomainError(f"a partial sum at hbar={h} overflows a float")
        out.append((h, sums))
    return out


def run_report(
    problem: ProblemSpec, cfg: HatmConfig, hbar: float, problem_label: str = "custom",
) -> dict:
    """Run, recombine at hbar, and package all a caller needs to replay it."""
    events: dict = {"taylor_events": [], "bind_events": []}
    started = _time.perf_counter()
    iterates = recombine(run(problem, cfg, events), hbar)
    elapsed = _time.perf_counter() - started
    total = partial_sum(iterates, cfg.order)
    return {
        "problem": problem_label,
        "config": {
            "alpha": cfg.alpha,
            "hbar": hbar,
            "order": cfg.order,
            "taylor_terms": cfg.taylor_terms,
        },
        "iterates": [s.to_obj() for s in iterates],
        "partial_sum": total.to_obj(),
        **events,
        "wall_time_s": elapsed,
    }
