"""Drift/diffusion problem builders.

Forward (Kolmogorov) form keeps the coefficients inside the
derivatives,

    D_t^alpha u = -sum_i d_i(A_i u) + sum_ij d_i d_j(B_ij u),

and is expanded here by the product rule into derivative monomials.
Coefficients may carry one factor of the state itself (u_degree = 1),
which turns the expansion quadratic. The backward form keeps the
coefficients outside,

    D_t^alpha u = -sum_i A_i d_i u + sum_ij B_ij d_i d_j u,

and admits no state-dependent coefficients. Either way coefficients
are separable pieces spatial(x, y) * exp(exp_rate * t). The builders
work on their monomial tables: table_derivative differentiates, and
_merge_monomials sums the scaled tables of each derivative pattern into
the table its OperatorMonomial holds, so no coefficient tree is built.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .engine import MultiIndex, OperatorMonomial, ProblemSpec
from .errors import ConfigError, DegreeError, DomainError, HatmError, PresetError, Value, store
from .expr import (
    SpatialExpr,
    const,
    evaluate,
    keyed_sum,
    monomials,
    parse_integer,
    parse_prefix,
    parse_rational,
    table_derivative,
    to_prefix,
    within_nesting,
)
from .series import FracSeries, FracTerm, Coefficient, TimeFactor, _check_alpha
from .special import mittag_leffler

_VARS = ("x", "y")


class CoefficientSpec(Value):
    """One separable piece of a drift or diffusion entry:
    spatial(x, y) * exp(exp_rate * t) * u**u_degree."""

    _fields = ("spatial", "exp_rate", "u_degree")

    def __init__(self, spatial: SpatialExpr, exp_rate: int = 0, u_degree: int = 0) -> None:
        if u_degree not in (0, 1):
            raise DegreeError(f"u_degree {u_degree} would take the expansion past quadratic")
        store(self, "spatial", within_nesting(spatial))
        store(self, "exp_rate", exp_rate)
        store(self, "u_degree", u_degree)


def _as_specs(entry) -> tuple[CoefficientSpec, ...]:
    """Accept a spec, a bare expression/number, a prefix string, a JSON
    {"expr", "exp_rate", "u_degree"} object, or a list of these (a sum)."""
    if entry is None:
        return ()
    if isinstance(entry, CoefficientSpec):
        return (entry,)
    if isinstance(entry, SpatialExpr):
        return (CoefficientSpec(entry),)
    if isinstance(entry, str):
        return (CoefficientSpec(parse_prefix(entry)),)
    if isinstance(entry, (int, float, Fraction)) and not isinstance(entry, bool):
        return () if entry == 0 else (CoefficientSpec(const(entry)),)
    if isinstance(entry, dict):
        _refuse_unknown(entry, ("expr", "exp_rate", "u_degree"), "operator entry")
        return (
            CoefficientSpec(
                parse_prefix(entry["expr"]),
                parse_integer(entry.get("exp_rate", 0)),
                parse_integer(entry.get("u_degree", 0)),
            ),
        )
    if isinstance(entry, (list, tuple)):
        out: list[CoefficientSpec] = []
        for item in entry:
            out.extend(_as_specs(item))
        return tuple(out)
    raise ConfigError(f"cannot interpret coefficient entry {entry!r}")


def _refuse_unknown(obj: dict, known: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in known:
            raise ConfigError(f"invalid {where}: unknown key {key!r}")


def _unit(i: int) -> MultiIndex:
    return (1, 0) if i == 0 else (0, 1)


def _pair(i: int, j: int) -> MultiIndex:
    return tuple(a + b for a, b in zip(_unit(i), _unit(j)))  # type: ignore[return-value]


def _merge_monomials(pieces) -> tuple[OperatorMonomial, ...]:
    """One operator monomial per (derivative pattern, rate), its table the
    sum of scale * table over the group's pieces (scale, table, derivs,
    rate); a sum that cancels (mixed-derivative pairs land here) is
    dropped. One-factor monomials come first."""
    groups: dict = {}
    for scale, table, derivs, rate in pieces:
        items = groups.setdefault((tuple(sorted(derivs)), rate), [])
        items.extend((sig, scale * c) for sig, c in table)
    out = []
    for (derivs, rate), items in groups.items():
        summed = keyed_sum(items)
        if summed:
            out.append(OperatorMonomial(summed, derivs, rate))
    return tuple(sorted(out, key=lambda m: len(m.derivs)))


def _check_shapes(dim: int, drift, diffusion) -> None:
    if len(drift) != dim:
        raise ConfigError(f"drift needs {dim} entries, got {len(drift)}")
    if len(diffusion) != dim or any(len(row) != dim for row in diffusion):
        raise ConfigError(f"diffusion needs a {dim}x{dim} matrix")


def build_forward(
    dim: int,
    drift: Sequence,
    diffusion: Sequence[Sequence],
    initial: SpatialExpr,
    source=None,
) -> ProblemSpec:
    """Expand the forward equation into derivative monomials.

    An entry carrying u**d acts on u**(d+1), so the product rule puts d
    leading u slots on every monomial; for d = 1 it also yields the
    u_i u_j term of the diffusion."""
    _check_shapes(dim, drift, diffusion)
    pieces: list[tuple] = []

    for i, entry in enumerate(drift):
        for spec in _as_specs(entry):
            a, rate, n = monomials(spec.spatial), spec.exp_rate, spec.u_degree + 1
            u = ((0, 0),) * spec.u_degree
            pieces.append((-1.0, table_derivative(a, _VARS[i]), u + ((0, 0),), rate))
            pieces.append((-n, a, u + (_unit(i),), rate))

    for i, row in enumerate(diffusion):
        for j, entry in enumerate(row):
            for spec in _as_specs(entry):
                b, rate, n = monomials(spec.spatial), spec.exp_rate, spec.u_degree + 1
                u = ((0, 0),) * spec.u_degree
                dbi = table_derivative(b, _VARS[i])
                pieces.append((1.0, table_derivative(dbi, _VARS[j]), u + ((0, 0),), rate))
                pieces.append((n, dbi, u + (_unit(j),), rate))
                pieces.append((n, table_derivative(b, _VARS[j]), u + (_unit(i),), rate))
                if spec.u_degree:
                    pieces.append((2.0, b, (_unit(i), _unit(j)), rate))
                pieces.append((n, b, u + (_pair(i, j),), rate))

    return ProblemSpec(dim, _merge_monomials(pieces), initial, source)


def build_backward(
    dim: int,
    drift: Sequence,
    diffusion: Sequence[Sequence],
    initial: SpatialExpr,
    source=None,
) -> ProblemSpec:
    """Backward form: coefficients stay outside the derivatives."""
    _check_shapes(dim, drift, diffusion)
    pieces: list[tuple] = []

    def specs_of(entry, where: str):
        specs = _as_specs(entry)
        for spec in specs:
            if spec.u_degree != 0:
                raise DegreeError(
                    f"backward form takes state-free coefficients; {where} has u_degree=1"
                )
        return specs

    for i, entry in enumerate(drift):
        for spec in specs_of(entry, f"A[{i}]"):
            pieces.append((-1.0, monomials(spec.spatial), (_unit(i),), spec.exp_rate))
    for i, row in enumerate(diffusion):
        for j, entry in enumerate(row):
            for spec in specs_of(entry, f"B[{i}][{j}]"):
                pieces.append((1.0, monomials(spec.spatial), (_pair(i, j),), spec.exp_rate))

    return ProblemSpec(dim, _merge_monomials(pieces), initial, source)


# id -> definition, in the form of a problem file. A preset solves to
# f(x, y) * E_alpha(t^alpha), its operator acting as the identity on
# multiples of f, except 4.1, which solves to f + t^alpha/gamma(alpha+1)
# (reference_solution).
_PRESETS = {
    "4.1": {"form": "forward", "dim": 1, "A": ["-1"], "B": [["1"]], "f": "x"},
    "4.2": {
        "form": "forward",
        "dim": 1,
        "A": [[{"expr": "(add (mul (coth x) (cosh x)) (sinh x))", "exp_rate": 1},
               "(mul -1 (coth x))"]],
        "B": [[{"expr": "(cosh x)", "exp_rate": 1}]],
        "f": "(sinh x)",
    },
    "4.3": {
        "form": "backward",
        "dim": 1,
        "A": ["(mul -1 (add x 1))"],
        "B": [[{"expr": "(pow x 2)", "exp_rate": 1}]],
        "f": "(add x 1)",
    },
    "4.4": {
        "form": "forward",
        "dim": 2,
        "A": ["x", "(mul 5 y)"],
        "B": [["(pow x 2)", "1"], ["1", "(pow y 2)"]],
        "f": "x",
    },
    "4.5": {
        "form": "forward",
        "dim": 1,
        "A": [[{"expr": "(mul 4 (pow x -1))", "u_degree": 1}, "(mul -1/3 x)"]],
        "B": [[{"expr": "1", "u_degree": 1}]],
        "f": "(pow x 2)",
    },
}

PRESET_IDS = tuple(sorted(_PRESETS))


def _definition(preset_id: str) -> dict:
    if preset_id not in _PRESETS:
        raise PresetError(f"unknown preset {preset_id!r}; known: {', '.join(PRESET_IDS)}")
    return _PRESETS[preset_id]


def preset(preset_id: str) -> ProblemSpec:
    return problem_from_obj(_definition(preset_id))


def reference_solution(
    preset_id: str, x: float, t: float, alpha: float, y: float = 0.0
) -> float:
    """Exact solution value at (x, y, t) for a preset problem; alpha lies
    in (0, 1], as for every run."""
    _check_alpha(alpha)
    f = evaluate(parse_prefix(_definition(preset_id)["f"]), x, y)
    if preset_id == "4.1":
        value = f + t**alpha / math.gamma(alpha + 1.0)
    else:
        value = f * mittag_leffler(alpha, t**alpha)
    if not math.isfinite(value):
        raise DomainError(f"the reference solution overflows a float at x={x}, y={y}, t={t}")
    return value


# -- problem definition files -----------------------------------------


def _source_from_obj(obj) -> tuple[tuple[int, FracSeries], ...]:
    """ProblemSpec.source: the terms grouped by "c", their rate of exp(c*t)."""
    groups: dict[int, list[FracTerm]] = {}
    for item in obj or ():
        if not isinstance(item, dict):
            raise TypeError(f"a source term must be an object, got {item!r}")
        _refuse_unknown(item, ("expr", "coef", "p", "q", "c"), "source term")
        coef = Coefficient.number(parse_rational(item.get("coef", 1.0)))
        monos = monomials(parse_prefix(item["expr"]))
        p, q, c = (item.get(key, 0) for key in ("p", "q", "c"))
        time = TimeFactor(parse_rational(p), parse_integer(q))
        groups.setdefault(parse_integer(c), []).append(FracTerm(coef, monos, time))
    return tuple((rate, FracSeries(terms)) for rate, terms in sorted(groups.items()))


def problem_from_obj(obj: dict) -> ProblemSpec:
    """Build a problem from its JSON object form; every refusal of its
    content, shape or meaning, is ConfigError("invalid problem definition: ...")."""
    try:
        form = obj["form"]
        _refuse_unknown(obj, ("form", "dim", "A", "B", "f", "g"), "problem definition")
        dim = parse_integer(obj["dim"])
        drift, diffusion = obj["A"], obj["B"]
        if not isinstance(drift, list):
            raise ConfigError(f"'A' must be a list, got {drift!r}")
        if not isinstance(diffusion, list) or not all(isinstance(r, list) for r in diffusion):
            raise ConfigError(f"'B' must be a list of rows, got {diffusion!r}")
        initial = parse_prefix(obj["f"])
        source = _source_from_obj(obj.get("g"))
        if form == "forward":
            return build_forward(dim, drift, diffusion, initial, source)
        if form == "backward":
            return build_backward(dim, drift, diffusion, initial, source)
        raise ConfigError(f"form must be 'forward' or 'backward', got {form!r}")
    except (HatmError, KeyError, TypeError, ValueError, OverflowError) as exc:
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"invalid problem definition: {cause}") from exc


def load_problem(path: str | Path) -> ProblemSpec:
    """Read a problem definition JSON file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"problem file {path} is not valid JSON: {exc}") from exc
    return problem_from_obj(obj)


def problem_to_obj(form: str, dim: int, drift, diffusion, initial, source=None) -> dict:
    """Inverse convenience for writing definition files from code. A file
    holds plain numbers, so a source coefficient in alpha raises ConfigError."""

    def spec_obj(spec: CoefficientSpec):
        out: dict = {"expr": to_prefix(spec.spatial)}
        if spec.exp_rate:
            out["exp_rate"] = spec.exp_rate
        if spec.u_degree:
            out["u_degree"] = spec.u_degree
        return out

    def entry_obj(entry):
        specs = [spec_obj(s) for s in _as_specs(entry)]
        if len(specs) == 1:
            return specs[0]
        return specs

    obj = {
        "form": form,
        "dim": dim,
        "A": [entry_obj(e) for e in drift],
        "B": [[entry_obj(e) for e in row] for row in diffusion],
        "f": to_prefix(initial),
    }
    if source:
        if any(t.coef.num or t.coef.den for _, g in source for t in g.terms):
            raise ConfigError("a problem file cannot hold a source coefficient in alpha")
        obj["g"] = [
            {
                "expr": to_prefix(t.spatial),
                "coef": t.coef.value(1.0),
                "p": str(t.time.p),
                "q": t.time.q,
                "c": rate,
            }
            for rate, g in source
            for t in g.terms
        ]
    return obj
