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
are separable pieces spatial(x, y) * exp(exp_rate * t).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .engine import MultiIndex, OperatorMonomial, ProblemSpec
from .errors import ConfigError, DegreeError, DomainError, HatmError, PresetError, Value, store
from .expr import (
    SpatialExpr,
    X,
    Y,
    add,
    const,
    cosh,
    coth,
    differentiate,
    evaluate,
    monomials,
    mul,
    parse_integer,
    parse_prefix,
    parse_rational,
    pow_,
    sinh,
    to_prefix,
)
from .series import FracSeries, FracTerm, Coefficient, TimeFactor, _collect
from .special import MLParams, gamma, mittag_leffler

_VARS = ("x", "y")


class CoefficientSpec(Value):
    """One separable piece of a drift or diffusion entry:
    spatial(x, y) * exp(exp_rate * t) * u**u_degree."""

    _fields = ("spatial", "exp_rate", "u_degree")

    def __init__(self, spatial: SpatialExpr, exp_rate: int = 0, u_degree: int = 0) -> None:
        if u_degree not in (0, 1):
            raise DegreeError(f"u_degree {u_degree} would take the expansion past quadratic")
        store(self, "spatial", spatial)
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
    if isinstance(entry, (int, float, Fraction)):
        value = float(entry)
        return () if value == 0.0 else (CoefficientSpec(const(value)),)
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


def _merge_monomials(operator) -> tuple[OperatorMonomial, ...]:
    """Sum coefficient trees of repeated derivative patterns and drop
    the ones that cancel (mixed-derivative pairs land here); one-factor
    monomials come first."""
    groups: dict = {}
    for mono in operator:
        groups.setdefault((tuple(sorted(mono.derivs)), mono.exp_rate), []).append(mono.coef)
    out = []
    for (derivs, rate), coefs in groups.items():
        coef = add(*coefs)
        if monomials(coef):
            out.append(OperatorMonomial(coef, derivs, rate))
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
    source: FracSeries | None = None,
) -> ProblemSpec:
    """Expand the forward equation into derivative monomials.

    An entry carrying u**d acts on u**(d+1), so the product rule puts d
    leading u slots on every monomial; for d = 1 it also yields the
    u_i u_j term of the diffusion."""
    _check_shapes(dim, drift, diffusion)
    operator: list[OperatorMonomial] = []

    for i, entry in enumerate(drift):
        for spec in _as_specs(entry):
            a, rate, n = spec.spatial, spec.exp_rate, spec.u_degree + 1
            u = ((0, 0),) * spec.u_degree
            da = differentiate(a, _VARS[i])
            operator.append(OperatorMonomial(mul(const(-1), da), u + ((0, 0),), rate))
            operator.append(OperatorMonomial(mul(const(-n), a), u + (_unit(i),), rate))

    for i, row in enumerate(diffusion):
        for j, entry in enumerate(row):
            for spec in _as_specs(entry):
                b, rate, n = spec.spatial, spec.exp_rate, spec.u_degree + 1
                u = ((0, 0),) * spec.u_degree
                dbi = differentiate(b, _VARS[i])
                dbj = differentiate(b, _VARS[j])
                dbij = differentiate(dbi, _VARS[j])
                operator.append(OperatorMonomial(dbij, u + ((0, 0),), rate))
                operator.append(OperatorMonomial(mul(const(n), dbi), u + (_unit(j),), rate))
                operator.append(OperatorMonomial(mul(const(n), dbj), u + (_unit(i),), rate))
                if spec.u_degree:
                    ui_uj = (_unit(i), _unit(j))
                    operator.append(OperatorMonomial(mul(const(2), b), ui_uj, rate))
                operator.append(OperatorMonomial(mul(const(n), b), u + (_pair(i, j),), rate))

    return ProblemSpec(dim, _merge_monomials(operator), initial, source or FracSeries.zero())


def build_backward(
    dim: int,
    drift: Sequence,
    diffusion: Sequence[Sequence],
    initial: SpatialExpr,
    source: FracSeries | None = None,
) -> ProblemSpec:
    """Backward form: coefficients stay outside the derivatives."""
    _check_shapes(dim, drift, diffusion)
    operator: list[OperatorMonomial] = []

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
            operator.append(
                OperatorMonomial(mul(const(-1), spec.spatial), (_unit(i),), spec.exp_rate)
            )
    for i, row in enumerate(diffusion):
        for j, entry in enumerate(row):
            for spec in specs_of(entry, f"B[{i}][{j}]"):
                operator.append(OperatorMonomial(spec.spatial, (_pair(i, j),), spec.exp_rate))

    return ProblemSpec(dim, _merge_monomials(operator), initial, source or FracSeries.zero())


def _preset_41() -> ProblemSpec:
    return build_forward(1, [const(-1)], [[const(1)]], X)


def _preset_42() -> ProblemSpec:
    drift = [
        [
            CoefficientSpec(add(mul(coth(X), cosh(X)), sinh(X)), exp_rate=1),
            CoefficientSpec(mul(const(-1), coth(X))),
        ]
    ]
    diffusion = [[CoefficientSpec(cosh(X), exp_rate=1)]]
    return build_forward(1, drift, diffusion, sinh(X))


def _preset_43() -> ProblemSpec:
    drift = [mul(const(-1), add(X, const(1)))]
    diffusion = [[CoefficientSpec(pow_(X, 2), exp_rate=1)]]
    return build_backward(1, drift, diffusion, add(X, const(1)))


def _preset_44() -> ProblemSpec:
    drift = [X, mul(const(5), Y)]
    diffusion = [[pow_(X, 2), const(1)], [const(1), pow_(Y, 2)]]
    return build_forward(2, drift, diffusion, X)


def _preset_45() -> ProblemSpec:
    drift = [
        [
            CoefficientSpec(mul(const(4), pow_(X, -1)), u_degree=1),
            CoefficientSpec(mul(const(Fraction(-1, 3)), X)),
        ]
    ]
    diffusion = [[CoefficientSpec(const(1), u_degree=1)]]
    return build_forward(1, drift, diffusion, pow_(X, 2))


# id -> builder. A preset solves to f(x, y) * E_alpha(t^alpha), its
# operator acting as the identity on multiples of f, except 4.1, which
# solves to f + t^alpha/gamma(alpha+1) (reference_solution).
_PRESETS = {"4.1": _preset_41, "4.2": _preset_42, "4.3": _preset_43, "4.4": _preset_44,
            "4.5": _preset_45}

PRESET_IDS = tuple(sorted(_PRESETS))


def preset(preset_id: str) -> ProblemSpec:
    if preset_id not in _PRESETS:
        raise PresetError(f"unknown preset {preset_id!r}; known: {', '.join(PRESET_IDS)}")
    return _PRESETS[preset_id]()


@lru_cache(maxsize=None)
def _initial(preset_id: str) -> SpatialExpr:
    return preset(preset_id).initial


def reference_solution(
    preset_id: str, x: float, t: float, alpha: float, y: float = 0.0
) -> float:
    """Exact solution value at (x, y, t) for a preset problem."""
    f = evaluate(_initial(preset_id), x, y)
    if preset_id == "4.1":
        value = f + t**alpha / gamma(alpha + 1.0)
    else:
        value = f * mittag_leffler(MLParams(alpha), t**alpha)
    if not math.isfinite(value):
        raise DomainError(f"the reference solution overflows a float at x={x}, y={y}, t={t}")
    return value


# -- problem definition files -----------------------------------------


def _source_from_obj(obj) -> FracSeries:
    if not obj:
        return FracSeries.zero()
    terms = []
    for item in obj:
        if not isinstance(item, dict):
            raise TypeError(f"a source term must be an object, got {item!r}")
        _refuse_unknown(item, ("expr", "coef", "p", "q", "c"), "source term")
        coef = Coefficient.number(float(parse_rational(item.get("coef", 1.0))))
        monos = monomials(parse_prefix(item["expr"]))
        p, q, c = (item.get(key, 0) for key in ("p", "q", "c"))
        time = TimeFactor(parse_rational(p), parse_integer(q), parse_integer(c))
        terms.append(FracTerm(coef, monos, time))
    return FracSeries(_collect(terms))


def problem_from_obj(obj: dict) -> ProblemSpec:
    """Build a problem from its JSON object form."""
    try:
        form = obj["form"]
        _refuse_unknown(obj, ("form", "dim", "A", "B", "f", "g"), "problem definition")
        dim = parse_integer(obj["dim"])
        drift = [_as_specs(entry) for entry in obj["A"]]
        diffusion = [[_as_specs(entry) for entry in row] for row in obj["B"]]
        initial = parse_prefix(obj["f"])
        source = _source_from_obj(obj.get("g"))
        if form == "forward":
            return build_forward(dim, drift, diffusion, initial, source)
        if form == "backward":
            return build_backward(dim, drift, diffusion, initial, source)
        raise ConfigError(f"form must be 'forward' or 'backward', got {form!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed problem definition: {exc}") from exc
    except HatmError as exc:
        raise ConfigError(f"invalid problem definition: {exc}") from exc


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
    if source is not None and not source.is_zero:
        if any(m.num or m.den for t in source.terms for m in t.coef.monomials):
            raise ConfigError("a problem file cannot hold a source coefficient in alpha")
        obj["g"] = [
            {
                "expr": to_prefix(t.spatial),
                "coef": t.coef.value(1.0),
                "p": str(t.time.p),
                "q": t.time.q,
                "c": t.time.c,
            }
            for t in source.terms
        ]
    return obj
