"""Output checks that do not trust hatmfp.

A small evaluator of its own reads the report JSON (prefix `spatial` trees
and `coef_tokens`) with nothing but the math module, so a defect in
hatmfp's evaluation cannot hide a defect in its series.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

_FUNCS = {
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "coth": lambda v: math.cosh(v) / math.sinh(v),
    "csch": lambda v: 1.0 / math.sinh(v),
    "recip": lambda v: 1.0 / v,
}


def _parse(tokens: list[str], pos: int):
    """(tree, next position); a tree is a float, 'x', 'y' or (op, args)."""
    token = tokens[pos]
    if token != "(":
        return (token if token in ("x", "y") else float(Fraction(token))), pos + 1
    op = tokens[pos + 1]
    pos += 2
    if op == "pow":
        base, pos = _parse(tokens, pos)
        exponent = float(Fraction(tokens[pos]))
        if tokens[pos + 1] != ")":
            raise ValueError("pow takes two arguments")
        return ("pow", base, exponent), pos + 2
    args = []
    while tokens[pos] != ")":
        arg, pos = _parse(tokens, pos)
        args.append(arg)
    if op not in ("add", "mul") and (op not in _FUNCS or len(args) != 1):
        raise ValueError(f"bad operator {op!r}")
    return (op, *args), pos + 1


def parse_spatial(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    tree, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return tree


def eval_spatial(tree, x: float, y: float = 0.0) -> float:
    if isinstance(tree, float):
        return tree
    if tree == "x":
        return x
    if tree == "y":
        return y
    op = tree[0]
    if op == "add":
        return sum(eval_spatial(a, x, y) for a in tree[1:])
    if op == "mul":
        out = 1.0
        for a in tree[1:]:
            out *= eval_spatial(a, x, y)
        return out
    if op == "pow":
        return eval_spatial(tree[1], x, y) ** tree[2]
    return _FUNCS[op](eval_spatial(tree[1], x, y))


def _gamma_arg(arg, alpha: float) -> float:
    return float(Fraction(str(arg[0]))) + int(arg[1]) * alpha


def coef_value(tokens: list, alpha: float) -> float:
    total = 0.0
    for mono in tokens:
        log_ratio = sum(math.lgamma(_gamma_arg(a, alpha)) for a in mono["num"])
        log_ratio -= sum(math.lgamma(_gamma_arg(a, alpha)) for a in mono["den"])
        total += float(mono["factor"]) * math.exp(log_ratio)
    return total


class Series:
    """A report series bound to alpha: coefficient values are computed once."""

    def __init__(self, obj: list, alpha: float) -> None:
        self.terms = [
            (
                coef_value(term["coef_tokens"], alpha),
                parse_spatial(term["spatial"]),
                float(Fraction(str(term["p"]))) + int(term["q"]) * alpha,
                int(term["c"]),
            )
            for term in obj
        ]

    def value(self, x: float, t: float) -> tuple[float, float]:
        """(sum, sum of absolute term values) at (x, t), t > 0."""
        total = scale = 0.0
        for coef, tree, exponent, c in self.terms:
            term = coef * eval_spatial(tree, x) * t**exponent * math.exp(c * t)
            total += term
            scale += abs(term)
        return total, scale


def close(got: float, want: float, scale: float, rel: float) -> bool:
    """|got - want| within rel of the larger of |want| and the term scale."""
    return math.isfinite(got) and abs(got - want) <= rel * max(abs(want), scale)


def check_solve(text: str, alpha: float, order: int, pinned: list) -> tuple[Series, list[str]]:
    """Check a solve report; return its partial sum and the problems found.

    The partial sum must equal the sum of the iterates and, at each pinned
    (x, t, value), the value recorded from the seed commit.
    """
    report = json.loads(text)
    errors = []
    cfg = report["config"]
    if cfg["alpha"] != alpha or cfg["order"] != order or len(report["iterates"]) != order + 1:
        errors.append(f"report config {cfg} does not match order {order}")
    total = Series(report["partial_sum"], alpha)
    iterates = [Series(s, alpha) for s in report["iterates"]]
    for x, t, want in pinned:
        got, scale = total.value(x, t)
        parts = [s.value(x, t) for s in iterates]
        summed = sum(v for v, _ in parts)
        if not close(got, summed, sum(s for _, s in parts), 1e-12):
            errors.append(f"partial sum {got!r} != sum of iterates {summed!r} at x={x} t={t}")
        if not close(got, want, scale, 1e-9):
            errors.append(f"partial sum {got!r} != pinned {want!r} at x={x} t={t}")
    return total, errors


def check_eval(text: str, reference: Series, count: int) -> list[str]:
    """Every eval row must match the reference partial sum to 1e-12 relative."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != count:
        return [f"eval gave {len(rows)} rows, expected {count}"]
    errors = []
    for row in rows:
        x, t = float(row["x"]), float(row["t"])
        want, scale = reference.value(x, t)
        if row["status"] != "ok" or not close(float(row["u"]), want, scale, 1e-12):
            errors.append(f"eval row {row} != reference {want!r}")
    return errors


def closed_form_45(x: float, t: float) -> float:
    """Preset 4.5 at alpha = 1/2: x^2 E_{1/2}(sqrt t) = x^2 e^t erfc(-sqrt t)."""
    return x * x * math.exp(t) * math.erfc(-math.sqrt(t))


def check_hcurve(
    text: str, reference: Series, probe: tuple[float, float], h_count: int, full_order: bool
) -> tuple[float | None, list[str]]:
    """Check the sweep; return the hbar = -1 error against the closed form.

    The hbar = -1 row must match the reference partial sum (an hbar = -1
    solve) to 1e-12 and, at full order, the closed form to 1e-4.
    """
    rows = json.loads(text)["rows"]
    hbars = [row["hbar"] for row in rows]
    if len(rows) != h_count or not all(math.isfinite(row["value"]) for row in rows):
        return None, [f"hcurve gave {len(rows)} rows or non-finite values"]
    at_minus_one = [row["value"] for row in rows if abs(row["hbar"] + 1.0) < 1e-12]
    if len(at_minus_one) != 1:
        return None, [f"no single hbar = -1 row in {hbars}"]
    x, t = probe
    got = at_minus_one[0]
    want, scale = reference.value(x, t)
    errors = []
    if not close(got, want, scale, 1e-12):
        errors.append(f"hbar=-1 value {got!r} != reference {want!r}")
    exact = closed_form_45(x, t)
    rel_err = abs(got - exact) / abs(exact)
    if full_order and not rel_err <= 1e-4:
        errors.append(f"hbar=-1 value {got!r} is {rel_err:.3g} from the closed form {exact!r}")
    return rel_err, errors
