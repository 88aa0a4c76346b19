"""Separable time-fractional series.

A series is a finite sum of terms

    coef(alpha) * f(x, y) * t**(p + q*alpha)

with f a sum of spatial monomials, held as its canonical table
(``expr.monomials``), p a nonnegative rational and q an integer: an
exp(c*t) factor is expanded where it acts (``FracSeries.taylor_expand``),
and a report's "c" is always 0, kept for readers of the format.
Coefficients stay symbolic in alpha: each one is a single gamma
monomial, a float factor times a ratio of gamma values whose arguments
live on the p-q grid, i.e. of the form a + b*alpha. The Caputo
derivative and the fractional integral then act as exact exponent
shifts that append cancelling gamma tokens, so a derivative/integral
round trip restores a term bit for bit. Nothing in this module binds a
numeric alpha except evaluate() and Coefficient.value(), where the
gamma ratios are resolved in log space. A caller may bind a coefficient
itself, as Coefficient.number(coef.value(alpha)): a coefficient without
tokens, which then holds at that alpha only (engine.deformation_step
does this).

A series is collected and a coefficient canonical when it is made:
FracSeries(terms) is the one collect and Coefficient(...) the one
coefficient maker. A term is (Coefficient, table, TimeFactor), its table
in the one form of ``expr``, sorted by signature; in a series the table
is monic, its largest monomial exactly 1 (``expr.monic``), and the scale
lives in the coefficient. A collect merges on one exact key, (time,
tokens): ``expr.keyed_sum`` sums the tables of a key's terms, weighted
by their factors, into one sorted table, which is made monic. The tables
are canonical already, so the sum needs no reduction, and no whole table
is hashed or compared. Terms with different tokens are never added into
one coefficient, so in a series no two terms share (time, tokens), the
terms are sorted by that key, and a time may hold several terms with
different tokens. Products, spatial derivatives and evaluation work on
the tables too (``expr.table_product``, ``expr.table_derivative``,
``expr.table_value``); ``term_products`` forms every product of terms,
the engine's too, and ``FracSeries.add`` every sum of series. The
algebra builds no tree but the opaque atom of a product past
``expr.EXPAND_CAP``; ``FracTerm.spatial`` builds one from the table
through ``expr.canonical``, for output only.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError, DomainError, ExponentError, Value, store
from .expr import (
    UNIT_TABLE,
    SpatialExpr,
    canonical,
    keyed_sum,
    monic,
    monomials,
    parse_integer,
    parse_prefix,
    parse_rational,
    require_finite,
    table_derivative,
    table_product,
    table_value,
    to_prefix,
    within_nesting,
)


def _as_fraction(value) -> Fraction | int:
    if type(value) in (Fraction, int):
        return value  # as it is: the hot loops build points from these
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ExponentError(f"exponent part must be rational, got {value!r}")


class _GridPoint(Value):
    """A point a + b*alpha of the p-q grid, the base of GammaArg and
    TimeFactor: _read stores a, read by _as_fraction, and b, which must be
    an int (ExponentError otherwise, a bool too), both below 2**1000 in
    magnitude so that a + b*alpha fits a float. Fraction's hash and equality
    are slow, so points hash and compare as the integers (n, d, b)."""

    def _read(self, a, b) -> tuple[int, int, int]:
        a = _as_fraction(a)
        if type(b) is not int:
            raise ExponentError(f"alpha part must be an integer, got {b!r}")
        ints = (a.numerator, a.denominator, b)
        if abs(ints[0]) >> 1000 >= ints[1] or abs(b) >> 1000:
            raise ExponentError("a part of an exponent must be below 2**1000 in magnitude")
        first, second = self._fields
        store(self, first, a)
        store(self, second, b)
        store(self, "_ints", ints)
        store(self, "_hash", hash(ints))
        return ints

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._ints == other._ints

    def __hash__(self) -> int:
        return self._hash


class GammaArg(_GridPoint):
    """Argument of a gamma token: the value a + b*alpha, ordered by (a, b).
    DomainError unless it is positive for every alpha in (0, 1]."""

    _fields = ("a", "b")

    def __init__(self, a: Fraction, b: int) -> None:
        n, d, b = self._read(a, b)
        # a < 0 or a + b <= 0 on the integers (the denominator is positive):
        # lgamma would drop the sign of gamma there, or hit a pole
        if n < 0 or n + b * d <= 0:
            raise DomainError(
                f"gamma token ({self.a}, {b}) is not positive for every alpha in (0, 1]")

    def __lt__(self, other: "GammaArg") -> bool:
        # (a, b) order on the integers; denominators are positive
        (n, d, b), (on, od, ob) = self._ints, other._ints
        return (n * od, b) < (on * d, ob)

    def value(self, alpha: float) -> float:
        return float(self.a) + self.b * alpha


def _cancel(num: Iterable[GammaArg], den: Iterable[GammaArg]) -> tuple[list, list]:
    """Remove tokens shared by numerator and denominator (multiset)."""
    remaining = list(den)
    kept_num = []
    for arg in num:
        if arg in remaining:
            remaining.remove(arg)
        else:
            kept_num.append(arg)
    return kept_num, remaining


class Coefficient(Value):
    """factor * prod gamma(num) / prod gamma(den): one gamma-ratio
    monomial, symbolic in alpha, canonical as made. Tokens on both sides
    cancel, each token without an alpha part whose gamma fits a float
    folds into the factor (Coefficient.value resolves the rest in log
    space), and the rest are sorted. DomainError if the factor is not
    finite; a zero factor is stored as 0.0 with no tokens, so every zero
    coefficient is equal."""

    _fields = ("factor", "num", "den")

    def __init__(self, factor: float, num: Iterable[GammaArg], den: Iterable[GammaArg]) -> None:
        try:
            factor = float(factor)
        except OverflowError:  # an int or Fraction past the float range
            factor = math.inf
        kept: tuple[list, list] = ([], [])
        for side, args in enumerate(_cancel(num, den)):
            for arg in args:
                try:
                    folded = math.gamma(float(arg.a)) if arg.b == 0 else None
                except OverflowError:
                    folded = None
                if folded is None:
                    kept[side].append(arg)
                else:
                    factor = factor / folded if side else factor * folded
        if not math.isfinite(factor):
            raise DomainError(f"a coefficient factor overflows a float: {factor!r}")
        store(self, "factor", factor or 0.0)
        store(self, "num", tuple(sorted(kept[0])) if factor else ())
        store(self, "den", tuple(sorted(kept[1])) if factor else ())

    @staticmethod
    def number(factor: float) -> "Coefficient":
        return Coefficient(factor, (), ())

    def times(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.factor * other.factor, self.num + other.num, self.den + other.den)

    def scaled(self, k: float) -> "Coefficient":
        return Coefficient(self.factor * k, self.num, self.den)

    def gamma_ratio(self, num_arg: GammaArg, den_arg: GammaArg) -> "Coefficient":
        """Multiply by gamma(num_arg) / gamma(den_arg)."""
        return Coefficient(self.factor, self.num + (num_arg,), self.den + (den_arg,))

    def value(self, alpha: float) -> float:
        """The number at alpha; DomainError if it overflows a float."""
        log_ratio = 0.0
        for arg in self.num:
            log_ratio += math.lgamma(arg.value(alpha))
        for arg in self.den:
            log_ratio -= math.lgamma(arg.value(alpha))
        try:
            value = self.factor * math.exp(log_ratio)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"a coefficient overflows a float at alpha={alpha}")
        return value

    @property
    def is_zero(self) -> bool:
        return self.factor == 0.0

    def signature(self):
        return (self.num, self.den)

    # perfbench/traced.py wraps plus and parallel_ratio and reads monomials by name.
    def plus(self, other: "Coefficient") -> "Coefficient":
        """Sum of two coefficients with the same tokens."""
        if self.signature() != other.signature():
            raise DomainError("coefficients with different gamma tokens do not add into one")
        summed = dict(keyed_sum([(None, self.factor), (None, other.factor)])).get(None, 0.0)
        return Coefficient(summed, self.num, self.den)

    def parallel_ratio(self, other: "Coefficient") -> float | None:
        """other.factor / self.factor for the same tokens, else None."""
        if self.is_zero or self.signature() != other.signature():
            return None
        return other.factor / self.factor

    @property
    def monomials(self) -> tuple:
        return () if self.is_zero else (self,)


class TimeFactor(_GridPoint):
    """Time dependence t**(p + q*alpha)."""

    _fields = ("p", "q")

    def __init__(self, p: Fraction, q: int) -> None:
        n, d, q = self._read(p, q)
        if n < 0:
            raise ExponentError(f"negative fixed exponent p={self.p}")
        # Keep p + q*alpha >= 0 for every alpha in (0, 1].
        if q < 0 and n < -q * d:
            raise ExponentError(f"exponent {self.p} + {q}*alpha can go negative on (0, 1]")

    def exponent(self, alpha: float) -> float:
        return float(self.p) + self.q * alpha

    def plus(self, other: "TimeFactor") -> "TimeFactor":
        return TimeFactor(self.p + other.p, self.q + other.q)

    @property
    def sort_key(self):
        return (self.q, self.p)


TIME_ONE = TimeFactor(0, 0)


class FracTerm(Value):
    """coef * (the monomial sum monos) * time, monos a sorted table of
    ``expr.monomials``: pass ``monomials(tree)`` for a tree."""

    _fields = ("coef", "monos", "time")

    def __init__(self, coef: Coefficient, monos: tuple, time: TimeFactor) -> None:
        if isinstance(monos, SpatialExpr):
            raise TypeError("monos is a table: pass monomials(tree), not a tree")
        store(self, "coef", coef)
        store(self, "monos", monos)
        store(self, "time", time)

    @property
    def spatial(self) -> SpatialExpr:
        """The interned tree of the table, for output."""
        return canonical(self.monos)


def _collect(terms: Iterable[FracTerm]) -> tuple[FracTerm, ...]:
    """Merge terms on their (time, tokens) key, as the module docstring
    says; terms come out sorted by that key."""
    groups: dict = {}
    for t in terms:
        if not t.coef.is_zero:
            groups.setdefault((t.time, t.coef.num, t.coef.den), []).append(t)
    out = []
    for (time, num, den), group in groups.items():
        if len(group) == 1:
            weight, table = group[0].coef.factor, group[0].monos
        else:
            table = keyed_sum((s, t.coef.factor * c) for t in group for s, c in t.monos)
            weight = 1.0
        scale, monos = monic(table)
        coef = Coefficient(weight * scale, num, den)
        if not coef.is_zero:
            out.append(FracTerm(coef, monos, time))
    out.sort(key=lambda t: (t.time.sort_key, t.coef.num, t.coef.den))
    return tuple(out)


def term_products(lead: tuple, *factors: Iterable[FracTerm]) -> Iterator[FracTerm]:
    """For each choice of one term per factor, their product, uncollected:
    the coefficients multiplied left to right, the times added, and the
    table ``table_product([lead, *tables])``, lead first."""
    for chosen in product(*factors):
        yield FracTerm(
            reduce(Coefficient.times, (f.coef for f in chosen)),
            table_product([lead, *(f.monos for f in chosen)]),
            reduce(TimeFactor.plus, (f.time for f in chosen)),
        )


class FracSeries(Value):
    """Finite sum of FracTerms, collected as made: FracSeries(terms) is
    the one collect. All operations return new series."""

    _fields = ("terms",)

    def __init__(self, terms: Iterable[FracTerm]) -> None:
        store(self, "terms", _collect(terms))

    @staticmethod
    def zero() -> "FracSeries":
        return FracSeries(())

    @staticmethod
    def from_spatial(expr: SpatialExpr, factor: float = 1.0, p=0, q: int = 0) -> "FracSeries":
        time = TimeFactor(p, q)
        monos = monomials(within_nesting(expr))
        return FracSeries([FracTerm(Coefficient.number(factor), monos, time)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # A series is collected as made; perfbench/traced.py wraps this by name.
    def collected(self) -> "FracSeries":
        return self

    def add(self, *others: "FracSeries") -> "FracSeries":
        """The terms of this series and of the others, in order, collected."""
        return FracSeries(t for s in (self, *others) for t in s.terms)

    __add__ = add

    def scale(self, k: float) -> "FracSeries":
        return FracSeries(FracTerm(t.coef.scaled(k), t.monos, t.time) for t in self.terms)

    def multiply(self, other: "FracSeries") -> "FracSeries":
        return FracSeries(term_products(UNIT_TABLE, self.terms, other.terms))

    __mul__ = multiply

    def spatial_derivative(self, name: str) -> "FracSeries":
        """Derivative in x or y, built once per series and kept on it."""
        key = "_d" + name
        got = self.__dict__.get(key)
        if got is None:
            got = FracSeries(
                FracTerm(t.coef, table_derivative(t.monos, name), t.time) for t in self.terms
            )
            object.__setattr__(self, key, got)
        return got

    def caputo_derivative(self) -> "FracSeries":
        """Caputo derivative of order alpha, applied termwise.

        Constants in time are annihilated; every other t**(p + q*alpha)
        picks up gamma(1 + p + q*alpha) / gamma(1 + p + (q-1)*alpha) and
        drops one alpha from the exponent.
        """
        return _alpha_shifted((t for t in self.terms if t.time != TIME_ONE), -1)

    def frac_integral(self) -> "FracSeries":
        """Riemann-Liouville integral of order alpha; exact inverse of
        caputo_derivative on its image (the gamma tokens cancel)."""
        return _alpha_shifted(self.terms, 1)

    def taylor_expand(self, rate: int, n_terms: int) -> "FracSeries":
        """This series times exp(rate*t) cut to its first n_terms powers of
        t, sum_{j < n_terms} (rate*t)**j / j!."""
        if n_terms < 1:
            raise ConfigError(f"taylor_expand needs n_terms >= 1, got {n_terms}")
        try:
            weights = [rate**j / math.factorial(j) for j in range(n_terms)]
        except OverflowError:  # an int quotient too large for a float
            raise DomainError(
                f"a Taylor weight {rate}**j/j! of exp({rate}*t) overflows a float") from None
        return FracSeries(
            FracTerm(term.coef.scaled(w), term.monos, TimeFactor(term.time.p + j, term.time.q))
            for term in self.terms
            for j, w in enumerate(weights)
        )

    def evaluate(self, x: float, t: float, alpha: float, y: float = 0.0) -> float:
        """Bind alpha and evaluate at (x, y, t); 0**0 counts as 1."""
        _check_alpha(alpha)
        require_finite(x=x, y=y, t=t)
        if t < 0.0:
            raise DomainError(f"series are defined for t >= 0, got t={t}")
        total = 0.0
        atoms: dict = {}
        for term in self.terms:
            exponent = term.time.exponent(alpha)
            if exponent < 0.0:
                raise ExponentError(f"negative time exponent {exponent} at alpha={alpha}")
            try:
                if t == 0.0:
                    tpow = 1.0 if exponent == 0.0 else 0.0
                else:
                    tpow = t**exponent
                if tpow == 0.0:
                    continue
                value = term.coef.value(alpha) * table_value(term.monos, x, y, atoms) * tpow
            except OverflowError:
                total = math.inf
                break
            total += value
        if not math.isfinite(total):  # a float product or sum overflows without raising
            raise DomainError(f"series value overflows a float at x={x}, y={y}, t={t}")
        return total

    # -- serialization -------------------------------------------------

    def to_obj(self) -> list:
        return [_term_obj(t) for t in self.terms]

    @staticmethod
    def from_obj(obj: Sequence) -> "FracSeries":
        return FracSeries(t for item in obj for t in _terms_from_obj(item))

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @staticmethod
    def from_json(text: str) -> "FracSeries":
        return FracSeries.from_obj(json.loads(text))


def _alpha_shifted(terms: Iterable[FracTerm], step: int) -> FracSeries:
    """The terms moved from t**(p + q*alpha) to t**(p + (q+step)*alpha),
    each coefficient multiplied by gamma(1 + p + q*alpha) /
    gamma(1 + p + (q+step)*alpha)."""
    out = []
    for term in terms:
        tf = term.time
        shifted = TimeFactor(tf.p, tf.q + step)  # raises if it can go negative
        coef = term.coef.gamma_ratio(GammaArg(1 + tf.p, tf.q), GammaArg(1 + tf.p, tf.q + step))
        out.append(FracTerm(coef, term.monos, shifted))
    return FracSeries(out)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")


def _gamma_arg_obj(arg: GammaArg) -> list:
    return [str(arg.a), arg.b]


def _term_obj(term: FracTerm) -> dict:
    coef = term.coef
    return {
        "coef_tokens": [
            {
                "factor": coef.factor,
                "num": [_gamma_arg_obj(a) for a in coef.num],
                "den": [_gamma_arg_obj(a) for a in coef.den],
            }
        ],
        "spatial": to_prefix(term.spatial),
        "p": str(term.time.p),
        "q": term.time.q,
        "c": 0,
    }


def _gamma_arg_from_obj(obj) -> GammaArg:
    return GammaArg(parse_rational(obj[0]), parse_integer(obj[1]))


def _terms_from_obj(obj: dict) -> list[FracTerm]:
    """One term per monomial of coef_tokens, at the term's time and table (a
    report may list several)."""
    tokens = obj.get("coef_tokens") if isinstance(obj, dict) else None
    if not isinstance(tokens, list) or not all(
        isinstance(m, dict) and "factor" in m
        and isinstance(m.get("num"), list) and isinstance(m.get("den"), list)
        for m in tokens
    ):
        raise DomainError(f"coef_tokens is not a list of factor, num, den objects: {tokens!r}")
    coefs = [
        Coefficient(
            parse_rational(m["factor"]),
            [_gamma_arg_from_obj(a) for a in m["num"]],
            [_gamma_arg_from_obj(a) for a in m["den"]],
        )
        for m in tokens
    ]
    if parse_integer(obj["c"]) != 0:
        raise DomainError(f"a series term is a pure power of t, so its c must be 0: {obj['c']!r}")
    time = TimeFactor(parse_rational(obj["p"]), parse_integer(obj["q"]))
    monos = monomials(parse_prefix(obj["spatial"]))
    return [FracTerm(coef, monos, time) for coef in coefs]
