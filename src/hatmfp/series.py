"""Separable time-fractional series.

A series is a finite sum of terms

    coef(alpha) * f(x, y) * t**(p + q*alpha) * exp(c*t)

with f a sum of spatial monomials, held as its canonical table
(``expr.monomials``), p a nonnegative rational, q and c integers.
Coefficients stay symbolic in alpha: each one is a sum of monomials
(float factor times a ratio of gamma values whose arguments live on the
p-q grid, i.e. of the form a + b*alpha). The Caputo derivative and the
fractional integral then act as exact exponent shifts that append
cancelling gamma tokens, so a derivative/integral round trip restores a
term bit for bit. Nothing in this module binds a numeric alpha except
evaluate() and Coefficient.value(), where the gamma ratios are resolved
in log space. A caller may bind a coefficient itself, as
Coefficient.number(coef.value(alpha)): a monomial without tokens, which
then holds at that alpha only (engine.deformation_step does this).

A term is (Coefficient, table, TimeFactor); after a collect its table
is monic, its largest monomial exactly 1 (``expr.monic``), and the
scale lives in the coefficient. Tables are exact canonical forms, so
every merge is a hash lookup, in three passes:

1. group by (time, monic table) and sum the coefficients;
2. group by (time, gamma-token signature, factors divided by the
   largest factor) and sum the monic tables, weighted by those
   largest factors (``expr.monic_sum``);
3. repeat pass 1 on the result.

Keying on both axes keeps iterates compact whether their terms share
spatial shapes or coefficients. Products, spatial derivatives and
evaluation work on the tables too (``expr.table_product``,
``expr.table_derivative``, ``expr.table_value``). The algebra builds
no tree but the opaque atom of a product past ``expr.EXPAND_CAP``;
``FracTerm.spatial`` builds one from the table through
``expr.canonical``, for output only.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigError, DomainError, ExponentError, Value, store
from .expr import (
    SpatialExpr,
    canonical,
    keyed_sum,
    monic,
    monic_sum,
    monomials,
    parse_integer,
    parse_prefix,
    parse_rational,
    table_derivative,
    table_product,
    table_value,
    to_prefix,
)


def _as_fraction(value) -> Fraction:
    if isinstance(value, (Fraction, int, str)):
        return Fraction(value)
    raise ExponentError(f"exponent part must be rational, got {value!r}")


class GammaArg(Value):
    """Argument of a gamma token: the value a + b*alpha, ordered by (a, b)."""

    _fields = ("a", "b")

    def __init__(self, a: Fraction, b: int) -> None:
        # Coefficient keys hash and compare many of these; Fraction's hash
        # and equality are slow, so both go through integers.
        ints = (a.numerator, a.denominator, b)
        store(self, "a", a)
        store(self, "b", b)
        store(self, "_ints", ints)
        store(self, "_hash", hash(ints))

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._ints == other._ints

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "GammaArg") -> bool:
        # (a, b) order on the integers; denominators are positive
        (n, d, b), (on, od, ob) = self._ints, other._ints
        return (n * od, b) < (on * d, ob)

    def value(self, alpha: float) -> float:
        return float(self.a) + self.b * alpha


def _cancel(num: Sequence[GammaArg], den: Sequence[GammaArg]):
    """Remove tokens shared by numerator and denominator (multiset)."""
    remaining = list(den)
    kept_num = []
    for arg in num:
        if arg in remaining:
            remaining.remove(arg)
        else:
            kept_num.append(arg)
    return kept_num, remaining


class Monomial(Value):
    """factor * prod gamma(num) / prod gamma(den)."""

    _fields = ("factor", "num", "den")

    def __init__(
        self, factor: float, num: tuple[GammaArg, ...], den: tuple[GammaArg, ...]
    ) -> None:
        store(self, "factor", factor)
        store(self, "num", num)
        store(self, "den", den)

    def signature(self):
        return (self.num, self.den)

    def value(self, alpha: float) -> float:
        log_ratio = 0.0
        for arg in self.num:
            log_ratio += math.lgamma(arg.value(alpha))
        for arg in self.den:
            log_ratio -= math.lgamma(arg.value(alpha))
        return self.factor * math.exp(log_ratio)


def _monomial(factor: float, num: Iterable[GammaArg], den: Iterable[GammaArg]) -> Monomial:
    num, den = _cancel(tuple(num), tuple(den))
    # Tokens without an alpha part are plain numbers; fold away those whose
    # gamma fits in a float. Monomial.value resolves the rest in log space.
    kept: tuple[list, list] = ([], [])
    for side, args in enumerate((num, den)):
        for arg in args:
            try:
                folded = math.gamma(float(arg.a)) if arg.b == 0 else None
            except OverflowError:
                folded = None
            if folded is None:
                kept[side].append(arg)
            else:
                factor = factor / folded if side else factor * folded
    return Monomial(factor, tuple(sorted(kept[0])), tuple(sorted(kept[1])))


class Coefficient(Value):
    """Sum of gamma-ratio monomials, symbolic in alpha."""

    _fields = ("monomials",)

    def __init__(self, monomials: tuple[Monomial, ...]) -> None:
        store(self, "monomials", monomials)

    @staticmethod
    def number(factor: float) -> "Coefficient":
        return _normalize_monomials([Monomial(float(factor), (), ())])

    def plus(self, other: "Coefficient") -> "Coefficient":
        return _normalize_monomials(list(self.monomials) + list(other.monomials))

    def times(self, other: "Coefficient") -> "Coefficient":
        products = [
            _monomial(a.factor * b.factor, a.num + b.num, a.den + b.den)
            for a in self.monomials
            for b in other.monomials
        ]
        return _normalize_monomials(products)

    def scaled(self, k: float) -> "Coefficient":
        if k == 0.0:
            return COEF_ZERO
        if k == 1.0:
            return self
        scaled = tuple(Monomial(m.factor * k, m.num, m.den) for m in self.monomials)
        if not all(math.isfinite(m.factor) for m in scaled):
            raise DomainError(f"a coefficient factor times {k!r} overflows a float")
        return Coefficient(scaled)

    def gamma_ratio(self, num_arg: GammaArg, den_arg: GammaArg) -> "Coefficient":
        """Multiply by gamma(num_arg) / gamma(den_arg)."""
        return _normalize_monomials(
            [
                _monomial(m.factor, m.num + (num_arg,), m.den + (den_arg,))
                for m in self.monomials
            ]
        )

    def value(self, alpha: float) -> float:
        return sum(m.value(alpha) for m in self.monomials)

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def signature(self):
        return tuple(m.signature() for m in self.monomials)

    def parallel_ratio(self, other: "Coefficient") -> float | None:
        """Ratio r with other ~= r * self, or None.

        Requires identical token structure; factors must then agree up
        to one common scale.
        """
        if self.signature() != other.signature():
            return None
        pivot = max(range(len(self.monomials)), key=lambda i: abs(self.monomials[i].factor))
        base = self.monomials[pivot].factor
        if base == 0.0:
            return None
        ratio = other.monomials[pivot].factor / base
        for mine, theirs in zip(self.monomials, other.monomials):
            want = ratio * mine.factor
            if abs(theirs.factor - want) > 1e-12 * max(abs(theirs.factor), abs(want)) + 1e-300:
                return None
        return ratio


def _normalize_monomials(monomials: Iterable[Monomial]) -> Coefficient:
    """Merge same-token monomials (expr.keyed_sum), sorted by tokens."""
    sums = keyed_sum((m.signature(), m.factor) for m in monomials)
    return Coefficient(tuple(Monomial(f, *key) for key, f in sorted(sums.items())))


COEF_ZERO = Coefficient(())


class TimeFactor(Value):
    """Time dependence t**(p + q*alpha) * exp(c*t)."""

    _fields = ("p", "q", "c")

    def __init__(self, p: Fraction, q: int, c: int) -> None:
        p = _as_fraction(p)
        if p < 0:
            raise ExponentError(f"negative fixed exponent p={p}")
        # Keep p + q*alpha >= 0 for every alpha in (0, 1].
        if q < 0 and p < -q:
            raise ExponentError(f"exponent {p} + {q}*alpha can go negative on (0, 1]")
        # _collect keys every term on its time: hashed and compared as integers.
        ints = (p.numerator, p.denominator, q, c)
        store(self, "p", p)
        store(self, "q", q)
        store(self, "c", c)
        store(self, "_ints", ints)
        store(self, "_hash", hash(ints))

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._ints == other._ints

    def __hash__(self) -> int:
        return self._hash

    def exponent(self, alpha: float) -> float:
        return float(self.p) + self.q * alpha

    def plus(self, other: "TimeFactor") -> "TimeFactor":
        return TimeFactor(self.p + other.p, self.q + other.q, self.c + other.c)

    @property
    def sort_key(self):
        return (self.q, self.p, self.c)


TIME_ONE = TimeFactor(Fraction(0), 0, 0)


class FracTerm(Value):
    """coef * (the monomial sum monos) * time, monos a sorted table of
    ``expr.monomials``: pass ``monomials(tree)`` for a tree."""

    _fields = ("coef", "monos", "time")

    def __init__(self, coef: Coefficient, monos: tuple, time: TimeFactor) -> None:
        store(self, "coef", coef)
        store(self, "monos", monos)
        store(self, "time", time)

    @property
    def spatial(self) -> SpatialExpr:
        """The interned tree of the table, for output."""
        return canonical(self.monos)


def _by_table(entries: Iterable[tuple]) -> list[tuple]:
    """(time, table, coefficient) entries with equal (time, table)
    merged: their coefficients summed."""
    groups: dict = {}
    for time, monos, coef in entries:
        groups.setdefault((time, monos), []).append(coef)
    out = []
    for (time, monos), cs in groups.items():
        coef = cs[0] if len(cs) == 1 else _normalize_monomials(m for c in cs for m in c.monomials)
        out.append((time, monos, coef))
    return out


def _collect(terms: Iterable[FracTerm]) -> tuple[FracTerm, ...]:
    """Merge terms on exact keys in the three passes of the module
    docstring; terms come out ordered by time, then spatial table."""
    monic_terms = []
    for t in terms:
        scale, monos = monic(t.monos)
        if scale != 0.0 and not t.coef.is_zero:
            monic_terms.append((t.time, monos, t.coef.scaled(scale)))
    parallel: dict = {}
    for time, monos, coef in _by_table(monic_terms):
        if coef.is_zero:
            continue
        # coef is the factors of key scaled by pivot, the largest in magnitude
        pivot = max((m.factor for m in coef.monomials), key=abs)
        key = (coef.signature(), tuple(m.factor / pivot for m in coef.monomials))
        parallel.setdefault((time, key), []).append((pivot, monos, coef))
    combined = []
    for (time, (signature, factors)), members in parallel.items():
        if len(members) == 1:
            _, monos, coef = members[0]
        else:
            scale, monos = monic_sum([(pivot, monos) for pivot, monos, _ in members])
            if scale == 0.0:
                continue
            unit = Coefficient(
                tuple(Monomial(f, num, den) for f, (num, den) in zip(factors, signature))
            )
            coef = unit.scaled(scale)
        combined.append((time, monos, coef))

    out = [
        (time.sort_key, monos, FracTerm(coef, monos, time))
        for time, monos, coef in _by_table(combined)
        if not coef.is_zero
    ]
    out.sort(key=lambda item: item[:2])
    return tuple(item[2] for item in out)


class FracSeries(Value):
    """Finite sum of FracTerms; all operations return new series."""

    _fields = ("terms",)

    def __init__(self, terms: tuple[FracTerm, ...]) -> None:
        store(self, "terms", terms)

    @staticmethod
    def zero() -> "FracSeries":
        return FracSeries(())

    @staticmethod
    def from_spatial(
        expr: SpatialExpr, factor: float = 1.0, p=0, q: int = 0, c: int = 0
    ) -> "FracSeries":
        time = TimeFactor(_as_fraction(p), q, c)
        return FracSeries(_collect([FracTerm(Coefficient.number(factor), monomials(expr), time)]))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def has_exponential(self) -> bool:
        return any(t.time.c != 0 for t in self.terms)

    def collected(self) -> "FracSeries":
        return FracSeries(_collect(self.terms))

    def add(self, other: "FracSeries") -> "FracSeries":
        return FracSeries(_collect(self.terms + other.terms))

    __add__ = add

    def scale(self, k: float) -> "FracSeries":
        if k == 0.0:
            return FracSeries.zero()
        if k == 1.0:
            return self
        return FracSeries(
            tuple(FracTerm(t.coef.scaled(k), t.monos, t.time) for t in self.terms)
        )

    def multiply(self, other: "FracSeries") -> "FracSeries":
        products = [
            FracTerm(
                a.coef.times(b.coef),
                table_product([a.monos, b.monos]),
                a.time.plus(b.time),
            )
            for a in self.terms
            for b in other.terms
        ]
        return FracSeries(_collect(products))

    __mul__ = multiply

    def spatial_derivative(self, name: str) -> "FracSeries":
        """Derivative in x or y, built once per series and kept on it."""
        key = "_d" + name
        got = self.__dict__.get(key)
        if got is None:
            got = FracSeries(_collect(
                FracTerm(t.coef, table_derivative(t.monos, name), t.time) for t in self.terms
            ))
            object.__setattr__(self, key, got)
        return got

    def _alpha_shift(self, step: int, what: str) -> "FracSeries":
        """Move every term from t**(p + q*alpha) to t**(p + (q+step)*alpha),
        multiplying its coefficient by gamma(1 + p + q*alpha) /
        gamma(1 + p + (q+step)*alpha)."""
        out = []
        for term in self.terms:
            tf = term.time
            if tf.c != 0:
                raise ExponentError(f"{what} needs pure powers; taylor_expand exp(c*t) first")
            shifted = TimeFactor(tf.p, tf.q + step, 0)  # raises if it can go negative
            coef = term.coef.gamma_ratio(
                GammaArg(1 + tf.p, tf.q), GammaArg(1 + tf.p, tf.q + step)
            )
            out.append(FracTerm(coef, term.monos, shifted))
        return FracSeries(_collect(out))

    def caputo_derivative(self) -> "FracSeries":
        """Caputo derivative of order alpha, applied termwise.

        Constants in time are annihilated; every other t**(p + q*alpha)
        picks up gamma(1 + p + q*alpha) / gamma(1 + p + (q-1)*alpha) and
        drops one alpha from the exponent.
        """
        varying = FracSeries(tuple(t for t in self.terms if t.time != TIME_ONE))
        return varying._alpha_shift(-1, "caputo_derivative")

    def frac_integral(self) -> "FracSeries":
        """Riemann-Liouville integral of order alpha; exact inverse of
        caputo_derivative on its image (the gamma tokens cancel)."""
        return self._alpha_shift(1, "frac_integral")

    def taylor_expand(self, n_terms: int) -> "FracSeries":
        """Replace each exp(c*t) factor by its first n_terms powers of t."""
        if n_terms < 1:
            raise ConfigError(f"taylor_expand needs n_terms >= 1, got {n_terms}")
        out = []
        for term in self.terms:
            tf = term.time
            if tf.c == 0:
                out.append(term)
                continue
            for j in range(n_terms):
                weight = tf.c**j / math.factorial(j)
                time = TimeFactor(tf.p + j, tf.q, 0)
                out.append(FracTerm(term.coef.scaled(weight), term.monos, time))
        return FracSeries(_collect(out))

    def evaluate(self, x: float, t: float, alpha: float, y: float = 0.0) -> float:
        """Bind alpha and evaluate at (x, y, t); 0**0 counts as 1."""
        _check_alpha(alpha)
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
                if term.time.c != 0:
                    value *= math.exp(term.time.c * t)
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
        return FracSeries(tuple(_term_from_obj(item) for item in obj))

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @staticmethod
    def from_json(text: str) -> "FracSeries":
        return FracSeries.from_obj(json.loads(text))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")


def _gamma_arg_obj(arg: GammaArg) -> list:
    return [str(arg.a), arg.b]


def _term_obj(term: FracTerm) -> dict:
    return {
        "coef_tokens": [
            {
                "factor": m.factor,
                "num": [_gamma_arg_obj(a) for a in m.num],
                "den": [_gamma_arg_obj(a) for a in m.den],
            }
            for m in term.coef.monomials
        ],
        "spatial": to_prefix(term.spatial),
        "p": str(term.time.p),
        "q": term.time.q,
        "c": term.time.c,
    }


def _gamma_arg_from_obj(obj) -> GammaArg:
    a, b = parse_rational(obj[0]), parse_integer(obj[1])
    if a < 0 or a + b <= 0:  # lgamma would drop the sign, or hit a pole
        raise DomainError(f"gamma token {obj!r} is not positive for every alpha in (0, 1]")
    return GammaArg(a, b)


def _term_from_obj(obj: dict) -> FracTerm:
    coef = Coefficient(
        tuple(
            Monomial(
                float(m["factor"]),
                tuple(_gamma_arg_from_obj(a) for a in m["num"]),
                tuple(_gamma_arg_from_obj(a) for a in m["den"]),
            )
            for m in obj["coef_tokens"]
        )
    )
    if not all(math.isfinite(m.factor) for m in coef.monomials):
        raise DomainError(f"coefficient factors must be finite, got {obj['coef_tokens']!r}")
    time = TimeFactor(parse_rational(obj["p"]), parse_integer(obj["q"]), parse_integer(obj["c"]))
    return FracTerm(coef, monomials(parse_prefix(obj["spatial"])), time)
