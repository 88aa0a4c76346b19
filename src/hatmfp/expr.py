"""Immutable symbolic expressions over the spatial variables x and y.

Drift and diffusion coefficients live here: hyperbolic functions,
rational powers and polynomial combinations. Trees have two function
kinds, sinh and cosh, the atoms of the monomial tables: tanh, coth,
csch and 1/u are built from them and powers at construction. Trees
never rewrite themselves; the only construction-time simplifications
are constant folding and absorbing 0/1 in sums, products and powers.

Equality is exact. ``monomials`` expands a tree into a canonical table
of float coefficients over products of atoms (variables, sinh and cosh
of a canonical argument, opaque powers), and ``monic`` scales a table
so its largest monomial is 1. ``monic_sum``, ``table_product``,
``table_derivative`` and ``table_value`` add, multiply, differentiate
and evaluate tables without building trees: the series algebra works
on tables alone. Only a product can blow a table up, so only a product
checks ``EXPAND_CAP``. ``canonical`` is the one builder of the tree of
a table, for output (``normalize`` gives the tree of ``monomials``).
Two trees with the same canonical table get the same node, so identity
of canonical nodes is equality of their monomial sums: no merge decision
rests on sampled values.

Nodes are hash-consed: the module-level constructors return one shared
object per distinct tree, and hash, node count, variable set and
monomial table are cached on the node. Every traversal here costs one
visit per distinct subtree rather than one per path. Build through the
constructors; instantiating the node classes directly still gives
correct (structural) equality but skips the sharing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Union

from .errors import DomainError, SingularityError, Value, store

Number = Union[int, float, Fraction]

# Magnitudes below this count as a zero divisor.
SINGULAR_FLOOR = 1e-300

# Tolerances of proportional_ratio.
REL_TOL = 1e-10
ABS_TOL = 1e-12


class SpatialExpr(Value):
    """Base node. Build through the module-level constructors."""

    def __add__(self, other: "SpatialExpr | Number") -> "SpatialExpr":
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "SpatialExpr | Number") -> "SpatialExpr":
        return add(self, mul(const(-1), _coerce(other)))

    def __rsub__(self, other: "SpatialExpr | Number") -> "SpatialExpr":
        return add(_coerce(other), mul(const(-1), self))

    def __mul__(self, other: "SpatialExpr | Number") -> "SpatialExpr":
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "SpatialExpr | Number") -> "SpatialExpr":
        return mul(self, recip(_coerce(other)))

    def __rtruediv__(self, other: "SpatialExpr | Number") -> "SpatialExpr":
        return mul(_coerce(other), recip(self))

    def __pow__(self, exponent: Number) -> "SpatialExpr":
        return pow_(self, exponent)

    def __neg__(self) -> "SpatialExpr":
        return mul(const(-1), self)

    def __lt__(self, other: "SpatialExpr") -> bool:
        # A total order by prefix form, so monomial tables sort canonically.
        return to_prefix(self) < to_prefix(other)


class Const(SpatialExpr):
    _fields = ("value",)

    def __init__(self, value: float) -> None:
        store(self, "value", value)


class Var(SpatialExpr):
    _fields = ("name",)  # "x" or "y"

    def __init__(self, name: str) -> None:
        store(self, "name", name)


class Add(SpatialExpr):
    _fields = ("children",)

    def __init__(self, children: tuple[SpatialExpr, ...]) -> None:
        store(self, "children", children)


class Mul(SpatialExpr):
    _fields = ("children",)

    def __init__(self, children: tuple[SpatialExpr, ...]) -> None:
        store(self, "children", children)


class Pow(SpatialExpr):
    _fields = ("base", "exponent")

    def __init__(self, base: SpatialExpr, exponent: Fraction) -> None:
        store(self, "base", base)
        store(self, "exponent", exponent)


class Func(SpatialExpr):
    _fields = ("kind", "arg")  # kind: sinh | cosh

    def __init__(self, kind: str, arg: SpatialExpr) -> None:
        store(self, "kind", kind)
        store(self, "arg", arg)


def _structural_key(expr: SpatialExpr) -> tuple:
    if isinstance(expr, Const):
        return ("c", expr.value)
    if isinstance(expr, Var):
        return ("v", expr.name)
    if isinstance(expr, Add):
        return ("a", expr.children)
    if isinstance(expr, Mul):
        return ("m", expr.children)
    if isinstance(expr, Pow):
        return ("p", expr.base, expr.exponent)
    if isinstance(expr, Func):
        return ("f", expr.kind, expr.arg)
    raise DomainError(f"unknown node {expr!r}")  # pragma: no cover


def _node_hash(self: SpatialExpr) -> int:
    try:
        return self._hash
    except AttributeError:
        h = hash(_structural_key(self))
        object.__setattr__(self, "_hash", h)
        return h


# Value's hash recomputes over the whole tree on every call; nodes use
# the cached one (keys of child nodes are already cached, so a fresh
# node hashes in one shallow step).
SpatialExpr.__hash__ = _node_hash  # type: ignore[assignment]


_INTERN: dict[tuple, SpatialExpr] = {}


def _shared(key: tuple, ctor: Callable[..., SpatialExpr], *args) -> SpatialExpr:
    node = _INTERN.get(key)
    if node is None:
        node = ctor(*args)
        _INTERN[key] = node
    return node


def _coerce(value: SpatialExpr | Number) -> SpatialExpr:
    if isinstance(value, SpatialExpr):
        return value
    if isinstance(value, (int, float, Fraction)):
        return const(value)
    raise TypeError(f"cannot interpret {value!r} as a spatial expression")


def const(value: Number) -> Const:
    v = float(value)
    if not math.isfinite(v):  # a fold such as 1e200 * 1e200 overflows to inf
        raise DomainError(f"constant {v} is not a finite float")
    return _shared(("c", v), Const, v)  # type: ignore[return-value]


X: Var = _shared(("v", "x"), Var, "x")  # type: ignore[assignment]
Y: Var = _shared(("v", "y"), Var, "y")  # type: ignore[assignment]

ZERO = const(0.0)
ONE = const(1.0)


def var(name: str) -> Var:
    if name not in ("x", "y"):
        raise DomainError(f"unknown spatial variable {name!r}")
    return X if name == "x" else Y


def add(*terms: SpatialExpr | Number) -> SpatialExpr:
    """Sum node: flattens nested sums, folds constants, drops zeros."""
    flat: list[SpatialExpr] = []
    csum = 0.0
    for node in (_coerce(t) for t in terms):
        parts = node.children if isinstance(node, Add) else (node,)
        for part in parts:
            if isinstance(part, Const):
                csum += part.value
            else:
                flat.append(part)
    if csum != 0.0:
        flat.insert(0, const(csum))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    children = tuple(flat)
    return _shared(("a", children), Add, children)


def mul(*factors: SpatialExpr | Number) -> SpatialExpr:
    """Product node: flattens, folds constants, absorbs 0 and 1."""
    flat: list[SpatialExpr] = []
    cprod = 1.0
    for node in (_coerce(f) for f in factors):
        parts = node.children if isinstance(node, Mul) else (node,)
        for part in parts:
            if isinstance(part, Const):
                cprod *= part.value
            else:
                flat.append(part)
    if cprod == 0.0:
        return ZERO
    if cprod != 1.0:
        flat.insert(0, const(cprod))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    children = tuple(flat)
    return _shared(("m", children), Mul, children)


def pow_(base: SpatialExpr | Number, exponent: Number) -> SpatialExpr:
    """Power with an exact rational exponent."""
    base = _coerce(base)
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return const(_pow_value(base.value, exponent))
    return _shared(("p", base, exponent), Pow, base, exponent)


def _pow_value(value: float, exponent: Fraction) -> float:
    if value < 0.0 and exponent.denominator != 1:
        raise DomainError(f"fractional power of negative base {value}")
    if exponent < 0 and abs(value) < SINGULAR_FLOOR:
        raise SingularityError(f"negative power of {value}")
    return value ** float(exponent)


_FUNC_EVAL = {"sinh": math.sinh, "cosh": math.cosh}


def _func(kind: str, arg: SpatialExpr | Number) -> SpatialExpr:
    arg = _coerce(arg)
    if isinstance(arg, Const):
        try:
            return const(_FUNC_EVAL[kind](arg.value))
        except OverflowError:
            raise DomainError(f"{kind}({arg.value!r}) does not fit in a float") from None
    return _shared(("f", kind, arg), Func, kind, arg)


def sinh(arg: SpatialExpr | Number) -> SpatialExpr:
    return _func("sinh", arg)


def cosh(arg: SpatialExpr | Number) -> SpatialExpr:
    return _func("cosh", arg)


# tanh, coth, csch and 1/u are built from the table atoms: sinh, cosh, powers.
def tanh(arg: SpatialExpr | Number) -> SpatialExpr:
    return mul(sinh(arg), pow_(cosh(arg), -1))


def coth(arg: SpatialExpr | Number) -> SpatialExpr:
    return mul(cosh(arg), pow_(sinh(arg), -1))


def csch(arg: SpatialExpr | Number) -> SpatialExpr:
    return pow_(sinh(arg), -1)


def recip(arg: SpatialExpr | Number) -> SpatialExpr:
    return pow_(arg, -1)


@lru_cache(maxsize=None)
def differentiate(expr: SpatialExpr, name: str) -> SpatialExpr:
    """Exact partial derivative with respect to variable `name`."""
    if name not in ("x", "y"):
        raise DomainError(f"unknown spatial variable {name!r}")
    if isinstance(expr, Const):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == name else ZERO
    if isinstance(expr, Add):
        return add(*(differentiate(c, name) for c in expr.children))
    if isinstance(expr, Mul):
        parts = []
        for i, child in enumerate(expr.children):
            rest = expr.children[:i] + expr.children[i + 1 :]
            parts.append(mul(differentiate(child, name), *rest))
        return add(*parts)
    if isinstance(expr, Pow):
        return mul(
            const(float(expr.exponent)),
            pow_(expr.base, expr.exponent - 1),
            differentiate(expr.base, name),
        )
    if isinstance(expr, Func):
        outer = cosh(expr.arg) if expr.kind == "sinh" else sinh(expr.arg)
        return mul(outer, differentiate(expr.arg, name))
    raise DomainError(f"cannot differentiate {expr!r}")  # pragma: no cover


def evaluate(expr: SpatialExpr, x: float, y: float = 0.0) -> float:
    """Evaluate at a point; a pole raises SingularityError, an overflow DomainError."""
    memo: dict[int, float] = {}

    def walk(e: SpatialExpr) -> float:
        got = memo.get(id(e))
        if got is not None:
            return got
        if isinstance(e, Const):
            out = e.value
        elif isinstance(e, Var):
            out = x if e.name == "x" else y
        elif isinstance(e, Add):
            out = sum(walk(c) for c in e.children)
        elif isinstance(e, Mul):
            out = 1.0
            for c in e.children:
                out *= walk(c)
        elif isinstance(e, Pow):
            out = _pow_value(walk(e.base), e.exponent)
        elif isinstance(e, Func):
            out = _FUNC_EVAL[e.kind](walk(e.arg))
        else:  # pragma: no cover
            raise DomainError(f"cannot evaluate {e!r}")
        memo[id(e)] = out
        return out

    try:
        value = walk(expr)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):  # a float product or sum overflows without raising
        raise DomainError(f"spatial value overflows a float at x={x}, y={y}")
    return value


def proportional_ratio(fa: tuple[float, ...], fb: tuple[float, ...]) -> float | None:
    """Ratio r with fa ~= r * fb, or None if two panels of values are not
    parallel. No merge uses it; perfbench/traced.py still wraps it by name."""
    denom = sum(v * v for v in fb)
    if denom == 0.0:
        return None
    ratio = sum(va * vb for va, vb in zip(fa, fb)) / denom
    scale = max(max(map(abs, fa)), abs(ratio) * max(map(abs, fb)))
    tol = max(ABS_TOL, REL_TOL * scale)
    if all(abs(va - ratio * vb) <= tol for va, vb in zip(fa, fb)):
        return ratio
    return None


def size(expr: SpatialExpr) -> int:
    """Node count along every path: a diagnostic of tree growth."""
    s = expr.__dict__.get("_size")
    if s is None:
        if isinstance(expr, (Add, Mul)):
            s = 1 + sum(size(c) for c in expr.children)
        elif isinstance(expr, Pow):
            s = 1 + size(expr.base)
        elif isinstance(expr, Func):
            s = 1 + size(expr.arg)
        else:
            s = 1
        object.__setattr__(expr, "_size", s)
    return s


def variables(expr: SpatialExpr) -> set[str]:
    """Names of the variables that actually occur in the tree."""
    vs = expr.__dict__.get("_vars")
    if vs is None:
        if isinstance(expr, Var):
            vs = frozenset((expr.name,))
        elif isinstance(expr, (Add, Mul)):
            vs = frozenset().union(*(variables(c) for c in expr.children))
        elif isinstance(expr, Pow):
            vs = frozenset(variables(expr.base))
        elif isinstance(expr, Func):
            vs = frozenset(variables(expr.arg))
        else:
            vs = frozenset()
        object.__setattr__(expr, "_vars", vs)
    return set(vs)


# A product of two tables with more than this many pairs of monomials
# stays one opaque atom.
EXPAND_CAP = 20000

# Relative threshold below which a merged monomial is cancellation dust.
DROP_TOL = 1e-13


class _ExpandOverflow(Exception):
    pass


# A monomial signature: atoms with their exact exponents, sorted by the
# atom's prefix form so equal products always share one signature.
_MonoSig = tuple  # tuple[tuple[SpatialExpr, Fraction], ...]


def _sig_mul(sa: _MonoSig, sb: _MonoSig) -> _MonoSig:
    if not sa or not sb:
        return sa or sb
    exps: dict[SpatialExpr, Fraction] = dict(sa)
    for atom, e in sb:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted((a, e) for a, e in exps.items() if e != 0))


def _sig_pow(sig: _MonoSig, exponent: Fraction) -> _MonoSig:
    return tuple((a, e * exponent) for a, e in sig)


def _reduced(sig: _MonoSig, coef: float) -> list[tuple[_MonoSig, float]]:
    """Rewrite cosh(u)**e, e >= 2, as cosh**(e mod 2) * (1 + sinh**2)**(e//2),
    so that sums of hyperbolic monomials are canonical (cosh**2 - sinh**2
    collects to 1)."""
    for i, (atom, e) in enumerate(sig):
        if e >= 2 and isinstance(atom, Func) and atom.kind == "cosh":
            n = int(e // 2)
            rest = sig[:i] + ((atom, e - 2 * n),) + sig[i + 1 :]
            base = tuple(item for item in rest if item[1] != 0)
            s = sinh(atom.arg)
            return [
                item
                for k in range(n + 1)
                for item in _reduced(
                    _sig_mul(base, ((s, 2 * k),) if k else ()), coef * math.comb(n, k)
                )
            ]
    return [(sig, coef)]


def keyed_sum(items: Iterable[tuple]) -> dict:
    """{key: sum of its values}, added in the order given, for monomial
    tables and coefficients alike. A sum below DROP_TOL times its largest
    addend is cancellation residue and drops; one that is not finite
    raises DomainError."""
    slots: dict = {}  # key: [sum, largest |addend|]
    for key, value in items:
        slot = slots.setdefault(key, [0.0, 0.0])
        slot[0] += value
        slot[1] = max(slot[1], abs(value))
    if not all(math.isfinite(total) for total, _ in slots.values()):
        raise DomainError("a sum of monomial coefficients overflows a float")
    return {key: c for key, (c, peak) in slots.items() if abs(c) > DROP_TOL * peak}


def _summed(monos: Iterable[tuple[_MonoSig, float]]) -> dict:
    """Table of a monomial sum, its cosh powers reduced."""
    return keyed_sum(item for sig, coef in monos for item in _reduced(sig, coef))


def _product(ta: dict, tb: dict) -> dict:
    if len(ta) == 1 and () in ta:  # a constant scales a reduced table
        k = ta[()]
        return keyed_sum((s, k * c) for s, c in tb.items())
    if len(ta) > 1 and len(tb) > 1 and len(ta) * len(tb) > EXPAND_CAP:
        raise _ExpandOverflow  # only here: sums and derivatives grow linearly
    return _summed(
        (_sig_mul(sa, sb), ca * cb) for sa, ca in ta.items() for sb, cb in tb.items()
    )


def _atom_table(atom: SpatialExpr) -> dict:
    if isinstance(atom, Const):
        return {(): atom.value} if atom.value != 0.0 else {}
    return {((atom, 1),): 1.0}


def _power_table(expr: Pow, base: SpatialExpr, exponent: Fraction) -> dict:
    if exponent.denominator == 1:
        exponent = exponent.numerator  # int exponents hash faster in signatures
    bt = _table(base)
    if len(bt) == 1:
        ((sig, coef),) = bt.items()
        try:
            return _summed([(_sig_pow(sig, exponent), _pow_value(coef, exponent))])
        except (DomainError, SingularityError, OverflowError):
            pass
    if exponent.denominator == 1 and 1 < exponent <= 64:
        return reduce(_product, [bt] * int(exponent), {(): 1.0})
    try:  # an opaque atom over the canonical base
        atom = pow_(normalize(base), exponent)
    except (DomainError, SingularityError):
        atom = expr
    return _atom_table(atom)


def _expand(expr: SpatialExpr) -> dict:
    if isinstance(expr, Add):
        return _summed(item for child in expr.children for item in _table(child).items())
    if isinstance(expr, Mul):
        return reduce(_product, (_table(c) for c in expr.children), {(): 1.0})
    if isinstance(expr, Pow):
        return _power_table(expr, expr.base, expr.exponent)
    if isinstance(expr, Func):  # over the canonical argument, maybe a constant
        return _atom_table(_func(expr.kind, normalize(expr.arg)))
    return _atom_table(expr)


def _table(expr: SpatialExpr) -> dict:
    """Monomial table {signature: coefficient} of the tree, cached on it.

    A node whose expansion multiplies two tables past EXPAND_CAP is one
    opaque atom: exact, only less compact.
    """
    table = expr.__dict__.get("_table")
    if table is None:
        try:
            table = _expand(expr)
        except _ExpandOverflow:
            table = {((expr, 1),): 1.0}
        object.__setattr__(expr, "_table", table)
    return table


def monomials(expr: SpatialExpr) -> tuple[tuple[_MonoSig, float], ...]:
    """Canonical monomial table of the tree: ((signature, coefficient), ...).

    Atoms are variables, sinh and cosh of a canonical argument (cosh
    keeps an exponent below 2), powers whose base stays opaque, and
    trees too large to expand. Equal-signature monomials merge and
    cancelled ones drop, so two trees share a table exactly when they
    expand to the same monomial sum. Empty for the zero function.
    """
    monos = expr.__dict__.get("_monos")
    if monos is None:
        monos = tuple(sorted(_table(expr).items()))
        object.__setattr__(expr, "_monos", monos)
    return monos


def canonical(monos: tuple) -> SpatialExpr:
    """The interned tree of a canonical table: sum of coefficient * atom powers."""
    node = add(*(mul(const(c), *(pow_(a, e) for a, e in sig)) for sig, c in monos))
    object.__setattr__(node, "_monos", monos)
    object.__setattr__(node, "_table", dict(monos))
    object.__setattr__(node, "_norm", node)
    return node


def normalize(expr: SpatialExpr) -> SpatialExpr:
    """Canonical monomial-sum form, built from ``monomials(expr)``.

    Interning makes node identity exact equality of canonical forms, so
    repeated differentiation of normalized trees grows with the number
    of distinct monomials instead of with tree paths. Value-preserving
    up to float reassociation (and up to removable singularities like
    x * 1/x at x = 0).
    """
    norm = expr.__dict__.get("_norm")
    if norm is None:
        norm = canonical(monomials(expr))
        object.__setattr__(expr, "_norm", norm)
    return norm


def monic(monos: tuple) -> tuple[float, tuple]:
    """(scale, monos / scale) of a sorted table: its largest-|c|
    coefficient (the first one on ties) becomes exactly 1."""
    if not monos:
        return 0.0, ()
    scale = max((c for _, c in monos), key=abs)
    return scale, monos if scale == 1.0 else tuple((s, c / scale) for s, c in monos)


def monic_sum(weighted: list[tuple[float, tuple]]) -> tuple[float, tuple]:
    """monic of the sum of weight * table over (weight, table) pairs."""
    table = _summed((s, w * c) for w, monos in weighted for s, c in monos)
    return monic(tuple(sorted(table.items())))


def table_product(tables: list[tuple]) -> tuple:
    """Sorted table of the product of the tables, rounded as the table of
    their ``mul``: one-monomial tables first, as ``mul`` folds their
    constants. Past EXPAND_CAP the product of their canonical trees is
    one opaque atom."""
    try:
        table = reduce(_product, sorted((dict(t) for t in tables), key=lambda t: len(t) > 1))
    except _ExpandOverflow:
        return ((((mul(*(canonical(t) for t in tables)), 1),), 1.0),)
    return tuple(sorted(table.items()))


def table_derivative(monos: tuple, name: str) -> tuple:
    """Sorted table of the partial derivative in `name`: each monomial
    times the derivative tables of its atoms."""
    name = var(name).name
    items = []
    for sig, c in monos:
        for i, (atom, e) in enumerate(sig):
            rest = sig[:i] + (((atom, e - 1),) if e != 1 else ()) + sig[i + 1 :]
            for s, k in _table(differentiate(atom, name)).items():
                items.append((_sig_mul(rest, s), c * (e * k)))
    return tuple(sorted(_summed(items).items()))


def table_value(monos: tuple, x: float, y: float, atoms: dict) -> float:
    """Value at (x, y) of a table, bit for bit ``evaluate(canonical(monos))``
    but for an opaque product atom, which ``mul`` would splice into its
    monomial; atoms caches the value of each atom at (x, y)."""
    try:
        parts = []
        for sig, c in monos:
            value = c
            for atom, e in sig:
                got = atoms.get(atom)
                if got is None:
                    got = atoms[atom] = evaluate(atom, x, y)
                value *= got if e == 1 else _pow_value(got, e)
            parts.append(value)
    except OverflowError:
        raise DomainError(f"spatial value overflows a float at x={x}, y={y}") from None
    return parts[0] if len(parts) == 1 else sum(parts, 0.0)


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


@lru_cache(maxsize=None)
def to_prefix(expr: SpatialExpr) -> str:
    """Serialize to prefix notation, e.g. ``(mul (sinh x) (pow x 2))``."""
    if isinstance(expr, Const):
        return _format_number(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Add):
        return "(add " + " ".join(to_prefix(c) for c in expr.children) + ")"
    if isinstance(expr, Mul):
        return "(mul " + " ".join(to_prefix(c) for c in expr.children) + ")"
    if isinstance(expr, Pow):
        return f"(pow {to_prefix(expr.base)} {expr.exponent})"
    if isinstance(expr, Func):
        return f"({expr.kind} {to_prefix(expr.arg)})"
    raise DomainError(f"cannot serialize {expr!r}")  # pragma: no cover


# Every function name of the prefix notation, read by its constructor.
_FUNCS = {"sinh": sinh, "cosh": cosh, "tanh": tanh, "coth": coth, "csch": csch, "recip": recip}


def parse_rational(value) -> Fraction:
    """A rational from its text or a JSON number; DomainError if it is none."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad numeric token {value!r}") from None


def parse_integer(value) -> int:
    """An integer from its text or a JSON number; DomainError if it is none."""
    n = parse_rational(value)
    if n.denominator != 1:
        raise DomainError(f"{value!r} is not an integer")
    return int(n)


def parse_prefix(text: str) -> SpatialExpr:
    """Parse the prefix notation produced by ``to_prefix``."""
    if not isinstance(text, str):
        raise DomainError(f"a prefix expression is a string, got {text!r}")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise DomainError("unexpected end of expression")
        pos += 1
        return tokens[pos - 1]

    def parse() -> SpatialExpr:
        token = take()
        if token == ")":
            raise DomainError("unexpected ')'")
        if token != "(":
            if token in ("x", "y"):
                return var(token)
            return const(float(parse_rational(token)))
        op = take()
        if op == "pow":
            base = parse()
            exponent = parse_rational(take())
            expect_close()
            return pow_(base, exponent)
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(parse())
        expect_close()
        if op == "add":
            return add(*args)
        if op == "mul":
            return mul(*args)
        if op in _FUNCS:
            if len(args) != 1:
                raise DomainError(f"{op} takes one argument")
            return _FUNCS[op](args[0])
        raise DomainError(f"unknown operator {op!r}")

    def expect_close() -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != ")":
            raise DomainError("missing ')'")
        pos += 1

    try:
        result = parse()
    except OverflowError:  # a constant, or a power of constants
        raise DomainError(f"a value in {text!r} does not fit in a float") from None
    if pos != len(tokens):
        raise DomainError(f"trailing tokens in {text!r}")
    return result
