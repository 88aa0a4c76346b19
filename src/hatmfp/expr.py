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
so its largest monomial is 1. ``keyed_sum``, ``table_product``,
``table_derivative`` and ``table_value`` add, multiply, differentiate
and evaluate tables without building trees: the series algebra and
the engine's operator monomials work on tables alone. The derivative
of an atom is formed from its parts' tables, so the derivative rules
exist once, on tables: ``differentiate`` returns the canonical tree of
the table derivative. ``evaluate`` walks a tree as written, since its
table may differ: mul(x, 1/x) at 0 would give 1.0 instead of a pole,
and (x - 1)**2 at 1 + 1e-7 would lose its leading digits. Two rewrites
can blow a table up, a product of two tables and the rewrite of
cosh(u)**2 (one monomial with n such factors makes 2**n), and each
checks ``EXPAND_CAP`` where it runs: a tree past it is one opaque atom,
and a derivative past it raises DomainError. ``canonical`` is the one
builder of the tree of a table, for output.
Two trees with the same canonical table get the same node, so identity
of canonical nodes is equality of their monomial sums: no merge decision
rests on sampled values.

Nodes are hash-consed: the module-level constructors and
``parse_prefix`` return one shared object per distinct tree, so two
nodes are equal exactly when they are identical, and they hash by
identity. A node records its depth when it is interned; node count,
variable set and monomial table are cached on it. Every traversal here
costs one visit per distinct subtree rather than one per path. The
intern table (``_shared``) is the one maker of nodes: calling a node
class raises TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Union

from .errors import DomainError, SingularityError, Value, store

Number = Union[int, float, Fraction]

# Magnitudes below this count as a zero divisor.
SINGULAR_FLOOR = 1e-300


class SpatialExpr(Value):
    """Base node. Build through the module-level constructors."""

    # Interned: one object per distinct tree, so equal means identical.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *args, **kwargs):
        raise TypeError(f"{cls.__name__} nodes are made by the module-level constructors")

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


class Var(SpatialExpr):
    _fields = ("name",)  # "x" or "y"


class Add(SpatialExpr):
    _fields = ("children",)


class Mul(SpatialExpr):
    _fields = ("children",)


class Pow(SpatialExpr):
    _fields = ("base", "exponent")


class Func(SpatialExpr):
    _fields = ("kind", "arg")  # kind: sinh | cosh


def _children(expr: SpatialExpr) -> tuple:
    """The subtrees of a node; a leaf has none."""
    if isinstance(expr, (Add, Mul)):
        return expr.children
    return (expr.base,) if isinstance(expr, Pow) else (expr.arg,) if isinstance(expr, Func) else ()


_INTERN: dict[tuple, SpatialExpr] = {}


def _shared(key: tuple, ctor: type, *args) -> SpatialExpr:
    node = _INTERN.get(key)
    if node is None:
        node = object.__new__(ctor)
        for name, value in zip(ctor._fields, args):
            store(node, name, value)
        # Parentheses nested in the node's prefix form: 0 for a leaf, else
        # one more than its deepest child.
        object.__setattr__(node, "depth", max((c.depth + 1 for c in _children(node)), default=0))
        _INTERN[key] = node
    return node


def _coerce(value: SpatialExpr | Number) -> SpatialExpr:
    if isinstance(value, SpatialExpr):
        return value
    if isinstance(value, (int, float, Fraction)):
        return const(value)
    raise TypeError(f"cannot interpret {value!r} as a spatial expression")


def const(value: Number) -> Const:
    try:
        v = float(value)
    except OverflowError:  # an int or Fraction past the float range
        v = math.inf
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
    if isinstance(exponent, float):  # Fraction() raises OverflowError on inf, ValueError on nan
        require_finite(exponent=exponent)
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        try:
            return const(_pow_value(base.value, exponent))
        except OverflowError:
            raise DomainError(f"{base.value!r} ** {exponent} does not fit in a float") from None
    return _shared(("p", base, exponent), Pow, base, exponent)


def _pow_value(value: float, exponent: Fraction, *point: float) -> float:
    if value < 0.0 and exponent.denominator != 1:
        raise DomainError(f"fractional power of negative base {value}")
    if exponent < 0 and abs(value) < SINGULAR_FLOOR:
        at = " at x={}, y={}".format(*point) if point else ""
        raise SingularityError(f"negative power of {value}{at}")
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


def require_finite(**coordinates: float) -> None:
    """DomainError naming the first coordinate that is nan or infinite."""
    for name, value in coordinates.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def evaluate(expr: SpatialExpr, x: float, y: float = 0.0) -> float:
    """Evaluate at a finite point; a pole raises SingularityError, an overflow
    DomainError, each naming the point."""
    require_finite(x=x, y=y)
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
            out = _pow_value(walk(e.base), e.exponent, x, y)
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
    tol = max(1e-12, 1e-10 * scale)
    if all(abs(va - ratio * vb) <= tol for va, vb in zip(fa, fb)):
        return ratio
    return None


def size(expr: SpatialExpr) -> int:
    """Node count along every path: a diagnostic of tree growth."""
    s = expr.__dict__.get("_size")
    if s is None:
        s = 1 + sum(map(size, _children(expr)))
        object.__setattr__(expr, "_size", s)
    return s


def variables(expr: SpatialExpr) -> set[str]:
    """Names of the variables that actually occur in the tree."""
    vs = expr.__dict__.get("_vars")
    if vs is None:
        names = {expr.name} if isinstance(expr, Var) else set()
        vs = frozenset(names.union(*map(variables, _children(expr))))
        object.__setattr__(expr, "_vars", vs)
    return set(vs)


# A product of two tables with more than this many pairs of monomials,
# or a monomial whose cosh rewrite (_reduced) makes more than this many,
# stays one opaque atom; in a derivative it is refused (table_derivative).
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


def _is_cosh(atom: SpatialExpr) -> bool:
    return isinstance(atom, Func) and atom.kind == "cosh"


def _reduced(sig: _MonoSig, coef: float) -> list[tuple[_MonoSig, float]]:
    """Rewrite cosh(u)**e, e >= 2, as cosh**(e mod 2) * (1 + sinh**2)**(e//2),
    so that sums of hyperbolic monomials are canonical (cosh**2 - sinh**2
    collects to 1). The rewrite makes prod(e//2 + 1) monomials of one, so
    past EXPAND_CAP it raises _ExpandOverflow."""
    for i, (atom, e) in enumerate(sig):
        if e >= 2 and _is_cosh(atom):
            if math.prod(int(f // 2) + 1 for a, f in sig if f >= 2 and _is_cosh(a)) > EXPAND_CAP:
                raise _ExpandOverflow
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
    """{key: sum of its values}, added in the order given. Keyed on
    monomial signatures, it sums canonical tables into a canonical table,
    as a series collect does with the weighted tables of one (time,
    tokens) key. A sum below DROP_TOL times its largest addend is
    cancellation residue and drops; one that is not finite raises
    DomainError."""
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
        raise _ExpandOverflow  # the pairs; _reduced caps its own rewrite
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
    """Canonical monomial-sum form, ``canonical(monomials(expr))``, cached
    on the tree: node identity is exact equality of canonical forms. It
    keeps values up to float reassociation and removable singularities."""
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
    times the derivative tables of its atoms. DomainError if the cosh
    rewrite of a monomial of the derivative passes EXPAND_CAP."""
    name = var(name).name
    items = []
    for sig, c in monos:
        for i, (atom, e) in enumerate(sig):
            rest = sig[:i] + (((atom, e - 1),) if e != 1 else ()) + sig[i + 1 :]
            for s, k in _atom_derivative(atom, name).items():
                items.append((_sig_mul(rest, s), c * (e * k)))
    try:
        return tuple(sorted(_summed(items).items()))
    except _ExpandOverflow:
        raise DomainError(f"a derivative passes EXPAND_CAP = {EXPAND_CAP} monomials") from None


def _atom_derivative(atom: SpatialExpr, name: str) -> dict:
    """Table of the derivative of one atom in `name`, cached on it: the
    chain or product rule over its parts' tables, each product through
    ``table_product``, so one past EXPAND_CAP is one opaque atom."""
    table = atom.__dict__.get("_d" + name)
    if table is None:
        if isinstance(atom, Var):
            products = [[(((), 1.0),)]] if atom.name == name else []
        elif isinstance(atom, Func):  # sinh' = cosh, cosh' = sinh
            other = _func("cosh" if atom.kind == "sinh" else "sinh", atom.arg)
            products = [[monomials(other), table_derivative(monomials(atom.arg), name)]]
        elif isinstance(atom, Pow):
            e, power = atom.exponent, monomials(pow_(atom.base, atom.exponent - 1))
            products = [[(((), float(e)),), power, table_derivative(monomials(atom.base), name)]]
        else:  # an Add or Mul past EXPAND_CAP: the rule of its children
            parts = [monomials(c) for c in atom.children]
            others = isinstance(atom, Mul)  # a term of a product keeps the other factors
            products = [[table_derivative(p, name), *(parts[:i] + parts[i + 1 :] if others else ())]
                        for i, p in enumerate(parts)]
        table = keyed_sum(item for factors in products for item in table_product(factors))
        object.__setattr__(atom, "_d" + name, table)
    return table


def differentiate(expr: SpatialExpr, name: str) -> SpatialExpr:
    """The canonical tree of ``table_derivative(monomials(expr), name)``."""
    return canonical(table_derivative(monomials(expr), name))


def table_value(monos: tuple, x: float, y: float, atoms: dict) -> float:
    """Value at (x, y) of a table, bit for bit ``evaluate(canonical(monos))``
    but for an opaque product atom, which ``mul`` would splice into its
    monomial; atoms caches the value of each atom at (x, y). It may differ
    from ``evaluate`` of a tree with this table (see the module docstring)."""
    try:
        parts = []
        for sig, c in monos:
            value = c
            for atom, e in sig:
                got = atoms.get(atom)
                if got is None:
                    got = atoms[atom] = evaluate(atom, x, y)
                value *= got if e == 1 else _pow_value(got, e, x, y)
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


# Parentheses nest at most this deep in a prefix expression: the tree walks
# recurse once per level, and a deeper tree would overflow Python's stack.
MAX_NESTING = 100


def within_nesting(expr: SpatialExpr) -> SpatialExpr:
    """The tree itself, where a caller's tree enters; DomainError if it
    nests deeper than MAX_NESTING levels, the limit of ``parse_prefix``."""
    if expr.depth > MAX_NESTING:
        raise DomainError(f"expression nests deeper than {MAX_NESTING} levels")
    return expr


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
    """Parse the prefix notation produced by ``to_prefix``; DomainError
    for parentheses nested more than MAX_NESTING deep."""
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

    def parse(depth: int) -> SpatialExpr:
        token = take()
        if token == ")":
            raise DomainError("unexpected ')'")
        if token != "(":
            if token in ("x", "y"):
                return var(token)
            return const(parse_rational(token))
        if depth == MAX_NESTING:
            raise DomainError(f"expression nests deeper than {MAX_NESTING} levels")
        op = take()
        if op == "pow":
            base = parse(depth + 1)
            exponent = parse_rational(take())
            expect_close()
            return pow_(base, exponent)
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(parse(depth + 1))
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

    result = parse(0)
    if pos != len(tokens):
        raise DomainError(f"trailing tokens in {text!r}")
    return result
