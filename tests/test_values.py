"""Value-record semantics of every immutable class in hatmfp, the
identity contract of the interned expression nodes, and guards that the
package runs as ``python -m hatmfp`` without dataclasses and builds
nodes only through its interning constructors."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hatmfp
from hatmfp.engine import HatmConfig, OperatorMonomial, ProblemSpec, recombine
from hatmfp.errors import ConfigError, DegreeError, DomainError, ExponentError
from hatmfp.expr import (
    ONE,
    X,
    Y,
    Add,
    Const,
    Func,
    Mul,
    Pow,
    SpatialExpr,
    Var,
    add,
    canonical,
    const,
    cosh,
    monomials,
    mul,
    normalize,
    parse_prefix,
    pow_,
    sinh,
    to_prefix,
    var,
)
from hatmfp.fokker_planck import CoefficientSpec
from hatmfp.series import (
    Coefficient,
    FracSeries,
    FracTerm,
    GammaArg,
    TimeFactor,
    _cancel,
)
from hatmfp.special import mittag_leffler

ROOT = Path(__file__).resolve().parents[1]


def _token():
    return GammaArg(Fraction(3, 2), 1)


def _coef():
    return Coefficient(2.0, (_token(),), ())


def _time():
    return TimeFactor(Fraction(1, 2), 1)


# Each entry builds fresh (equal, not identical) keyword arguments, in
# field order. SpatialExpr, the base of the six node classes, has no
# fields and is never built itself.
RECORDS = {
    Const: lambda: dict(value=1.5),
    Var: lambda: dict(name="x"),
    Add: lambda: dict(children=(X, Y)),
    Mul: lambda: dict(children=(X, Y)),
    Pow: lambda: dict(base=X, exponent=Fraction(1, 2)),
    Func: lambda: dict(kind="sinh", arg=X),
    GammaArg: lambda: dict(a=Fraction(3, 2), b=1),
    Coefficient: lambda: dict(factor=2.0, num=(_token(),), den=()),
    TimeFactor: lambda: dict(p=Fraction(1, 2), q=1),
    FracTerm: lambda: dict(coef=_coef(), monos=monomials(X), time=_time()),
    FracSeries: lambda: dict(terms=(FracTerm(_coef(), monomials(X), _time()),)),
    OperatorMonomial: lambda: dict(monos=monomials(X), derivs=((1, 0), (0, 0)), exp_rate=1),
    ProblemSpec: lambda: dict(
        dim=1, operator=(OperatorMonomial(monomials(X), ((1, 0),)),), initial=X,
        source=((1, FracSeries.from_spatial(X)),),
    ),
    HatmConfig: lambda: dict(alpha=0.5, order=3, taylor_terms=8),
    CoefficientSpec: lambda: dict(spatial=X, exp_rate=1, u_degree=1),
}

# Another valid value for every field.
OTHERS = {
    Const: lambda: dict(value=2.5),
    Var: lambda: dict(name="y"),
    Add: lambda: dict(children=(X, X)),
    Mul: lambda: dict(children=(Y, X)),
    Pow: lambda: dict(base=Y, exponent=Fraction(3)),
    Func: lambda: dict(kind="cosh", arg=Y),
    GammaArg: lambda: dict(a=Fraction(5, 2), b=0),
    Coefficient: lambda: dict(factor=3.0, num=(), den=(_token(),)),
    TimeFactor: lambda: dict(p=Fraction(1), q=2),
    FracTerm: lambda: dict(
        coef=Coefficient(0.0, (), ()), monos=monomials(Y), time=TimeFactor(0, 0)
    ),
    FracSeries: lambda: dict(terms=()),
    OperatorMonomial: lambda: dict(monos=monomials(Y), derivs=((2, 0),), exp_rate=0),
    ProblemSpec: lambda: dict(
        dim=2, operator=(), initial=X * X, source=()
    ),
    HatmConfig: lambda: dict(alpha=0.75, order=4, taylor_terms=9),
    CoefficientSpec: lambda: dict(spatial=Y, exp_rate=0, u_degree=0),
}

# The interning constructor of each node class, called with the fields in
# order. Nodes are equal exactly when identical, so a node is only ever
# built through these.
NODE_BUILDERS = {
    Const: const,
    Var: var,
    Add: lambda children: add(*children),
    Mul: lambda children: mul(*children),
    Pow: pow_,
    Func: lambda kind, arg: {"sinh": sinh, "cosh": cosh}[kind](arg),
}


def build(cls, fields):
    """A record from its fields; a node through its interning constructor."""
    if cls in NODE_BUILDERS:
        return NODE_BUILDERS[cls](*fields.values())
    return cls(**fields)


records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


@records
def test_equal_fields_give_equal_values(cls):
    a, b = build(cls, RECORDS[cls]()), build(cls, RECORDS[cls]())
    assert (a is b) == (cls in NODE_BUILDERS)  # nodes are shared, records are not
    assert a == b and not a != b
    assert hash(a) == hash(b)
    if cls not in NODE_BUILDERS:
        assert cls(*RECORDS[cls]().values()) == a  # positional construction


@records
def test_every_field_takes_part_in_equality(cls):
    fields = RECORDS[cls]()
    assert list(OTHERS[cls]()) == list(fields)
    for name, value in OTHERS[cls]().items():
        assert build(cls, dict(fields, **{name: value})) != build(cls, fields), name


@records
def test_same_fields_in_another_class_are_not_equal(cls):
    other = type("Other" + cls.__name__, (cls,), {})
    fields = RECORDS[cls]()
    if cls in NODE_BUILDERS:  # the intern table is the one maker of nodes
        for make in (cls, other):
            with pytest.raises(TypeError):
                make(**fields)
            with pytest.raises(TypeError):
                make(*fields.values())
    else:
        assert other(**fields) != build(cls, fields)
    assert build(cls, fields) != tuple(fields.values())


@pytest.mark.parametrize("cls", list(NODE_BUILDERS), ids=lambda c: c.__name__)
def test_a_node_class_called_without_fields_is_refused(cls):
    # a fieldless node would fail in its repr and in every constructor
    with pytest.raises(TypeError, match=f"^{cls.__name__} nodes are made by the module-level"):
        cls()


def test_sibling_nodes_are_not_equal():
    assert add(X, Y) != mul(X, Y)
    assert const(1.0) != 1.0


@records
def test_fields_are_read_only(cls):
    value = build(cls, RECORDS[cls]())
    for name in [*RECORDS[cls](), "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == build(cls, RECORDS[cls]())


@records
def test_repr_names_the_fields(cls):
    fields = RECORDS[cls]()
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(build(cls, fields)) == f"{cls.__qualname__}({inner})"


def test_defaults():
    assert HatmConfig(alpha=0.5, order=3) == HatmConfig(0.5, 3, 12)
    assert ProblemSpec(dim=1, operator=(), initial=X).source == ()
    # a zero series is no source at all
    assert ProblemSpec(1, (), X, source=((1, FracSeries.zero()),)).source == ()
    assert ProblemSpec(1, (), X) == ProblemSpec(1, (), X, source=None)
    assert OperatorMonomial(monomials(X), ((1, 0),)).exp_rate == 0
    assert CoefficientSpec(X) == CoefficientSpec(X, exp_rate=0, u_degree=0)
    assert CoefficientSpec(X, exp_rate=1).u_degree == 0


def test_cached_attributes_take_no_part_in_equality():
    node = add(const(2.0), X)
    normalize(node)  # caches the monomial table and canonical form on it
    assert add(2.0, X) is node and hash(node) == object.__hash__(node)
    assert repr(node) == "Add(children=(Const(value=2.0), Var(name='x')))"
    series = FracSeries.from_spatial(X * X)
    series.spatial_derivative("x")
    assert series == FracSeries(series.terms)
    assert repr(series) == repr(FracSeries(series.terms))


# The hbar-free iterates [v_0] of a run to order 0, for recombine().
FREE = [FracSeries.from_spatial(X)]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: recombine(FREE, 0), ConfigError, "hbar must be nonzero, got 0"),
        (lambda: recombine(FREE, float("nan")), ConfigError, "hbar must be finite, got nan"),
        (lambda: recombine(FREE, float("-inf")), ConfigError, "hbar must be finite, got -inf"),
        (lambda: recombine(FREE, float("inf")), ConfigError, "hbar must be finite, got inf"),
        (lambda: HatmConfig(0.0, 1), ConfigError, "alpha must lie in (0, 1], got 0.0"),
        (lambda: HatmConfig(0.5, -1), ConfigError, "order must be >= 0, got -1"),
        (lambda: HatmConfig(0.5, 1, taylor_terms=0), ConfigError,
         "taylor_terms must be >= 1, got 0"),
        (lambda: ProblemSpec(dim=3, operator=(), initial=X), ConfigError,
         "dim must be 1 or 2, got 3"),
        (lambda: ProblemSpec(1, (OperatorMonomial(monomials(Y), ((1, 0),)),), X), ConfigError,
         "variable y in a one-dimensional problem"),
        (lambda: ProblemSpec(1, (OperatorMonomial(monomials(ONE), ((0, 1),)),), X), ConfigError,
         "y-derivative in a one-dimensional problem"),
        (lambda: OperatorMonomial(X, ((1, 0),)), TypeError,
         "monos is a table: pass monomials(tree), not a tree"),
        (lambda: FracTerm(Coefficient.number(1.0), X, TimeFactor(0, 0)), TypeError,
         "monos is a table: pass monomials(tree), not a tree"),
        (lambda: OperatorMonomial(monomials(ONE), ()), DegreeError,
         "an operator monomial takes one or two factors of u, got ()"),
        (lambda: OperatorMonomial(monomials(ONE), ((3, 0),)), DegreeError,
         "deriv exceeds second order: (3, 0)"),
        (lambda: OperatorMonomial(monomials(ONE), ((-1, 0),)), DegreeError,
         "deriv must be a pair of nonnegative orders, got (-1, 0)"),
        (lambda: CoefficientSpec(X, u_degree=2), DegreeError,
         "u_degree 2 would take the expansion past quadratic"),
        (lambda: mittag_leffler(0.0, 1.0), DomainError, "mittag_leffler needs alpha > 0, got 0.0"),
        (lambda: TimeFactor(Fraction(-1), 0), ExponentError,
         "negative fixed exponent p=-1"),
        (lambda: TimeFactor(Fraction(1, 2), -1), ExponentError,
         "exponent 1/2 + -1*alpha can go negative on (0, 1]"),
        (lambda: TimeFactor(0.5, 0), ExponentError, "exponent part must be rational, got 0.5"),
        (lambda: TimeFactor("abc", 0), ExponentError,
         "exponent part must be rational, got 'abc'"),
        (lambda: TimeFactor("1/0", 0), ExponentError,
         "exponent part must be rational, got '1/0'"),
        (lambda: TimeFactor(True, 0), ExponentError, "exponent part must be rational, got True"),
        (lambda: TimeFactor(Fraction(1, 2), 1.5), ExponentError,
         "alpha part must be an integer, got 1.5"),
        (lambda: TimeFactor(1, False), ExponentError, "alpha part must be an integer, got False"),
        (lambda: GammaArg(0.5, 1), ExponentError, "exponent part must be rational, got 0.5"),
        (lambda: GammaArg(True, 1), ExponentError, "exponent part must be rational, got True"),
        (lambda: GammaArg(Fraction(1, 2), 0.5), ExponentError,
         "alpha part must be an integer, got 0.5"),
        (lambda: GammaArg(Fraction(1, 2), True), ExponentError,
         "alpha part must be an integer, got True"),
        (lambda: FracSeries.from_spatial(X, q=1.5), ExponentError,
         "alpha part must be an integer, got 1.5"),
        (lambda: HatmConfig(0.5, 2.0), ConfigError, "order must be an integer, got 2.0"),
        (lambda: HatmConfig(0.5, True), ConfigError, "order must be an integer, got True"),
        (lambda: HatmConfig(True, 1), ConfigError, "alpha must be a number, got True"),
        (lambda: recombine(FREE, False), ConfigError, "hbar must be a number, got False"),
        (lambda: recombine(FREE, True), ConfigError, "hbar must be a number, got True"),
        (lambda: HatmConfig(0.5, 2, taylor_terms=2.5), ConfigError,
         "taylor_terms must be an integer, got 2.5"),
        (lambda: HatmConfig(0.5, 2, taylor_terms=True), ConfigError,
         "taylor_terms must be an integer, got True"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_equal_trees_are_one_node_with_the_identity_hash():
    tree = add(sinh(Y), mul(sinh(Y), X))
    assert sinh(Y) + sinh(Y) * X is tree
    assert parse_prefix(to_prefix(tree)) is tree
    assert canonical(monomials(tree)) is tree
    assert normalize(mul(add(X, 1), sinh(Y))) is tree
    assert SpatialExpr.__eq__ is object.__eq__ and SpatialExpr.__hash__ is object.__hash__
    assert hash(tree) == object.__hash__(tree)


# ------------------------------------------------- integer-keyed equality


def test_gamma_arg_equality_is_on_reduced_integers():
    a, b = GammaArg(Fraction(2, 4), 1), GammaArg(Fraction(1, 2), 1)
    assert a == b and hash(a) == hash(b)
    assert GammaArg(Fraction(1), 0) == GammaArg(1, 0)
    assert GammaArg(Fraction(1, 2), 1) != GammaArg(Fraction(1, 2), 2)
    assert GammaArg(Fraction(1, 2), 1) != GammaArg(Fraction(1, 3), 1)
    pairs = [(Fraction(3, 2), 0), (Fraction(1, 2), 2), (Fraction(1, 2), 1)]
    assert [(t.a, t.b) for t in sorted(GammaArg(a, b) for a, b in pairs)] == sorted(pairs)


def test_cancel_removes_shared_tokens_as_a_multiset():
    half, one = GammaArg(Fraction(1, 2), 1), GammaArg(Fraction(1), 1)
    num = [half, GammaArg(Fraction(2, 4), 1), one]
    den = [GammaArg(Fraction(1, 2), 1), GammaArg(Fraction(3), 2)]
    kept_num, kept_den = _cancel(num, den)
    assert kept_num == [half, one]
    assert kept_den == [GammaArg(Fraction(3), 2)]


def test_gamma_arg_and_time_factor_read_their_parts_alike():
    assert GammaArg("1/2", 1) == GammaArg(Fraction(1, 2), 1) == GammaArg(Fraction(2, 4), 1)
    assert TimeFactor("1/2", 1) == TimeFactor(Fraction(1, 2), 1)
    # a part that is already a Fraction or int is kept as it is
    half = Fraction(1, 2)
    assert GammaArg(half, 1).a is half and TimeFactor(half, 1).p is half
    assert type(GammaArg(3, 0).a) is int and type(TimeFactor(2, 0).p) is int
    assert GammaArg(3, 0) == GammaArg(Fraction(3), 0) and TimeFactor(2, 0) == TimeFactor("2", 0)


def test_time_factor_equality_is_on_reduced_integers():
    a, b = TimeFactor(Fraction(2, 4), 1), TimeFactor(Fraction(1, 2), 1)
    assert a == b and hash(a) == hash(b)
    assert TimeFactor(1, 0) == TimeFactor(Fraction(1), 0)
    assert TimeFactor(Fraction(1, 2), 1) != TimeFactor(Fraction(1, 2), 2)
    assert TimeFactor(Fraction(1, 2), 1) != GammaArg(Fraction(1, 2), 1)


# ----------------------------------------------------------- tooling guard


def test_package_runs_as_a_module_without_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hatmfp", "hcurve", "--preset", "4.5",
         "--order", "2", "--probe", "1,0.3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    # CSV cells need no quoting, so a run imports no csv writer
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "csv" not in imported

    names = [m.name for m in pkgutil.iter_modules(hatmfp.__path__) if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(f"hatmfp.{name}")
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                assert not hasattr(cls, "__dataclass_fields__"), f"{name}.{cls_name}"


def test_the_package_calls_no_node_class_directly():
    # interning is the only way a node is made: expr._shared receives the
    # classes as values and is the one place that calls them
    nodes = {"Const", "Var", "Add", "Mul", "Pow", "Func"}
    calls = []
    for path in sorted((ROOT / "src" / "hatmfp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in nodes:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
