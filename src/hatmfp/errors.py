"""Exception types, and the base of the immutable records, shared across
the solver: every other module imports this one."""


class HatmError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HatmError, ValueError):
    """Invalid run configuration (alpha out of range, hbar = 0, ...)."""


class DomainError(HatmError, ValueError):
    """Argument outside a function's real domain."""


class ConvergenceError(HatmError):
    """A truncated series hit its term cap before reaching tolerance."""


class SingularityError(HatmError, ArithmeticError):
    """Expression evaluated at (or numerically too close to) a pole."""


class ExponentError(HatmError, ValueError):
    """Time-exponent constraint violated: a negative power of t."""


class DegreeError(HatmError, ValueError):
    """Operator expansion would exceed quadratic nonlinearity."""


class PresetError(HatmError, ValueError):
    """Unknown built-in problem id."""


# Immutable records without generated code: a subclass names its fields in
# ``_fields`` and sets each one from its ``__init__`` (a node of ``expr``
# from ``expr._shared``) with ``store``. That bypasses Value.__setattr__
# and, unlike writing self.__dict__, keeps the fields in the instance's
# compact attribute storage, with no dict built per instance. Attributes
# cached later take no part in equality, hashing or the repr.
store = object.__setattr__


class Value:
    """Equal by exact type and fields, hashed alike, read-only."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
