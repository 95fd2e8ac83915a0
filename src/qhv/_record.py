"""``record``: the package's record-class decorator, built from closures.

``dataclasses.dataclass`` writes the source of ``__init__``, ``__repr__``,
``__eq__``, ``__hash__`` and the frozen setters and executes it for every
class it decorates, so each record costs a compile when its module loads,
and the first one imports ``dataclasses`` itself.  ``record`` installs the
same methods as ordinary closures over the field names instead.

The fields are the names the class body annotates, in order; a field with a
class-level value takes it as its default.  The methods follow
``dataclass``:

* ``__init__`` takes the fields positionally or by keyword, applies the
  defaults, raises ``TypeError`` on a missing, repeated or unknown argument
  and then calls ``__post_init__`` when the class defines one;
* ``__repr__`` names every field;
* with ``eq`` (the default), ``__eq__`` compares two instances of the same
  class field by field, and ``__hash__`` hashes the fields when the record
  is frozen and is ``None`` when it is not; with ``eq=False`` both stay the
  identity-based ones inherited from ``object``;
* with ``frozen``, assigning to or deleting an attribute raises
  ``FrozenInstanceError``.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An attribute of a frozen record was assigned or deleted."""


_MISSING = object()


def record(cls=None, /, *, frozen: bool = False, eq: bool = True):
    """Make ``cls`` a record; usable bare or as ``record(frozen=..., eq=...)``."""
    if cls is None:
        return lambda cls: _install(cls, frozen, eq)
    return _install(cls, frozen, eq)


def _install(cls, frozen: bool, eq: bool):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names
                if name in cls.__dict__}
    qualname = cls.__qualname__
    post_init = getattr(cls, "__post_init__", None)
    assign = object.__setattr__

    def values(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{qualname}.__init__() takes {len(names) + 1} positional "
                f"arguments but {len(args) + 1} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{qualname}.__init__() got an unexpected "
                                f"keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{qualname}.__init__() got multiple values "
                                f"for argument {name!r}")
            given[name] = value
        for name in names:
            value = given.get(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{qualname}.__init__() missing required "
                                f"argument: {name!r}")
            assign(self, name, value)
        if post_init is not None:
            self.__post_init__()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self) -> int:
            return hash(values(self))

        methods["__eq__"] = __eq__
        methods["__hash__"] = __hash__ if frozen else None
    if frozen:
        def __setattr__(self, name, value):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenInstanceError(f"cannot delete field {name!r}")

        methods["__setattr__"] = __setattr__
        methods["__delattr__"] = __delattr__
    for attr, method in methods.items():
        if method is not None:
            method.__qualname__ = f"{qualname}.{attr}"
        setattr(cls, attr, method)
    return cls
