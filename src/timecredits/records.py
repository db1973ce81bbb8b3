"""Frozen value classes declared by their annotated fields.

`record` reads a class's annotations and defaults, as
`dataclasses.dataclass(frozen=True)` does, and gives the class the same
constructor, ``repr``, ``==``, hash, ``__match_args__`` and immutability.
Where `dataclass` compiles source text for each method of each class,
`record` installs shared methods built from closures, so declaring a class
compiles nothing.  A command-line run starts a fresh interpreter that
declares every value class again, so this is paid on every command.

A field is declared as ``name: type``, ``name: type = default`` or
``name: type = field(default_factory=...)``.  Every field is an
``__init__`` parameter and is printed, compared and hashed; a record
hashes its field tuple on each call.  Methods the class body defines
itself are kept.  A cache or a value derived from the fields is not a
field: ``__post_init__`` sets it through ``object.__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr

MISSING = object()


class _Factory:
    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build


def field(*, default_factory) -> _Factory:
    """A field whose default each instance builds afresh, as
    ``dataclasses.field(default_factory=...)`` declares it."""
    return _Factory(default_factory)


def frozen_error(message: str):
    """Raise `dataclasses.FrozenInstanceError`.  The module is imported here,
    on this error path only, since importing it imports `inspect` too."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


def replace(obj, **changes):
    """A copy of a record with the given fields changed, built through its
    constructor, as `dataclasses.replace` does."""
    for name in obj.__match_args__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def _values(names: tuple):
    """The tuple of the named attributes of an object."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def record(cls):
    """Make `cls` a frozen value class."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults, factories = {}, {}
    for name in names:
        declared = cls.__dict__.get(name, MISSING)
        if isinstance(declared, _Factory):
            # no class attribute is left, as dataclass leaves none
            delattr(cls, name)
            factories[name] = declared.build
        elif declared is not MISSING:
            defaults[name] = declared
    optional = [name in defaults or name in factories for name in names]
    required = optional.count(False)
    if any(optional[:required]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    arity = len(names)
    qualname = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")
    astuple = _values(names)
    every = frozenset(names)
    # past the frozen __setattr__, as dataclass's own __init__ stores; kept
    # in the closure, not looked up on `object` for every field
    store = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> list:
        """The fields' values from a call that is not all positional."""
        if len(args) > arity:
            raise TypeError(f"{qualname}() takes {arity} arguments, not {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            elif name in factories:
                values.append(factories[name]())
            else:
                raise TypeError(f"{qualname}() lacks argument {name!r}")
        if kwargs:
            raise TypeError(f"{qualname}() got extra arguments {sorted(kwargs)}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            store(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        # the fields as a tuple, as dataclass compares them
        if other.__class__ is not self.__class__:
            return NotImplemented
        return astuple(self) == astuple(other)

    def __hash__(self):
        return hash(astuple(self))

    @recursive_repr()
    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in every:
            frozen_error(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in every:
            frozen_error(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__repr__": __repr__,
        "__setattr__": __setattr__,
        "__delattr__": __delattr__,
        "__match_args__": names,
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            if callable(method):
                method.__qualname__ = f"{qualname}.{name}"
            setattr(cls, name, method)
    return cls
