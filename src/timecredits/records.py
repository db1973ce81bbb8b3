"""Value classes declared by their annotated fields.

`record` reads a class's annotations and defaults, as
`dataclasses.dataclass` does, and gives the class the same constructor,
``repr``, ``==``, hash, ``__match_args__`` and, when frozen, the same
immutability.  Where `dataclass` compiles source text for each method of
each class, `record` installs shared methods built from closures, so
declaring a class compiles nothing.  A command-line run starts a fresh
interpreter that declares every value class again, so this is paid on
every command.

A field is declared as ``name: type``, ``name: type = default`` or
``name: type = field(...)`` with dataclass's options ``default``,
``default_factory``, ``init``, ``repr``, ``compare`` and ``hash``.  Methods
the class body defines itself are kept.  A frozen record computes its
hash once, on first use, and keeps it out of its pickled state.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr

MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "init", "repr", "compare", "hash")

    def __init__(self, default=MISSING, default_factory=MISSING, init=True, repr=True,
                 compare=True, hash=None):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare
        self.hash = hash


def field(*, default=MISSING, default_factory=MISSING, init=True, repr=True, compare=True,
          hash=None) -> _Field:
    """A field's options, as `dataclasses.field` takes them."""
    if init is False and default_factory is not MISSING:
        raise TypeError("a field built by a factory must be an __init__ parameter")
    return _Field(default, default_factory, init, repr, compare, hash)


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


def record(cls=None, *, frozen: bool = False):
    """Make `cls` a value class; usable as ``@record`` or ``@record(...)``."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _values(names: tuple):
    """The tuple of the named attributes of an object."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def _build(cls, frozen: bool):
    fields = []
    for name in cls.__dict__.get("__annotations__", {}):
        declared = cls.__dict__.get(name, MISSING)
        if isinstance(declared, _Field):
            # the class attribute is the default, as dataclass leaves it
            if declared.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, declared.default)
        else:
            declared = _Field(declared)
        fields.append((name, declared))

    names = tuple(name for name, f in fields if f.init)
    defaults = {
        name: f.default for name, f in fields if f.init and f.default is not MISSING
    }
    factories = {
        name: f.default_factory
        for name, f in fields if f.default_factory is not MISSING
    }
    optional = [name in defaults or name in factories for name in names]
    required = optional.count(False)
    if any(optional[:required]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    arity = len(names)
    qualname = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")
    compared = _values(tuple(name for name, f in fields if f.compare))
    hashed = _values(
        tuple(name for name, f in fields if (f.compare if f.hash is None else f.hash))
    )
    # as dataclass's own __init__ does: past a frozen __setattr__, else by
    # plain assignment
    store = object.__setattr__ if frozen else setattr

    def bind(args: tuple, kwargs: dict) -> list:
        """The init fields' values from a call that is not all positional."""
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
        # the compared fields as a tuple, as dataclass compares them
        if other.__class__ is not self.__class__:
            return NotImplemented
        return compared(self) == compared(other)

    shown = tuple(name for name, f in fields if f.repr)

    @recursive_repr()
    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({body})"

    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__repr__": __repr__,
        "__match_args__": names,
        # an eq that may change with the fields leaves the class unhashable
        "__hash__": None,
    }
    if frozen:
        every = frozenset(name for name, _ in fields)

        def __setattr__(self, name, value):
            if type(self) is cls or name in every:
                frozen_error(f"cannot assign to field {name!r}")
            super(cls, self).__setattr__(name, value)

        def __delattr__(self, name):
            if type(self) is cls or name in every:
                frozen_error(f"cannot delete field {name!r}")
            super(cls, self).__delattr__(name)

        def __hash__(self):
            # the fields cannot change, so neither can their hash: it is
            # kept on the instance, over the class's None, on first use
            kept = self._record_hash
            if kept is None:
                kept = hash(hashed(self))
                object.__setattr__(self, "_record_hash", kept)
            return kept

        def __getstate__(self):
            # without the kept hash, which a copy loaded under another
            # string hash seed would not share
            state = dict(self.__dict__)
            state.pop("_record_hash", None)
            return state

        methods.update(
            __setattr__=__setattr__, __delattr__=__delattr__, __hash__=__hash__,
            __getstate__=__getstate__, _record_hash=None,
        )
    for name, method in methods.items():
        if name not in cls.__dict__:
            if callable(method):
                method.__qualname__ = f"{qualname}.{name}"
            setattr(cls, name, method)
    return cls
