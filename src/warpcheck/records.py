"""Immutable records whose methods are written here, not generated.

The ``dataclasses`` decorator ``exec``s generated source for its classes'
methods when their module is imported, a cost every command-line run paid.
"""
from copy import copy
from dataclasses import FrozenInstanceError


class Record:
    """An immutable record whose fields are its class's annotations, in
    order; a field's default is the class attribute of its name, copied
    (shallowly) for each instance that takes it.

    ``__init__`` takes the fields by position or name, then calls
    ``__post_init__``. Assigning or deleting an attribute raises
    ``FrozenInstanceError``; a cache kept on a record is written with
    ``object.__setattr__``. Records compare and hash by identity.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        if len(args) > len(self._fields) or not given.keys().isdisjoint(kwargs):
            raise TypeError(f"{type(self).__name__}(): too many or repeated "
                            "arguments")
        given.update(kwargs)
        values = self.__dict__
        for name in self._fields:
            if name in given:
                values[name] = given.pop(name)
            elif name in self._defaults:
                values[name] = copy(self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__}() missing {name!r}")
        if given:
            raise TypeError(f"{type(self).__name__}() has no {sorted(given)}")
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a class with invariants overrides this."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def replace(self, **changes):
        """A new record of this class with ``changes`` applied; its
        ``__post_init__`` checks run again."""
        return type(self)(**{**{name: getattr(self, name)
                                for name in self._fields}, **changes})
