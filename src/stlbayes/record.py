"""Immutable records whose classes generate no code.

A subclass of `Record` lists its fields as class annotations, base classes'
fields first, each with an optional default value.  Every instance that
omits the field shares that value, so a mutable default is written `None`
and `__post_init__` puts a fresh object in its place.  Creating the class
only collects the field names and defaults; construction, `repr` and
immutability are the shared methods below, so defining a record costs no
per-class source generation.

The shared `__init__` takes the fields positionally or by keyword, then runs
`__post_init__`, which may normalize a field with `object.__setattr__`.
Assigning or deleting an attribute afterwards raises `AttributeError`.  A
record compares and hashes by identity, unless its class is created with
`eq=True`: then two records of the same class are equal when the tuples of
their fields are, and the hash is that tuple's.  Only records whose fields
have a meaningful `==` (no arrays) should ask for it.
"""

from __future__ import annotations

_MISSING = object()
_setattr = object.__setattr__


class Record:
    """Base of the package's immutable records (see the module docstring)."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, eq: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        names, defaults = [], {}
        for klass in reversed(cls.__mro__):
            own = vars(klass)
            if not issubclass(klass, Record) or (
                    "__annotations__" not in own and "__annotate__" not in own):
                continue
            for name in klass.__annotations__:
                if name not in names:
                    names.append(name)
                if name in own:
                    defaults[name] = own[name]
        cls._fields, cls._defaults = tuple(names), defaults
        if eq:
            cls.__eq__, cls.__hash__ = _eq, _hash

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        # One `object.__setattr__` per field, not an update of `__dict__`:
        # touching `__dict__` would build the instance's dict, and every
        # attribute read on it would then be about twice as slow.
        for name, value in zip(names, args):
            _setattr(self, name, value)
        self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order: the positional `args`, then each
        remaining field from `kwargs` or its default."""
        names = self._fields
        rest = names[len(args):]
        if len(args) > len(names) or kwargs and not kwargs.keys() <= set(rest):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                            f"got {len(args)} positional and the keywords "
                            f"{sorted(kwargs)}")
        values = list(args)
        for name in rest:
            value = kwargs.get(name, _MISSING)
            if value is _MISSING:
                value = self._defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{type(self).__name__} is missing the "
                                    f"field {name!r}")
            values.append(value)
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._values() == other._values()


def _hash(self):
    return hash(self._values())


def replace(record: Record, **changes) -> Record:
    """A record of the same class with the fields in `changes` replaced; its
    `__post_init__` runs again."""
    values = dict(zip(record._fields, record._values()))
    values.update(changes)
    return type(record)(**values)
