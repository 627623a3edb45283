"""The immutable base of the library's value types.

A value type names its fields in `__slots__`, in order, and sets them in
its own `__init__`, with `object.__setattr__` or, all at once, `_assign`.
The base gives it value semantics: equality only with an instance of the
same class, a hash equal to the hash of the field tuple (so set and dict
order follow the fields), a `Name(field=value, ...)` repr, an
AttributeError on assignment or deletion, and a `__reduce__` that rebuilds
the value through the constructor, so `copy`, `deepcopy` and `pickle` work.
"""

from __future__ import annotations

from operator import attrgetter


class _Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1
                                   else lambda value: (get(value),))

    def _assign(self, *values) -> None:
        """Set the fields, in `__slots__` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={value!r}"
                            for name, value in zip(self.__slots__, self._values(self)))
                + ")")

    def __reduce__(self):
        return type(self), self._values(self)
