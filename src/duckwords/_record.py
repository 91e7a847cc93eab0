"""
The base of the package's value classes.

A record is an immutable value whose fields are its `__slots__`.  Each
subclass writes its own `__init__`, filling the slots through `set_field`,
and a subclass whose `__init__` checks its fields may write a `_unchecked`
classmethod in the same way, without the checks, for the producers whose
output is valid by construction.  Everything else comes from the slots, here
and nowhere else: the fields are read-only; two records are equal when they
are of the same class and their fields are equal, and equal records hash
equal; the repr is `Name(field=value, ...)`; copying and pickling go through
the constructor.  So a field added to `__slots__` takes part in equality,
which the roundtrip checks compare, without further code.
"""
import operator

# A record's own __setattr__ refuses every assignment, so its __init__
# fills the slots through object's.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # the fields in slot order: a tuple, or the value itself for one slot
        cls._key = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
