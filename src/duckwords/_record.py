"""
The base of the package's value classes.

A record is an immutable value whose fields are its `__slots__`.  Each
subclass writes its own `__init__` (filling the slots through `set_field`),
`__eq__` and `__hash__` over its fields by name, since a loop over the field
names is slower on these hot paths.  The base makes the fields read-only and
gives the repr, `Name(field=value, ...)`, and copying and pickling by the
constructor.  A subclass whose `__init__` checks its fields offers `_unchecked`
to the producers whose output is valid by construction.
"""

# A record's own __setattr__ refuses every assignment, so its __init__
# fills the slots through object's.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __init_subclass__(cls):
        # the slots' own setters, looked up once: _unchecked is on hot paths
        cls._slot_setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _unchecked(cls, *fields):
        """The record with these fields, in slot order, without `__init__`."""
        record = object.__new__(cls)
        for set_slot, value in zip(cls._slot_setters, fields):
            set_slot(record, value)
        return record

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
