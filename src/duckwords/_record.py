"""
The base of the package's value classes.

A record is an immutable value whose fields are its `__slots__`.  Each
subclass writes its own `__init__` (filling the slots through `set_field`),
`__eq__` and `__hash__` over its fields by name, since a loop over the field
names is slower on these hot paths.  The base makes the fields read-only and
gives the repr, `Name(field=value, ...)`, and copying and pickling by the
constructor.  A subclass whose `__init__` checks its fields may write a
`_unchecked` classmethod in the same way, without the checks, for the
producers whose output is valid by construction.
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

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
