"""`Record`, the immutable base of the package's value types.

A subclass names its fields in `__slots__`, in constructor order, and the
trailing ones' defaults in `_defaults` (one whose `__init__` derives more
slots names the fields it is built from in `_fields`).  A record refuses
assignment, and compares, hashes and prints by its fields, as a frozen
dataclass does.  Nothing in the package copies or pickles a value, so a
record supports neither (a copy raises where it sets a field).
"""


class Record:
    __slots__ = ()
    _defaults: dict = {}

    @property
    def _fields(self) -> tuple:
        return self.__slots__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for f in fields:
            object.__setattr__(self, f, values[f])

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
