"""Record: the base of the package's immutable value types.

A record's fields are its annotated class attributes, in order; a field's
class value, if any, is its default.  A record is built from its fields
positionally or by keyword, then runs __post_init__; afterwards assignment
raises AttributeError.  Equality and hash read the fields the class keyword
`uncompared` does not name, and repr shows every field.  Instances keep a
__dict__, so functools.cached_property works on them.

This is what the package used of a frozen dataclass, without generated
code: the dataclass module loads inspect, and each dataclass execs its
methods, which a short CLI call pays for at every start.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        # a plain callable, not a method: self._compared(self) reads the values
        cls._compared = attrgetter(*[f for f in cls._fields if f not in uncompared])

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        values = self.__dict__
        values.update(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif not hasattr(type(self), name):
                raise TypeError(f"{type(self).__name__} needs field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == other._compared(other)

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"
