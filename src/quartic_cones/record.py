"""Immutable records: the part of ``dataclass(frozen=True)`` the package uses."""

from __future__ import annotations


# not dataclasses: importing it costs about 11 ms per process (it pulls in inspect)
def record(cls):
    """Make ``cls`` an immutable record over its annotated fields.

    As with ``dataclass(frozen=True)``: construction by position or by
    keyword, then ``__post_init__`` if the class defines one; field-wise
    ``==``, ``hash`` and ``repr``; assignment and deletion raise
    AttributeError.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` works.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    post_init = getattr(cls, "__post_init__", None)

    def values(self):
        return tuple(getattr(self, name) for name in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            if (len(args) > len(fields) or given.keys() & kwargs.keys()
                    or given.keys() | kwargs.keys() != set(fields)):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}; "
                                f"got {len(args)} positional and {sorted(kwargs)}")
            given.update(kwargs)
            args = [given[name] for name in fields]
        self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{cls.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {cls.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {cls.__name__}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
