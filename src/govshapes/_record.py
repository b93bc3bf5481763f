"""The base classes of govshapes' immutable values.

``Record`` gives a subclass what ``@dataclass(frozen=True)`` would: the
subclass lists its fields as class annotations, in order, each with an
optional default, and gets

  - an ``__init__`` taking each field by position or by keyword, which
    then calls ``__post_init__`` if the class has one;
  - frozen attributes: assigning or deleting one raises AttributeError;
  - ``==`` and ``hash`` over the compared fields, ``==`` only between
    instances of one class;
  - the dataclass ``repr``, ``Name(field=value, ...)``;
  - pickles that hold the fields alone, so that what a subclass caches
    beside them (a ``functools.cached_property``, which writes to the
    instance ``__dict__`` directly) is built again after unpickling.

The methods are shared by every subclass, not generated for it:
``__init_subclass__`` only reads the class's own annotations, once. The
class keyword ``uncompared`` names fields that ``==`` and ``hash`` leave
out.

Every module that defines records imports ``annotations`` from
``__future__``, so reading a class's annotations evaluates none of them.
Since Python 3.10, ``cls.__annotations__`` holds the class's own
annotations only, never those of a base.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Attributes that cannot be assigned or deleted after ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """A value with named fields; see the module docstring."""

    _fields: tuple[str, ...] = ()   # in __init__ order
    _field_set: frozenset[str] = frozenset()
    _defaults: dict[str, object] = {}
    _compared: tuple[str, ...] = ()
    _values = attrgetter("__class__")  # what == and hash compare; see below
    _post_init = None

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {**cls._defaults,
                         **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._compared = cls._compared + tuple(n for n in own if n not in uncompared)
        # an attrgetter runs in C: the tuple of the compared values, or the
        # value itself when there is one; a class with none compares its
        # instances equal, as a dataclass would
        if cls._compared:
            cls._values = attrgetter(*cls._compared)
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs) -> None:
        cls = self.__class__
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes at most {len(names)} "
                            f"positional arguments ({len(args)} given)")
        values = dict(zip(names, args))
        if kwargs:
            if not (kwargs.keys() <= cls._field_set and kwargs.keys().isdisjoint(values)):
                for name in kwargs:
                    if name in values:
                        raise TypeError(f"{cls.__qualname__}() got multiple values "
                                        f"for argument {name!r}")
                    if name not in names:
                        raise TypeError(f"{cls.__qualname__}() got an unexpected "
                                        f"keyword argument {name!r}")
            values.update(kwargs)
        if len(values) < len(names):
            values = {**cls._defaults, **values}
            if len(values) < len(names):
                missing = next(n for n in names if n not in values)
                raise TypeError(f"{cls.__qualname__}() missing required argument "
                                f"{missing!r}")
        object.__setattr__(self, "__dict__", values)
        if cls._post_init is not None:
            cls._post_init(self)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __getstate__(self) -> dict:
        fields = self.__dict__
        return {n: fields[n] for n in self._fields}

    def __repr__(self) -> str:
        fields = self.__dict__
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={fields[n]!r}" for n in self._fields) + ")")
