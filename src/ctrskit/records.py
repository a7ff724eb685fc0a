"""Base classes for the toolkit's records.

A record's fields are the names in its class's ``__slots__``, in order.  A
class declares nothing else to be built: :class:`Record` has the one
constructor, which binds positional arguments to the fields in order and
keywords by name, fills each missing field from the class's ``_defaults``
dict (a default that is a type, such as ``list``, is called for a fresh
value; a field without a default is required), sets every field with
``object.__setattr__`` and then calls ``_check``, which a class overrides
to raise ``ValueError`` on fields that do not fit together.  Binding errors
raise ``TypeError`` naming the class.

Records of the same class compare equal when their fields are; they print
as ``Name(field=value, ...)``, turn into a dict with :meth:`Record._asdict`,
and pickle and copy by calling the class with their field values, so
``_check`` runs again.  A :class:`Record` is mutable and unhashable.  A
:class:`Frozen` record rejects assignment after construction and hashes by
its fields.  Records that may compare equal to a plain tuple are
``typing.NamedTuple`` classes instead.
"""

from __future__ import annotations


class Record:
    """A mutable record: equality and repr by fields, no hash."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{self.__class__.__name__}() takes at most {len(names)} arguments "
                f"({len(args)} given)"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                if isinstance(value, type):
                    value = value()
            else:
                raise TypeError(f"{self.__class__.__name__}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        for name in kwargs:
            problem = "got multiple values for" if name in names else "got an unexpected keyword"
            raise TypeError(f"{self.__class__.__name__}() {problem} argument {name!r}")
        self._check()

    def _check(self) -> None:
        """Raise ``ValueError`` if the fields do not fit together."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        """The fields by name, in field order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Frozen(Record):
    """An immutable record, hashable when its fields are."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
