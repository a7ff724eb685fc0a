"""Base classes for the toolkit's records.

A record's fields are the names in its class's ``__slots__``, in order, and
its class writes the ``__init__`` that sets them.  Records of the same class
compare equal when their fields are; they print as ``Name(field=value,
...)``, turn into a dict with :meth:`Record._asdict`, and pickle and copy by
calling the class with their field values, so construction checks run
again.  A :class:`Record` is mutable and unhashable.  A :class:`Frozen`
record sets its fields once, through ``object.__setattr__``, rejects later
assignment and hashes by its fields.  Records that may compare equal to a
plain tuple are ``typing.NamedTuple`` classes instead.
"""

from __future__ import annotations


class Record:
    """A mutable record: equality and repr by fields, no hash."""

    __slots__ = ()

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
