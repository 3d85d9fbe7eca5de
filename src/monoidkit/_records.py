"""Record classes without generated code.

The result records (``AbelianGroup``, ``HomologyGroup``, the reports...)
behave as ``@dataclass`` records did: a record ``repr`` of its fields,
``==`` between records of the same class comparing the field tuples, no
hash unless frozen.  A record class writes its own ``__init__`` and lists
its fields in ``_fields``; the rest comes from here.  ``dataclasses``
is not used, because each CLI call is a fresh process: importing it
pulls in ``inspect``, ``ast`` and ``dis`` (~6 ms) and generating one
record's methods costs ~0.4 ms, together about a sixth of a short CLI
call.
"""

from __future__ import annotations

from reprlib import recursive_repr


class Record:
    """A mutable, unhashable record of the fields named in ``_fields``."""

    _fields: tuple[str, ...] = ()

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None


class FrozenRecord(Record):
    """A record whose fields cannot change after ``__init__``, hashed by
    its field tuple; ``__init__`` sets them with ``object.__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
