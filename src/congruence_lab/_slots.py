"""The base of the package's value classes.

A value class lists its fields in ``__slots__`` and sets them in its own
``__init__``.  The base compares and shows it field by field, in
``__slots__`` order: ``Point(x=1, y=2)``, equal only to an instance of the
same class with equal fields.  A :class:`Frozen` one also hashes its fields
and refuses assignment with an :class:`AttributeError`; its ``__init__``
takes them in ``__slots__`` order (so that copy and pickle can call it) and
sets them with :meth:`Frozen._set`.  Plain classes keep the standard
library's class-generating machinery, and its import, out of the start-up of
every run.
"""

from __future__ import annotations

__all__ = ["Frozen", "Slotted"]


class Slotted:
    """A value class with mutable fields: compared and shown field by field,
    and unhashable."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Slotted):
    """A value class whose fields are set once, in ``__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, *values: object) -> None:
        """Set the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self) -> tuple:
        # copy and pickle would otherwise set the fields one by one
        return type(self), self._fields()
