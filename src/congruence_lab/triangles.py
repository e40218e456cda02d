"""Memoized exact triangles: unsigned first-kind Stirling, second-kind
Stirling, and Eulerian numbers, built in memory from their recurrences.

Conventions
-----------
* s(n, k) is UNSIGNED (cycle counts): sum(s(n,k) x**k) = x(x+1)...(x+n-1).
* Rows are ragged.  Stirling row n holds k = 0..n.  Eulerian row n holds
  k = 0..n-1 for n >= 1 (row 0 is the single seed entry, so the recurrence
  has a base).
* A Triangle is immutable after construction.

Triangle format (UTF-8)
-----------------------
:func:`format_lines` renders a triangle as text, the output of the
``triangle`` subcommand.  Line 1 is a JSON header
``{"family": ..., "format_version": 1, "max_n": ...}``; each following line
is one row, entries space-separated decimal strings.
"""

from __future__ import annotations

import json
from enum import Enum

from ._slots import Frozen
from .errors import CapacityError, ParameterError
from .exactmath import check_at_least, check_integer, check_params

FORMAT_VERSION = 1

#: Hard limit for the shared in-process tables.
ROW_LIMIT = 200


class Family(str, Enum):
    STIRLING1 = "stirling1"
    STIRLING2 = "stirling2"
    EULERIAN = "eulerian"


#: Each family's recurrence T(n, k) = a T(n-1, k-1) + b T(n-1, k), as the
#: step that makes row n from row n-1 padded with a zero on each side, so
#: that ``prev[k]`` is T(n-1, k-1) and ``prev[k + 1]`` is T(n-1, k).
_RECURRENCES = {
    # a = 1, b = n - 1, k = 0..n
    Family.STIRLING1: lambda n, prev: [prev[k] + (n - 1) * prev[k + 1] for k in range(n + 1)],
    # a = 1, b = k, k = 0..n
    Family.STIRLING2: lambda n, prev: [prev[k] + k * prev[k + 1] for k in range(n + 1)],
    # a = n - k, b = k + 1, k = 0..n-1 (row 0's seed is A(0, 0))
    Family.EULERIAN: lambda n, prev: [(n - k) * prev[k] + (k + 1) * prev[k + 1]
                                      for k in range(n)],
}


class Triangle(Frozen):
    """One number family tabulated up to row ``max_n``."""

    __slots__ = ("family", "max_n", "rows")

    def __init__(self, family: Family, max_n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        self._set(family, max_n, rows)

    def row(self, n: int) -> tuple[int, ...]:
        if check_at_least("n", n, 0) > self.max_n:
            raise CapacityError(
                f"row {n} exceeds this {self.family.value} triangle (max_n={self.max_n})"
            )
        return self.rows[n]

    def value(self, n: int, k: int) -> int:
        """Entry (n, k); zero outside the row's support."""
        row = self.row(n)
        if 0 <= check_integer("k", k) < len(row):
            return row[k]
        return 0


def _family(family: Family | str) -> Family:
    if family not in list(Family):
        raise ParameterError(f"family must be one of {', '.join(Family)}, got {family!r}")
    return Family(family)


def build(family: Family, max_n: int) -> Triangle:
    """Construct a triangle of rows 0..max_n from its recurrence."""
    family = _family(family)
    step = _RECURRENCES[family]
    rows = [(1,)]
    for n in range(1, check_at_least("max_n", max_n, 0) + 1):
        rows.append(tuple(step(n, (0, *rows[-1], 0))))
    return Triangle(family, max_n, tuple(rows))


def format_lines(tri: Triangle) -> Iterator[str]:
    """The triangle in the text format, one newline-terminated line at a time."""
    header = {
        "format_version": FORMAT_VERSION,
        "family": tri.family.value,
        "max_n": tri.max_n,
    }
    yield json.dumps(header, sort_keys=True) + "\n"
    for row in tri.rows:
        yield " ".join(str(v) for v in row) + "\n"


# ---------------------------------------------------------------------------
# Shared in-process tables
# ---------------------------------------------------------------------------

_shared: dict[Family, Triangle] = {}


def ensure_rows(family: Family, n: int) -> Triangle:
    """Shared triangle with row ``n`` available; grows geometrically up to
    :data:`ROW_LIMIT`, then raises :class:`CapacityError`."""
    if not isinstance(family, Family):  # a member skips the Enum call
        family = _family(family)
    if check_at_least("n", n, 0) > ROW_LIMIT:
        raise CapacityError(f"row {n} exceeds the row limit {ROW_LIMIT}")
    tri = _shared.get(family)
    if tri is None or tri.max_n < n:
        grown = max(n, 16, 2 * tri.max_n if tri is not None else 0)
        tri = build(family, min(grown, ROW_LIMIT))
        _shared[family] = tri
    return tri


def stirling1(n: int, k: int) -> int:
    """Unsigned first-kind Stirling number (permutations of n with k cycles)."""
    return ensure_rows(Family.STIRLING1, n).value(n, k)


def stirling2(n: int, k: int) -> int:
    """Second-kind Stirling number (partitions of an n-set into k blocks)."""
    return ensure_rows(Family.STIRLING2, n).value(n, k)


def eulerian(n: int, k: int) -> int:
    """Eulerian number (permutations of n with k ascents); requires n >= 1."""
    check_params(n=n, k=k)
    return ensure_rows(Family.EULERIAN, n).value(n, k)


def stirling1_row(n: int) -> tuple[int, ...]:
    return ensure_rows(Family.STIRLING1, n).row(n)
