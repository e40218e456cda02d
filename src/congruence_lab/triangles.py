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
from .exactmath import check_integer, check_params

FORMAT_VERSION = 1

#: Hard limit for the shared in-process tables.
ROW_LIMIT = 200


class Family(str, Enum):
    STIRLING1 = "stirling1"
    STIRLING2 = "stirling2"
    EULERIAN = "eulerian"


def _stirling1_rows(max_n: int) -> list:
    """Rows 0..max_n of the unsigned first-kind Stirling triangle.

    Row n holds s(n, k) for k = 0..n, built from
    s(n, k) = s(n-1, k-1) + (n-1) * s(n-1, k).
    """
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[n - 1]
        nm1 = n - 1
        row = [nm1 * prev[0]]
        for k in range(1, n):
            row.append(prev[k - 1] + nm1 * prev[k])
        row.append(prev[n - 1])
        rows.append(row)
    return rows


def _stirling2_rows(max_n: int) -> list:
    """Rows 0..max_n of the second-kind Stirling triangle.

    Row n holds S(n, k) for k = 0..n, built from
    S(n, k) = S(n-1, k-1) + k * S(n-1, k).
    """
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[n - 1]
        row = [0]
        for k in range(1, n):
            row.append(prev[k - 1] + k * prev[k])
        row.append(prev[n - 1])
        rows.append(row)
    return rows


def _eulerian_rows(max_n: int) -> list:
    """Rows 0..max_n of the Eulerian triangle.

    Row 0 is the seed [1]; row n (n >= 1) holds the ascent counts for
    k = 0..n-1, built from A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1).
    """
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[n - 1]
        plen = len(prev)
        row = []
        for k in range(n):
            acc = 0
            if k < plen:
                acc += (k + 1) * prev[k]
            if 0 <= k - 1 < plen:
                acc += (n - k) * prev[k - 1]
            row.append(acc)
        rows.append(row)
    return rows


_BUILDERS = {
    Family.STIRLING1: _stirling1_rows,
    Family.STIRLING2: _stirling2_rows,
    Family.EULERIAN: _eulerian_rows,
}


class Triangle(Frozen):
    """One number family tabulated up to row ``max_n``."""

    __slots__ = ("family", "max_n", "rows")

    def __init__(self, family: Family, max_n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        self._set(family, max_n, rows)

    def row(self, n: int) -> tuple[int, ...]:
        if n < 0:
            raise ParameterError(f"row index must be >= 0, got {n}")
        if n > self.max_n:
            raise CapacityError(
                f"row {n} exceeds this {self.family.value} triangle (max_n={self.max_n})"
            )
        return self.rows[n]

    def value(self, n: int, k: int) -> int:
        """Entry (n, k); zero outside the row's support."""
        row = self.row(n)
        if 0 <= k < len(row):
            return row[k]
        return 0


def build(family: Family, max_n: int) -> Triangle:
    """Construct a triangle of rows 0..max_n from the recurrences."""
    if family not in list(Family):
        raise ParameterError(f"family must be one of {', '.join(Family)}, got {family!r}")
    family = Family(family)
    if check_integer("max_n", max_n) < 0:
        raise ParameterError(f"max_n must be >= 0, got {max_n}")
    rows = _BUILDERS[family](max_n)
    return Triangle(family, max_n, tuple(tuple(r) for r in rows))


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
    # a sweep asks for a row on every tuple: skip the Enum call for a member
    if not isinstance(family, Family):
        family = Family(family)
    if n < 0:
        raise ParameterError(f"row index must be >= 0, got {n}")
    if n > ROW_LIMIT:
        raise CapacityError(f"row {n} exceeds the row limit {ROW_LIMIT}")
    tri = _shared.get(family)
    if tri is None or tri.max_n < n:
        grown = max(n, 16, 2 * tri.max_n if tri is not None else 0)
        tri = build(family, min(grown, ROW_LIMIT))
        _shared[family] = tri
    return tri


def stirling1(n: int, k: int) -> int:
    """Unsigned first-kind Stirling number (permutations of n with k cycles)."""
    check_integer("k", k)
    return ensure_rows(Family.STIRLING1, check_integer("n", n)).value(n, k)


def stirling2(n: int, k: int) -> int:
    """Second-kind Stirling number (partitions of an n-set into k blocks)."""
    check_integer("k", k)
    return ensure_rows(Family.STIRLING2, check_integer("n", n)).value(n, k)


def eulerian(n: int, k: int) -> int:
    """Eulerian number (permutations of n with k ascents); requires n >= 1."""
    check_params(n=n, k=k)
    return ensure_rows(Family.EULERIAN, n).value(n, k)


def stirling1_row(n: int) -> tuple[int, ...]:
    return ensure_rows(Family.STIRLING1, n).row(n)
