"""The hot loops of the package: triangle recurrences, the binomial row and
exact multiply-accumulate over lists.

All arithmetic stays on Python ints, so results are exact.
"""

from __future__ import annotations


def dot2(values: list, weights: list) -> int:
    """Sum of values[i] * weights[i]; lists must have equal length."""
    if len(values) != len(weights):
        raise ValueError("dot2: length mismatch")
    total = 0
    for i in range(len(values)):
        total += values[i] * weights[i]
    return total


def dot3(xs: list, ys: list, weights: list) -> int:
    """Sum of xs[i] * ys[i] * weights[i]; lists must have equal length."""
    n = len(xs)
    if len(ys) != n or len(weights) != n:
        raise ValueError("dot3: length mismatch")
    total = 0
    for i in range(n):
        total += xs[i] * ys[i] * weights[i]
    return total


def power_steps(base: int, first_exponent: int, exponent_step: int, count: int) -> list:
    """[base**e for e = first, first+step, ...], ``count`` exact powers.

    Exponents must be nonnegative; 0**0 is 1.
    """
    if count <= 0:
        return []
    if first_exponent < 0 or exponent_step < 0:
        raise ValueError("power_steps: exponents must be nonnegative")
    acc = base**first_exponent
    out = [acc]
    if count > 1:
        ratio = base**exponent_step
        for _ in range(count - 1):
            acc = acc * ratio
            out.append(acc)
    return out


def binomial_row(n: int) -> list:
    """Row n of Pascal's triangle: [C(n, 0), ..., C(n, n)] for n >= 0.

    Built from C(n, k+1) = C(n, k) * (n-k) // (k+1); the division is exact,
    because C(n, k) * (n-k) = C(n, k+1) * (k+1).
    """
    if n < 0:
        raise ValueError("binomial_row: n must be nonnegative")
    row = [1]
    c = 1
    for k in range(n):
        c = c * (n - k) // (k + 1)
        row.append(c)
    return row


def stirling1_rows(max_n: int) -> list:
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


def stirling2_rows(max_n: int) -> list:
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


def eulerian_rows(max_n: int) -> list:
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
