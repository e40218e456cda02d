"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (enumeration, membership tests, direct
products) and shares no code path with the package implementation.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import permutations


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
    return cycles


def stirling1_by_enumeration(n: int, k: int) -> int:
    """Permutations of an n-set with exactly k cycles."""
    if n == 0:
        return 1 if k == 0 else 0
    return sum(1 for perm in permutations(range(n)) if cycle_count(perm) == k)


def set_partitions(items: list[int]):
    """Yield every partition of ``items`` as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [first]] + partial[i + 1 :]
        yield partial + [[first]]


def stirling2_by_enumeration(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0
    return sum(1 for part in set_partitions(list(range(n))) if len(part) == k)


def ascent_count(perm: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(perm) - 1) if perm[i] < perm[i + 1])


def eulerian_by_enumeration(n: int, k: int) -> int:
    """Permutations of {1..n} with exactly k ascents."""
    return sum(1 for perm in permutations(range(1, n + 1)) if ascent_count(perm) == k)


def stirling2_explicit(n: int, m: int) -> int:
    """(1/m!) sum(C(m,i) (-1)**(m-i) i**n), with 0**0 = 1."""
    total = sum(math.comb(m, i) * (-1) ** (m - i) * i**n for i in range(m + 1))
    quotient, remainder = divmod(total, math.factorial(m))
    assert remainder == 0
    return quotient


def rising_poly_coeffs(n: int) -> list[int]:
    """Coefficients of x(x+1)...(x+n-1), lowest power first."""
    coeffs = [1]
    for i in range(n):
        # multiply by (x + i)
        shifted = [0] + coeffs
        coeffs = [s + i * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs


def eulerian_row_by_series(n: int) -> list[int]:
    """Row n of the Eulerian triangle, A(n, k) for k = 0..n-1 (row 0 is [1]):
    the coefficients of A_n(x) = (1 - x)**(n + 1) times the sum over j of
    (j + 1)**n x**j, truncated to degree n - 1 (no recurrence and no
    ascent count)."""
    top = max(n, 1)
    powers = [(j + 1) ** n for j in range(top)]
    signs = [(-1) ** i * math.comb(n + 1, i) for i in range(top)]
    return [sum(signs[i] * powers[k - i] for i in range(k + 1)) for k in range(top)]


def stirling2_row_explicit(n: int) -> list[int]:
    """Row n of the second-kind Stirling triangle, S(n, m) for m = 0..n, each
    entry from :func:`stirling2_explicit`."""
    return [stirling2_explicit(n, m) for m in range(n + 1)]


def ord_by_division(x: int, p: int) -> int | None:
    """p-adic order by repeated division; None stands for the order of 0."""
    if x == 0:
        return None
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def naive_filtered_sum(upper: int, d: int, r: int, term) -> int:
    """sum of term(k) over 0 <= k <= upper with k = r (mod d), by membership
    test over every k (no striding)."""
    total = 0
    for k in range(upper + 1):
        if (k - r) % d == 0:
            total += term(k)
    return total


def _ring_times(a: list, b: list, big_d: int) -> list:
    """The product of two elements of Z[t]/(t**(L+1)) [x]/(x**D - 1 - t),
    each a list of D coefficient lists [c_0, ..., c_L] of x**rho."""
    top = len(a[0])
    out = [[0] * top for _ in range(big_d)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod = [sum(ai[u] * bj[s - u] for u in range(s + 1)) for s in range(top)]
            k = i + j
            if k >= big_d:  # x**(rho + D) = x**rho (1 + t)
                k -= big_d
                prod = [c + (prod[s - 1] if s else 0) for s, c in enumerate(prod)]
            out[k] = [o + c for o, c in zip(out[k], prod)]
    return out


def fleck_sums_by_ring(n: int, big_d: int, l_max: int) -> list[list[int]]:
    """F(n, rho, l) for l = 0..l_max (outer) and rho = 0..D-1 (inner): the
    sum over k = rho (mod D) of (-1)**k C(n, k) C((k - rho) / D, l).

    In Z[t]/(t**(L+1)) [x]/(x**D - 1 - t), x**(rho + jD) = x**rho (1 + t)**j,
    so (1 - x)**n is the sum of F(n, rho, l) x**rho t**l.  The power is taken
    by squaring: no binomial row and no ``math.comb``.
    """
    top = l_max + 1
    power = [[1 if rho == 0 and s == 0 else 0 for s in range(top)] for rho in range(big_d)]
    base = [row[:] for row in power]
    if big_d == 1:  # x = 1 + t, so 1 - x = -t
        base[0][0] = 0
        if top > 1:
            base[0][1] = -1
    else:
        base[1][0] = -1
    e = n
    while e:
        if e & 1:
            power = _ring_times(power, base, big_d)
        base = _ring_times(base, base, big_d)
        e >>= 1
    return [[power[rho][l] for rho in range(big_d)] for l in range(top)]


def report_summary(records) -> dict:
    """A report's summary object, tallied claim by claim from ``records``
    (``ClaimRecord``s): the verdict counts, the least margin and the params
    of the first VIOLATION."""
    verdicts = {name: 0 for name in ("HOLDS", "HOLDS-VACUOUS", "HOLDS-TRIVIAL-BOUND",
                                     "TIGHT", "VIOLATION", "NOT-APPLICABLE")}
    for rec in records:
        verdicts[rec.verdict.value] += 1
    margins = [rec.margin for rec in records if rec.margin is not None]
    violations = [rec.params for rec in records if rec.verdict.value == "VIOLATION"]
    return {"total": len(records), "verdicts": verdicts, "min_margin": min(margins, default=None),
            "first_violation": violations[0] if violations else None}


def dictwriter_csv(records, columns) -> str:
    """A CSV report of ``records`` as ``csv.DictWriter`` writes each
    record's ``to_json_dict()``, flattened into ``columns``."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        data = rec.to_json_dict()
        row = {"theorem": data["theorem"], **data["params"]}
        row.update((k, data[k]) for k in ("sum", "ord", "bound", "verdict", "margin")
                   if data[k] is not None)
        if "sc2" in data:
            sc2 = data["sc2"]
            row.update(sc2_l=sc2["l"], sc2_lhs="" if sc2["lhs"] is None else sc2["lhs"],
                       sc2_rhs=sc2["rhs"], sc2_satisfied=sc2["satisfied"])
        writer.writerow(row)
    return out.getvalue()
