"""Residue-class filtered weighted sums, evaluated directly over the integers.

Every sum here restricts its index k to one residue class and attaches an
exact integer weight.  No roots-of-unity arithmetic is involved anywhere: the
classical unity-filter representation is an identity about these sums, not an
implementation requirement.

Each sum is a function of n, its residue class (for a one-pass sum, the
modulus d) and the parameters of its weight, and checks only those.  Which
class a theorem sums over, p**alpha or p**beta, is the caller's business: the
verifier builds it from the checked claim, the CLI from its flags.

The binomial values C(n, k) come from one memoized row per n, built by
:func:`binomial_row`, not from ``math.comb`` per claim: a grid runs n
outermost, so one row serves every (p, alpha, l) tuple and residue of that n
(:func:`fleck_sums` reads it only when it cannot step from n - 1).

The per-residue sums (:func:`fleck_sum`, :func:`binom_power_sum`, the
Eulerian and the Stirling sums) multiply each term by its weight in place,
with exact ``math.comb`` weights or one running power of the base.  Each
public one checks its arguments and calls a private kernel
(``_fleck_sum``, ...) that checks nothing.  The theorem table's ``sum``
calls the kernels, since every claim path has checked the claim's
parameters: they are ``check_claim``'s reference, and the sweep path of the
theorems that have no one-pass sums (``sun``, ``ec1``, ``ec2`` and ``sc2``)
and of a residue subset.

:func:`fleck_sums` and :func:`stirling_product_sums` return the sums of every
residue class of one modulus at once, in residue order, equal to one call of
:func:`fleck_sum` (no divisor) or :func:`stirling_product_sum` per residue:
the verifier evaluates a parameter tuple's d claims with one of them.
:func:`fleck_sums` builds F(n, r, l), the sum over k = r (mod d) of
(-1)**k C(n, k) C((k - r) / d, l), by additions only.  For each modulus
d <= n it keeps the sums of the last n for l = 0..L, at most (L + 1) d
sums, and Pascal's rule steps all of them to n + 1:

    F(n, r, l) = F(n-1, r, l) - F(n-1, r-1, l)                  for r >= 1,
    F(n, 0, l) = F(n-1, 0, l) - F(n-1, d-1, l) - F(n-1, d-1, l-1),

with F(., ., -1) = 0.  The first n, a gap in the n axis, the first tuple of
a pool worker's chunk and a larger l than is kept fall back to repeated
suffix sums of each class of the signed row (-1)**k C(n, k), kept for one
(n, d) so that a larger l there extends them; a modulus d > n keeps nothing,
since the row gives its sums.  :func:`fleck_sum` keeps its
multiply-accumulate over ``math.comb`` weights and is the reference for it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import triangles
from ._slots import Frozen
from .errors import ParameterError
from .exactmath import IntPolynomial, check_params
from .triangles import Family

__all__ = [
    "ResidueClass",
    "binom_power_sum",
    "eulerian_power_sum",
    "eulerian_wan_sum",
    "fleck_sum",
    "fleck_sums",
    "stirling_poly_sum",
    "stirling_product_sum",
    "stirling_product_sums",
]


class ResidueClass(Frozen):
    """The integers congruent to ``residue`` modulo ``modulus``.

    The stored residue is canonical (0 <= residue < modulus), so two classes
    are equal iff they contain the same integers.
    """

    __slots__ = ("modulus", "residue")

    def __init__(self, modulus: int, residue: int) -> None:
        if modulus < 1:
            raise ParameterError(f"modulus must be >= 1, got {modulus}")
        self._set(modulus, residue % modulus)

    def members(self, upper: int) -> range:
        """Members in [0, upper], ascending (empty when residue > upper)."""
        return range(self.residue, upper + 1, self.modulus)


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


# typed: a float n gets no row from the cache, so it still fails as math.comb did
@functools.lru_cache(maxsize=1, typed=True)
def _binomial_row(n: int) -> tuple:
    """Row n of Pascal's triangle, kept until a sum asks for another n."""
    return tuple(binomial_row(n))


def _alternating_weights(cls: ResidueClass, quotients, l: int) -> list:
    """Weights (-1)**k * C(q_j, l) along the members of ``cls``."""
    sign = -1 if cls.residue % 2 else 1
    if cls.modulus % 2 == 0:
        return [sign * math.comb(q, l) for q in quotients]
    out = []
    for q in quotients:
        out.append(sign * math.comb(q, l))
        sign = -sign
    return out


def fleck_sum(n: int, cls: ResidueClass, l: int = 0, divisor: int | None = None) -> int:
    """Alternating filtered binomial sum with a binomial-of-quotient weight:
    sum over k = r (mod d), 0 <= k <= n, of C(n, k) (-1)**k C(floor((k - r) / q), l)

    with d the class modulus and q the ``divisor``, or d when none is given.
    At q = d the quotient is exact, and the l = 0 sum is the plain
    alternating filtered sum.  The ``sun`` claim sums over a class modulo
    p**beta with q = p**alpha.
    """
    check_params(n=n, l=l)
    q = cls.modulus if divisor is None else divisor
    if q < 1:
        raise ParameterError(f"divisor must be >= 1, got {q}")
    return _fleck_sum(n, cls, l, q)


def _fleck_sum(n: int, cls: ResidueClass, l: int = 0, q: int | None = None) -> int:
    """:func:`fleck_sum` of checked arguments, with the divisor ``q``."""
    q = cls.modulus if q is None else q
    values = _binomial_row(n)[cls.residue :: cls.modulus]
    quotients = [(k - cls.residue) // q for k in cls.members(n)]
    weights = _alternating_weights(cls, quotients, l)
    return sum(v * w for v, w in zip(values, weights))


# What fleck_sums keeps between calls.  For each modulus d, _kept[d] is
# (n, levels) for the last n asked with d <= n: levels[l][r] = F(n, r, l) for
# r < d and l = 0..L (see fleck_sums).  _kept[None] is
# ((n, d), levels, classes), the suffix sums that the last fallback folded
# from the row, for one (n, d), with the levels read from them so far.
# Entries are replaced whole, never changed in place, so a call interrupted
# part-way leaves whole entries.
_kept: dict = {None: (None, (), ())}


def _pascal_step(levels: tuple) -> tuple:
    """The levels of n from the levels of n - 1, by Pascal's rule."""
    stepped, below = [], None  # below: level l - 1 of n - 1
    for sums in levels:
        carry = sums[-1] + below[-1] if below else sums[-1]
        stepped.append([sums[0] - carry, *map(operator.sub, sums[1:], sums)])
        below = sums
    return tuple(stepped)


def fleck_sums(n: int, d: int, l: int = 0) -> list[int]:
    """The :func:`fleck_sum` of every residue r = 0..d - 1, with no divisor.

    Member j of class r is k = r + j * d, with weight (-1)**k C(j, l), so
    with v_k = (-1)**k C(n, k) the sum for r is F(n, r, l), the sum over j
    of v_(r + j d) C(j, l).  Pascal's rule, v(n)_k = v(n-1)_k - v(n-1)_(k-1),
    gives every F of n from those of n - 1 with 2d + 1 additions per l:

        F(n, r, l) = F(n-1, r, l) - F(n-1, r-1, l)                  for r >= 1,
        F(n, 0, l) = F(n-1, 0, l) - F(n-1, d-1, l) - F(n-1, d-1, l-1),

    with F(., ., -1) = 0.  A grid runs n outermost and l innermost, so for
    each modulus d <= n the sums of the last n are kept for l = 0..L, and a
    step carries every kept level, since stepping level l needs level l - 1.
    L is the largest l asked of d since its sums last came from the row, so
    a modulus keeps at most (L + 1) d sums.  A modulus d > n keeps nothing:
    each class then has at most one member, and the row gives the sums.

    With no usable n - 1 (the first n, a gap in the n axis, the first tuple
    of a pool worker's chunk) or a larger l than is kept, the sums come from
    the signed row instead: F(n, r, l) is entry l of the (l + 1)-fold suffix
    sums of class r's terms, highest k first, since t-fold suffix sums put
    weight C(j - i + t - 1, t - 1) on term j at entry i.  A class of at most
    l members sums to 0.  These suffix sums are kept for one (n, d), so a
    larger l there extends them by one pass per fold.
    """
    check_params(n=n, l=l)
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    n = operator.index(n)  # a float n fails, as math.comb does
    kept_n, levels = _kept.get(d, (None, ()))
    if kept_n == n - 1 and len(levels) > l:
        levels = _pascal_step(levels)
    elif kept_n != n or len(levels) <= l:
        if d > n:  # class r has at most one member, k = r, with weight C(0, l)
            if l:
                return [0] * d
            row = _binomial_row(n)
            return [c if k % 2 == 0 else -c for k, c in enumerate(row)] + [0] * (d - n - 1)
        key, levels, classes = _kept[None]
        if key != (n, d):
            signed = list(_binomial_row(n))
            signed[1::2] = [-c for c in signed[1::2]]
            levels, classes = (), [signed[r::d][::-1] for r in range(d)]
        while len(levels) <= l:
            classes = [list(itertools.accumulate(c)) for c in classes]
            depth = len(levels)
            levels += ([c[-1 - depth] if len(c) > depth else 0 for c in classes],)
        _kept[None] = ((n, d), levels, classes)
    _kept[d] = (n, levels)
    return list(levels[l])


def _power_sum(terms, cls: ResidueClass, base: int) -> int:
    """Sum of terms[j] * base**(r + j d) along the members r + j d of ``cls``,
    with one running power (so 0**0 is 1).  It takes no power a term does not
    use: none for an empty class, and the step only from the second term on."""
    total = 0
    for j, term in enumerate(terms):
        if j == 1:
            step = base**cls.modulus
        power = power * step if j else base**cls.residue
        total += term * power
    return total


def binom_power_sum(n: int, cls: ResidueClass, a: int) -> int:
    """Filtered binomial power sum:
    sum over k = r (mod d), 0 <= k <= n, of C(n, k) (-a)**k.

    At a = 1 this specializes to the l = 0 :func:`fleck_sum`.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    return _power_sum(_binomial_row(n)[cls.residue :: cls.modulus], cls, -a)


def eulerian_wan_sum(n: int, cls: ResidueClass, l: int) -> int:
    """Filtered Eulerian sum with a binomial-of-quotient weight:
    sum over k = r (mod d), 0 <= k <= n-1, of A(n, k) C((k - r) / d, l).
    """
    check_params(n=n, l=l)
    return _eulerian_wan_sum(n, cls, l)


def _eulerian_wan_sum(n: int, cls: ResidueClass, l: int) -> int:
    row = triangles.ensure_rows(Family.EULERIAN, n).row(n)
    return sum(row[k] * math.comb(j, l) for j, k in enumerate(cls.members(n - 1)))


def eulerian_power_sum(n: int, cls: ResidueClass, a: int) -> int:
    """Filtered Eulerian power sum:
    sum over k = r (mod d), 0 <= k <= n-1, of A(n, k) a**k  (0**0 = 1).
    """
    check_params(n=n)
    return _eulerian_power_sum(n, cls, a)


def _eulerian_power_sum(n: int, cls: ResidueClass, a: int) -> int:
    row = triangles.ensure_rows(Family.EULERIAN, n).row(n)
    return _power_sum((row[k] for k in cls.members(n - 1)), cls, a)


def stirling_product_sum(n: int, m: int, cls: ResidueClass, a: int) -> int:
    """Filtered mixed Stirling sum:
    sum over k = r (mod d), 0 <= k <= n, of s(n, k) S(k, m) a**k.

    The class modulus d is arbitrary; m > n gives 0 because S(k, m) vanishes.
    """
    check_params(n=n, m=m)
    return _stirling_product_sum(n, m, cls, a)


def _stirling_product_sum(n: int, m: int, cls: ResidueClass, a: int) -> int:
    srow = triangles.stirling1_row(n)
    tri2 = triangles.ensure_rows(Family.STIRLING2, n)
    return _power_sum((srow[k] * tri2.value(k, m) for k in cls.members(n)), cls, a)


def stirling_product_sums(n: int, m: int, d: int, a: int) -> list[int]:
    """The :func:`stirling_product_sum` of every residue r = 0..d-1, from one
    pass over k that adds each term to the total of k mod d."""
    check_params(n=n, m=m)
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    srow = triangles.stirling1_row(n)
    rows2 = triangles.ensure_rows(Family.STIRLING2, n).rows
    totals = [0] * d
    power = a**m  # S(k, m) = 0 for k < m
    for k in range(m, n + 1):
        totals[k % d] += srow[k] * rows2[k][m] * power
        power *= a
    return totals


def stirling_poly_sum(n: int, f: IntPolynomial, cls: ResidueClass, a: int) -> int:
    """Filtered polynomial-weighted Stirling sum:
    sum over k = r (mod d), 0 <= k <= n, of s(n, k) f(k) a**k.
    """
    check_params(n=n)
    return _stirling_poly_sum(n, f, cls, a)


def _stirling_poly_sum(n: int, f: IntPolynomial, cls: ResidueClass, a: int) -> int:
    srow = triangles.stirling1_row(n)
    return _power_sum((srow[k] * f(k) for k in cls.members(n)), cls, a)
