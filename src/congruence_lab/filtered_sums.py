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
outermost, so one row serves every (p, alpha, l) tuple and residue of that n.

The per-residue sums (:func:`fleck_sum`, :func:`binom_power_sum`, the
Eulerian and the Stirling sums) multiply each term by its weight in place,
with exact ``math.comb`` weights or one running power of the base.  They are
``check_claim``'s reference, and the sweep path of the theorems that have no
one-pass sums (``sun``, ``ec1``, ``ec2`` and ``sc2``).

:func:`fleck_sums` and :func:`stirling_product_sums` return the sums of every
residue class of one modulus at once, in residue order, equal to one call of
:func:`fleck_sum` (no divisor) or :func:`stirling_product_sum` per residue:
the verifier evaluates a parameter tuple's d claims with one of them.
:func:`fleck_sums` reads the signed row (-1)**k C(n, k) and builds its sums
from repeated suffix sums of each class, by additions only, keeping those of
the last (n, d) for the next l; :func:`fleck_sum` keeps its
multiply-accumulate over ``math.comb`` weights and is the reference for it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import triangles
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


@dataclass(frozen=True)
class ResidueClass:
    """The integers congruent to ``residue`` modulo ``modulus``.

    The stored residue is canonical (0 <= residue < modulus), so two classes
    are equal iff they contain the same integers.
    """

    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ParameterError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

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
    values = _binomial_row(n)[cls.residue :: cls.modulus]
    quotients = [(k - cls.residue) // q for k in cls.members(n)]
    weights = _alternating_weights(cls, quotients, l)
    return sum(v * w for v, w in zip(values, weights))


# The suffix sums of the last (n, d) that fleck_sums was asked for:
# ((n, d), folds, classes), where classes[r] (r <= n) holds the folds-fold
# suffix sums of class r's signed terms, highest k first.  Replaced whole,
# never changed in place, so a call interrupted part-way leaves the last
# whole state.
_suffixes: tuple = (None, 0, ())


def fleck_sums(n: int, d: int, l: int = 0) -> list[int]:
    """The :func:`fleck_sum` of every residue r = 0..d - 1, with no divisor.

    Member j of class r is k = r + j * d, with weight (-1)**k C(j, l).  With
    v_k = (-1)**k C(n, k), the sum over j of v_(r + j d) C(j, l) is entry l
    of the (l + 1)-fold suffix sums of the class's terms, since t-fold suffix
    sums put weight C(j - i + t - 1, t - 1) on term j at entry i.  So the
    sums take additions only (no multiplications) and a class of at most l
    members sums to 0.

    A grid runs l innermost, so the suffix sums of the last (n, d) are kept
    and extended by one pass per fold asked for; a smaller l, or another
    (n, d), starts again from the signed row.  Only the classes r <= n are
    kept: the sums of the empty ones above n are zeros.
    """
    global _suffixes
    check_params(n=n, l=l)
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    row = _binomial_row(n)  # also refuses a float n, as math.comb did
    kept, folds, classes = _suffixes
    if kept != (n, d) or folds > l + 1:
        signed = list(row)
        signed[1::2] = [-c for c in signed[1::2]]
        folds, classes = 0, [signed[r::d][::-1] for r in range(min(d, n + 1))]
    while folds <= l:
        classes = [list(itertools.accumulate(c)) for c in classes]
        folds += 1
    _suffixes = ((n, d), folds, classes)
    sums = [c[-1 - l] if len(c) > l else 0 for c in classes]
    return sums + [0] * (d - len(sums))


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
    row = triangles.ensure_rows(Family.EULERIAN, n).row(n)  # n is checked above
    return sum(row[k] * math.comb(j, l) for j, k in enumerate(cls.members(n - 1)))


def eulerian_power_sum(n: int, cls: ResidueClass, a: int) -> int:
    """Filtered Eulerian power sum:
    sum over k = r (mod d), 0 <= k <= n-1, of A(n, k) a**k  (0**0 = 1).
    """
    check_params(n=n)
    row = triangles.ensure_rows(Family.EULERIAN, n).row(n)  # n is checked above
    return _power_sum((row[k] for k in cls.members(n - 1)), cls, a)


def stirling_product_sum(n: int, m: int, cls: ResidueClass, a: int) -> int:
    """Filtered mixed Stirling sum:
    sum over k = r (mod d), 0 <= k <= n, of s(n, k) S(k, m) a**k.

    The class modulus d is arbitrary; m > n gives 0 because S(k, m) vanishes.
    """
    check_params(n=n, m=m)
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
    srow = triangles.stirling1_row(n)
    return _power_sum((srow[k] * f(k) for k in cls.members(n)), cls, a)
