"""Residue-class filtered weighted sums, evaluated directly over the integers.

Every sum here restricts its index k to one residue class and attaches an
exact integer weight.  No roots-of-unity arithmetic is involved anywhere: the
classical unity-filter representation is an identity about these sums, not an
implementation requirement.

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
:func:`fleck_sum` (EXACT) or :func:`stirling_product_sum` per residue: the
verifier evaluates a parameter tuple's d claims with one of them.
:func:`fleck_sums` reads the signed row (-1)**k C(n, k) and builds its sums
from repeated suffix sums of each class, by additions only, keeping those of
the last (n, p**alpha) for the next l; :func:`fleck_sum` keeps its
multiply-accumulate over ``math.comb`` weights and is the reference for it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

from . import triangles
from .errors import ParameterError
from .exactmath import IntPolynomial, check_params
from .triangles import Family

__all__ = [
    "ResidueClass",
    "Variant",
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

    def contains(self, k: int) -> bool:
        return (k - self.residue) % self.modulus == 0

    def members(self, upper: int) -> range:
        """Members in [0, upper], ascending (empty when residue > upper)."""
        return range(self.residue, upper + 1, self.modulus)


class Variant(Enum):
    """Quotient rule inside the binomial weight of :func:`fleck_sum`."""

    EXACT = "exact"
    FLOOR = "floor"


def _check_modulus(cls: ResidueClass, p: int, name: str, exponent: int) -> None:
    """Refuse a class whose modulus is not p**exponent (named ``name``)."""
    if cls.modulus != p**exponent:
        raise ParameterError(
            f"class modulus must be p**{name} = {p**exponent}, got {cls.modulus}")


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


def fleck_sum(
    n: int,
    p: int,
    alpha: int,
    cls: ResidueClass,
    l: int = 0,
    variant: Variant = Variant.EXACT,
    beta: int | None = None,
) -> int:
    """Alternating filtered binomial sum with a binomial-of-quotient weight.

    EXACT variant (class modulus p**alpha):
        sum over k = r (mod p**alpha), 0 <= k <= n, of
        C(n, k) (-1)**k C((k - r) / p**alpha, l).
    FLOOR variant (class modulus p**beta, alpha >= beta >= 0):
        same, with weight C(floor((k - r) / p**alpha), l).

    With l = 0 and EXACT this is the plain alternating filtered sum.  The
    parameters go through :func:`~congruence_lab.exactmath.check_params`
    (beta too, for FLOOR), and FLOOR also refuses beta > alpha.
    """
    check_params(n=n, p=p, alpha=alpha, l=l)
    p_alpha = p**alpha
    if variant is Variant.EXACT:
        # beta is ignored here: the class modulus already is p**alpha
        _check_modulus(cls, p, "alpha", alpha)
    elif variant is Variant.FLOOR:
        if beta is None:
            raise ParameterError("floor variant needs beta")
        check_params(beta=beta)
        if beta > alpha:
            raise ParameterError(f"need alpha >= beta, got alpha={alpha}, beta={beta}")
        _check_modulus(cls, p, "beta", beta)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    values = _binomial_row(n)[cls.residue :: cls.modulus]
    if variant is Variant.EXACT:
        # k = r + j * p**alpha, so the exact quotient is the stride index j
        quotients: list | range = range(len(values))
    else:
        quotients = [(k - cls.residue) // p_alpha for k in cls.members(n)]
    weights = _alternating_weights(cls, quotients, l)
    return sum(v * w for v, w in zip(values, weights))


# The suffix sums of the last (n, d) that fleck_sums was asked for:
# ((n, d), folds, classes), where classes[r] holds the folds-fold suffix sums
# of class r's signed terms, highest k first.  Replaced whole, never changed
# in place, so a call interrupted part-way leaves the last whole state.
_suffixes: tuple = (None, 0, ())


def fleck_sums(n: int, p: int, alpha: int, l: int = 0) -> list[int]:
    """The EXACT :func:`fleck_sum` of every residue r = 0..p**alpha - 1.

    Member j of class r is k = r + j * p**alpha, with weight
    (-1)**k C(j, l).  With v_k = (-1)**k C(n, k), the sum over j of
    v_(r + j p**alpha) C(j, l) is entry l of the (l + 1)-fold suffix sums of
    the class's terms, since t-fold suffix sums put weight C(j - i + t - 1,
    t - 1) on term j at entry i.  So the sums take additions only (no
    multiplications) and a class of at most l members sums to 0.

    A grid runs l innermost, so the suffix sums of the last (n, p**alpha)
    are kept and extended by one pass per fold asked for; a smaller l, or
    another (n, p**alpha), starts again from the signed row.
    """
    global _suffixes
    check_params(n=n, p=p, alpha=alpha, l=l)
    d = p**alpha
    row = _binomial_row(n)  # also refuses a float n, as math.comb did
    kept, folds, classes = _suffixes
    if kept != (n, d) or folds > l + 1:
        signed = list(row)
        signed[1::2] = [-c for c in signed[1::2]]
        folds, classes = 0, [signed[r::d][::-1] for r in range(d)]
    while folds <= l:
        classes = [list(itertools.accumulate(c)) for c in classes]
        folds += 1
    _suffixes = ((n, d), folds, classes)
    return [c[-1 - l] if len(c) > l else 0 for c in classes]


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


def binom_power_sum(n: int, p: int, alpha: int, cls: ResidueClass, a: int) -> int:
    """Filtered binomial power sum:
    sum over k = r (mod p**alpha), 0 <= k <= n, of C(n, k) (-a)**k.

    At a = 1 this specializes to the l = 0 exact :func:`fleck_sum`.
    """
    check_params(p=p, alpha=alpha)
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    _check_modulus(cls, p, "alpha", alpha)
    return _power_sum(_binomial_row(n)[cls.residue :: cls.modulus], cls, -a)


def eulerian_wan_sum(n: int, p: int, alpha: int, cls: ResidueClass, l: int) -> int:
    """Filtered Eulerian sum with a binomial-of-quotient weight:
    sum over k = r (mod p**alpha), 0 <= k <= n-1, of A(n, k) C((k - r) / p**alpha, l).
    """
    check_params(n=n, p=p, alpha=alpha, l=l)
    _check_modulus(cls, p, "alpha", alpha)
    row = triangles.ensure_rows(Family.EULERIAN, n).row(n)  # n is checked above
    return sum(row[k] * math.comb(j, l) for j, k in enumerate(cls.members(n - 1)))


def eulerian_power_sum(n: int, p: int, alpha: int, cls: ResidueClass, a: int) -> int:
    """Filtered Eulerian power sum:
    sum over k = r (mod p**alpha), 0 <= k <= n-1, of A(n, k) a**k  (0**0 = 1).
    """
    check_params(n=n, p=p, alpha=alpha)
    _check_modulus(cls, p, "alpha", alpha)
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
