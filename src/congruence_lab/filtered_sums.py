"""Residue-class filtered weighted sums, evaluated directly over the integers.

Every sum here restricts its index k to one residue class and attaches an
exact integer weight.  No roots-of-unity arithmetic is involved anywhere: the
classical unity-filter representation is an identity about these sums, not an
implementation requirement.

Each sum is a function of n, its residue class (for a one-pass sum, the
modulus d) and the parameters of its weight.  Which class a theorem sums
over, p**alpha or p**beta, is the caller's business: the verifier builds it
from the checked claim, the CLI from its flags.  Each public sum checks its
arguments and calls a private kernel that checks nothing (``_fleck_sum``,
..., the :class:`_SweepState` methods); the theorem table calls only the
kernels, since every claim path has checked the claim's parameters.

The binomial values C(n, k) come from one memoized row per n, built by
:func:`binomial_row`, not from ``math.comb`` per claim: a grid runs n
outermost, so one row serves every tuple and residue of that n.  That
one-row cache is the module's only state.  The per-residue sums
(:func:`fleck_sum`, :func:`binom_power_sum`, the Eulerian and the Stirling
sums) are their formulas, one term per member of the class: the Fleck and
Eulerian sums weigh each term by ``math.comb``, and the power sums keep one
running power of the base (:func:`_power_sum`).  They are
``check_claim``'s reference, and the sweep path of ``sun``, ``ec1``,
``ec2``, ``sc2`` (no one-pass sums) and of a residue subset.

:func:`fleck_sums` and :func:`stirling_product_sums` return the sums of every
residue class of one modulus at once, in residue order, equal to one
per-residue sum each: the verifier evaluates a parameter tuple's d claims
with one of them.  A sweep runs them on the :class:`_SweepState` its plan
owns: :func:`fleck_sums` steps the sums of n from those of n - 1, and
:func:`stirling_product_sums` folds the terms of a block's n into each of
its moduli at once.  The public ones keep nothing between calls.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import triangles
from ._slots import Frozen
from .exactmath import IntPolynomial, check_at_least, check_params
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
        check_params(d=modulus, r=residue)
        self._set(modulus, residue % modulus)

    def members(self, upper: int) -> range:
        """Members in [0, upper], ascending (empty when residue > upper)."""
        return range(self.residue, upper + 1, self.modulus)


def binomial_row(n: int) -> list:
    """Row n of Pascal's triangle: [C(n, 0), ..., C(n, n)] for n >= 0.

    Built from C(n, k+1) = C(n, k) * (n-k) // (k+1); the division is exact,
    because C(n, k) * (n-k) = C(n, k+1) * (k+1).
    """
    check_at_least("n", n, 0)
    row = [1]
    c = 1
    for k in range(n):
        c = c * (n - k) // (k + 1)
        row.append(c)
    return row


@functools.lru_cache(maxsize=1)
def _binomial_row(n: int) -> tuple:
    """Row n of Pascal's triangle, kept until a sum asks for another n."""
    return tuple(binomial_row(n))


def fleck_sum(n: int, cls: ResidueClass, l: int = 0, divisor: int | None = None) -> int:
    """Alternating filtered binomial sum with a binomial-of-quotient weight:
    sum over k = r (mod d), 0 <= k <= n, of C(n, k) (-1)**k C(floor((k - r) / q), l)

    with d the class modulus and q the ``divisor``, or d when none is given.
    At q = d the quotient is exact, and the l = 0 sum is the plain
    alternating filtered sum.  The ``sun`` claim sums over a class modulo
    p**beta with q = p**alpha.
    """
    check_params(n=n, l=l)
    if divisor is not None:
        check_params(divisor=divisor)
    return _fleck_sum(n, cls, l, divisor)


def _fleck_sum(n: int, cls: ResidueClass, l: int = 0, q: int | None = None) -> int:
    """:func:`fleck_sum` of checked arguments, with the divisor ``q``."""
    row, r, q = _binomial_row(n), cls.residue, q or cls.modulus
    return sum((-row[k] if k & 1 else row[k]) * math.comb((k - r) // q, l)
               for k in cls.members(n))


def fleck_sums(n: int, d: int, l: int = 0) -> list[int]:
    """The :func:`fleck_sum` of every residue r = 0..d - 1, with no divisor,
    worked out on a fresh :class:`_SweepState`, so from the row."""
    check_params(n=n, d=d, l=l)
    return _SweepState().fleck_sums(n, d, l)


class _SweepState:
    """What the one-pass sums of one sweep keep between its tuples, across
    its grids; a sweep's plan holds one, so it goes when the sweep ends,
    and a pool worker starts with none.

    With v_k = (-1)**k C(n, k), the sum for class r is F(n, r, l), the sum
    over j of v_(r + j d) C(j, l).  Pascal's rule, v(n)_k = v(n-1)_k -
    v(n-1)_(k-1), gives every F of n from those of n - 1 with 2d + 1
    additions per l:

        F(n, r, l) = F(n-1, r, l) - F(n-1, r-1, l)                  for r >= 1,
        F(n, 0, l) = F(n-1, 0, l) - F(n-1, d-1, l) - F(n-1, d-1, l-1),

    with F(., ., -1) = 0.  So ``kept[d]`` is (n, levels) for the last n
    asked of a modulus d <= n, levels[l][r] = F(n, r, l) for l = 0..L, with
    ``top`` = L the largest l the state has been asked: a step carries every
    level, since level l needs level l - 1, so a modulus keeps at most
    (L + 1) d sums.  A modulus d > n keeps nothing: each class has at most
    one member, and the row gives the sums.

    With no usable n - 1 (the first n, a gap in the n axis, a pool worker's
    first tuple) or a larger l than is kept, levels 0..L come from the
    signed row at once (levels 0..l alone ran a pool worker's share of
    ``pool-csv`` 1.37x slower): F(n, r, l) is entry l of the (l + 1)-fold
    suffix sums of class r's terms, highest k first, since t-fold suffix
    sums put weight C(j - i + t - 1, t - 1) on term j at entry i.  A class
    of at most l members sums to 0.  Rebuilding from :func:`_fleck_sum` per
    class instead ran ``pool-csv`` 1.03x and ``binom-deep`` 1.11x slower (6
    and 7 of 10 pairs).

    The Stirling sums of (m, a) at n are made from its terms s(n, k)
    S(k, m) a**k (k = m..n), in one pass over k.  A block's ``moduli`` (the
    class moduli of the tuples that share n, set by the plan) read the same
    terms, so the first of them to meet (m, a) folds the terms into every
    other modulus e at once, and ``folds`` keeps what it folded for e until
    e reads it or n, ``stirling_n``, changes: at most e sums, or the terms
    themselves where there are no more than e.  Terms made for each modulus
    ran ``sc3-sweep`` 1.02x and 1.10x slower in two in-process rounds (faster
    in 5 of 14 and 2 of 16).
    """

    __slots__ = ("kept", "top", "moduli", "stirling_n", "stirling_rows", "folds")

    def __init__(self) -> None:
        self.kept: dict[int, tuple[int, list]] = {}
        self.top = 0
        self.moduli: tuple[int, ...] = ()
        self.stirling_n = None  # the folds and rows come with an n

    def fleck_sums(self, n: int, d: int, l: int) -> list[int]:
        """:func:`fleck_sums` of checked arguments, stepped where it can be."""
        if l > self.top:
            self.top = l
        if d > n:  # class r has at most one member, k = r, with weight C(0, l)
            if l:
                return [0] * d
            row = _binomial_row(n)
            return [c if k % 2 == 0 else -c for k, c in enumerate(row)] + [0] * (d - n - 1)
        kept_n, levels = self.kept.get(d, (None, ()))
        if kept_n == n - 1 and len(levels) > l:  # Pascal's rule
            stepped, below = [], None  # below: level l - 1 of n - 1
            for sums in levels:
                carry = sums[-1] + below[-1] if below else sums[-1]
                stepped.append([sums[0] - carry, *map(operator.sub, sums[1:], sums)])
                below = sums
            levels = stepped
        elif kept_n != n or len(levels) <= l:
            signed = list(_binomial_row(n))
            signed[1::2] = [-c for c in signed[1::2]]
            classes, levels = [signed[r::d][::-1] for r in range(d)], []
            for depth in range(self.top + 1):
                classes = [list(itertools.accumulate(c)) for c in classes]
                levels.append([c[-1 - depth] if len(c) > depth else 0 for c in classes])
        self.kept[d] = (n, levels)
        return list(levels[l])

    def stirling_product_sums(self, n: int, m: int, d: int, a: int) -> list[int]:
        """:func:`stirling_product_sums` of checked arguments: the terms of
        (m, a), made in one pass over k, folded into d classes, unless an
        earlier modulus of the block has folded them for d."""
        if n != self.stirling_n:
            self.stirling_n, self.folds = n, {}
            self.stirling_rows = (triangles.stirling1_row(n),
                                  triangles.ensure_rows(Family.STIRLING2, n).rows)
        sums = self.folds.pop((m, a, d), None)
        if sums is None:  # k = m..n, since S(k, m) = 0 for k < m
            srow, rows2 = self.stirling_rows
            terms, power = [], a**m
            for k in range(m, n + 1):
                terms.append(srow[k] * rows2[k][m] * power)
                power *= a
            for e in self.moduli:
                if e != d:
                    self.folds[m, a, e] = _folded(terms, e)
            sums = _folded(terms, d)
        sums = sums + [0] * (d - len(sums))  # the classes past the last term are empty
        shift = m % d  # sums[i] is the sum of class (m + i) % d
        return sums[-shift:] + sums[:-shift]


def _folded(terms: list[int], d: int) -> list[int]:
    """The sums of terms[i::d] for i = 0..d-1, or the terms themselves where
    there are no more than d: each of those classes has one term at most.
    Always making d sums ran ``sc3 --p 2,5`` 1.07-1.14x slower in process
    (faster in 2 and 1 of 14 rounds)."""
    return [sum(terms[i::d]) for i in range(d)] if len(terms) > d else terms


def _power_sum(terms, cls: ResidueClass, base: int) -> int:
    """Sum of terms[j] * base**(r + j d) along the members r + j d of ``cls``,
    with one running power (so 0**0 is 1).  It takes no power a term does not
    use: none for an empty class, and the step only from the second term on.
    A power per term ran the Eulerian, SC2 and Stirling product sums 1.13-1.21x
    slower (in process, 7 to 10 of 10 rounds each)."""
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
    check_at_least("n", n, 0)
    check_params(a=a)
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
    check_params(n=n, a=a)
    return _eulerian_power_sum(n, cls, a)


def _eulerian_power_sum(n: int, cls: ResidueClass, a: int) -> int:
    row = triangles.ensure_rows(Family.EULERIAN, n).row(n)
    return _power_sum((row[k] for k in cls.members(n - 1)), cls, a)


def stirling_product_sum(n: int, m: int, cls: ResidueClass, a: int) -> int:
    """Filtered mixed Stirling sum:
    sum over k = r (mod d), 0 <= k <= n, of s(n, k) S(k, m) a**k.

    The class modulus d is arbitrary; m > n gives 0 because S(k, m) vanishes.
    """
    check_params(n=n, m=m, a=a)
    return _stirling_product_sum(n, m, cls, a)


def _stirling_product_sum(n: int, m: int, cls: ResidueClass, a: int) -> int:
    srow, rows2 = triangles.stirling1_row(n), triangles.ensure_rows(Family.STIRLING2, n).rows
    return _power_sum((srow[k] * rows2[k][m] if k >= m else 0 for k in cls.members(n)), cls, a)


def stirling_product_sums(n: int, m: int, d: int, a: int) -> list[int]:
    """The :func:`stirling_product_sum` of every residue r = 0..d-1, from one
    pass over k, worked out on a fresh :class:`_SweepState`."""
    check_params(n=n, m=m, d=d, a=a)
    return _SweepState().stirling_product_sums(n, m, d, a)


def stirling_poly_sum(n: int, f: IntPolynomial, cls: ResidueClass, a: int) -> int:
    """Filtered polynomial-weighted Stirling sum:
    sum over k = r (mod d), 0 <= k <= n, of s(n, k) f(k) a**k.
    """
    check_params(n=n, f=f, a=a)
    return _stirling_poly_sum(n, f, cls, a)


def _stirling_poly_sum(n: int, f: IntPolynomial, cls: ResidueClass, a: int) -> int:
    srow = triangles.stirling1_row(n)
    return _power_sum((srow[k] * f(k) for k in cls.members(n)), cls, a)
