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
...); the theorem table calls only the kernels and a sweep's levels, since
every claim path has checked the claim's parameters.

The binomial values come from one memoized signed row (-1)**k C(n, k) per
n, built from :func:`binomial_row`, not from ``math.comb`` per claim: a grid
runs n outermost, so one row serves every tuple and residue of that n.  That
one-row cache is the module's only state, and the only place a binomial
entry is negated.  The per-residue sums (:func:`fleck_sum`,
:func:`binom_power_sum`, the Eulerian and the Stirling sums) are their
formulas, one term per member of the class: the Fleck and Eulerian sums
weigh each term by ``math.comb`` (``sun``'s floor sum is ``_fleck_sum``
with quotients by p**alpha), and the power sums keep one running power of
the base (:func:`_power_sum`).  They are ``check_claim``'s reference, and
the sweep path of ``ec1``, ``ec2``, ``sc2`` (no one-pass sums) and of a
residue subset.

:class:`_FleckLevels` and :class:`_StirlingLevels` are the one level state
of each family that steps in n; a sweep's plan holds one of each and drops
them with the plan.  Each one's ``sums`` returns the sums of every residue
class of one modulus at once, in residue order, equal to one per-residue sum
each: the Fleck-type ones, ``sun``'s floor sums among them, stepped from
those of n - 1 by Pascal's rule, and the Stirling product ones by the two
Stirling recurrences.  The verifier evaluates a parameter tuple's d claims
with one of them; :func:`verifier.evaluate_tuple` is the checked library
call that gives every residue of a tuple.
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
    "stirling_poly_sum",
    "stirling_product_sum",
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
def _signed_row(n: int) -> tuple:
    """The signed row v_k = (-1)**k C(n, k), k = 0..n, kept until a sum asks
    for another n: the one place a binomial entry is negated."""
    return tuple(-c if k & 1 else c for k, c in enumerate(binomial_row(n)))


def fleck_sum(n: int, cls: ResidueClass, l: int = 0) -> int:
    """Alternating filtered binomial sum with a binomial-of-quotient weight:
    sum over k = r (mod d), 0 <= k <= n, of C(n, k) (-1)**k C((k - r) / d, l)

    with d the class modulus.  The l = 0 sum is the plain alternating
    filtered sum.
    """
    check_params(n=n, l=l)
    return _fleck_sum(n, cls, l)


def _fleck_sum(n: int, cls: ResidueClass, l: int = 0, q: int | None = None) -> int:
    """:func:`fleck_sum` of checked arguments, with the quotients floor((k -
    r) / q) by ``q`` (d when none is given): the ``sun`` claim sums over a
    class modulo p**beta with q = p**alpha."""
    row, r, q = _signed_row(n), cls.residue, q or cls.modulus
    return sum(row[k] * math.comb((k - r) // q, l) for k in cls.members(n))


class _FleckLevels:
    """The Fleck-type sums of one sweep, ``sun``'s floor sums among them,
    kept between its tuples, across its grids, and stepped in n by Pascal's
    rule; a sweep's plan holds one, so they go when the sweep ends.

    With v_k = (-1)**k C(n, k), the signed row, and quotients by a modulus
    q, F(n, rho, l) is the sum over j of v_(rho + j q) C(j, l), rho < q.
    The sum for class r modulo d, a divisor of q, is the sum of F(n, rho,
    l) over rho = r (mod d): its members k = rho + j q have floor((k - r) /
    q) = j.  At q = d that is F(n, r, l), the Fleck-type sums; ``sun``
    takes d = p**beta and q = p**alpha.  Pascal's rule, v(n)_k = v(n-1)_k -
    v(n-1)_(k-1), gives every F of n from those of n - 1 with 2q + 1
    additions per l:

        F(n, rho, l) = F(n-1, rho, l) - F(n-1, rho-1, l)            for rho >= 1,
        F(n, 0, l) = F(n-1, 0, l) - F(n-1, q-1, l) - F(n-1, q-1, l-1),

    with F(., ., -1) = 0.  So ``kept[q]`` is (n, levels) for the last n
    asked of a modulus q <= n, levels[l][rho] = F(n, rho, l) for l = 0..L,
    with ``top`` = L the largest l asked: a step carries every level, since
    level l needs level l - 1, so a modulus keeps at most (L + 1) q sums.
    A modulus q > n keeps nothing: each class modulo q has at most one
    member, k = rho, with weight C(0, l), so l > 0 gives zeros and l = 0
    folds the signed row.

    With no usable n - 1 (the first n, a gap in the n axis) or a larger l
    than is kept, levels 0..L come from the signed row at once (levels 0..l
    alone ran the sweep of ``binom-deep``'s grid 1.08x slower, in 10 of 12
    alternating subprocess pairs, ``pool-csv``'s 1.01x, in 9 of 12, and
    ``wan-strong --n 600..700,800..900 --p 2,3 --alpha 1,2 --l 0,3``
    1.00x, in 7 of 12): F(n, rho, l) is entry l of the (l + 1)-fold suffix
    sums of class rho's terms, highest k first, since t-fold suffix sums
    put weight C(j - i + t - 1, t - 1) on term j at entry i.  A class of at
    most l members sums to 0.  Rebuilding from :func:`_fleck_sum` per class
    instead ran ``pool-csv`` 1.03x and ``binom-deep`` 1.11x slower (6 and 7
    of 10 pairs).
    """

    __slots__ = ("kept", "top")

    def __init__(self) -> None:
        self.kept: dict[int, tuple[int, list]] = {}
        self.top = 0

    def sums(self, n: int, d: int, l: int, q: int | None = None) -> list[int]:
        """The :func:`fleck_sum` of every residue r = 0..d - 1, of checked
        arguments, with the quotients by ``q``, a multiple of d (d when none
        is given), stepped where it can be."""
        q = q or d
        if l > self.top:
            self.top = l
        if q > n:  # each class mod q has at most one member, k = rho, with weight C(0, l)
            if l:
                return [0] * d
            signed = _signed_row(n)
            return [sum(signed[r::d]) for r in range(min(d, n + 1))] + [0] * (d - n - 1)
        kept_n, levels = self.kept.get(q, (None, ()))
        if kept_n == n - 1 and len(levels) > l:  # Pascal's rule
            stepped, below = [], None  # below: level l - 1 of n - 1
            for sums in levels:
                carry = sums[-1] + below[-1] if below else sums[-1]
                stepped.append([sums[0] - carry, *map(operator.sub, sums[1:], sums)])
                below = sums
            levels = stepped
        elif kept_n != n or len(levels) <= l:
            signed = _signed_row(n)
            classes, levels = [signed[rho::q][::-1] for rho in range(q)], []
            for depth in range(self.top + 1):
                classes = [list(itertools.accumulate(c)) for c in classes]
                levels.append([c[-1 - depth] if len(c) > depth else 0 for c in classes])
        self.kept[q] = (n, levels)
        sums = levels[l]
        return list(sums) if q == d else [sum(sums[r::d]) for r in range(d)]


class _StirlingLevels:
    """The Stirling product sums of one sweep, kept between its tuples,
    across its grids, and stepped in n by the recurrences of s and S; a
    sweep's plan holds one, so they go when the sweep ends.

    The sum for class r modulo d is T(n, r, m), the sum over k = r (mod d)
    of s(n, k) S(k, m) a**k, and the recurrences of s and S step it:

        T(n, r, m) = a m T(n-1, r-1, m) + a T(n-1, r-1, m-1) + (n-1) T(n-1, r, m),

    with T(n, r, 0) = 0 for n >= 1.  So ``kept[d, a]`` is (n, levels) for
    the last n asked of d <= n, levels[m - 1] the d sums of level m = 1..M.
    A step carries every level, and level n of n - 1 is zero, so a step
    from every level of n - 1 adds level n while n - 1 <= ``top``, the
    largest m asked: M <= ``top`` + 1.  A level not stepped (the first n, a
    gap, a larger m) comes from its terms u_k S(k, m), k >= m, with u_k =
    s(n, k) a**k, and is kept only as the next level up: an m axis of 1..n
    steps every level, and an m past the next costs its own terms, not
    those of every level below it.  The sums of d > n or m > n come from
    the terms too, and keep nothing; ``rows`` holds one n's rows and each
    a's u, so a block fetches its triangle rows once.  In process, remaking
    every level for each larger m ran ``sc3 --n 195..200`` 40x slower, and
    terms without u ran ``--n 150,200`` 1.6-1.75x slower.  Making every
    level below an m past the next ran ``sc1 --n 150,200 --m 100,150`` 4x
    slower end to end.
    """

    __slots__ = ("kept", "top", "rows")

    def __init__(self) -> None:
        self.kept: dict[tuple[int, int], tuple[int, list]] = {}
        self.top = 0
        self.rows = None

    def sums(self, n: int, m: int, d: int, a: int) -> list[int]:
        """The :func:`stirling_product_sum` of every residue r = 0..d - 1,
        of checked arguments, stepped where it can be."""
        if m > self.top:
            self.top = m
        if d > n or m > n:  # nothing is kept
            return self._level(n, m, d, a)
        kept_n, levels = self.kept.get((d, a), (None, []))
        if kept_n == n - 1:
            if len(levels) == n - 1 <= self.top:  # level n of n - 1 is zero
                levels = [*levels, [0] * d]
            stepped, below = [], [0] * d  # below: level m - 1 of n - 1, rotated
            for level, sums in enumerate(levels, 1):
                rotated = [sums[-1], *sums[:-1]]  # rotated[r] = T(n - 1, r - 1, level)
                stepped.append([a * (level * x + y) + (n - 1) * z
                                for x, y, z in zip(rotated, below, sums)])
                below = rotated
            levels = stepped
        elif kept_n != n:
            levels = []
        if m == len(levels) + 1:  # the next level up, so the next n steps it too
            levels.append(self._level(n, m, d, a))
        self.kept[d, a] = (n, levels)
        return list(levels[m - 1]) if m <= len(levels) else self._level(n, m, d, a)

    def _level(self, n: int, m: int, d: int, a: int) -> list[int]:
        """The sums T(n, r, m), r = 0..d-1, from their terms u_k S(k, m)."""
        if self.rows is None or self.rows[0] != n:
            self.rows = (n, triangles.stirling1_row(n),
                         triangles.ensure_rows(Family.STIRLING2, n).rows, {})
        _, srow, rows2, weighted = self.rows
        u = weighted.get(a)
        if u is None:
            u = weighted[a] = [c * a**k for k, c in enumerate(srow)]
        terms = [u[k] * rows2[k][m] for k in range(m, n + 1)]
        sums = [sum(terms[i::d]) for i in range(min(d, len(terms)))] + [0] * (d - len(terms))
        shift = m % d  # sums[i] is the sum of class (m + i) % d
        return sums[-shift:] + sums[:-shift]


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
    sum over k = r (mod d), 0 <= k <= n, of C(n, k) (-a)**k,
    the signed row's terms times a**k.

    At a = 1 this specializes to the l = 0 :func:`fleck_sum`.
    """
    check_at_least("n", n, 0)
    check_params(a=a)
    return _power_sum(_signed_row(n)[cls.residue :: cls.modulus], cls, a)


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


def stirling_poly_sum(n: int, f: IntPolynomial, cls: ResidueClass, a: int) -> int:
    """Filtered polynomial-weighted Stirling sum:
    sum over k = r (mod d), 0 <= k <= n, of s(n, k) f(k) a**k.
    """
    check_params(n=n, f=f, a=a)
    return _stirling_poly_sum(n, f, cls, a)


def _stirling_poly_sum(n: int, f: IntPolynomial, cls: ResidueClass, a: int) -> int:
    srow = triangles.stirling1_row(n)
    return _power_sum((srow[k] * f(k) for k in cls.members(n)), cls, a)
