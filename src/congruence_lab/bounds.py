"""Every theorem's wiring, one table entry each, and its lower-bound exponent.

Each theorem id names one claim of the form

    ord_p(sum of the theorem's weighted terms over k = r (mod d)) >= E

Its entry in :data:`THEOREMS` holds everything the verifier needs: the
parameters the theorem takes, the class modulus d, the filtered sum, the
exponent E, the hypotheses (a tuple outside them is NOT-APPLICABLE) and the
triangle families the sum reads.  Adding a theorem means adding one entry.
Every claim path drops the parameters a theorem does not take first.

SC2 has a real-valued bound, ord_p(n!) - log_p C(n, l) with
l = min(deg f, floor(n / p)); its entry has no exponent, and the claim is
decided exactly through the equivalent integer comparison in
:func:`sc2_comparison`, never through floating point.

Exponents may be negative and are returned as-is; interpreting a negative
bound as trivially satisfied is the verifier's business.
"""

from __future__ import annotations

import math
from enum import Enum

from . import filtered_sums
from ._slots import Frozen
from .exactmath import IntPolynomial, check_params, legendre_count, ord_p
from .triangles import Family

__all__ = [
    "THEOREMS",
    "Theorem",
    "TheoremId",
    "sc2_comparison",
    "sc2_constants",
]


class TheoremId(str, Enum):
    FLECK = "fleck"
    WEISMAN = "weisman"
    WAN = "wan"
    SUN = "sun"
    WAN_STRONG = "wan-strong"
    DAVIS_SUN_A = "davis-sun-a"
    DAVIS_SUN_B = "davis-sun-b"
    EC1 = "ec1"
    EC2 = "ec2"
    SC1 = "sc1"
    SC2 = "sc2"
    SC3 = "sc3"


def _named(fn: Callable | None) -> tuple[str, ...]:
    """The parameters a table function names (its ``**_`` takes the rest)."""
    return fn.__code__.co_varnames[: fn.__code__.co_argcount] if fn else ()


class Theorem(Frozen):
    """What one theorem id means.

    Every function takes the claim's parameters as keywords, names those it
    reads and takes the rest with ``**_``; a function that names none reads
    them all.  ``sum`` also takes the residue class first, and ``sums`` may
    name the modulus ``d`` and the sweep's ``state`` (the
    :class:`filtered_sums._SweepState` its plan owns).  A sum calls its
    kernel through the :mod:`filtered_sums` module or the state, so the
    kernel is looked up at call time.  The kernel takes n, the class (or d)
    and its weight's parameters, never p or alpha: those are checked where
    the class is built.  No function here checks anything, since every
    claim path has checked the claim's parameters.

    ``sums``, where a theorem has it, returns the sums of all d residue
    classes in residue order, each equal to what ``sum`` gives for that
    class; the verifier's per-tuple path uses it when every residue is asked
    for, and calls one ``sum`` per residue without it or for a subset.
    """

    __slots__ = ("params", "modulus", "sum", "bound", "hypotheses", "tables", "sums")

    def __init__(
        self,
        params: tuple[str, ...],  # besides the residue r, in the order of verifier.AXIS_FIELDS
        modulus: Callable[..., int],  # the class modulus d
        sum: Callable[..., int | None],  # None where the sum is undefined
        bound: Callable[..., int] | None,  # the exponent E; None for SC2
        hypotheses: Callable[..., bool] | None = None,  # None: they always hold
        tables: tuple[Family, ...] = (),  # the triangle families the sum reads
        sums: Callable[..., list[int]] | None = None,  # every residue's sum at once
    ) -> None:
        self._set(params, modulus, sum, bound, hypotheses, tables, sums)

    def _replace(self, **changes: object) -> "Theorem":
        """A copy with the given fields changed."""
        return Theorem(**{name: getattr(self, name) for name in self.__slots__} | changes)


def _q(p: int, alpha: int) -> int:
    return p ** (alpha - 1)


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


THEOREMS: dict[TheoremId, Theorem] = {
    TheoremId.FLECK: Theorem(
        params=("n", "p"),
        modulus=lambda p, **_: p,
        sum=lambda cls, n, **_: filtered_sums._fleck_sum(n, cls),
        bound=lambda n, p, **_: (n - 1) // (p - 1),
        sums=lambda n, d, state, **_: state.fleck_sums(n, d, 0),
    ),
    TheoremId.WEISMAN: Theorem(
        params=("n", "p", "alpha"),
        modulus=lambda p, alpha, **_: p**alpha,
        sum=lambda cls, n, **_: filtered_sums._fleck_sum(n, cls),
        bound=lambda n, p, alpha, **_: (n - _q(p, alpha)) // (_q(p, alpha) * (p - 1)),
        sums=lambda n, d, state, **_: state.fleck_sums(n, d, 0),
    ),
    TheoremId.WAN: Theorem(
        params=("n", "p", "l"),
        modulus=lambda p, **_: p,
        sum=lambda cls, n, l, **_: filtered_sums._fleck_sum(n, cls, l),
        bound=lambda n, p, l, **_: (n - l * p - 1) // (p - 1),
        hypotheses=lambda n, p, l, **_: n > l * p,
        sums=lambda n, d, l, state, **_: state.fleck_sums(n, d, l),
    ),
    TheoremId.SUN: Theorem(
        params=("n", "p", "alpha", "beta", "l"),
        modulus=lambda p, beta, **_: p**beta,
        # the floor sum needs beta <= alpha; beyond it a probe gets only the bound
        sum=lambda cls, n, p, alpha, beta, l, **_: (
            None if beta > alpha else filtered_sums._fleck_sum(n, cls, l, p**alpha)),
        bound=lambda n, p, alpha, beta, l, **_: (
            (n - _q(p, alpha) - l) // (_q(p, alpha) * (p - 1)) - (l - 1) * alpha - beta),
        hypotheses=lambda n, p, alpha, beta, **_: beta <= alpha and n >= _q(p, alpha),
    ),
    TheoremId.WAN_STRONG: Theorem(
        params=("n", "p", "alpha", "l"),
        modulus=lambda p, alpha, **_: p**alpha,
        sum=lambda cls, n, l, **_: filtered_sums._fleck_sum(n, cls, l),
        bound=lambda n, p, alpha, l, **_: (
            (n - _q(p, alpha) - l * p**alpha) // (_q(p, alpha) * (p - 1))),
        sums=lambda n, d, l, state, **_: state.fleck_sums(n, d, l),
    ),
    # the ord_p(l!) correction is required: without it the claim fails
    # already at n=4, p=2, alpha=1, l=2, r=0 (sum 1, claimed order 1)
    TheoremId.DAVIS_SUN_A: Theorem(
        params=("n", "p", "alpha", "l"),
        modulus=lambda p, alpha, **_: p**alpha,
        sum=lambda cls, n, l, **_: filtered_sums._fleck_sum(n, cls, l),
        bound=lambda n, p, alpha, l, **_: (
            legendre_count(n // p**alpha, p) - legendre_count(l, p)),
        sums=lambda n, d, l, state, **_: state.fleck_sums(n, d, l),
    ),
    TheoremId.DAVIS_SUN_B: Theorem(
        params=("n", "p", "alpha", "l"),
        modulus=lambda p, alpha, **_: p**alpha,
        sum=lambda cls, n, l, **_: filtered_sums._fleck_sum(n, cls, l),
        bound=lambda n, p, alpha, l, **_: (
            legendre_count(n // _q(p, alpha), p) - l - legendre_count(l, p)),
        sums=lambda n, d, l, state, **_: state.fleck_sums(n, d, l),
    ),
    TheoremId.EC1: Theorem(
        params=("n", "p", "alpha", "l"),
        modulus=lambda p, alpha, **_: p**alpha,
        sum=lambda cls, n, l, **_: filtered_sums._eulerian_wan_sum(n, cls, l),
        bound=lambda n, p, alpha, l, **_: legendre_count(n // _q(p, alpha), p) - _ceil_div(
            _q(p, alpha) + l * p**alpha, _q(p, alpha) * (p - 1)),
        tables=(Family.EULERIAN,),
    ),
    TheoremId.EC2: Theorem(
        params=("n", "p", "alpha", "a"),
        modulus=lambda p, alpha, **_: p**alpha,
        sum=lambda cls, n, a, **_: filtered_sums._eulerian_power_sum(n, cls, a),
        bound=lambda n, p, alpha, **_: legendre_count(n // _q(p, alpha), p) - 1,
        hypotheses=lambda n, p, alpha, a, **_: n >= p**alpha and (a - 1) % p == 0,
        tables=(Family.EULERIAN,),
    ),
    TheoremId.SC1: Theorem(
        params=("n", "p", "m", "a"),
        modulus=lambda p, **_: p - 1,
        sum=lambda cls, n, m, a, **_: filtered_sums._stirling_product_sum(n, m, cls, a),
        bound=lambda n, p, m, **_: legendre_count(n, p) - legendre_count(m, p),
        tables=(Family.STIRLING1, Family.STIRLING2),
        sums=lambda n, m, a, d, state, **_: state.stirling_product_sums(n, m, d, a),
    ),
    TheoremId.SC2: Theorem(
        params=("n", "p", "a", "f"),
        modulus=lambda p, **_: p - 1,
        sum=lambda cls, n, a, f, **_: filtered_sums._stirling_poly_sum(n, f, cls, a),
        bound=None,
        tables=(Family.STIRLING1,),
    ),
    TheoremId.SC3: Theorem(
        params=("n", "p", "alpha", "m", "a"),
        modulus=lambda p, alpha, **_: p**alpha * (p - 1),
        sum=lambda cls, n, m, a, **_: filtered_sums._stirling_product_sum(n, m, cls, a),
        bound=lambda n, p, alpha, m, **_: (
            (n - p**alpha) // (p**alpha * (p - 1)) - legendre_count(m, p)),
        tables=(Family.STIRLING1, Family.STIRLING2),
        sums=lambda n, m, a, d, state, **_: state.stirling_product_sums(n, m, d, a),
    ),
}


class BoundSpec:
    """Unused: ``perfbench/tracer.py`` reads this name without a guard, so it
    goes with that tracer (ROADMAP item 14)."""


def sc2_constants(n: int, p: int, f: IntPolynomial) -> tuple[int, int, int]:
    """The parts of :func:`sc2_comparison` that depend only on the tuple:
    (l, C(n, l), rhs) with l = min(deg f, floor(n / p)) and rhs =
    p**ord_p(n!)."""
    l = min(f.degree, n // p)
    return l, math.comb(n, l), p ** legendre_count(n, p)


def sc2_comparison(
    n: int, p: int, f: IntPolynomial, total: int
) -> tuple[int, int | None, int, bool]:
    """Exact decision data for the polynomial-weight Stirling bound.

    Returns (l, lhs, rhs, satisfied) where l = min(deg f, floor(n / p)) and
    the claim  ord_p(total) >= ord_p(n!) - log_p C(n, l)  is equivalent to
    lhs = C(n, l) * p**ord_p(total) >= p**ord_p(n!) = rhs.  A zero sum is
    satisfied with lhs = None (infinite order).
    """
    check_params(n=n, p=p, f=f)
    l, comb, rhs = sc2_constants(n, p, f)
    if total == 0:
        return l, None, rhs, True
    lhs = comb * p ** ord_p(total, p).value
    return l, lhs, rhs, lhs >= rhs

