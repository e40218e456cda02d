"""Lower-bound exponents for every congruence family, as exact integers.

Each theorem id names one claim of the form

    ord_p(filtered sum) >= E(parameters)

with E given below (q abbreviates p**(alpha-1)):

    FLECK          floor((n - 1) / (p - 1))
    WEISMAN        floor((n - q) / (q (p - 1)))
    WAN            floor((n - l p - 1) / (p - 1))             [needs n > l p]
    SUN            floor((n - q - l) / (q (p - 1))) - (l - 1) alpha - beta
                                                              [needs alpha >= beta >= 0, n >= q]
    WAN_STRONG     floor((n - q - l p**alpha) / (q (p - 1)))
    DAVIS_SUN_A    ord_p(floor(n / p**alpha)!) - ord_p(l!)
    DAVIS_SUN_B    ord_p(floor(n / q)!) - l - ord_p(l!)
    EC1            ord_p(floor(n / q)!) - ceil((q + l p**alpha) / (q (p - 1)))
    EC2            ord_p(floor(n / q)!) - 1                   [needs n >= p**alpha, a = 1 (mod p)]
    SC1            ord_p(n!) - ord_p(m!)
    SC3            floor((n - p**alpha) / (p**alpha (p - 1))) - ord_p(m!)

SC2 has a real-valued bound, ord_p(n!) - log_p C(n, l) with
l = min(deg f, floor(n / p)); it is decided exactly through the equivalent
integer comparison in :func:`sc2_holds`, never through floating point.

Bounds may be negative and are returned as-is; interpreting a negative bound
as trivially satisfied is the verifier's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError
from .exactmath import IntPolynomial, check_prime, ord_p, ord_p_factorial

__all__ = [
    "BoundSpec",
    "PARAM_MINIMUM",
    "TheoremId",
    "bound_exponent",
    "binom_power_inferred_exponent",
    "sc2_comparison",
    "sc2_holds",
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


#: Parameters (besides the residue) each theorem needs.
REQUIRED_PARAMS: dict[TheoremId, tuple[str, ...]] = {
    TheoremId.FLECK: ("n", "p"),
    TheoremId.WEISMAN: ("n", "p", "alpha"),
    TheoremId.WAN: ("n", "p", "l"),
    TheoremId.SUN: ("n", "p", "alpha", "beta", "l"),
    TheoremId.WAN_STRONG: ("n", "p", "alpha", "l"),
    TheoremId.DAVIS_SUN_A: ("n", "p", "alpha", "l"),
    TheoremId.DAVIS_SUN_B: ("n", "p", "alpha", "l"),
    TheoremId.EC1: ("n", "p", "alpha", "l"),
    TheoremId.EC2: ("n", "p", "alpha", "a"),
    TheoremId.SC1: ("n", "p", "m", "a"),
    TheoremId.SC2: ("n", "p", "a", "f"),
    TheoremId.SC3: ("n", "p", "alpha", "m", "a"),
}


#: Smallest allowed value of each integer parameter that has one (p must be
#: prime; a, r and f may be anything).  BoundSpec checks these per claim,
#: GridSpec once per grid axis.
PARAM_MINIMUM: dict[str, int] = {"n": 1, "alpha": 1, "beta": 0, "l": 0, "m": 1}


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


@dataclass(frozen=True)
class BoundSpec:
    """Parameter bundle for one bound formula."""

    theorem: TheoremId
    n: int
    p: int
    alpha: int | None = None
    beta: int | None = None
    l: int | None = None
    m: int | None = None
    a: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "theorem", TheoremId(self.theorem))
        check_prime(self.p)
        if self.n < 1:
            raise ParameterError(f"n must be positive, got {self.n}")
        needed = REQUIRED_PARAMS[self.theorem]
        for name in needed:
            # f never enters a bound formula; a only via the EC2 hypothesis
            if name == "f" or (name == "a" and self.theorem is not TheoremId.EC2):
                continue
            if getattr(self, name) is None:
                raise ParameterError(f"{self.theorem.value} needs parameter {name}")
        # PARAM_MINIMUM spelled out: this runs once per claim
        if "alpha" in needed and self.alpha is not None and self.alpha < 1:
            raise ParameterError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta is not None and self.beta < 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")
        if self.l is not None and self.l < 0:
            raise ParameterError(f"l must be >= 0, got {self.l}")
        if self.m is not None and self.m < 1:
            raise ParameterError(f"m must be positive, got {self.m}")

    def hypotheses_hold(self) -> bool:
        """Whether this parameter tuple satisfies the theorem's hypotheses.

        A failing tuple is NOT-APPLICABLE for verification purposes, while the
        raw formula of :func:`bound_exponent` stays evaluable for probing.
        """
        t = self.theorem
        if t is TheoremId.WAN:
            return self.n > self.l * self.p
        if t is TheoremId.SUN:
            return self.beta <= self.alpha and self.n >= self.p ** (self.alpha - 1)
        if t is TheoremId.EC2:
            return self.n >= self.p**self.alpha and (self.a - 1) % self.p == 0
        return True


def bound_exponent(spec: BoundSpec) -> int:
    """The exact integer exponent for ``spec`` (possibly negative).

    SC2 is the one formula without an integer exponent; asking for it here is
    a parameter error (use :func:`sc2_holds`).
    """
    t = spec.theorem
    n, p = spec.n, spec.p
    if t is TheoremId.FLECK:
        return (n - 1) // (p - 1)
    if t is TheoremId.WEISMAN:
        q = p ** (spec.alpha - 1)
        return (n - q) // (q * (p - 1))
    if t is TheoremId.WAN:
        return (n - spec.l * p - 1) // (p - 1)
    if t is TheoremId.SUN:
        q = p ** (spec.alpha - 1)
        return (n - q - spec.l) // (q * (p - 1)) - (spec.l - 1) * spec.alpha - spec.beta
    if t is TheoremId.WAN_STRONG:
        q = p ** (spec.alpha - 1)
        return (n - q - spec.l * p**spec.alpha) // (q * (p - 1))
    if t is TheoremId.DAVIS_SUN_A:
        # the ord_p(l!) correction is required: without it the claim fails
        # already at n=4, p=2, alpha=1, l=2, r=0 (sum 1, claimed order 1)
        return ord_p_factorial(n // p**spec.alpha, p) - ord_p_factorial(spec.l, p)
    if t is TheoremId.DAVIS_SUN_B:
        return ord_p_factorial(n // p ** (spec.alpha - 1), p) - spec.l - ord_p_factorial(spec.l, p)
    if t is TheoremId.EC1:
        q = p ** (spec.alpha - 1)
        return ord_p_factorial(n // q, p) - _ceil_div(q + spec.l * p**spec.alpha, q * (p - 1))
    if t is TheoremId.EC2:
        return ord_p_factorial(n // p ** (spec.alpha - 1), p) - 1
    if t is TheoremId.SC1:
        return ord_p_factorial(n, p) - ord_p_factorial(spec.m, p)
    if t is TheoremId.SC3:
        pa = p**spec.alpha
        return (n - pa) // (pa * (p - 1)) - ord_p_factorial(spec.m, p)
    raise ParameterError(f"{t.value} has no single integer exponent")


def binom_power_inferred_exponent(n: int, p: int, alpha: int) -> int:
    """Working exponent for the filtered (-a)**k binomial sum when
    a = 1 (mod p): floor((n - q) / (q (p - 1))) with q = p**(alpha-1).

    This is the specialization the Eulerian power-sum proof route relies on;
    it is checked empirically by the test suite rather than cited.
    """
    check_prime(p)
    if alpha < 1:
        raise ParameterError(f"alpha must be >= 1, got {alpha}")
    q = p ** (alpha - 1)
    return (n - q) // (q * (p - 1))


def sc2_comparison(
    n: int, p: int, f: IntPolynomial, total: int
) -> tuple[int, int | None, int, bool]:
    """Exact decision data for the polynomial-weight Stirling bound.

    Returns (l, lhs, rhs, satisfied) where l = min(deg f, floor(n / p)) and
    the claim  ord_p(total) >= ord_p(n!) - log_p C(n, l)  is equivalent to
    lhs = C(n, l) * p**ord_p(total) >= p**ord_p(n!) = rhs.  A zero sum is
    satisfied with lhs = None (infinite order).
    """
    check_prime(p)
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    l = min(f.degree, n // p)
    rhs = p ** ord_p_factorial(n, p)
    if total == 0:
        return l, None, rhs, True
    lhs = math.comb(n, l) * p ** ord_p(total, p).value
    return l, lhs, rhs, lhs >= rhs


def sc2_holds(n: int, p: int, f: IntPolynomial, total: int) -> bool:
    """TRUE iff ord_p(total) >= ord_p(n!) - log_p C(n, l), decided exactly."""
    return sc2_comparison(n, p, f, total)[3]
