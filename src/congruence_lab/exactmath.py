"""Exact integer primitives: p-adic valuations, generalized binomial
coefficients and integer polynomials; and the package's parameter checks,
among them its one range rule (:func:`check_at_least`) and its one "must be
a collection" rule (:func:`check_collection`).

Everything operates on Python's built-in arbitrary-precision integers, so all
results are exact regardless of magnitude.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache, total_ordering

from ._slots import Frozen
from .errors import ParameterError

__all__ = [
    "INFINITY",
    "IntPolynomial",
    "PAdicOrder",
    "binom",
    "check_at_least",
    "check_collection",
    "check_integer",
    "check_params",
    "check_prime",
    "is_prime",
    "legendre_count",
    "ord_p",
    "ord_p_factorial",
    "ord_p_nonzero",
]


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not find the entry of 2
def is_prime(p: int) -> bool:
    """Trial-division primality test; meant for the small moduli used here."""
    if check_integer("p", p) < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_integer(name: str, value: object) -> int:
    """``value`` as an int (by ``operator.index``), else :class:`ParameterError`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def check_at_least(name: str, value: object, low: int) -> int:
    """``value`` as an int (:func:`check_integer`), refused if it is below ``low``."""
    value = check_integer(name, value)
    if value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    return value


def check_collection(name: str, values: object) -> tuple:
    """``values`` as a tuple, else :class:`ParameterError` if it is not iterable."""
    try:
        values = iter(values)
    except TypeError:
        raise ParameterError(f"{name} must be a collection, got {values!r}") from None
    return tuple(values)


def check_prime(p: int) -> int:
    """Return ``p`` unchanged if it is prime, else raise :class:`ParameterError`."""
    if not is_prime(check_integer("p", p)):
        raise ParameterError(f"p must be a prime >= 2, got {p!r}")
    return p


#: Smallest allowed value of each integer parameter that has one: p must be
#: prime, a and r may be any integer, and d (a class modulus) and the divisor
#: of a floor quotient are at least 1.  :func:`check_params` applies them (by
#: :func:`check_at_least`) for every claim, grid, residue class, bound and sum.
PARAM_MINIMUM: dict[str, int] = {"n": 1, "alpha": 1, "beta": 0, "l": 0, "m": 1, "d": 1,
                                 "divisor": 1}


def check_params(**params) -> None:
    """Raise :class:`ParameterError` unless ``p`` (where given) is prime,
    the polynomial ``f`` (where given) is an :class:`IntPolynomial`, every
    other given parameter is an integer, and each with a
    :data:`PARAM_MINIMUM` is at least that; ``p`` is checked first, then the
    rest in the order given.

    >>> check_params(n=3, p=2, alpha=1, a=-5, d=4, r=-1)
    >>> check_params(n=0, p=2)
    Traceback (most recent call last):
        ...
    congruence_lab.errors.ParameterError: n must be >= 1, got 0
    """
    if "p" in params:
        check_prime(params["p"])
    for name, value in params.items():
        if name == "f":
            if not isinstance(value, IntPolynomial):
                raise ParameterError(f"f must be an IntPolynomial, got {value!r}")
        elif name in PARAM_MINIMUM:
            check_at_least(name, value, PARAM_MINIMUM[name])
        else:
            check_integer(name, value)


@total_ordering
class PAdicOrder(Frozen):
    """A p-adic valuation: either a natural number or the infinite order.

    The infinite order (valuation of zero) compares greater than every finite
    order; finite orders compare numerically.  Comparisons against plain ints
    are supported, including negative ints (lower bounds may be negative).
    """

    __slots__ = ("_finite",)

    def __init__(self, _finite: int | None) -> None:
        self._set(None if _finite is None else check_at_least("order", _finite, 0))

    @property
    def is_infinite(self) -> bool:
        return self._finite is None

    @property
    def value(self) -> int:
        """The finite order; raises for the order of zero."""
        if self._finite is None:
            raise ValueError("the order of zero has no finite value")
        return self._finite

    def _key(self) -> tuple[int, int]:
        return (1, 0) if self._finite is None else (0, self._finite)

    @staticmethod
    def _other_key(other: object) -> tuple[int, int] | None:
        if isinstance(other, PAdicOrder):
            return other._key()
        if isinstance(other, int):
            return (0, other)
        return None

    def __eq__(self, other: object) -> bool:
        key = self._other_key(other)
        if key is None:
            return NotImplemented
        return self._key() == key

    def __lt__(self, other: object) -> bool:
        key = self._other_key(other)
        if key is None:
            return NotImplemented
        return self._key() < key

    def __hash__(self) -> int:
        # finite orders hash like their int value so mixed containers behave
        return hash(self._finite) if self._finite is not None else hash("padic-infinity")

    def __str__(self) -> str:
        return "inf" if self._finite is None else str(self._finite)

    def __repr__(self) -> str:
        return f"PAdicOrder({self._finite!r})"


#: The order of zero.
INFINITY = PAdicOrder(None)


def ord_p(x: int, p: int) -> PAdicOrder:
    """Largest e with p**e dividing x; :data:`INFINITY` for x == 0.

    >>> ord_p(12, 2)
    PAdicOrder(2)
    >>> ord_p(0, 5) is INFINITY or ord_p(0, 5).is_infinite
    True
    """
    check_prime(p)
    return INFINITY if check_integer("x", x) == 0 else PAdicOrder(ord_p_nonzero(x, p))


def ord_p_nonzero(x: int, p: int) -> int:
    """The finite :func:`ord_p` of a nonzero ``x``, as an int, without the
    check that ``p`` is prime, for a caller that has already checked it
    (``verifier._Plan.evaluate``, whose ``p`` a ``GridSpec`` or
    ``_checked_theorem`` has checked, takes the order of each of a tuple's
    nonzero sums).

    For odd p, ``x`` is divided by p**k, the largest power of p that fits in
    one int digit (:func:`_digit_power`), so CPython divides by a single
    digit and each division strips k factors of p.  The first division
    that leaves a remainder r != 0 ends the loop: x = r (mod p**k) and
    0 < r < p**k, so the order still to add is the order of the small r.
    That is about e/k + 1 divisions of the big x for an order e, not e + 1.
    For p = 2 the order is the number of trailing zero bits.
    """
    if x == 0:
        raise ValueError("the order of zero has no finite value")
    x = abs(x)
    if p == 2:
        return (x & -x).bit_length() - 1
    q, k = _digit_power(p)
    e = 0
    while True:
        x, r = divmod(x, q)
        if r:
            break
        e += k
    while r % p == 0:
        r //= p
        e += 1
    return e


@lru_cache(maxsize=None)
def _digit_power(p: int) -> tuple[int, int]:
    """``(p**k, k)`` for the largest k >= 1 with p**k below the int digit
    base ``1 << sys.int_info.bits_per_digit``; ``(p, 1)`` for a p that does
    not fit in one digit."""
    base = 1 << sys.int_info.bits_per_digit
    q, k = p, 1
    while q * p < base:
        q *= p
        k += 1
    return q, k


def ord_p_factorial(n: int, p: int) -> int:
    """Legendre's count sum(floor(n / p**j), j >= 1), the p-order of n!."""
    check_prime(p)
    return legendre_count(check_at_least("n", n, 0), p)


def legendre_count(n: int, p: int) -> int:
    """:func:`ord_p_factorial` without its checks that ``p`` is prime and
    ``n >= 0``, for a caller that has checked them (the bounds of
    ``bounds.THEOREMS`` and ``bounds.sc2_constants``, whose parameters every
    claim path has checked)."""
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def binom(x: int, k: int) -> int:
    """Generalized binomial coefficient C(x, k) for integer x and integer k.

    Conventions: C(x, k) = 0 for k < 0; C(x, 0) = 1; for k > 0 the product
    x(x-1)...(x-k+1)/k!, which is an integer for every integer x (negative x
    goes through the reflection C(x, k) = (-1)**k C(k - x - 1, k)).
    """
    check_integer("x", x)
    if check_integer("k", k) < 0:
        return 0
    if x >= 0:
        return math.comb(x, k)
    c = math.comb(k - x - 1, k)
    return -c if k % 2 else c


class IntPolynomial(Frozen):
    """Integer-coefficient polynomial; ``coeffs[i]`` multiplies x**i.

    Trailing zero coefficients are stripped, so the zero polynomial is the
    empty tuple.  By convention its degree is 0 (never needed with a nonzero
    weight, and it keeps ``degree`` total).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()) -> None:
        c = tuple(check_integer("coefficient", v) for v in coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        self._set(c)

    @classmethod
    def from_coeff_string(cls, text: str) -> "IntPolynomial":
        """Parse a comma-separated low-to-high coefficient list, e.g. "0,0,1"."""
        parts = [t.strip() for t in text.split(",")]
        try:
            return cls(tuple(int(t) for t in parts))
        except ValueError as exc:
            raise ParameterError(f"bad polynomial coefficient list {text!r}") from exc

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff_string(self) -> str:
        return ",".join(str(c) for c in (self.coeffs or (0,)))
