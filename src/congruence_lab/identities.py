"""Executable checks for the supporting identities and lemma inequalities.

Identity ids
------------
    E1      Eulerian polynomial-weight expansion against the ordered-partition
            side, compared coefficientwise for monomial weights k**l (monomials
            are a complete basis: both sides are linear in the weight).
    E2      Eulerian generating polynomial as a shifted-power expansion
            (the l = 0 case of E1).
    S3      k! S(n,k) as a binomial convolution of smaller rows.
    SS3     k s(n,k) as a binomial convolution of smaller rows (unsigned s).
    S4      valuation lower bound for k! S(n,k).
    SCL3E   s(N,k) mod p pattern for N = p**alpha (p-1).
    L31     binomial congruence under shifts by p**(ord_p(n!)+1).
    L32     the inequality (n-i) C(i, l-1) <= C(n, l).

Each check evaluates one parameter tuple exactly and reports a witness dict
when it fails.  Any failure is a defect in the triangle or integer layers,
so the suites treat failures as build-stopping.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Iterator

from . import triangles
from .errors import ParameterError
from .exactmath import binom, check_prime, is_prime, ord_p, ord_p_factorial
from .triangles import Family

__all__ = [
    "IDENTITY_IDS",
    "IdentityCheckResult",
    "check_e1",
    "check_e2",
    "check_l31",
    "check_l32",
    "check_s3",
    "check_s4",
    "check_scl3e",
    "check_ss3",
    "random_l31_tuple",
    "suite",
]

IDENTITY_IDS = ("E1", "E2", "S3", "SS3", "S4", "SCL3E", "L31", "L32")


@dataclass(frozen=True)
class IdentityCheckResult:
    identity: str
    params: dict[str, int]
    passed: bool
    witness: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.passed and self.witness is not None:
            raise ValueError("a passing check cannot carry a witness")


def _result(identity: str, params: dict[str, int], witness: dict[str, Any] | None):
    return IdentityCheckResult(identity, params, witness is None, witness)


def _eulerian_value(n: int, k: int) -> int:
    if k < 0:
        return 0
    return triangles.eulerian(n, k)


def _rhs_coefficient(n: int, i: int, l: int) -> int:
    """Coefficient of x**i on the ordered-partition side, weight x**l at i."""
    acc = 0
    for m in range(0, n - i + 1):
        acc += (
            math.factorial(m)
            * triangles.stirling2(n, m)
            * math.comb(n - m, i)
            * (-1) ** (n - m - i)
        )
    return acc * i**l


def check_e1(n: int, l: int) -> IdentityCheckResult:
    """Both sides of the Eulerian expansion with weight k**l, coefficientwise."""
    if n < 1 or l < 0:
        raise ParameterError("need n >= 1 and l >= 0")
    params = {"n": n, "l": l}
    for i in range(n + 1):
        lhs = _eulerian_value(n, i) * i**l if i <= n - 1 else 0
        rhs = _rhs_coefficient(n, i, l)
        if lhs != rhs:
            return _result("E1", params, {"i": i, "lhs": str(lhs), "rhs": str(rhs)})
    return _result("E1", params, None)


def check_e2(n: int) -> IdentityCheckResult:
    """Eulerian row against sum(m! S(n,m) (x-1)**(n-m)), coefficientwise."""
    if n < 1:
        raise ParameterError("need n >= 1")
    params = {"n": n}
    for i in range(n + 1):
        lhs = _eulerian_value(n, i) if i <= n - 1 else 0
        rhs = _rhs_coefficient(n, i, 0)
        if lhs != rhs:
            return _result("E2", params, {"i": i, "lhs": str(lhs), "rhs": str(rhs)})
    return _result("E2", params, None)


def check_s3(n: int, k: int) -> IdentityCheckResult:
    """k! S(n,k) = sum(C(n,i) (k-1)! S(i,k-1), i = k-1..n-1)."""
    if n < 1 or k < 1:
        raise ParameterError("need n >= 1 and k >= 1")
    params = {"n": n, "k": k}
    lhs = math.factorial(k) * triangles.stirling2(n, k)
    rhs = 0
    for i in range(k - 1, n):
        rhs += math.comb(n, i) * math.factorial(k - 1) * triangles.stirling2(i, k - 1)
    if lhs != rhs:
        return _result("S3", params, {"lhs": str(lhs), "rhs": str(rhs)})
    return _result("S3", params, None)


def check_ss3(n: int, k: int) -> IdentityCheckResult:
    """k s(n,k) = sum(C(n,i) (n-i-1)! s(i,k-1), i = k-1..n-1), unsigned s."""
    if n < 1 or k < 1:
        raise ParameterError("need n >= 1 and k >= 1")
    params = {"n": n, "k": k}
    lhs = k * triangles.stirling1(n, k)
    rhs = 0
    for i in range(k - 1, n):
        rhs += math.comb(n, i) * math.factorial(n - i - 1) * triangles.stirling1(i, k - 1)
    if lhs != rhs:
        return _result("SS3", params, {"lhs": str(lhs), "rhs": str(rhs)})
    return _result("SS3", params, None)


def check_s4(n: int, k: int, p: int, alpha: int) -> IdentityCheckResult:
    """ord_p(k! S(n,k)) >= ord_p(floor(n/p**(alpha-1))!) - floor((n-k)/(p**(alpha-1)(p-1)))."""
    check_prime(p)
    if n < 0 or k < 0 or alpha < 1:
        raise ParameterError("need n, k >= 0 and alpha >= 1")
    params = {"n": n, "k": k, "p": p, "alpha": alpha}
    value = math.factorial(k) * triangles.stirling2(n, k)
    if value == 0:
        return _result("S4", params, None)
    q = p ** (alpha - 1)
    bound = ord_p_factorial(n // q, p) - (n - k) // (q * (p - 1))
    order = ord_p(value, p)
    if order < bound:
        return _result(
            "S4", params, {"ord": order.value, "bound": bound, "value": str(value)}
        )
    return _result("S4", params, None)


def check_scl3e(p: int, alpha: int) -> IdentityCheckResult:
    """s(N,k) mod p for N = p**alpha (p-1): 1 when p**(alpha-1)(p-1) | k, else 0."""
    check_prime(p)
    if alpha < 1:
        raise ParameterError("need alpha >= 1")
    params = {"p": p, "alpha": alpha}
    big_n = p**alpha * (p - 1)
    period = p ** (alpha - 1) * (p - 1)
    row = triangles.stirling1_row(big_n)
    for k in range(1, big_n + 1):
        expected = 1 if k % period == 0 else 0
        got = row[k] % p
        if got != expected:
            return _result("SCL3E", params, {"k": k, "got": got, "expected": expected})
    return _result("SCL3E", params, None)


def check_l31(n: int, p: int, x: int, x_prime: int) -> IdentityCheckResult:
    """x = x' (mod p**(ord_p(n!)+1)) implies C(x,n) = C(x',n) (mod p)."""
    check_prime(p)
    if n < 0:
        raise ParameterError("need n >= 0")
    modulus = p ** (ord_p_factorial(n, p) + 1)
    if (x - x_prime) % modulus != 0:
        raise ParameterError(
            f"precondition fails: {x} and {x_prime} differ mod {modulus}"
        )
    params = {"n": n, "p": p, "x": x, "x_prime": x_prime}
    lhs = binom(x, n) % p
    rhs = binom(x_prime, n) % p
    if lhs != rhs:
        return _result("L31", params, {"lhs_mod_p": lhs, "rhs_mod_p": rhs})
    return _result("L31", params, None)


def check_l32(n: int, l: int, i: int) -> IdentityCheckResult:
    """(n - i) C(i, l-1) <= C(n, l) for 0 <= i <= n."""
    if n < 0 or l < 0 or not 0 <= i <= n:
        raise ParameterError("need n, l >= 0 and 0 <= i <= n")
    params = {"n": n, "l": l, "i": i}
    lhs = (n - i) * binom(i, l - 1)
    rhs = binom(n, l)
    if lhs > rhs:
        return _result("L32", params, {"lhs": str(lhs), "rhs": str(rhs)})
    return _result("L32", params, None)


def random_l31_tuple(rng: random.Random, n_max: int = 12, primes=(2, 3, 5)) -> tuple[int, int, int, int]:
    """One random tuple satisfying the L31 precondition."""
    n = rng.randint(0, n_max)
    p = rng.choice(list(primes))
    x = rng.randint(-(10**6), 10**6)
    t = rng.randint(-4, 4)
    x_prime = x + t * p ** (ord_p_factorial(n, p) + 1)
    return n, p, x, x_prime


# ---------------------------------------------------------------------------
# Suites (default ranges match the acceptance grids)
# ---------------------------------------------------------------------------


def scl3e_cases(limit: int = 100) -> list[tuple[int, int]]:
    """All (p, alpha) with p**alpha (p-1) <= limit, sorted."""
    out = []
    for p in range(2, limit + 2):
        if not is_prime(p):
            continue
        alpha = 1
        while p**alpha * (p - 1) <= limit:
            out.append((p, alpha))
            alpha += 1
    return sorted(out)


def _given(value, default):
    return default if value is None else value


# the n_max of each suite when none is given; SCL3E reads scl3e_limit instead
_N_MAX = {"E1": 12, "E2": 12, "S3": 20, "SS3": 20, "S4": 40, "L31": 12, "L32": 60}

# the triangles whose rows 0..n_max each suite reads; L31 and L32 read none
_READS = {
    "E1": (Family.EULERIAN, Family.STIRLING2),
    "E2": (Family.EULERIAN, Family.STIRLING2),
    "S3": (Family.STIRLING2,),
    "SS3": (Family.STIRLING1,),
    "S4": (Family.STIRLING2,),
}


def suite(
    identity: str,
    *,
    n_max: int | None = None,
    l_max: int | None = None,
    primes: tuple[int, ...] | None = None,
    alphas: tuple[int, ...] | None = None,
    scl3e_limit: int = 100,
    count: int = 200,
    seed: int = 20210,
) -> Iterator[IdentityCheckResult]:
    """The named identity's checks over its default (or overridden) grid.

    A negative bound or count, a prime that is not one and an alpha below 1
    are parameter errors, whether or not the identity reads them.  This call
    raises them before the first check.  It then builds every triangle row
    the checks read, in the order they read them, so a row past
    :data:`triangles.ROW_LIMIT` raises :class:`CapacityError` before the
    first check too.
    """
    for name, value in (("n_max", n_max), ("l_max", l_max),
                        ("scl3e_limit", scl3e_limit), ("count", count)):
        if value is not None and value < 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")
    for p in primes or ():
        check_prime(p)
    for alpha in alphas or ():
        if alpha < 1:
            raise ParameterError(f"alpha must be >= 1, got {alpha}")
    identity = identity.upper()
    if identity not in IDENTITY_IDS:
        raise ParameterError(f"unknown identity id {identity!r}")
    if identity == "SCL3E":
        cases = [(p, alpha) for p, alpha in scl3e_cases(scl3e_limit)
                 if (primes is None or p in primes) and (alphas is None or alpha in alphas)]
        for p, alpha in cases:
            triangles.ensure_rows(Family.STIRLING1, p**alpha * (p - 1))
        return (check_scl3e(p, alpha) for p, alpha in cases)
    n_max = _given(n_max, _N_MAX[identity])
    for family in _READS.get(identity, ()):
        triangles.ensure_rows(family, min(n_max, triangles.ROW_LIMIT + 1))
    return _checks(identity, n_max, _given(l_max, 4), _given(primes, (2, 3, 5)),
                   _given(alphas, (1, 2)), count, seed)


def _checks(identity: str, n_max: int, l_max: int, primes: tuple[int, ...],
            alphas: tuple[int, ...], count: int, seed: int) -> Iterator[IdentityCheckResult]:
    if identity == "E1":
        for n in range(1, n_max + 1):
            for l in range(0, l_max + 1):
                yield check_e1(n, l)
    elif identity == "E2":
        for n in range(1, n_max + 1):
            yield check_e2(n)
    elif identity == "S3":
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                yield check_s3(n, k)
    elif identity == "SS3":
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                yield check_ss3(n, k)
    elif identity == "S4":
        for n in range(0, n_max + 1):
            for k in range(0, n + 1):
                for p in primes:
                    for alpha in alphas:
                        yield check_s4(n, k, p, alpha)
    elif identity == "L31":
        rng = random.Random(seed)
        for _ in range(count):
            n, p, x, x_prime = random_l31_tuple(rng, n_max, primes)
            yield check_l31(n, p, x, x_prime)
    else:  # L32
        for n in range(0, n_max + 1):
            for l in range(0, n + 1):
                for i in range(0, n + 1):
                    yield check_l32(n, l, i)
