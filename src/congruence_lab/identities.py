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

from . import triangles
from ._slots import Frozen
from ._suites import IDENTITY_IDS, NONNEGATIVE_OPTIONS, SUITE_OPTIONS
from .errors import ParameterError
from .exactmath import binom, check_integer, check_params, is_prime, ord_p, ord_p_factorial
from .triangles import Family

__all__ = [
    "IDENTITY_IDS",
    "IdentityCheckResult",
    "NONNEGATIVE_OPTIONS",
    "SUITE_OPTIONS",
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


class IdentityCheckResult(Frozen):
    __slots__ = ("identity", "params", "passed", "witness")

    def __init__(self, identity: str, params: dict[str, int], passed: bool,
                 witness: dict[str, Any] | None = None) -> None:
        if passed and witness is not None:
            raise ValueError("a passing check cannot carry a witness")
        self._set(identity, params, passed, witness)


def _result(identity: str, params: dict[str, int], witness: dict[str, Any] | None):
    return IdentityCheckResult(identity, params, witness is None, witness)


def _rhs_coefficient(n: int, i: int, l: int) -> int:
    """Coefficient of x**i on the ordered-partition side, weight x**l at i."""
    acc = sum(math.factorial(m) * triangles.stirling2(n, m) * math.comb(n - m, i)
              * (-1) ** (n - m - i) for m in range(n - i + 1))
    return acc * i**l


def check_e1(n: int, l: int) -> IdentityCheckResult:
    """Both sides of the Eulerian expansion with weight k**l, coefficientwise."""
    if check_integer("n", n) < 1 or check_integer("l", l) < 0:
        raise ParameterError("need n >= 1 and l >= 0")
    return _check_expansion("E1", {"n": n, "l": l})


def check_e2(n: int) -> IdentityCheckResult:
    """Eulerian row against sum(m! S(n,m) (x-1)**(n-m)), coefficientwise."""
    if check_integer("n", n) < 1:
        raise ParameterError("need n >= 1")
    return _check_expansion("E2", {"n": n})


def _check_expansion(identity: str, params: dict[str, int]) -> IdentityCheckResult:
    """E1 for the params, or E2 for an n alone (its l = 0 case)."""
    n, l = params["n"], params.get("l", 0)
    for i in range(n + 1):
        lhs = triangles.eulerian(n, i) * i**l
        rhs = _rhs_coefficient(n, i, l)
        if lhs != rhs:
            return _result(identity, params, {"i": i, "lhs": str(lhs), "rhs": str(rhs)})
    return _result(identity, params, None)


def check_s3(n: int, k: int) -> IdentityCheckResult:
    """k! S(n,k) = sum(C(n,i) (k-1)! S(i,k-1), i = k-1..n-1)."""
    if check_integer("n", n) < 1 or check_integer("k", k) < 1:
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
    if check_integer("n", n) < 1 or check_integer("k", k) < 1:
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
    check_params(p=p)
    if check_integer("n", n) < 0 or check_integer("k", k) < 0 or check_integer("alpha", alpha) < 1:
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
    check_params(p=p)
    if check_integer("alpha", alpha) < 1:
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
    check_params(p=p)
    if check_integer("n", n) < 0:
        raise ParameterError("need n >= 0")
    modulus = p ** (ord_p_factorial(n, p) + 1)
    if (check_integer("x", x) - check_integer("x_prime", x_prime)) % modulus != 0:
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
    if (check_integer("n", n) < 0 or check_integer("l", l) < 0
            or not 0 <= check_integer("i", i) <= n):
        raise ParameterError("need n, l >= 0 and 0 <= i <= n")
    params = {"n": n, "l": l, "i": i}
    lhs = (n - i) * binom(i, l - 1)
    rhs = binom(n, l)
    if lhs > rhs:
        return _result("L32", params, {"lhs": str(lhs), "rhs": str(rhs)})
    return _result("L32", params, None)


def random_l31_tuple(rng: random.Random, n_max: int, primes) -> tuple[int, int, int, int]:
    """One random tuple satisfying the L31 precondition, with n <= n_max and p
    from ``primes``."""
    n = rng.randint(0, n_max)
    p = rng.choice(list(primes))
    x = rng.randint(-(10**6), 10**6)
    t = rng.randint(-4, 4)
    x_prime = x + t * p ** (ord_p_factorial(n, p) + 1)
    return n, p, x, x_prime


# ---------------------------------------------------------------------------
# Suites (their options and defaults, in _suites, match the acceptance grids)
# ---------------------------------------------------------------------------


def scl3e_cases(limit: int) -> list[tuple[int, int]]:
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


# the triangles whose rows 0..n_max each suite reads; L31 and L32 read none
_READS = {
    "E1": (Family.EULERIAN, Family.STIRLING2),
    "E2": (Family.EULERIAN, Family.STIRLING2),
    "S3": (Family.STIRLING2,),
    "SS3": (Family.STIRLING1,),
    "S4": (Family.STIRLING2,),
}


def suite(identity: str, **options: Any) -> Iterator[IdentityCheckResult]:
    """The named identity's checks over its grid: the given
    :data:`SUITE_OPTIONS` of the suite, and the defaults of the rest.

    An option the suite does not read, a negative bound or count, a prime
    that is not one and an alpha below 1 are parameter errors.  This call
    raises them before the first check.  It then builds every triangle row
    the checks read, in the order they read them, so a row past
    :data:`triangles.ROW_LIMIT` raises :class:`CapacityError` before the
    first check too.
    """
    identity = identity.upper()
    if identity not in SUITE_OPTIONS:
        raise ParameterError(f"unknown identity id {identity!r}")
    for name in options:
        if name not in SUITE_OPTIONS[identity]:
            raise ParameterError(f"{identity} does not read {name}")
    opts = {**SUITE_OPTIONS[identity], **options}
    for name in NONNEGATIVE_OPTIONS:
        if check_integer(name, opts.get(name, 0)) < 0:
            raise ParameterError(f"{name} must be >= 0, got {opts[name]}")
    check_integer("seed", opts.get("seed", 0))
    for name, param in (("primes", "p"), ("alphas", "alpha")):
        try:  # None: not read, or SCL3E's every value
            values = () if opts.get(name) is None else tuple(opts[name])
        except TypeError:
            raise ParameterError(f"{name} must be a collection, got {opts[name]!r}") from None
        for value in values:
            check_params(**{param: value})
    if identity == "SCL3E":
        primes, alphas = opts["primes"], opts["alphas"]
        cases = [(p, alpha) for p, alpha in scl3e_cases(opts["scl3e_limit"])
                 if (primes is None or p in primes) and (alphas is None or alpha in alphas)]
        for p, alpha in cases:
            triangles.ensure_rows(Family.STIRLING1, p**alpha * (p - 1))
        return (check_scl3e(p, alpha) for p, alpha in cases)
    for family in _READS.get(identity, ()):
        triangles.ensure_rows(family, min(opts["n_max"], triangles.ROW_LIMIT + 1))
    return _checks(identity, opts)


def _checks(identity: str, opts: dict[str, Any]) -> Iterator[IdentityCheckResult]:
    ns = range(1, opts["n_max"] + 1)
    if identity == "E1":
        return (check_e1(n, l) for n in ns for l in range(opts["l_max"] + 1))
    if identity == "E2":
        return (check_e2(n) for n in ns)
    if identity in ("S3", "SS3"):
        check = check_s3 if identity == "S3" else check_ss3
        return (check(n, k) for n in ns for k in range(1, n + 1))
    if identity == "S4":
        return (check_s4(n, k, p, alpha) for n in range(opts["n_max"] + 1) for k in range(n + 1)
                for p in opts["primes"] for alpha in opts["alphas"])
    if identity == "L31":
        rng = random.Random(opts["seed"])
        return (check_l31(*random_l31_tuple(rng, opts["n_max"], opts["primes"]))
                for _ in range(opts["count"]))
    # L32
    return (check_l32(n, l, i) for n in range(opts["n_max"] + 1) for l in range(n + 1)
            for i in range(n + 1))
