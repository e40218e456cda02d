import math
import operator
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import bounds, filtered_sums, identities, triangles, verifier
from congruence_lab.bounds import TheoremId
from congruence_lab.errors import ParameterError
from congruence_lab.exactmath import (
    INFINITY,
    IntPolynomial,
    PAdicOrder,
    _digit_power,
    binom,
    check_at_least,
    check_collection,
    check_params,
    is_prime,
    ord_p,
    ord_p_factorial,
    ord_p_nonzero,
)

from oracles import ord_by_division


class TestOrdP:
    def test_examples(self):
        assert ord_p(12, 2) == 2
        assert ord_p(0, 5).is_infinite
        assert ord_p(-18, 3) == 2

    def test_rejects_non_primes(self):
        for p in (-3, 0, 1, 4, 6, 9, 15):
            with pytest.raises(ParameterError):
                ord_p(10, p)
        with pytest.raises(ParameterError, match=r"^x must be an integer, got 12\.0$"):
            ord_p(12.0, 2)
        assert is_prime(2)
        for p in (2.5, 2.0):  # 2.0 must not find the cached answer for 2
            with pytest.raises(ParameterError, match=f"^p must be an integer, got {p}$"):
                is_prime(p)

    def test_nonzero_order_is_an_int(self):
        assert [ord_p_nonzero(x, p) for x, p in ((12, 2), (-18, 3), (7, 5))] == [2, 2, 0]
        with pytest.raises(ValueError):  # zero has no finite order
            ord_p_nonzero(0, 3)

    def test_against_division_oracle(self):
        for p in (2, 3, 5, 7):
            for x in range(-500, 501):
                expected = ord_by_division(x, p)
                got = ord_p(x, p)
                if expected is None:
                    assert got.is_infinite
                else:
                    assert got.value == expected

    @given(st.integers(min_value=-(10**30), max_value=10**30), st.sampled_from([2, 3, 5, 7, 11]))
    def test_cofactor_not_divisible(self, x, p):
        if x == 0:
            assert ord_p(x, p).is_infinite
        else:
            e = ord_p(x, p).value
            quotient, remainder = divmod(x, p**e)
            assert remainder == 0
            assert quotient % p != 0


# 32749 and 65537 lie just under and over 2**15 (a digit with 15-bit digits);
# 2**31 - 1 and 2**30 + 3 do not fit in a 30-bit digit
DIGIT_PRIMES = (2, 3, 5, 7, 32749, 65537, 2**31 - 1, 2**30 + 3)


class TestOrdPByDigits:
    """``ord_p_nonzero`` divides by p**k, one int digit, at a time; the
    oracle divides by p."""

    def test_digit_power_bounds(self):
        base = 1 << sys.int_info.bits_per_digit
        for p in DIGIT_PRIMES + (11, 31, 1021, 46337, 46349):
            q, k = _digit_power(p)
            assert k >= 1 and q == p**k, p
            if p < base:
                assert q < base <= q * p, p
            else:
                assert k == 1, p

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(DIGIT_PRIMES),
        st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 0), (3, 1)]),  # e = a*k + b
        st.one_of(st.integers(min_value=1, max_value=10**6),
                  st.integers(min_value=10**300, max_value=10**700)),
        st.sampled_from([1, -1]),
    )
    def test_orders_around_multiples_of_k(self, p, ab, cofactor, sign):
        e = ab[0] * _digit_power(p)[1] + ab[1]
        if cofactor % p == 0:
            cofactor += 1
        x = sign * cofactor * p**e
        assert ord_p_nonzero(x, p) == ord_by_division(x, p) == e


class TestPAdicOrder:
    def test_infinity_dominates(self):
        assert INFINITY > 10**9
        assert INFINITY > PAdicOrder(0)
        assert INFINITY >= INFINITY
        assert not INFINITY < INFINITY
        assert INFINITY == PAdicOrder(None)

    def test_finite_comparisons(self):
        assert PAdicOrder(2) == 2
        assert PAdicOrder(2) < 3
        assert PAdicOrder(2) >= -1  # negative bounds are legal comparands
        assert PAdicOrder(0) > -5
        assert PAdicOrder(3) > PAdicOrder(1)

    def test_value_accessors(self):
        assert PAdicOrder(7).value == 7
        assert not PAdicOrder(7).is_infinite
        with pytest.raises(ValueError):
            _ = INFINITY.value
        with pytest.raises(ValueError):
            PAdicOrder(-1)

    def test_str(self):
        assert str(INFINITY) == "inf"
        assert str(PAdicOrder(4)) == "4"

    @given(st.lists(st.one_of(st.integers(-20, 20), st.integers(0, 20).map(PAdicOrder),
                              st.just(INFINITY)), min_size=2, max_size=2))
    def test_all_six_operators_follow_the_key_both_ways_round(self, pair):
        # an int, or a PAdicOrder on either side, compares as (is_infinite, value)
        def key(x):
            if isinstance(x, PAdicOrder):
                return (x.is_infinite, 0 if x.is_infinite else x.value)
            return (False, x)

        a, b = pair
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
            assert op(a, b) is op(key(a), key(b)), (op, a, b)
            assert op(b, a) is op(key(b), key(a)), (op, b, a)

    def test_other_types_do_not_order_and_finite_orders_hash_as_ints(self):
        with pytest.raises(TypeError):
            PAdicOrder(1) < "a"
        with pytest.raises(TypeError):
            "a" >= INFINITY
        assert PAdicOrder(1) != "a"
        assert hash(PAdicOrder(3)) == hash(3)


class TestOrdPFactorial:
    def test_examples(self):
        assert ord_p_factorial(10, 2) == 8
        assert ord_p_factorial(0, 3) == 0
        assert ord_p_factorial(9, 3) == 4

    def test_matches_explicit_factorial(self):
        # must agree with the order of the directly computed factorial
        for p in (2, 3, 5, 7):
            factorial = 1
            assert ord_p_factorial(0, p) == 0
            for n in range(1, 301):
                factorial *= n
                assert ord_p_factorial(n, p) == ord_p(factorial, p).value

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            ord_p_factorial(-1, 2)
        with pytest.raises(ParameterError, match=r"^n must be an integer, got 2\.5$"):
            ord_p_factorial(2.5, 2)  # not the float 1.0


class TestBinom:
    def test_examples(self):
        assert binom(5, 2) == 10
        assert binom(7, -1) == 0
        assert binom(-3, 2) == 6
        for args, message in (((2.5, 1), "x must be an integer, got 2.5"),
                              ((2.5, -1), "x must be an integer, got 2.5"),
                              ((3, 1.5), "k must be an integer, got 1.5")):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                binom(*args)

    def test_small_table(self):
        assert binom(0, 0) == 1
        assert binom(4, 7) == 0
        assert binom(-1, 3) == -1
        assert binom(-2, 3) == -4

    def test_pascal_rule(self):
        for x in range(-20, 21):
            for k in range(-2, 13):
                assert isinstance(binom(x, k), int)
                if k >= 1:
                    assert binom(x, k) == binom(x - 1, k - 1) + binom(x - 1, k)

    @given(st.integers(min_value=-60, max_value=60), st.integers(min_value=0, max_value=20))
    def test_product_formula(self, x, k):
        numerator = math.prod(x - i for i in range(k))
        assert binom(x, k) * math.factorial(k) == numerator


class TestIntPolynomial:
    def test_eval_examples(self):
        assert IntPolynomial((1, 1, 1))(2) == 7
        assert IntPolynomial(())(5) == 0
        assert IntPolynomial((0, -1, 0, 3))(-1) == -2

    def test_zero_polynomial_degree(self):
        zero = IntPolynomial((0, 0, 0))
        assert zero.coeffs == ()
        assert zero.degree == 0

    def test_trailing_zeros_stripped(self):
        f = IntPolynomial((1, 2, 0, 0))
        assert f.coeffs == (1, 2)
        assert f.degree == 1

    def test_coeff_string_round_trip(self):
        for text in ("1", "0,1", "0,0,1", "0,-1,0,3", "1,1,1"):
            f = IntPolynomial.from_coeff_string(text)
            assert IntPolynomial.from_coeff_string(f.coeff_string()) == f
        assert IntPolynomial(()).coeff_string() == "0"

    def test_from_coeff_string_rejects_garbage(self):
        with pytest.raises(ParameterError):
            IntPolynomial.from_coeff_string("1,,2")
        with pytest.raises(ParameterError):
            IntPolynomial.from_coeff_string("x")

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=6),
        st.integers(min_value=-30, max_value=30),
    )
    def test_horner_matches_power_sum(self, coeffs, x):
        f = IntPolynomial(tuple(coeffs))
        assert f(x) == sum(c * x**i for i, c in enumerate(coeffs))


def test_is_prime_small():
    primes = [p for p in range(100) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


class TestCheckParams:
    def test_p_first_then_the_order_given(self):
        with pytest.raises(ParameterError, match="^p must be a prime >= 2, got 4$"):
            check_params(n=0, p=4)
        with pytest.raises(ParameterError, match="^l must be >= 0, got -1$"):
            check_params(l=-1, n=0, p=2)

    def test_check_at_least_returns_the_int(self):
        assert check_at_least("k", 3, 3) == 3
        assert type(check_at_least("k", True, 0)) is int
        with pytest.raises(ParameterError, match="^k must be >= 1, got 0$"):
            check_at_least("k", 0, 1)
        with pytest.raises(ParameterError, match=r"^k must be an integer, got 1\.0$"):
            check_at_least("k", 1.0, 0)

    def test_names_without_a_minimum_are_skipped(self):
        # a and r may be any integer; d has a minimum, and f must be a polynomial
        check_params(n=1, p=2, alpha=1, beta=0, l=0, m=1, a=-7, d=1, r=-3,
                     f=IntPolynomial((0, 1)))
        with pytest.raises(ParameterError, match="^d must be >= 1, got -1$"):
            check_params(d=-1)
        with pytest.raises(ParameterError, match="^f must be an IntPolynomial, got None$"):
            check_params(f=None)


#: A good value of each parameter, and bad ones, each with the message every
#: entry point that takes the parameter gives for it: one out of range, and
#: one that is not an integer (or, for f, not a polynomial)
GOOD = {"n": 5, "p": 2, "alpha": 1, "beta": 0, "l": 0, "m": 1, "a": 1, "d": 2, "r": 0,
        "f": IntPolynomial((0, 1)), "divisor": 2, "coefficient": 0}
BAD = {
    "n": ((0, "n must be >= 1, got 0"), (2.7, "n must be an integer, got 2.7")),
    "alpha": ((0, "alpha must be >= 1, got 0"), (1.5, "alpha must be an integer, got 1.5")),
    "beta": ((-1, "beta must be >= 0, got -1"), ("0", "beta must be an integer, got '0'")),
    "l": ((-1, "l must be >= 0, got -1"), (2.0, "l must be an integer, got 2.0")),
    "m": ((0, "m must be >= 1, got 0"), (1.5, "m must be an integer, got 1.5")),
    "p": ((4, "p must be a prime >= 2, got 4"), (2.9, "p must be an integer, got 2.9")),
    "a": ((1.5, "a must be an integer, got 1.5"),),  # any integer will do
    "d": ((0, "d must be >= 1, got 0"), (2.0, "d must be an integer, got 2.0")),
    "r": ((0.5, "r must be an integer, got 0.5"),),  # any integer will do
    "f": (("0,1", "f must be an IntPolynomial, got '0,1'"),),
    "divisor": ((0, "divisor must be >= 1, got 0"), (1.5, "divisor must be an integer, got 1.5")),
    "coefficient": ((0.9, "coefficient must be an integer, got 0.9"),),
}


def _theorem_taking(name):
    # every theorem takes a residue r
    return next(t for t in TheoremId if name in bounds.THEOREMS[t].params + ("r",))


def _claim(name, v):
    theorem = _theorem_taking(name)
    return theorem, {k: v[k] for k in bounds.THEOREMS[theorem].params}


def _grid(name, v):
    theorem, params = _claim(name, v)
    verifier.GridSpec(theorem, residues=(v["r"],),
                      **{verifier.AXIS_FIELDS[k]: (x,) for k, x in params.items()})


def _check_claim(name, v):
    theorem, params = _claim(name, v)
    verifier.check_claim(theorem, {**params, "r": v["r"]})


def _evaluate_tuple(name, v):
    verifier.evaluate_tuple(*_claim(name, v), residues=(v["r"],))


# each entry point with the parameters it checks; a sum takes its class (or
# d), built for the good values (modulus 2 = p**alpha, 1 = p**beta, with the
# divisor p**alpha), and only the parameters of its weight
EXACT, FLOOR = filtered_sums.ResidueClass(2, 0), filtered_sums.ResidueClass(1, 0)
ENTRY_POINTS = {
    "GridSpec": ("n p alpha beta l m a r f", _grid),
    "check_claim": ("n p alpha beta l m a r f", _check_claim),
    "evaluate_tuple": ("n p alpha beta l m a r f", _evaluate_tuple),
    "ResidueClass": ("d r", lambda _, v: filtered_sums.ResidueClass(v["d"], v["r"])),
    "IntPolynomial": ("coefficient", lambda _, v: IntPolynomial((v["coefficient"], 1))),
    "fleck_sum": ("n l", lambda _, v: filtered_sums.fleck_sum(v["n"], EXACT, v["l"])),
    "fleck_sum FLOOR": ("n l divisor", lambda _, v: filtered_sums.fleck_sum(
        v["n"], FLOOR, v["l"], v["divisor"])),
    "fleck_sums": ("n d l", lambda _, v: filtered_sums.fleck_sums(v["n"], v["d"], v["l"])),
    # binom_power_sum's n is not here: n >= 0 is its own rule
    "binom_power_sum": ("a", lambda _, v: filtered_sums.binom_power_sum(v["n"], EXACT, v["a"])),
    "eulerian_wan_sum": ("n l", lambda _, v: filtered_sums.eulerian_wan_sum(
        v["n"], EXACT, v["l"])),
    "eulerian_power_sum": ("n a", lambda _, v: filtered_sums.eulerian_power_sum(
        v["n"], EXACT, v["a"])),
    "stirling_product_sum": ("n m a", lambda _, v: filtered_sums.stirling_product_sum(
        v["n"], v["m"], EXACT, v["a"])),
    "stirling_product_sums": ("n m d a", lambda _, v: filtered_sums.stirling_product_sums(
        v["n"], v["m"], v["d"], v["a"])),
    "stirling_poly_sum": ("n f a", lambda _, v: filtered_sums.stirling_poly_sum(
        v["n"], v["f"], EXACT, v["a"])),
    "sc2_comparison": ("n p f", lambda _, v: bounds.sc2_comparison(
        v["n"], v["p"], v["f"], 6)),
    "eulerian": ("n", lambda _, v: triangles.eulerian(v["n"], 0)),
    "identities.suite": ("p alpha", lambda _, v: identities.suite(
        "S4", primes=(v["p"],), alphas=(v["alpha"],))),
}


@pytest.mark.parametrize("entry, name", [
    pytest.param(entry, name, id=f"{entry}-{name}")
    for entry, (names, _) in ENTRY_POINTS.items() for name in names.split()
])
def test_a_bad_value_gets_one_message_at_every_entry_point(entry, name):
    call = ENTRY_POINTS[entry][1]
    call(name, GOOD)  # the good values pass
    for value, message in BAD[name]:
        with pytest.raises(ParameterError) as error:
            call(name, {**GOOD, name: value})
        assert str(error.value) == message


# the entry points whose n may be 0 (a triangle row, Legendre's count, a
# binomial row and its power sum) have their own rule, n >= 0, with the same
# wording as the claim parameters' rules
N_FROM_ZERO = {
    "binomial_row": filtered_sums.binomial_row,
    "Triangle.row": lambda n: triangles.build(triangles.Family.STIRLING2, 3).row(n),
    "ensure_rows": lambda n: triangles.ensure_rows(triangles.Family.EULERIAN, n),
    "ord_p_factorial": lambda n: ord_p_factorial(n, 2),
    "binom_power_sum": lambda n: filtered_sums.binom_power_sum(n, EXACT, 1),
}


@pytest.mark.parametrize("entry", N_FROM_ZERO)
def test_n_below_zero_gets_one_message_at_every_entry_point(entry):
    call = N_FROM_ZERO[entry]
    call(0)
    for value, message in ((-1, "n must be >= 0, got -1"), (2.5, "n must be an integer, got 2.5")):
        with pytest.raises(ParameterError) as error:
            call(value)
        assert str(error.value) == message


@pytest.mark.parametrize("value, message", [
    (-1, "order must be >= 0, got -1"),
    (2.5, "order must be an integer, got 2.5"),
])
def test_a_p_adic_order_out_of_range_gets_the_same_message(value, message):
    assert PAdicOrder(0).value == 0 and PAdicOrder(None).is_infinite
    with pytest.raises(ParameterError) as error:
        PAdicOrder(value)
    assert str(error.value) == message


# a bare value where a collection of values belongs
NOT_A_COLLECTION = {
    "check_collection": lambda v: check_collection("primes", v),
    "GridSpec": lambda v: verifier.GridSpec(TheoremId.FLECK, ns=(3,), primes=v),
    # None means every prime only to SCL3E, whose default it is
    "identities.suite": lambda v: identities.suite("S4", primes=v),
}


@pytest.mark.parametrize("entry", NOT_A_COLLECTION)
def test_a_bare_value_gets_one_message_at_every_entry_point(entry):
    call = NOT_A_COLLECTION[entry]
    call(iter([2, 3]))  # any iterable will do
    for value in (2, None):
        with pytest.raises(ParameterError) as error:
            call(value)
        assert str(error.value) == f"primes must be a collection, got {value!r}"
