import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import filtered_sums, triangles
from congruence_lab.errors import ParameterError
from congruence_lab.exactmath import IntPolynomial, ord_p
from congruence_lab.filtered_sums import (
    ResidueClass,
    Variant,
    binom_power_sum,
    eulerian_power_sum,
    eulerian_wan_sum,
    fleck_sum,
    fleck_sums,
    stirling_poly_sum,
    stirling_product_sum,
    stirling_product_sums,
)

from oracles import naive_filtered_sum


class TestResidueClass:
    def test_canonicalization(self):
        assert ResidueClass(5, 7).residue == 2
        assert ResidueClass(5, -1).residue == 4
        assert ResidueClass(1, 123).residue == 0

    def test_contains(self):
        cls = ResidueClass(6, 2)
        assert cls.contains(2) and cls.contains(8) and cls.contains(-4)
        assert not cls.contains(3)

    def test_members(self):
        assert list(ResidueClass(3, 2).members(10)) == [2, 5, 8]
        assert list(ResidueClass(3, 2).members(1)) == []
        assert list(ResidueClass(1, 0).members(3)) == [0, 1, 2, 3]

    def test_rejects_bad_modulus(self):
        with pytest.raises(ParameterError):
            ResidueClass(0, 1)


class TestFleckSum:
    def test_examples(self):
        assert fleck_sum(3, 2, 1, ResidueClass(2, 0), 0) == 4
        assert fleck_sum(5, 2, 1, ResidueClass(2, 0), 1) == 20
        assert fleck_sum(1, 3, 1, ResidueClass(3, 2), 0) == 0

    def test_plain_alternating_specialization(self):
        # l = 0, full class: (1 - 1)**n = 0
        for n in range(1, 10):
            total = sum(
                fleck_sum(n, 2, 1, ResidueClass(2, r), 0) for r in range(2)
            )
            assert total == 0

    def test_floor_variant(self):
        # beta = 1, alpha = 2: modulus 2, quotient floor(k/4)
        value = fleck_sum(6, 2, 2, ResidueClass(2, 0), 1, Variant.FLOOR, 1)
        expected = sum(
            math.comb(6, k) * (-1) ** k * math.comb(k // 4, 1) for k in range(0, 7, 2)
        )
        assert value == expected

    def test_floor_beta_zero_is_unfiltered(self):
        value = fleck_sum(7, 3, 1, ResidueClass(1, 0), 2, Variant.FLOOR, 0)
        expected = sum(
            math.comb(7, k) * (-1) ** k * math.comb(k // 3, 2) for k in range(8)
        )
        assert value == expected

    def test_modulus_mismatch(self):
        with pytest.raises(ParameterError):
            fleck_sum(5, 2, 2, ResidueClass(2, 0), 0)  # needs modulus 4
        with pytest.raises(ParameterError):
            fleck_sum(5, 2, 1, ResidueClass(2, 0), 0, Variant.FLOOR, None)
        with pytest.raises(ParameterError):
            fleck_sum(5, 2, 1, ResidueClass(4, 0), 0, Variant.FLOOR, 2)  # beta > alpha


class TestBinomPowerSum:
    def test_reduces_to_fleck_at_a_one(self):
        assert binom_power_sum(3, 2, 1, ResidueClass(2, 0), 1) == 4

    def test_examples(self):
        assert binom_power_sum(2, 2, 1, ResidueClass(2, 1), 3) == -6
        assert binom_power_sum(0, 5, 1, ResidueClass(5, 0), 5) == 1

    def test_matches_fleck_for_all_residues(self):
        for n in range(1, 12):
            for r in range(4):
                assert binom_power_sum(n, 2, 2, ResidueClass(4, r), 1) == fleck_sum(
                    n, 2, 2, ResidueClass(4, r), 0
                )


class TestEulerianSums:
    def test_wan_examples(self):
        assert eulerian_wan_sum(3, 2, 1, ResidueClass(2, 0), 0) == 2
        assert eulerian_wan_sum(3, 2, 1, ResidueClass(2, 0), 1) == 1
        assert eulerian_wan_sum(4, 5, 1, ResidueClass(5, 4), 0) == 0  # empty class

    def test_power_examples(self):
        assert eulerian_power_sum(4, 2, 1, ResidueClass(2, 1), 3) == 60
        # a = 0, r = 0: only k = 0 survives with 0**0 = 1
        assert eulerian_power_sum(6, 3, 1, ResidueClass(3, 0), 0) == 1
        # p**alpha > n - 1: single surviving term A(n, r)
        assert eulerian_power_sum(5, 7, 1, ResidueClass(7, 3), 1) == triangles.eulerian(5, 3)

    def test_requires_positive_n(self):
        with pytest.raises(ParameterError):
            eulerian_wan_sum(0, 2, 1, ResidueClass(2, 0), 0)


class TestStirlingSums:
    def test_product_examples(self):
        assert stirling_product_sum(4, 2, ResidueClass(2, 0), 1) == 18
        assert stirling_product_sum(4, 1, ResidueClass(2, 0), 1) == 12
        assert stirling_product_sum(4, 6, ResidueClass(2, 0), 3) == 0  # m > n

    def test_poly_examples(self):
        x = IntPolynomial((0, 1))
        assert stirling_poly_sum(3, x, ResidueClass(2, 1), 1) == 5
        assert stirling_poly_sum(6, IntPolynomial(()), ResidueClass(2, 1), 2) == 0

    def test_poly_constant_one_matches_product_m1_shape(self):
        # f = 1 gives sum(s(n,k) a**k) filtered; m = 1 weights S(k,1) = 1 for
        # k >= 1 and S(0,1) = 0, and s(n,0) = 0 for n >= 1, so they agree.
        one = IntPolynomial((1,))
        for n in range(1, 15):
            for d, r in ((1, 0), (2, 1), (3, 2)):
                cls = ResidueClass(d, r)
                assert stirling_poly_sum(n, one, cls, 2) == stirling_product_sum(n, 1, cls, 2)


class TestPartitionAndShift:
    def test_partition_property(self):
        # summing the filtered value over a full period recovers the
        # unfiltered sum (with the weight each k gets from its own class)
        for n in (5, 9, 16, 40):
            for p, alpha, l in ((2, 1, 0), (2, 2, 1), (3, 1, 2)):
                d = p**alpha
                total = sum(fleck_sum(n, p, alpha, ResidueClass(d, r), l) for r in range(d))
                expected = sum(
                    math.comb(n, k) * (-1) ** k * math.comb(k // d, l) for k in range(n + 1)
                )
                assert total == expected
            for p, alpha in ((2, 1), (3, 1)):
                d = p**alpha
                total = sum(
                    eulerian_power_sum(n, p, alpha, ResidueClass(d, r), 2) for r in range(d)
                )
                expected = sum(triangles.eulerian(n, k) * 2**k for k in range(n))
                assert total == expected
            for d in (1, 2, 3, 4):
                total = sum(
                    stirling_product_sum(n, 2, ResidueClass(d, r), -1) for r in range(d)
                )
                expected = sum(
                    triangles.stirling1(n, k) * triangles.stirling2(k, 2) * (-1) ** k
                    for k in range(n + 1)
                )
                assert total == expected

    def test_shift_property(self):
        for shift in (1, 2, 5):
            for r in range(4):
                assert fleck_sum(11, 2, 2, ResidueClass(4, r + shift * 4), 1) == fleck_sum(
                    11, 2, 2, ResidueClass(4, r), 1
                )
                assert stirling_product_sum(
                    9, 3, ResidueClass(6, r - shift * 6), 2
                ) == stirling_product_sum(9, 3, ResidueClass(6, r), 2)


class TestNaiveOracle:
    def test_random_tuples(self):
        rng = random.Random(20260810)
        for _ in range(300):
            family = rng.choice(["fleck", "floor", "bpow", "ewan", "epow", "cdr", "spoly"])
            n = rng.randint(1, 36)
            p = rng.choice([2, 3, 5])
            alpha = rng.randint(1, 2)
            l = rng.randint(0, 3)
            a = rng.randint(-3, 3)
            d = p**alpha
            r = rng.randint(-d, 2 * d)
            cls = ResidueClass(d, r)
            rc = cls.residue
            if family == "fleck":
                got = fleck_sum(n, p, alpha, cls, l)
                want = naive_filtered_sum(
                    n, d, rc, lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rc) // d, l)
                )
            elif family == "floor":
                beta = rng.randint(0, alpha)
                cls_b = ResidueClass(p**beta, r)
                rb = cls_b.residue
                got = fleck_sum(n, p, alpha, cls_b, l, Variant.FLOOR, beta)
                want = naive_filtered_sum(
                    n,
                    p**beta,
                    rb,
                    lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rb) // d, l),
                )
            elif family == "bpow":
                got = binom_power_sum(n, p, alpha, cls, a)
                want = naive_filtered_sum(n, d, rc, lambda k: math.comb(n, k) * (-a) ** k)
            elif family == "ewan":
                got = eulerian_wan_sum(n, p, alpha, cls, l)
                want = naive_filtered_sum(
                    n - 1, d, rc, lambda k: triangles.eulerian(n, k) * math.comb((k - rc) // d, l)
                )
            elif family == "epow":
                got = eulerian_power_sum(n, p, alpha, cls, a)
                want = naive_filtered_sum(
                    n - 1, d, rc, lambda k: triangles.eulerian(n, k) * a**k
                )
            elif family == "cdr":
                m = rng.randint(1, 10)
                dd = rng.randint(1, 9)
                cls_d = ResidueClass(dd, r)
                rd = cls_d.residue
                got = stirling_product_sum(n, m, cls_d, a)
                want = naive_filtered_sum(
                    n,
                    dd,
                    rd,
                    lambda k: triangles.stirling1(n, k) * triangles.stirling2(k, m) * a**k,
                )
            else:
                f = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 4))))
                dd = rng.randint(1, 9)
                cls_d = ResidueClass(dd, r)
                rd = cls_d.residue
                got = stirling_poly_sum(n, f, cls_d, a)
                want = naive_filtered_sum(
                    n, dd, rd, lambda k: triangles.stirling1(n, k) * f(k) * a**k
                )
            assert got == want, (family, n, p, alpha, l, a, r)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=25),
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=0, max_value=2),
    )
    def test_fleck_hypothesis(self, n, p, r, l):
        cls = ResidueClass(p, r)
        rc = cls.residue
        got = fleck_sum(n, p, 1, cls, l)
        want = naive_filtered_sum(
            n, p, rc, lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rc) // p, l)
        )
        assert got == want

    def test_revisited_n_gets_its_own_row(self):
        # the binomial sums keep one row; every change of n, back to an earlier
        # value included, must replace it
        for n in (7, 600, 7, 1, 600):
            for p, alpha, r, l in ((2, 1, 1, 2), (3, 2, 4, 1), (5, 1, 0, 3)):
                d = p**alpha
                got = fleck_sum(n, p, alpha, ResidueClass(d, r), l)
                want = naive_filtered_sum(
                    n, d, r, lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - r) // d, l)
                )
                assert got == want, ("exact", n, p, alpha, r, l)
                beta = alpha - 1
                rb = r % p**beta
                got = fleck_sum(n, p, alpha, ResidueClass(p**beta, rb), l, Variant.FLOOR, beta)
                want = naive_filtered_sum(
                    n, p**beta, rb,
                    lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rb) // d, l),
                )
                assert got == want, ("floor", n, p, alpha, r, l)
                got = binom_power_sum(n, p, alpha, ResidueClass(d, r), l - 2)
                want = naive_filtered_sum(n, d, r, lambda k: math.comb(n, k) * (2 - l) ** k)
                assert got == want, ("power", n, p, alpha, r, l)


class TestOnePassSums:
    """Every residue's sum at once equals one per-residue sum per residue."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
    )
    def test_fleck_sums(self, n, p, alpha, l):
        d = p**alpha
        want = [fleck_sum(n, p, alpha, ResidueClass(d, r), l) for r in range(d)]
        assert fleck_sums(n, p, alpha, l) == want

    @staticmethod
    def _check_calls(calls):
        """Each fleck_sums call of the sequence equals one fleck_sum and one
        naive sum per residue, and the kept suffix sums hold one (n, d)."""
        for n, p, alpha, l in calls:
            d = p**alpha
            got = fleck_sums(n, p, alpha, l)
            assert got == [fleck_sum(n, p, alpha, ResidueClass(d, r), l) for r in range(d)]
            assert got == [naive_filtered_sum(
                n, d, r, lambda k: (-1) ** k * math.comb(n, k) * math.comb((k - r) // d, l))
                for r in range(d)], (n, p, alpha, l)
            classes = filtered_sums._suffixes[2]
            assert len(classes) == d and sum(map(len, classes)) == n + 1

    def test_fleck_sums_sequence(self):
        # l ascending, repeated and descending, (n, d) interleaved, and
        # classes with at most l members (n = 2, d = 2, l = 3 gives 0)
        self._check_calls([(9, 3, 1, 0), (9, 3, 1, 1), (9, 3, 1, 1), (9, 3, 1, 3),
                           (9, 3, 2, 1), (9, 3, 1, 2), (10, 3, 1, 2), (9, 3, 1, 0),
                           (2, 2, 1, 3), (2, 2, 1, 0), (2, 2, 1, 3), (7, 2, 2, 2)])
        assert fleck_sums(2, 2, 1, 3) == [0, 0]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(min_value=1, max_value=30), st.sampled_from([2, 3, 5]),
                           st.integers(min_value=1, max_value=2)), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                           st.integers(min_value=0, max_value=8)), min_size=1, max_size=16),
    )
    def test_fleck_sums_kept_state(self, keys, picks):
        """A drawn call sequence over a few (n, p, alpha): l goes up, down
        and repeats, and the (n, d) interleave."""
        self._check_calls([(*keys[i % len(keys)], l) for i, l in picks])

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=34),  # m > n: every sum is zero
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=-4, max_value=4),
    )
    def test_stirling_product_sums(self, n, m, d, a):
        want = [stirling_product_sum(n, m, ResidueClass(d, r), a) for r in range(d)]
        assert stirling_product_sums(n, m, d, a) == want

    def test_bad_arguments(self):
        for bad in (lambda: fleck_sums(4, 4, 1), lambda: fleck_sums(0, 2, 1),
                    lambda: fleck_sums(4, 2, 0), lambda: fleck_sums(4, 2, 1, -1),
                    lambda: stirling_product_sums(0, 1, 2, 1),
                    lambda: stirling_product_sums(3, 0, 2, 1),
                    lambda: stirling_product_sums(3, 1, 0, 1)):
            with pytest.raises(ParameterError):
                bad()
