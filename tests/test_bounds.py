import pytest

from congruence_lab.bounds import THEOREMS, BoundSpec, TheoremId, _named, sc2_comparison
from congruence_lab.errors import ParameterError
from congruence_lab.exactmath import IntPolynomial, ord_p, ord_p_factorial
from congruence_lab.filtered_sums import ResidueClass, binom_power_sum, stirling_poly_sum
from congruence_lab.verifier import AXIS_FIELDS


def exponent(theorem, **params):
    return THEOREMS[theorem].bound(**params)


class TestTable:
    def test_one_entry_per_theorem_id(self):
        assert len(THEOREMS) == len(TheoremId)
        assert all(type(key) is TheoremId for key in THEOREMS)
        assert set(THEOREMS) == set(TheoremId)

    def test_params_follow_the_canonical_order(self):
        # grid_params takes the product of the axes in this order, which is
        # the record order of every report
        canonical = ("n", "p", "alpha", "beta", "l", "m", "a", "f")
        assert tuple(AXIS_FIELDS) == canonical
        for theorem, entry in THEOREMS.items():
            assert entry.params[:2] == ("n", "p"), theorem
            assert entry.params == tuple(name for name in canonical if name in entry.params)

    def test_functions_read_only_the_theorem_params(self):
        for theorem, entry in THEOREMS.items():
            params = set(entry.params)
            assert set(_named(entry.modulus)) <= params, theorem
            assert set(_named(entry.sum)) <= params | {"cls"}, theorem
            # the plan passes the modulus and its sweep's state to sums
            assert set(_named(entry.sums)) <= params | {"d", "state"}, theorem
            assert set(entry.spec_params) <= params - {"f"}, theorem

    def test_one_pass_sums(self):
        # the binomial EXACT sums and the Stirling product sums; the rest
        # fall back to one sum per residue
        assert {t.value for t, entry in THEOREMS.items() if entry.sums is not None} == {
            "fleck", "weisman", "wan", "wan-strong", "davis-sun-a", "davis-sun-b", "sc1", "sc3",
        }

    def test_only_sc2_has_no_exponent(self):
        assert [t for t, entry in THEOREMS.items() if entry.bound is None] == [TheoremId.SC2]


class TestFormulas:
    def test_spec_examples(self):
        assert exponent(TheoremId.FLECK, n=3, p=2) == 2
        assert exponent(TheoremId.EC1, n=4, p=2, alpha=1, l=0) == 2
        assert exponent(TheoremId.SC3, n=4, p=2, alpha=1, m=1) == 1

    def test_hand_values(self):
        assert exponent(TheoremId.WEISMAN, n=10, p=2, alpha=2) == 4
        assert exponent(TheoremId.WAN, n=10, p=3, l=2) == 1
        assert exponent(TheoremId.SUN, n=10, p=2, alpha=2, beta=1, l=1) == 2
        assert exponent(TheoremId.WAN_STRONG, n=10, p=2, alpha=2, l=1) == 2
        assert exponent(TheoremId.DAVIS_SUN_A, n=20, p=2, alpha=1, l=2) == 7
        assert exponent(TheoremId.DAVIS_SUN_B, n=20, p=2, alpha=2, l=2) == 5
        assert exponent(TheoremId.EC2, n=8, p=2, alpha=2, a=3) == 2
        assert exponent(TheoremId.SC1, n=6, p=3, m=2, a=1) == 2

    def test_negative_bounds_returned_as_is(self):
        assert exponent(TheoremId.WEISMAN, n=1, p=3, alpha=3) == -1
        assert exponent(TheoremId.SC3, n=1, p=2, alpha=1, m=1) == -1
        assert exponent(TheoremId.EC1, n=1, p=5, alpha=2, l=2) < 0

    def test_monotone_in_n(self):
        # floor-formula bounds never decrease as n grows
        cases = [
            (TheoremId.FLECK, dict(p=3)),
            (TheoremId.WEISMAN, dict(p=2, alpha=3)),
            (TheoremId.WAN, dict(p=5, l=2)),
            (TheoremId.SUN, dict(p=2, alpha=2, beta=1, l=3)),
            (TheoremId.WAN_STRONG, dict(p=3, alpha=2, l=1)),
            (TheoremId.SC3, dict(p=2, alpha=2, m=3)),
        ]
        for theorem, kwargs in cases:
            values = [exponent(theorem, n=n, **kwargs) for n in range(1, 201)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_strong_wan_equals_wan_at_alpha_one(self):
        for p in (2, 3, 5):
            for l in range(5):
                for n in range(l * p + 1, 120):
                    assert exponent(TheoremId.WAN_STRONG, n=n, p=p, alpha=1, l=l) == exponent(
                        TheoremId.WAN, n=n, p=p, l=l
                    )


class TestHypotheses:
    def test_wan_needs_n_above_lp(self):
        assert not BoundSpec(TheoremId.WAN, n=6, p=3, l=2).hypotheses_hold()
        assert BoundSpec(TheoremId.WAN, n=7, p=3, l=2).hypotheses_hold()

    def test_sun_needs_beta_below_alpha_and_n_floor(self):
        assert not BoundSpec(TheoremId.SUN, n=10, p=2, alpha=1, beta=2, l=0).hypotheses_hold()
        assert not BoundSpec(TheoremId.SUN, n=3, p=2, alpha=3, beta=0, l=0).hypotheses_hold()
        assert BoundSpec(TheoremId.SUN, n=4, p=2, alpha=3, beta=3, l=0).hypotheses_hold()

    def test_ec2_needs_unit_congruent_a_and_large_n(self):
        assert not BoundSpec(TheoremId.EC2, n=3, p=2, alpha=2, a=3).hypotheses_hold()
        assert not BoundSpec(TheoremId.EC2, n=9, p=3, alpha=1, a=2).hypotheses_hold()
        assert BoundSpec(TheoremId.EC2, n=4, p=2, alpha=2, a=3).hypotheses_hold()

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            BoundSpec(TheoremId.WEISMAN, n=5, p=4, alpha=1)  # composite p
        with pytest.raises(ParameterError):
            BoundSpec(TheoremId.WEISMAN, n=5, p=2)  # missing alpha
        with pytest.raises(ParameterError):
            BoundSpec(TheoremId.WEISMAN, n=5, p=2, alpha=0)
        with pytest.raises(ParameterError):
            BoundSpec(TheoremId.SC1, n=0, p=2, m=1, a=1)
        with pytest.raises(ParameterError):
            BoundSpec(TheoremId.SC1, n=5, p=2, m=0, a=1)
        # every field that is set, whether or not the theorem takes it
        for fields in (dict(alpha=0), dict(beta=-1), dict(l=-1)):
            with pytest.raises(ParameterError):
                BoundSpec(TheoremId.FLECK, n=5, p=2, **fields)


class TestSc2:
    def test_zero_sum_holds(self):
        l, lhs, rhs, ok = sc2_comparison(3, 2, IntPolynomial((1,)), 0)
        assert (l, lhs, ok) == (0, None, True)

    def test_spec_examples(self):
        # constant weight: reduces to ord >= ord_p(n!)
        assert sc2_comparison(3, 2, IntPolynomial((1,)), 6)[3]
        assert not sc2_comparison(3, 2, IntPolynomial((1,)), 3)[3]
        # quadratic weight at n = 4: C(4,2) * 2**1 = 12 >= 2**3 = 8
        l, lhs, rhs, ok = sc2_comparison(4, 2, IntPolynomial((0, 0, 1)), 2)
        assert (l, lhs, rhs, ok) == (2, 12, 8, True)

    def test_constant_weight_reduction(self):
        # with deg f = 0 the exact comparison must agree with the plain
        # integer inequality ord_p(total) >= ord_p(n!)
        f = IntPolynomial((3,))
        for p in (2, 3):
            for n in range(1, 25):
                for total in (1, 2, 6, 24, 120, 720, -48, 3**7):
                    direct = ord_p(total, p) >= ord_p_factorial(n, p)
                    assert sc2_comparison(n, p, f, total)[3] == direct

    def test_degree_caps_at_n_over_p(self):
        f = IntPolynomial((0, 0, 0, 0, 0, 1))  # degree 5
        l, _, _, _ = sc2_comparison(7, 3, f, 9)
        assert l == 2  # floor(7/3)

    def test_actual_sums_satisfy_bound(self):
        for f in (IntPolynomial((1,)), IntPolynomial((0, 1)), IntPolynomial((0, -1, 0, 3))):
            for p in (2, 3, 5):
                d = p - 1 if p > 2 else 1
                for n in range(1, 30):
                    for r in range(d):
                        total = stirling_poly_sum(n, f, ResidueClass(d, r), 2)
                        assert sc2_comparison(n, p, f, total)[3]


def inferred_power_exponent(n, p, alpha):
    """floor((n - q) / (q (p - 1))) with q = p**(alpha-1): the working exponent
    of the filtered (-a)**k binomial sum for a = 1 (mod p), which the Eulerian
    power-sum proof route relies on; checked here, not cited."""
    q = p ** (alpha - 1)
    return (n - q) // (q * (p - 1))


class TestInferredPowerBound:
    def test_formula(self):
        assert inferred_power_exponent(10, 2, 1) == 9
        assert inferred_power_exponent(10, 2, 3) == 1
        assert inferred_power_exponent(1, 3, 2) == -1

    def test_holds_for_unit_congruent_a(self):
        for p in (2, 3):
            for alpha in (1, 2):
                d = p**alpha
                for n in range(1, 41):
                    for t in (-2, 0, 1, 3):
                        a = 1 + t * p
                        for r in range(d):
                            total = binom_power_sum(n, ResidueClass(d, r), a)
                            if total:
                                bound = inferred_power_exponent(n, p, alpha)
                                assert ord_p(total, p) >= bound
