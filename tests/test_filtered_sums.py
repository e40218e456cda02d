import itertools
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import filtered_sums, triangles, verifier
from congruence_lab.bounds import THEOREMS, TheoremId
from congruence_lab.errors import ParameterError
from congruence_lab.exactmath import IntPolynomial, ord_p
from congruence_lab.filtered_sums import (
    ResidueClass,
    binom_power_sum,
    eulerian_power_sum,
    eulerian_wan_sum,
    _FleckLevels,
    _StirlingLevels,
    fleck_sum,
    stirling_poly_sum,
    stirling_product_sum,
)

from oracles import (
    eulerian_row_by_series,
    fleck_sums_by_ring,
    naive_filtered_sum,
    rising_poly_coeffs,
    stirling2_explicit,
)


class TestResidueClass:
    def test_canonicalization(self):
        assert ResidueClass(5, 7).residue == 2
        assert ResidueClass(5, -1).residue == 4
        assert ResidueClass(1, 123).residue == 0

    def test_members(self):
        assert list(ResidueClass(3, 2).members(10)) == [2, 5, 8]
        assert list(ResidueClass(3, 2).members(1)) == []
        assert list(ResidueClass(1, 0).members(3)) == [0, 1, 2, 3]

    def test_rejects_bad_modulus(self):
        with pytest.raises(ParameterError):
            ResidueClass(0, 1)


class TestFleckSum:
    def test_examples(self):
        assert fleck_sum(3, ResidueClass(2, 0), 0) == 4
        assert fleck_sum(5, ResidueClass(2, 0), 1) == 20
        assert fleck_sum(1, ResidueClass(3, 2), 0) == 0

    def test_plain_alternating_specialization(self):
        # l = 0, full class: (1 - 1)**n = 0
        for n in range(1, 10):
            total = sum(
                fleck_sum(n, ResidueClass(2, r), 0) for r in range(2)
            )
            assert total == 0

    def test_floor_variant(self):
        # beta = 1, alpha = 2: modulus 2, quotient floor(k/4)
        value = filtered_sums._fleck_sum(6, ResidueClass(2, 0), 1, 4)
        expected = sum(
            math.comb(6, k) * (-1) ** k * math.comb(k // 4, 1) for k in range(0, 7, 2)
        )
        assert value == expected

    def test_floor_beta_zero_is_unfiltered(self):
        value = filtered_sums._fleck_sum(7, ResidueClass(1, 0), 2, 3)
        expected = sum(
            math.comb(7, k) * (-1) ** k * math.comb(k // 3, 2) for k in range(8)
        )
        assert value == expected


class TestBinomialRow:
    def test_binomial_row(self):
        for n in [*range(301), 599, 650, 1000]:
            assert filtered_sums.binomial_row(n) == [math.comb(n, k) for k in range(n + 1)], n
        with pytest.raises(ValueError):
            filtered_sums.binomial_row(-1)


class TestBinomPowerSum:
    def test_reduces_to_fleck_at_a_one(self):
        assert binom_power_sum(3, ResidueClass(2, 0), 1) == 4

    def test_examples(self):
        assert binom_power_sum(2, ResidueClass(2, 1), 3) == -6
        assert binom_power_sum(0, ResidueClass(5, 0), 5) == 1

    def test_matches_fleck_for_all_residues(self):
        for n in range(1, 12):
            for r in range(4):
                assert binom_power_sum(n, ResidueClass(4, r), 1) == fleck_sum(
                    n, ResidueClass(4, r), 0
                )


class TestEulerianSums:
    def test_wan_examples(self):
        assert eulerian_wan_sum(3, ResidueClass(2, 0), 0) == 2
        assert eulerian_wan_sum(3, ResidueClass(2, 0), 1) == 1
        assert eulerian_wan_sum(4, ResidueClass(5, 4), 0) == 0  # empty class

    def test_power_examples(self):
        assert eulerian_power_sum(4, ResidueClass(2, 1), 3) == 60
        # a = 0, r = 0: only k = 0 survives with 0**0 = 1
        assert eulerian_power_sum(6, ResidueClass(3, 0), 0) == 1
        # p**alpha > n - 1: single surviving term A(n, r)
        assert eulerian_power_sum(5, ResidueClass(7, 3), 1) == triangles.eulerian(5, 3)

    def test_requires_positive_n(self):
        with pytest.raises(ParameterError):
            eulerian_wan_sum(0, ResidueClass(2, 0), 0)


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
                total = sum(fleck_sum(n, ResidueClass(d, r), l) for r in range(d))
                expected = sum(
                    math.comb(n, k) * (-1) ** k * math.comb(k // d, l) for k in range(n + 1)
                )
                assert total == expected
            for p, alpha in ((2, 1), (3, 1)):
                d = p**alpha
                total = sum(
                    eulerian_power_sum(n, ResidueClass(d, r), 2) for r in range(d)
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
                assert fleck_sum(11, ResidueClass(4, r + shift * 4), 1) == fleck_sum(
                    11, ResidueClass(4, r), 1
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
                got = fleck_sum(n, cls, l)
                want = naive_filtered_sum(
                    n, d, rc, lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rc) // d, l)
                )
            elif family == "floor":
                beta = rng.randint(0, alpha)
                cls_b = ResidueClass(p**beta, r)
                rb = cls_b.residue
                got = filtered_sums._fleck_sum(n, cls_b, l, d)
                want = naive_filtered_sum(
                    n,
                    p**beta,
                    rb,
                    lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rb) // d, l),
                )
            elif family == "bpow":
                got = binom_power_sum(n, cls, a)
                want = naive_filtered_sum(n, d, rc, lambda k: math.comb(n, k) * (-a) ** k)
            elif family == "ewan":
                got = eulerian_wan_sum(n, cls, l)
                want = naive_filtered_sum(
                    n - 1, d, rc, lambda k: triangles.eulerian(n, k) * math.comb((k - rc) // d, l)
                )
            elif family == "epow":
                got = eulerian_power_sum(n, cls, a)
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

    @pytest.mark.parametrize("a, p, alpha, r", [
        (0, 3, 1, 0),  # 0**0 = 1
        (0, 3, 1, 2),  # every other power of 0 is 0
        (-2, 2, 2, 1),
        (4, 3, 2, 8),  # r > n: an empty class
        # a modulus far above n: a**(2**40) must never be taken
        (7, 2, 40, 3),  # one member
        (7, 2, 40, 9),  # no member
    ])
    def test_power_sums_at_the_edges(self, a, p, alpha, r):
        n, m, d = 6, 2, p**alpha
        f = IntPolynomial((1, -2, 3))
        cls = ResidueClass(d, r)
        assert binom_power_sum(n, cls, a) == naive_filtered_sum(
            n, d, r, lambda k: math.comb(n, k) * (-a) ** k
        )
        assert eulerian_power_sum(n, cls, a) == naive_filtered_sum(
            n - 1, d, r, lambda k: triangles.eulerian(n, k) * a**k
        )
        assert stirling_product_sum(n, m, cls, a) == naive_filtered_sum(
            n, d, r, lambda k: triangles.stirling1(n, k) * triangles.stirling2(k, m) * a**k
        )
        assert stirling_poly_sum(n, f, cls, a) == naive_filtered_sum(
            n, d, r, lambda k: triangles.stirling1(n, k) * f(k) * a**k
        )

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
        got = fleck_sum(n, cls, l)
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
                got = fleck_sum(n, ResidueClass(d, r), l)
                want = naive_filtered_sum(
                    n, d, r, lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - r) // d, l)
                )
                assert got == want, ("exact", n, p, alpha, r, l)
                beta = alpha - 1
                rb = r % p**beta
                got = filtered_sums._fleck_sum(n, ResidueClass(p**beta, rb), l, d)
                want = naive_filtered_sum(
                    n, p**beta, rb,
                    lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rb) // d, l),
                )
                assert got == want, ("floor", n, p, alpha, r, l)
                got = binom_power_sum(n, ResidueClass(d, r), l - 2)
                want = naive_filtered_sum(n, d, r, lambda k: math.comb(n, k) * (2 - l) ** k)
                assert got == want, ("power", n, p, alpha, r, l)

    def test_floor_sums_by_ring(self):
        # sun's sum for r mod p**beta, with quotients by p**alpha, is the sum
        # of the exact sums F(n, rho, l) over rho = r (mod p**beta), rho < p**alpha
        for n in range(1, 40):
            for p, alpha in ((2, 1), (2, 2), (3, 1), (3, 2)):
                d = p**alpha
                ring = fleck_sums_by_ring(n, d, 3)
                for beta in range(alpha + 1):
                    for r in range(p**beta):
                        for l in range(4):
                            got = filtered_sums._fleck_sum(n, ResidueClass(p**beta, r), l, d)
                            assert got == sum(ring[l][r::p**beta]), (n, p, alpha, beta, r, l)

    def test_triangle_sums_by_closed_forms(self):
        # the Eulerian and Stirling sums up to the row limit, against naive
        # sums weighted by the closed-form rows, which share no row with them
        f = IntPolynomial((3, -1, 0, 2))
        for n in (57, 120, triangles.ROW_LIMIT):
            eulerian, stirling1 = eulerian_row_by_series(n), rising_poly_coeffs(n)
            for d, a, m in ((2, -2, 1), (6, 3, 5), (9, 1, 2)):
                stirling2 = [stirling2_explicit(k, m) for k in range(n + 1)]
                assert _StirlingLevels().sums(n, m, d, a) == [naive_filtered_sum(
                    n, d, r, lambda k: stirling1[k] * stirling2[k] * a**k) for r in range(d)]
                for r in range(d):
                    cls = ResidueClass(d, r)
                    assert stirling_poly_sum(n, f, cls, a) == naive_filtered_sum(
                        n, d, r, lambda k: stirling1[k] * f(k) * a**k), (n, d, r, a)
                    assert eulerian_power_sum(n, cls, a) == naive_filtered_sum(
                        n - 1, d, r, lambda k: eulerian[k] * a**k), (n, d, r, a)
                    assert eulerian_wan_sum(n, cls, m) == naive_filtered_sum(
                        n - 1, d, r, lambda k: eulerian[k] * math.comb((k - r) // d, m))


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
        want = [fleck_sum(n, ResidueClass(d, r), l) for r in range(d)]
        assert _FleckLevels().sums(n, d, l) == want

    @staticmethod
    def _check_kept(state):
        """What a state keeps holds only the classes r <= n: it has one kind
        of entry, the sums of one n >= d for each modulus d, d of them per
        level, for the levels 0..L of the largest l it was asked."""
        for d, (n, levels) in state.kept.items():
            assert d <= n and levels and all(len(sums) == d for sums in levels)
            assert len(levels) <= state.top + 1

    @classmethod
    def _check_calls(cls, calls):
        """Each call of the sequence on one state equals one fleck_sum and one
        naive sum per residue, and leaves kept only classes r <= n.  Returns
        the state."""
        state = _FleckLevels()
        for n, p, alpha, l in calls:
            d = p**alpha
            got = state.sums(n, d, l)
            assert got == [fleck_sum(n, ResidueClass(d, r), l) for r in range(d)]
            assert got == [naive_filtered_sum(
                n, d, r, lambda k: (-1) ** k * math.comb(n, k) * math.comb((k - r) // d, l))
                for r in range(d)], (n, p, alpha, l)
            cls._check_kept(state)
            assert (state.kept.get(d, (None,))[0] == n) == (d <= n), (n, d)
        return state

    def test_fleck_sums_sequence(self):
        # l ascending, repeated and descending, (n, d) interleaved, and
        # classes with at most l members (n = 2, d = 2, l = 3 gives 0)
        state = self._check_calls([(9, 3, 1, 0), (9, 3, 1, 1), (9, 3, 1, 1), (9, 3, 1, 3),
                                   (9, 3, 2, 1), (9, 3, 1, 2), (10, 3, 1, 2), (9, 3, 1, 0),
                                   (2, 2, 1, 3), (2, 2, 1, 0), (2, 2, 1, 3), (7, 2, 2, 2)])
        assert _FleckLevels().sums(2, 2, 3) == [0, 0]
        # a fallback folds every level up to the largest l the state was
        # asked (3), though (7, 4) asked only l = 2
        assert state.top == 3 and len(state.kept[4][1]) == 4

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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=1, max_value=30),  # where the window starts
        st.lists(st.sampled_from([1, 1, 1, 2, 3]), max_size=6),  # its n steps: 2 and 3 are gaps
        st.lists(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 27]), min_size=1, max_size=3,
                 unique=True),  # its moduli, some above n
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),  # its l axis
        st.integers(min_value=0, max_value=6),  # calls a pool chunk start skips
    ), min_size=1, max_size=4))
    def test_fleck_sums_over_sweeps(self, windows):
        """Sweeps as a grid makes them, n outermost and l innermost, on one
        state per drawn sweep: n windows with gaps, restarts at an earlier
        or a later n, l axes that skip values or run down, interleaved
        moduli (some above n), and windows that start part-way into an n,
        as a pool chunk does.  Every sum equals fleck_sum and the ring
        oracle, which reads no row."""
        ring = {}
        state = _FleckLevels()
        for start, steps, moduli, ls, skip in windows:
            ns = itertools.accumulate(steps, initial=start)
            calls = [(n, d, l) for n in ns for d in moduli for l in ls][skip:]
            for n, d, l in calls:
                got = state.sums(n, d, l)
                if (n, d) not in ring:
                    ring[n, d] = fleck_sums_by_ring(n, d, 4)
                assert got == ring[n, d][l], (n, d, l)
                assert got == [fleck_sum(n, ResidueClass(d, r), l) for r in range(d)]
                self._check_kept(state)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=1, max_value=30),  # where the window starts
        st.lists(st.sampled_from([1, 1, 1, 2, 3]), max_size=6),  # its n steps: 2 and 3 are gaps
        st.lists(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (5, 1)]),
                 min_size=1, max_size=3, unique=True),  # its (p, alpha), some q above n
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),  # its l axis
        st.integers(min_value=0, max_value=12),  # calls a pool chunk start skips
    ), min_size=1, max_size=4))
    def test_floor_sums_over_sweeps(self, windows):
        """sun's sums as a grid makes them, n outermost, then (p, alpha),
        beta = 0..alpha + 1 and l, on one state per drawn sweep: n windows
        with gaps, restarts at an earlier or a later n, l axes that skip
        values or run down, the betas of each q = p**alpha interleaved, and
        windows that start part-way into an n, as a pool chunk does.  Every
        sum equals sun's per-residue sum and the folded ring oracle, which
        reads no row; beta > alpha has no sum."""
        sun, ring = THEOREMS[TheoremId.SUN], {}
        state = _FleckLevels()
        for start, steps, pairs, ls, skip in windows:
            ns = itertools.accumulate(steps, initial=start)
            calls = [(n, p, alpha, beta, l) for n in ns for p, alpha in pairs
                     for beta in range(alpha + 2) for l in ls][skip:]
            for n, p, alpha, beta, l in calls:
                params = {"n": n, "p": p, "alpha": alpha, "beta": beta, "l": l}
                d, q = p**beta, p**alpha
                got = sun.sums(d=d, fleck=state, **params)
                assert got == [sun.sum(ResidueClass(d, r), **params) for r in range(d)], params
                if beta <= alpha:
                    if (n, q) not in ring:
                        ring[n, q] = fleck_sums_by_ring(n, q, 4)
                    assert got == [sum(ring[n, q][l][r::d]) for r in range(d)], params
                    assert got == state.sums(n, d, l, q)
                self._check_kept(state)

    def test_no_empty_class_is_kept(self):
        # weisman at n = 3, p**alpha = 2**16: each class has at most one
        # member, so the row gives the sums and the plan's state keeps nothing
        plan = verifier._Plan(verifier.TheoremId.WEISMAN, "all", False)
        tracemalloc.start()
        try:
            plan.evaluate(*next(plan.tuples([(3,), (2,), (16,)])))  # result dropped
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert plan.levels["fleck"].kept == {}
        assert held < 2**18

    def test_kept_state_after_a_sweep(self):
        # binom-deep's moduli and l axis, and a modulus above n, over n =
        # 600..620 on one state: what stays is at most (L + 1) d sums per
        # modulus d <= n and the one cached row
        state = _FleckLevels()
        ns, moduli, ls = range(600, 621), (2, 4, 3, 9, 2**10), range(4)
        tracemalloc.start()
        try:
            for n in ns:
                for d in moduli:
                    for l in ls:
                        state.sums(n, d, l)  # result dropped
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        self._check_kept(state)
        bound = sum(len(ls) * d for d in moduli if d <= ns[-1])
        kept = [s for _, levels in state.kept.values() for sums in levels for s in sums]
        assert len(kept) <= bound
        # each int held is at most one of n + 64 bits, and a list holds it by one pointer
        per_int = sys.getsizeof(1 << (ns[-1] + 64)) + 8
        assert held < (bound + 2 * (ns[-1] + 1)) * per_int + 2**14

    def test_a_blocks_stirling_folds_stay_small_at_large_n(self):
        # one block at n = 150 with a long a axis and the moduli 2 and 6: at
        # its peak the state holds the levels of each (d, a), 2 + 6 sums per
        # (m, a), and not the terms s(n, k) S(k, m) a**k of any level, about
        # n - m of them, which took about ten times as much here.  The bound
        # is the one the fold-ahead it replaced was held to, 6 sums per (m, a)
        n, primes, a_values = 150, (2, 3), range(-5, 6)
        axes = [(n,), primes, (1,), range(1, n + 1), a_values]
        verifier.ensure_tables([verifier.GridSpec("sc3", *axes[:3], ms=axes[3],
                                                  a_values=a_values)])
        plan = verifier._Plan(verifier.TheoremId.SC3, "all", False)
        rows = list(plan.tuples(axes))
        plan.evaluate(*rows[0])  # the block's rows are fetched before the count
        tracemalloc.start()
        try:
            for row in rows[1:]:
                plan.evaluate(*row)  # result dropped
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each sum is below n! 2**(n log2 n) 5**n n, in at most 2,600 bits
        big = sys.getsizeof(1 << 2600) + 8
        folds = n * len(a_values) * (6 * big + 2**8)  # and a list, a key and a dict slot
        assert peak < folds + (n + 1) * big + 2**17

    @staticmethod
    def _check_stirling_kept(state):
        """What a Stirling state keeps: for each (d, a) with d <= n, the
        levels m = 1..M of one n, d sums each, with M at most one past the
        largest m it was asked and at most n (level 0 is zero for n >= 1)."""
        for (d, a), (n, levels) in state.kept.items():
            assert d <= n and all(len(sums) == d for sums in levels)
            assert len(levels) <= min(state.top + 1, n)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=1, max_value=16),  # where the window starts
        st.lists(st.sampled_from([1, 1, 1, 2, 3]), max_size=5),  # its n steps: 2 and 3 are gaps
        st.lists(st.sampled_from([1, 2, 3, 4, 6, 12, 20]), min_size=1, max_size=3,
                 unique=True),  # its moduli, d = 1 and d on both sides of n
        st.one_of(st.none(), st.lists(st.integers(min_value=1, max_value=24), min_size=1,
                                      max_size=4, unique=True).map(sorted)),  # 1..n or static
        st.lists(st.integers(min_value=-3, max_value=4), min_size=1, max_size=3,
                 unique=True),  # its a axis, a = 0 among the values
        st.integers(min_value=0, max_value=12),  # calls a pool chunk start skips
    ), min_size=1, max_size=4))
    def test_stirling_levels_over_sweeps(self, windows):
        """Sweeps as a grid makes them, n outermost and a innermost, on one
        state per drawn sweep: n windows with gaps, restarts at an earlier or
        a later n, m axes that grow with n or stay static (with m > n), the
        (d, a) interleaved, and windows that start part-way into an n, as a
        pool chunk does.  Every sum equals the per-residue kernel and a naive
        sum of the closed-form rows, which read no triangle."""
        state = _StirlingLevels()
        terms = {}  # (n, m, a): the terms s(n, k) S(k, m) a**k, k = 0..n, of the closed forms
        for start, steps, moduli, ms, a_values, skip in windows:
            ns = itertools.accumulate(steps, initial=start)
            calls = [(n, m, d, a) for n in ns for d in moduli for m in ms or range(1, n + 1)
                     for a in a_values][skip:]
            for n, m, d, a in calls:
                got = state.sums(n, m, d, a)
                assert got == [filtered_sums._stirling_product_sum(n, m, ResidueClass(d, r), a)
                               for r in range(d)], (n, m, d, a)
                if (n, m, a) not in terms:
                    terms[n, m, a] = [s * stirling2_explicit(k, m) * a**k
                                      for k, s in enumerate(rising_poly_coeffs(n))]
                assert got == [naive_filtered_sum(n, d, r, terms[n, m, a].__getitem__)
                               for r in range(d)], (n, m, d, a)
                self._check_stirling_kept(state)
                kept_n = state.kept.get((d, a), (None,))[0]
                if d > n:  # nothing is kept
                    assert kept_n != n
                elif m <= n:
                    assert kept_n == n

    @pytest.mark.parametrize("moduli, ms", [
        # sc3-sweep's moduli 2, 4, 6 and 18, then 8, and 54 above every n,
        # with m = 1..n
        ((2, 4, 6, 8, 18, 54), lambda n: range(1, n + 1)),
        # sc1's moduli up to p = 7, and a static m axis, with m > n at small n
        ((1, 2, 4, 6), lambda n: (1, 3, 4)),
    ], ids=["n-coupled", "static"])
    def test_kept_stirling_levels_after_a_sweep(self, moduli, ms):
        # what stays after n = 1..30 is at most (M + 1) d sums per (d, a),
        # d <= n, with M the largest m asked (a step may add level M + 1),
        # and the rows of the last n with one weighted row per a: no level
        # past M + 1, and nothing for d > n
        last, a_values = 30, range(-2, 4)
        state = _StirlingLevels()
        triangles.ensure_rows(triangles.Family.STIRLING1, last)
        triangles.ensure_rows(triangles.Family.STIRLING2, last)

        def sweep():
            for n in range(1, last + 1):
                for d in moduli:
                    for m in ms(n):
                        for a in a_values:
                            state.sums(n, m, d, a)  # result dropped

        held = self._held_after(sweep)
        self._check_stirling_kept(state)
        top = max(ms(last))
        assert state.top == top
        assert set(state.kept) == {(d, a) for d in moduli if d <= last for a in a_values}
        kept = sum(len(sums) for _, levels in state.kept.values() for sums in levels)
        assert kept <= sum((top + 1) * d for d, _ in state.kept)
        # each sum is below n! n**n 3**n in absolute value, and so is each
        # weighted row entry s(n, k) a**k; a list holds each by one pointer,
        # and each level is one list
        bits = (math.factorial(last) * last**last * 3**last).bit_length()
        per_int = sys.getsizeof(1 << bits) + 8
        levels = sum(len(levels) for _, levels in state.kept.values())
        assert held < (kept + len(a_values) * (last + 1)) * per_int + levels * 64 + 2**15

    @staticmethod
    def _held_after(run):
        """The bytes that ``run()`` allocates and leaves allocated."""
        tracemalloc.start()
        try:
            run()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return held

    # what may stay after the sums of n <= 620: the one cached binomial row,
    # 621 ints of at most 620 bits, each held by one pointer
    ONE_ROW = 621 * (sys.getsizeof(1 << 620) + 8)

    def test_a_sweep_keeps_nothing_once_it_is_dropped(self):
        # binom-deep's theorem, moduli and l axis over n = 600..620: the
        # sweep's plan owns the state its sums keep, so the state goes with it
        grid = verifier.GridSpec("wan-strong", ns=range(600, 621), primes=(2, 3),
                                 alphas=(1, 2), ls=range(4))
        records = []
        assert self._held_after(lambda: records.append(len(verifier.run_grids([grid]).records))) \
            < self.ONE_ROW + 2**14
        assert records == [21 * 4 * (2 + 4 + 3 + 9)]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=34),  # m > n: every sum is zero
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=-4, max_value=4),
    )
    def test_stirling_product_sums(self, n, m, d, a):
        want = [stirling_product_sum(n, m, ResidueClass(d, r), a) for r in range(d)]
        assert _StirlingLevels().sums(n, m, d, a) == want

    def test_bad_arguments(self):
        cls = ResidueClass(2, 0)
        for bad in (lambda: fleck_sum(0, cls), lambda: ResidueClass(0, 0),
                    lambda: fleck_sum(4, cls, -1),
                    lambda: stirling_product_sum(0, 1, cls, 1),
                    lambda: stirling_product_sum(3, 0, cls, 1),
                    # binom_power_sum's n >= 0 is its own rule
                    lambda: binom_power_sum(-1, cls, 1), lambda: binom_power_sum(2.5, cls, 1)):
            with pytest.raises(ParameterError):
                bad()
