import itertools
import random

import pytest

from congruence_lab import identities, triangles
from congruence_lab.errors import CapacityError, ParameterError
from congruence_lab.identities import (
    IdentityCheckResult,
    check_e1,
    check_e2,
    check_l31,
    check_l32,
    check_s3,
    check_s4,
    check_scl3e,
    check_ss3,
    random_l31_tuple,
    scl3e_cases,
    suite,
)


class TestEulerianExpansion:
    def test_e1_examples(self):
        assert check_e1(3, 0).passed
        for l in range(5):
            assert check_e1(1, l).passed
        assert check_e1(5, 3).passed

    def test_e2_examples(self):
        assert check_e2(1).passed
        assert check_e2(4).passed
        assert check_e2(8).passed

    def test_e1_at_zero_weight_matches_e2(self):
        for n in range(1, 11):
            assert check_e1(n, 0).passed == check_e2(n).passed

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            check_e1(0, 1)


class TestConvolutions:
    def test_s3(self):
        assert check_s3(4, 4).passed  # n = k edge
        assert check_s3(4, 2).passed
        assert check_s3(7, 3).passed
        assert check_s3(5, 7).passed  # k > n: both sides vanish

    def test_ss3(self):
        assert check_ss3(4, 4).passed
        assert check_ss3(4, 2).passed  # 2*11 = 8 + 6 + 8
        assert check_ss3(6, 3).passed

    def test_failure_witness_on_broken_table(self, monkeypatch):
        real = triangles.stirling1

        def broken(n, k):
            value = real(n, k)
            return value + 1 if (n, k) == (3, 1) else value

        monkeypatch.setattr(triangles, "stirling1", broken)
        result = check_ss3(4, 2)
        assert not result.passed
        assert result.witness is not None and "rhs" in result.witness


class TestValuationLemma:
    def test_s4_examples(self):
        assert check_s4(6, 8, 2, 1).passed  # k > n vacuous
        assert check_s4(6, 2, 2, 1).passed
        assert check_s4(10, 4, 3, 2).passed

    def test_s4_dense_corner(self):
        for n in range(0, 15):
            for k in range(0, n + 3):
                for p, alpha in ((2, 1), (2, 2), (3, 1)):
                    assert check_s4(n, k, p, alpha).passed


class TestStirlingRowPattern:
    def test_examples(self):
        assert check_scl3e(2, 1).passed
        assert check_scl3e(3, 1).passed
        assert check_scl3e(2, 2).passed

    def test_case_enumeration(self):
        cases = scl3e_cases(100)
        assert cases == [
            (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
            (3, 1), (3, 2), (3, 3),
            (5, 1), (5, 2),
            (7, 1),
        ]


class TestBinomialShift:
    def test_examples(self):
        assert check_l31(5, 2, 9, 9).passed  # x = x'
        assert check_l31(4, 2, 1, 17).passed
        assert check_l31(3, 3, -2, 25).passed

    def test_precondition_enforced(self):
        with pytest.raises(ParameterError):
            check_l31(4, 2, 1, 2)

    def test_random_tuples_conform(self):
        rng = random.Random(5)
        options = identities.SUITE_OPTIONS["L31"]
        for _ in range(50):
            n, p, x, x_prime = random_l31_tuple(rng, options["n_max"], options["primes"])
            assert check_l31(n, p, x, x_prime).passed


class TestBinomialInequality:
    def test_examples(self):
        assert check_l32(10, 0, 4).passed
        assert check_l32(10, 3, 7).passed  # 3 * 21 <= 120
        assert check_l32(10, 3, 10).passed  # i = n edge
        assert check_l32(3, 9, 2).passed  # l > n: both sides vanish

    def test_rejects_out_of_range_i(self):
        with pytest.raises(ParameterError):
            check_l32(5, 1, 6)


class TestResultType:
    def test_pass_cannot_carry_witness(self):
        with pytest.raises(ValueError):
            IdentityCheckResult("E2", {"n": 1}, True, {"oops": 1})

    def test_suite_sizes(self):
        assert sum(1 for _ in suite("E1")) == 12 * 5
        assert sum(1 for _ in suite("E2")) == 12
        assert sum(1 for _ in suite("SCL3E")) == 12
        assert sum(1 for _ in suite("L31", count=17)) == 17

    def test_suite_zero_and_negative_bounds(self):
        assert list(suite("E2", n_max=0)) == []
        assert list(suite("E1", n_max=2, l_max=0)) == [check_e1(1, 0), check_e1(2, 0)]
        assert list(suite("S4", n_max=3, primes=())) == []
        for kwargs in (dict(n_max=-1), dict(l_max=-1), dict(count=-1), dict(scl3e_limit=-1),
                       # E2 reads none of these but n_max: each is refused
                       dict(primes=(2, 4)), dict(alphas=(0, 1))):
            with pytest.raises(ParameterError):
                next(suite("E2", **kwargs))  # raised before the first check

    def test_suite_builds_its_rows_before_the_first_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(identities, "check_scl3e", lambda *args: calls.append(args))
        # (2, 8) needs row 256; (17, 1) needs row 272 but comes later
        with pytest.raises(CapacityError, match="^row 256 exceeds the row limit 200$"):
            suite("SCL3E", scl3e_limit=300)
        with pytest.raises(CapacityError, match="^row 201 exceeds the row limit 200$"):
            suite("S4", n_max=250)
        assert calls == []
        assert len(list(suite("L32", n_max=0))) == 1  # L32 reads no triangle

    @pytest.mark.parametrize("identity", sorted(identities._READS))
    def test_suite_checks_read_only_the_rows_it_built(self, identity, monkeypatch):
        # the prebuild follows _READS: a check that read another triangle
        # would build it in the middle of the suite
        monkeypatch.setattr(triangles, "_shared", {})
        checks = suite(identity, n_max=triangles.ROW_LIMIT)

        def no_build(family, n_max):
            raise AssertionError(f"a check built {family} up to row {n_max}")

        monkeypatch.setattr(triangles, "build", no_build)
        results = list(itertools.islice(checks, 30))
        assert len(results) == 30 and all(r.passed for r in results)

    @pytest.mark.parametrize("identity, option", [
        pytest.param(identity, option, id=f"{identity}-{option}")
        for identity, reads in {
            "E1": "n_max l_max", "E2": "n_max", "S3": "n_max", "SS3": "n_max",
            "S4": "n_max primes alphas", "SCL3E": "scl3e_limit primes alphas",
            "L31": "n_max primes count seed", "L32": "n_max",
        }.items()
        for option in ("n_max", "l_max", "primes", "alphas", "count", "seed", "scl3e_limit")
        if option not in reads.split()
    ])
    def test_suite_refuses_an_option_it_does_not_read(self, identity, option):
        # a good value, so that only the refusal can raise
        value = {"primes": (2,), "alphas": (1,)}.get(option, 3)
        with pytest.raises(ParameterError, match=f"^{identity} does not read {option}$"):
            suite(identity, **{option: value})

    def test_suite_unknown_id(self):
        with pytest.raises(ParameterError):
            list(suite("nope"))

    def test_suite_respects_overrides(self):
        results = list(suite("S3", n_max=5))
        assert len(results) == 15  # sum of k = 1..n for n <= 5
        assert all(r.passed for r in results)

    def test_scl3e_suite_prime_filter(self):
        results = list(suite("SCL3E", primes=(3,), alphas=(1,)))
        assert len(results) == 1
        assert results[0].params == {"p": 3, "alpha": 1}
