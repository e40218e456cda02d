import itertools
import random
import re

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
        # not integers: l = 1.5 used to be worked out in floats, i**1.5
        for check, args, message in ((check_e1, (2, 1.5), "l must be an integer, got 1.5"),
                                     (check_e1, (2.5, 1), "n must be an integer, got 2.5"),
                                     (check_e2, (2.0,), "n must be an integer, got 2.0")):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                check(*args)


class TestConvolutions:
    def test_s3(self):
        assert check_s3(4, 4).passed  # n = k edge
        assert check_s3(4, 2).passed
        assert check_s3(7, 3).passed
        assert check_s3(5, 7).passed  # k > n: both sides vanish
        with pytest.raises(ParameterError, match=r"^k must be an integer, got 1\.5$"):
            check_s3(3, 1.5)

    def test_ss3(self):
        assert check_ss3(4, 4).passed
        assert check_ss3(4, 2).passed  # 2*11 = 8 + 6 + 8
        assert check_ss3(6, 3).passed
        with pytest.raises(ParameterError, match=r"^n must be an integer, got 3\.0$"):
            check_ss3(3.0, 1)

    def test_failure_witness_on_broken_table(self, monkeypatch):
        real = triangles.stirling1

        def broken(n, k):
            value = real(n, k)
            return value + 1 if (n, k) == (3, 1) else value

        monkeypatch.setattr(triangles, "stirling1", broken)
        result = check_ss3(4, 2)
        assert result.passed is False and sorted(result.witness) == ["lhs", "rhs"]


class TestValuationLemma:
    def test_s4_examples(self):
        assert check_s4(6, 8, 2, 1).passed  # k > n vacuous
        assert check_s4(6, 2, 2, 1).passed
        assert check_s4(10, 4, 3, 2).passed
        with pytest.raises(ParameterError, match=r"^alpha must be an integer, got 1\.5$"):
            check_s4(3, 1, 2, 1.5)

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
        with pytest.raises(ParameterError, match=r"^alpha must be an integer, got 1\.0$"):
            check_scl3e(3, 1.0)

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
        with pytest.raises(ParameterError, match=r"^n must be an integer, got 2\.0$"):
            check_l31(2.0, 3, 1, 1)
        with pytest.raises(ParameterError, match=r"^x must be an integer, got 1\.5$"):
            check_l31(2, 3, 1.5, 1.5)

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
        with pytest.raises(ParameterError, match=r"^i must be an integer, got 1\.5$"):
            check_l32(3, 1, 1.5)


# each check made to fail by one value it reads, one too large: the owner and
# name of what gives the value, its arguments there, and the witness's keys
# (SS3's is test_failure_witness_on_broken_table)
BROKEN = {
    "E1": (lambda: check_e1(3, 1), triangles, "eulerian", (3, 1), "i lhs rhs"),
    "E2": (lambda: check_e2(3), triangles, "eulerian", (3, 1), "i lhs rhs"),
    "S3": (lambda: check_s3(4, 2), triangles, "stirling2", (4, 2), "lhs rhs"),
    # 5! S(6, 5) = 1800 has 3-adic order 2, its bound; 5! * 16 has order 1
    "S4": (lambda: check_s4(6, 5, 3, 1), triangles, "stirling2", (6, 5), "ord bound value"),
    # row 2 of the first kind read as (0, 2, 1): s(2, 1) = 0 mod 2 where 1 is expected
    "SCL3E": (lambda: check_scl3e(2, 1), triangles, "stirling1_row", (2,), "k got expected"),
    "L31": (lambda: check_l31(4, 2, 1, 17), identities, "binom", (17, 4),
            "lhs_mod_p rhs_mod_p"),
    # (5 - 0) C(0, 0) = C(5, 1) is the equality case
    "L32": (lambda: check_l32(5, 1, 0), identities, "binom", (0, 0), "lhs rhs"),
}


class TestFailures:
    @pytest.mark.parametrize("identity", sorted(BROKEN))
    def test_a_wrong_value_fails_with_a_witness(self, identity, monkeypatch):
        check, owner, name, at, keys = BROKEN[identity]
        assert check().passed
        real = getattr(owner, name)

        def broken(*args):
            value = real(*args)
            if args != at:
                return value
            return [value[0], value[1] + 1, *value[2:]] if name.endswith("_row") else value + 1

        monkeypatch.setattr(owner, name, broken)
        result = check()
        assert result.identity == identity and result.passed is False
        assert sorted(result.witness) == sorted(keys.split())

    # each names the parameter, its bound and the value (exactmath.check_at_least)
    @pytest.mark.parametrize("check, args, message", [
        (check_e2, (0,), "n must be >= 1, got 0"),
        (check_s3, (3, 0), "k must be >= 1, got 0"),
        (check_ss3, (0, 1), "n must be >= 1, got 0"),
        (check_s4, (3, 1, 2, 0), "alpha must be >= 1, got 0"),
        (check_scl3e, (3, 0), "alpha must be >= 1, got 0"),
        (check_l31, (-1, 2, 0, 0), "n must be >= 0, got -1"),
        (check_e1, (2, -1), "l must be >= 0, got -1"),
        (check_s4, (3, -1, 2, 1), "k must be >= 0, got -1"),
        (check_l32, (3, 1, -1), "i must be >= 0, got -1"),
        (check_l32, (5, 1, 6), "need i <= n, got i=6, n=5"),
    ])
    def test_a_value_out_of_range_is_refused(self, check, args, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            check(*args)


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
        for identity, kwargs, message in (
            ("E1", dict(n_max=2.5), "n_max must be an integer, got 2.5"),
            ("L31", dict(count=1.5), "count must be an integer, got 1.5"),
            ("SCL3E", dict(scl3e_limit=None), "scl3e_limit must be an integer, got None"),
            ("S4", dict(primes=2), "primes must be a collection, got 2"),
            ("S4", dict(alphas=1), "alphas must be a collection, got 1"),
            # an unseeded sample, which a second run would not repeat
            ("L31", dict(seed=None), "seed must be an integer, got None"),
        ):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                suite(identity, **kwargs)

    def test_suite_reads_primes_and_alphas_given_once(self):
        # each is kept as the tuple that was checked, so an iterator is read once
        for identity, kwargs in (("S4", dict(n_max=3)), ("SCL3E", {})):
            once = list(suite(identity, primes=iter([2, 3]), alphas=iter([1]), **kwargs))
            assert once and once == list(suite(identity, primes=(2, 3), alphas=(1,), **kwargs))

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
