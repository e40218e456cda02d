import math

import pytest

from congruence_lab import triangles
from congruence_lab.errors import CapacityError, ParameterError, TriangleInvariantError
from congruence_lab.exactmath import binom
from congruence_lab.triangles import Family, Triangle, build

from oracles import (
    eulerian_by_enumeration,
    rising_poly_coeffs,
    stirling1_by_enumeration,
    stirling2_by_enumeration,
    stirling2_explicit,
)


class TestStirling1:
    def test_examples(self):
        assert triangles.stirling1(4, 2) == 11
        assert triangles.stirling1(6, 3) == 225
        for n in range(12):
            assert triangles.stirling1(n, n) == 1

    def test_rising_factorial_expansion(self):
        for n in range(31):
            expected = rising_poly_coeffs(n)
            row = triangles.stirling1_row(n)
            assert list(row) == expected

    def test_row_sums_are_factorials(self):
        for n in range(61):
            assert sum(triangles.stirling1_row(n)) == math.factorial(n)

    def test_outside_support(self):
        assert triangles.stirling1(3, -1) == 0
        assert triangles.stirling1(3, 4) == 0
        assert triangles.stirling1(0, 0) == 1


class TestStirling2:
    def test_examples(self):
        assert triangles.stirling2(4, 2) == 7
        assert triangles.stirling2(5, 3) == 25
        for n in range(1, 12):
            assert triangles.stirling2(n, 1) == 1

    def test_explicit_formula(self):
        for n in range(31):
            for m in range(n + 1):
                assert triangles.stirling2(n, m) == stirling2_explicit(n, m)

    def test_power_sum_identity(self):
        # x**n = sum(S(n,k) k! C(x,k)) for n <= 15, integer x in [-5, 10]
        for n in range(16):
            for x in range(-5, 11):
                total = sum(
                    triangles.stirling2(n, k) * math.factorial(k) * binom(x, k)
                    for k in range(n + 1)
                )
                assert total == x**n

    def test_outside_support(self):
        assert triangles.stirling2(3, 5) == 0
        assert triangles.stirling2(0, 0) == 1


class TestEulerian:
    def test_examples(self):
        assert triangles.eulerian(3, 1) == 4
        assert triangles.eulerian(4, 1) == 11
        for n in range(1, 12):
            assert triangles.eulerian(n, 0) == 1

    def test_row_sums_are_factorials(self):
        for n in range(1, 61):
            assert sum(triangles.eulerian_row(n)) == math.factorial(n)

    def test_outside_support(self):
        assert triangles.eulerian(3, 3) == 0
        assert triangles.eulerian(3, -1) == 0
        with pytest.raises(ParameterError):
            triangles.eulerian(0, 0)


class TestBruteForce:
    def test_stirling1_counts_cycles(self):
        for n in range(7):
            for k in range(n + 2):
                assert triangles.stirling1(n, k) == stirling1_by_enumeration(n, k)

    def test_stirling2_counts_partitions(self):
        for n in range(8):
            for k in range(n + 2):
                assert triangles.stirling2(n, k) == stirling2_by_enumeration(n, k)

    def test_eulerian_counts_ascents(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert triangles.eulerian(n, k) == eulerian_by_enumeration(n, k)


class TestTriangleObject:
    def test_build_examples(self):
        tri = build(Family.EULERIAN, 3)
        assert [list(r) for r in tri.rows] == [[1], [1], [1, 1], [1, 4, 1]]
        tri = build(Family.STIRLING2, 0)
        assert [list(r) for r in tri.rows] == [[1]]

    def test_capacity_error(self):
        tri = build(Family.STIRLING2, 5)
        with pytest.raises(CapacityError):
            tri.row(6)
        with pytest.raises(ParameterError):
            tri.row(-1)

    def test_shared_limit(self):
        triangles.set_row_limit(10)
        with pytest.raises(CapacityError):
            triangles.stirling1(11, 2)
        assert triangles.stirling1(10, 2) > 0

    def test_a_built_row_is_looked_up(self, monkeypatch):
        tri = triangles.ensure_rows(Family.STIRLING2, 30)

        def no_build(family, max_n):
            raise AssertionError("a built row was built again")

        monkeypatch.setattr(triangles, "build", no_build)
        assert triangles.ensure_rows(Family.STIRLING2, 30) is tri
        assert triangles.ensure_rows(Family.STIRLING2, 0) is tri
        assert triangles.ensure_rows("stirling2", 7) is tri
        with pytest.raises(ParameterError):
            triangles.ensure_rows(Family.STIRLING2, -1)
        with pytest.raises(ValueError):
            triangles.ensure_rows("stirling3", 7)
        triangles.set_row_limit(20)  # a built row above the limit is refused
        with pytest.raises(CapacityError):
            triangles.ensure_rows(Family.STIRLING2, 21)
        assert triangles.ensure_rows(Family.STIRLING2, 20) is tri

    def test_verify_invariants_accepts_built(self):
        for family in Family:
            build(family, 12).verify_invariants()

    def test_verify_invariants_rejects_tampered(self):
        good = build(Family.STIRLING1, 6)
        rows = [list(r) for r in good.rows]
        rows[4][2] += 1
        bad = Triangle(Family.STIRLING1, 6, tuple(tuple(r) for r in rows))
        with pytest.raises(TriangleInvariantError):
            bad.verify_invariants()
