import math
import random

import pytest

from congruence_lab import triangles
from congruence_lab.errors import CapacityError, ParameterError
from congruence_lab.exactmath import binom
from congruence_lab.triangles import Family, build

from oracles import (
    eulerian_by_enumeration,
    eulerian_row_by_series,
    rising_poly_coeffs,
    stirling1_by_enumeration,
    stirling2_by_enumeration,
    stirling2_explicit,
    stirling2_row_explicit,
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
        with pytest.raises(ParameterError, match=r"^n must be an integer, got 2\.5$"):
            triangles.stirling1(2.5, 1)


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
        with pytest.raises(ParameterError, match=r"^k must be an integer, got 1\.5$"):
            triangles.stirling2(3, 1.5)


class TestEulerian:
    def test_examples(self):
        assert triangles.eulerian(3, 1) == 4
        assert triangles.eulerian(4, 1) == 11
        for n in range(1, 12):
            assert triangles.eulerian(n, 0) == 1

    def test_row_sums_are_factorials(self):
        for n in range(1, 61):
            assert sum(triangles.ensure_rows(Family.EULERIAN, n).row(n)) == math.factorial(n)

    def test_outside_support(self):
        assert triangles.eulerian(3, 3) == 0
        assert triangles.eulerian(3, -1) == 0
        with pytest.raises(ParameterError):
            triangles.eulerian(0, 0)
        with pytest.raises(ParameterError, match=r"^k must be an integer, got 1\.0$"):
            triangles.eulerian(3, 1.0)


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


def _sampled_rows(count: int) -> list[int]:
    """Every row up to 40, ``count`` rows drawn from 41..ROW_LIMIT - 1, and
    the last row."""
    rng = random.Random(20261019)
    return [*range(41), *sorted(rng.sample(range(41, triangles.ROW_LIMIT), count)),
            triangles.ROW_LIMIT]


class TestClosedForms:
    """Every row the tables hold, against a closed form that shares no row
    and no recurrence with them: each row of the first kind, and sampled
    rows of the others, where the closed form is slow."""

    def test_eulerian_rows_by_series(self):
        tri = triangles.ensure_rows(Family.EULERIAN, triangles.ROW_LIMIT)
        for n in _sampled_rows(12):
            assert list(tri.row(n)) == eulerian_row_by_series(n), n

    def test_stirling1_rows_by_rising_factorial(self):
        tri = triangles.ensure_rows(Family.STIRLING1, triangles.ROW_LIMIT)
        for n in range(triangles.ROW_LIMIT + 1):
            assert list(tri.row(n)) == rising_poly_coeffs(n), n

    def test_stirling2_rows_explicit(self):
        tri = triangles.ensure_rows(Family.STIRLING2, triangles.ROW_LIMIT)
        for n in _sampled_rows(6):
            assert list(tri.row(n)) == stirling2_row_explicit(n), n


class TestTriangleObject:
    def test_build_examples(self):
        tri = build(Family.EULERIAN, 3)
        assert [list(r) for r in tri.rows] == [[1], [1], [1, 1], [1, 4, 1]]
        tri = build(Family.STIRLING2, 0)
        assert [list(r) for r in tri.rows] == [[1]]
        with pytest.raises(ParameterError, match=r"^max_n must be an integer, got 2\.5$"):
            build("eulerian", 2.5)
        with pytest.raises(ParameterError, match="^family must be one of stirling1, stirling2, "
                                                 "eulerian, got 'nope'$"):
            build("nope", 3)

    def test_triangle_seeds(self):
        assert build(Family.STIRLING1, 2).rows == ((1,), (0, 1), (0, 1, 1))
        assert build(Family.STIRLING2, 3).rows == ((1,), (0, 1), (0, 1, 1), (0, 1, 3, 1))
        assert build(Family.EULERIAN, 4).rows == ((1,), (1,), (1, 1), (1, 4, 1), (1, 11, 11, 1))

    def test_capacity_error(self):
        tri = build(Family.STIRLING2, 5)
        with pytest.raises(CapacityError):
            tri.row(6)
        with pytest.raises(ParameterError):
            tri.row(-1)

    @pytest.mark.parametrize("call, error", [
        (lambda: triangles.ensure_rows(Family.STIRLING2, 2.5), "n must be an integer, got 2.5"),
        (lambda: triangles.stirling1_row(2.5), "n must be an integer, got 2.5"),
        (lambda: build(Family.STIRLING2, 5).row(2.0), "n must be an integer, got 2.0"),
        (lambda: build(Family.STIRLING2, 5).value(3, -0.5), "k must be an integer, got -0.5"),
    ], ids=["ensure_rows", "stirling1_row", "row", "value"])
    def test_a_row_or_entry_index_must_be_an_integer(self, call, error):
        with pytest.raises(ParameterError) as raised:
            call()
        assert str(raised.value) == error

    def test_shared_limit(self):
        with pytest.raises(CapacityError):
            triangles.stirling1(triangles.ROW_LIMIT + 1, 2)
        assert triangles.stirling1(triangles.ROW_LIMIT, 2) > 0

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
        with pytest.raises(ParameterError, match="^family must be one of stirling1, stirling2, "
                                                 "eulerian, got 'stirling3'$"):
            triangles.ensure_rows("stirling3", 7)
        assert triangles.ensure_rows(Family.STIRLING2, 20) is tri
