import math

import pytest

from congruence_lab import kernels


class TestPureKernels:
    def test_dot2(self):
        assert kernels.dot2([], []) == 0
        assert kernels.dot2([2, 3], [5, 7]) == 31
        with pytest.raises(ValueError):
            kernels.dot2([1], [])

    def test_dot3(self):
        assert kernels.dot3([2, 3], [1, -1], [5, 7]) == -11
        with pytest.raises(ValueError):
            kernels.dot3([1], [1], [])

    def test_power_steps(self):
        assert kernels.power_steps(3, 0, 2, 4) == [1, 9, 81, 729]
        assert kernels.power_steps(5, 2, 1, 1) == [25]
        assert kernels.power_steps(7, 0, 1, 0) == []
        assert kernels.power_steps(0, 0, 3, 3) == [1, 0, 0]  # 0**0 = 1
        assert kernels.power_steps(-2, 1, 2, 3) == [-2, -8, -32]
        with pytest.raises(ValueError):
            kernels.power_steps(2, -1, 1, 2)

    def test_triangle_seeds(self):
        assert kernels.stirling1_rows(2) == [[1], [0, 1], [0, 1, 1]]
        assert kernels.stirling2_rows(3) == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1]]
        assert kernels.eulerian_rows(4) == [[1], [1], [1, 1], [1, 4, 1], [1, 11, 11, 1]]

    def test_binomial_row(self):
        for n in [*range(301), 599, 650, 1000]:
            assert kernels.binomial_row(n) == [math.comb(n, k) for k in range(n + 1)], n
        with pytest.raises(ValueError):
            kernels.binomial_row(-1)
