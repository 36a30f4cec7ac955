"""The exact numeric kernels on hand-checked inputs."""

import random

import pytest

from chaincert import _kernels


def test_pure_matmul_big_integers():
    a = [10**40, 1, -(10**39), 2]
    b = [3, 10**41, 5, -7]
    out = _kernels.matmul_int(a, b, 2, 2, 2)
    assert out == [
        3 * 10**40 + 5,
        10**81 - 7,
        -3 * 10**39 + 10,
        -(10**80) - 14,
    ]


def test_rref_mod_pure_shape():
    flat, pivots = _kernels.rref_mod([1, 2, 2, 4], 2, 2, 5)
    assert pivots == [0]
    assert flat == [1, 2, 0, 0]


def _naive_product(a, b, m, n, k):
    return [
        sum(a[i * n + t] * b[t * k + j] for t in range(n))
        for i in range(m)
        for j in range(k)
    ]


@pytest.mark.parametrize("density", [1.0, 0.3, 0.03])
def test_matmul_kernels_match_naive_product(density):
    rng = random.Random(int(density * 100))
    for _ in range(40):
        m, n, k = (rng.randint(0, 7) for _ in range(3))
        a = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(m * n)]
        b = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n * k)]
        expected = _naive_product(a, b, m, n, k)
        assert _kernels.matmul_int(a, b, m, n, k) == expected
        a5, b5 = [x % 5 for x in a], [x % 5 for x in b]
        assert _kernels.matmul_mod(a5, b5, m, n, k, 5) == [x % 5 for x in expected]
