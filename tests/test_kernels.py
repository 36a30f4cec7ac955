"""The exact numeric kernels on hand-checked inputs."""

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
