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


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_matmul_mod_reduces_only_what_it_must(p):
    # a row whose accumulator is nonzero but divisible by p, then a zero row
    a = (1, p - 1, 0, 0)
    b = (1, 1, 1, 0)
    assert _kernels.matmul_mod(a, b, 2, 2, 2, p) == [0, 1, 0, 0]
    rng = random.Random(p)
    for _ in range(40):
        m, n, k = (rng.randint(0, 7) for _ in range(3))
        density = rng.choice([0.03, 0.3, 1.0])
        a = [rng.randrange(p) if rng.random() < density else 0 for _ in range(m * n)]
        b = [rng.randrange(p) if rng.random() < density else 0 for _ in range(n * k)]
        if m:
            z = rng.randrange(m) * n
            a[z : z + n] = [0] * n  # at least one all-zero row
        expected = [x % p for x in _naive_product(a, b, m, n, k)]
        assert _kernels.matmul_mod(a, b, m, n, k, p) == expected
        assert _kernels.matmul_mod(tuple(a), tuple(b), m, n, k, p) == expected


def _rref_full_rows(a, m, n, p):
    """Gauss-Jordan elimination that updates every entry of every row: the
    oracle for the kernel, which updates only the pivot row's support."""
    rows = [list(a[i * n : (i + 1) * n]) for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [x for row in rows for x in row], pivots


@pytest.mark.parametrize("density", [0.03, 0.3, 1.0])
@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_rref_mod_matches_full_row_elimination(density, p):
    rng = random.Random(f"{density}-{p}")
    for _ in range(60):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        a = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(m * n)]
        expected = _rref_full_rows(a, m, n, p)
        assert _kernels.rref_mod(a, m, n, p) == expected
        assert _kernels.rref_mod(tuple(a), m, n, p) == expected
