"""The exact numeric kernels on hand-checked inputs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

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
    assert list(flat) == [1, 2, 0, 0]


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
        assert list(_kernels.matmul_mod(a5, b5, m, n, k, 5)) == [x % 5 for x in expected]


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_matmul_mod_reduces_only_what_it_must(p):
    # a row whose accumulator is nonzero but divisible by p, then a zero row
    a = (1, p - 1, 0, 0)
    b = (1, 1, 1, 0)
    assert list(_kernels.matmul_mod(a, b, 2, 2, 2, p)) == [0, 1, 0, 0]
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
        assert list(_kernels.matmul_mod(a, b, m, n, k, p)) == expected
        assert list(_kernels.matmul_mod(tuple(a), tuple(b), m, n, k, p)) == expected


LANE_PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def _mod_products(draw, p):
    """(a, b, m, n, k): operands over F_p, canonical residues. The inner
    dimension runs up to 520, past every lane budget at p = 2 (255 terms,
    then 254); a dense operand holds only p - 1, the largest term."""
    m, k = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, 520)))
    fill = draw(st.sampled_from(["dense", "random", "zero"]))
    if fill == "dense":
        a, b = [p - 1] * (m * n), [p - 1] * (n * k)
    elif fill == "zero":
        a = [0] * (m * n)
        b = draw(st.lists(st.integers(0, p - 1), min_size=n * k, max_size=n * k))
    else:
        a = draw(st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n))
        b = draw(st.lists(st.integers(0, p - 1), min_size=n * k, max_size=n * k))
    if m and draw(st.booleans()):
        z = draw(st.integers(0, m - 1)) * n
        a[z : z + n] = [0] * n  # a zero row among the others
    return a, b, m, n, k


@pytest.mark.parametrize("p", LANE_PRIMES + [17, 2**31 - 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matmul_mod_matches_naive_product_past_the_lane_budget(p, data):
    a, b, m, n, k = data.draw(_mod_products(p))
    got = _kernels.matmul_mod(bytes(a) if p <= 13 else a, b, m, n, k, p)
    assert list(got) == [x % p for x in _naive_product(a, b, m, n, k)]
    assert isinstance(got, bytes) == (p <= 13)


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_matmul_mod_dense_rows_at_every_budget_edge(p):
    """Rows of p - 1 against columns of p - 1, with exactly as many terms
    as fit before the first and the second reduction, and one more: every
    lane of every row reaches its largest value."""
    terms = (255 - (p - 1)) // (p - 1) ** 2  # the lane budget
    assert terms >= 1
    for n in {1, terms, terms + 1, 2 * terms, 2 * terms + 1}:
        m, k = 2, 3
        a, b = [p - 1] * (m * n), [p - 1] * (n * k)
        want = [x % p for x in _naive_product(a, b, m, n, k)]
        assert list(_kernels.matmul_mod(bytes(a), bytes(b), m, n, k, p)) == want


@pytest.mark.parametrize("p", LANE_PRIMES)
@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 4)])
def test_matmul_mod_empty_shapes(p, shape):
    m, n, k = shape
    out = _kernels.matmul_mod(bytes(m * n), bytes(n * k), m, n, k, p)
    assert out == bytes(m * k)


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


def _as_inputs(a, p):
    """The entry sequences ``rref_mod`` is given: a list, a tuple, and over
    byte-lane fields also ``bytes`` and a ``bytearray``."""
    yield a
    yield tuple(a)
    if p <= 13:
        yield bytes(a)
        yield bytearray(a)


@pytest.mark.parametrize("density", [0.03, 0.3, 1.0])
@pytest.mark.parametrize("p", LANE_PRIMES + [17, 2**31 - 1])
def test_rref_mod_matches_full_row_elimination(density, p):
    rng = random.Random(f"{density}-{p}")
    for _ in range(60):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        a = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(m * n)]
        expected = _rref_full_rows(a, m, n, p)
        for entries in _as_inputs(a, p):
            flat, pivots = _kernels.rref_mod(entries, m, n, p)
            assert (list(flat), pivots) == expected
            assert isinstance(flat, bytes) == (p <= 13)


def _mod_product(a, b, m, n, k, p):
    return [x % p for x in _naive_product(a, b, m, n, k)]


@pytest.mark.parametrize("p", LANE_PRIMES + [17, 2**31 - 1])
def test_rref_mod_is_a_reduced_echelon_basis_of_the_row_space(p):
    """An oracle that shares no code with the kernel's elimination: the
    result is in reduced echelon form, every input row is the combination
    of its rows read off at the pivot columns, sum_r A[i, pivot_r] R_r, and
    there are as many pivots as the rank of the transpose. Half the inputs
    are products of m x r and r x n matrices, so of rank at most r."""
    rng = random.Random(f"row space {p}")
    for _ in range(60):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        density = rng.choice([0.03, 0.3, 1.0])
        if rng.random() < 0.5:
            r = rng.randint(0, 4)
            left = [rng.randrange(p) if rng.random() < density else 0 for _ in range(m * r)]
            right = [rng.randrange(p) for _ in range(r * n)]
            a = _mod_product(left, right, m, r, n, p)
        else:
            r = min(m, n)
            a = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(m * n)]
        for entries in _as_inputs(a, p):
            flat, pivots = _kernels.rref_mod(entries, m, n, p)
            rows = [list(flat[i * n : (i + 1) * n]) for i in range(m)]
            assert all(0 <= x < p for x in flat)
            assert pivots == sorted(set(pivots)) and len(pivots) <= r
            for i, c in enumerate(pivots):
                assert rows[i][: c + 1] == [0] * c + [1]
                assert [row[c] for row in rows] == [int(j == i) for j in range(m)]
            assert not any(x for row in rows[len(pivots) :] for x in row)
            basis = [x for row in rows[: len(pivots)] for x in row]
            coefficients = [a[i * n + c] for i in range(m) for c in pivots]
            assert _mod_product(coefficients, basis, m, len(pivots), n, p) == a
            transpose = [a[i * n + j] for j in range(n) for i in range(m)]
            assert len(_kernels.rref_mod(transpose, n, m, p)[1]) == len(pivots)


@pytest.mark.parametrize("p", LANE_PRIMES + [17, 2**31 - 1])
@pytest.mark.parametrize("m,n", [(0, 0), (0, 5), (4, 0)])
def test_rref_mod_empty_shapes(p, m, n):
    for entries in _as_inputs([], p):
        flat, pivots = _kernels.rref_mod(entries, m, n, p)
        assert (list(flat), pivots) == ([], [])


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_rref_mod_lanes_at_their_largest_value(p):
    """Every row is 1 followed by p - 1s, so clearing column 0 adds
    (p - 1) times the pivot row to each other row: every lane holds
    (p - 1) + (p - 1)^2 before it is reduced, 156 at p = 13. A dense
    random block below exercises full rank at the same lanes."""
    m, n = 5, 9
    a = ([1] + [p - 1] * (n - 1)) * m
    assert (p - 1) + (p - 1) ** 2 <= 255
    rng = random.Random(p)
    b = [rng.randrange(p) or p - 1 for _ in range(n * n)]
    for entries in (a, a[:n] + b):
        rows = len(entries) // n
        flat, pivots = _kernels.rref_mod(bytes(entries), rows, n, p)
        assert (list(flat), pivots) == _rref_full_rows(entries, rows, n, p)
