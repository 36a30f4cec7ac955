"""The structural short-circuits of Matrix arithmetic agree with the
generic path, and the zero test agrees with counting zero entries.

Products with a zero or identity operand, sums with a zero operand and all
empty shapes skip the kernels; these tests compare them with the kernel
product (over Z and F_p), the entrywise definition (over group rings) and
the per-entry ``ring.add`` / ``ring.neg`` sums, and check that every result
entry is canonical.
"""

import pytest
from hypothesis import given, settings, strategies as st

from chaincert import _kernels
from chaincert.matrix import Matrix
from chaincert.rings import ZZ, GroupRing, GroupTable, IntegerRing, PrimeField

from conftest import is_canonical, ring_int

F5 = PrimeField(5)
F2C4 = GroupRing(PrimeField(2), GroupTable.cyclic(4))
F5C3 = GroupRing(F5, GroupTable.cyclic(3))
ZS3 = GroupRing(ZZ, GroupTable.symmetric(3))
ZC6 = GroupRing(ZZ, GroupTable.cyclic(6))
RINGS = [ZZ, F5, F2C4, F5C3, ZS3, ZC6]
RING_IDS = ["Z", "F5", "F2C4", "F5C3", "ZS3", "ZC6"]


def elements(ring):
    if ring is ZZ:
        return st.integers(-20, 20)
    if ring is F5:
        return st.integers(0, 4)
    p = getattr(ring.base, "p", None)
    base = st.integers(-3, 3) if p is None else st.integers(0, p - 1)
    return st.tuples(*[base] * ring.group.order)


def draw_matrix(data, ring, rows, cols, kind):
    if kind == "zero":
        return Matrix.zeros(ring, rows, cols)
    if kind == "identity":
        assert rows == cols
        return Matrix.identity(ring, rows)
    entries = data.draw(st.lists(elements(ring), min_size=rows * cols, max_size=rows * cols))
    return Matrix(ring, rows, cols, entries)


def generic_product(a, b):
    """The kernel product over Z and F_p; the entrywise definition with
    ``ring.mul`` / ``ring.add`` over group rings."""
    ring = a.ring
    m, n, k = a.rows, a.cols, b.cols
    ea, eb = [x for r in a.to_rows() for x in r], [x for r in b.to_rows() for x in r]
    if isinstance(ring, IntegerRing):
        return Matrix(ring, m, k, _kernels.matmul_int(ea, eb, m, n, k))
    if isinstance(ring, PrimeField):
        return Matrix(ring, m, k, _kernels.matmul_mod(ea, eb, m, n, k, ring.p))
    out = []
    for i in range(m):
        for j in range(k):
            acc = ring.zero
            for t in range(n):
                acc = ring.add(acc, ring.mul(a.entry(i, t), b.entry(t, j)))
            out.append(acc)
    return Matrix(ring, m, k, out)


def generic_sum(a, b, negate):
    ring = a.ring
    rows = [
        [ring.add(x, ring.neg(y) if negate else y) for x, y in zip(ra, rb)]
        for ra, rb in zip(a.to_rows(), b.to_rows())
    ]
    return Matrix.from_rows(ring, rows, cols=a.cols)


def assert_canonical(m):
    assert all(is_canonical(m.ring, x) for x in m.entries)


KINDS = st.sampled_from(["zero", "identity", "random"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ring_index=st.integers(0, len(RINGS) - 1), kind_a=KINDS, kind_b=KINDS)
def test_short_circuits_agree_with_generic_path(data, ring_index, kind_a, kind_b):
    ring = RINGS[ring_index]
    m = data.draw(st.integers(0, 4))
    n = m if kind_a == "identity" else data.draw(st.integers(0, 4))
    k = n if kind_b == "identity" else data.draw(st.integers(0, 4))
    a = draw_matrix(data, ring, m, n, kind_a)
    b = draw_matrix(data, ring, n, k, kind_b)
    product = a * b
    assert product == generic_product(a, b)
    assert product.shape == (m, k)
    assert_canonical(product)

    kind_c = data.draw(KINDS)
    if kind_c == "identity" and m != n:
        kind_c = "random"
    c = draw_matrix(data, ring, m, n, kind_c)
    assert a + c == generic_sum(a, c, negate=False)
    assert c + a == generic_sum(c, a, negate=False)
    assert a - c == generic_sum(a, c, negate=True)
    assert c - a == generic_sum(c, a, negate=True)
    assert -a == generic_sum(Matrix.zeros(ring, m, n), a, negate=True)
    assert a - a == Matrix.zeros(ring, m, n)
    for result in (a + c, a - c, c - a, -a):
        assert_canonical(result)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("m,n,k", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (0, 0, 2), (2, 0, 0)])
def test_empty_products(ring, m, n, k):
    a = Matrix.zeros(ring, m, n)
    b = Matrix(ring, n, k, [ring.one] * (n * k))
    assert a * b == generic_product(a, b) == Matrix.zeros(ring, m, k)
    assert Matrix.identity(ring, m) * Matrix.zeros(ring, m, k) == Matrix.zeros(ring, m, k)
    assert a + a == a - a == -a == generic_sum(a, a, negate=True) == a


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_identity_is_recognized_only_when_exact(ring):
    ident = Matrix.identity(ring, 3)
    assert ident.to_rows() == [
        [ring.one if i == j else ring.zero for j in range(3)] for i in range(3)
    ]
    two = ring.add(ring.one, ring.one)
    scaled = Matrix(ring, 3, 3, [two if i == j else ring.zero for i in range(3) for j in range(3)])
    b = Matrix(ring, 3, 2, [ring_int(ring, v) for v in (1, 2, 3, 4, 5, 6)])
    assert scaled * b == generic_product(scaled, b)
    assert ident * b is b
    assert b * Matrix.identity(ring, 2) is b


# ---------------------------------------------------------------------------
# the zero test stops at the first nonzero entry and agrees with counting

F17 = PrimeField(17)  # past the byte lanes: a tuple of ints
ZC3 = GroupRing(ZZ, GroupTable.cyclic(3))
ZERO_RINGS = [ZZ, F5, F17, ZC3, F2C4]
ZERO_IDS = ["Z", "F5", "F17", "ZC3", "F2C4"]


def counted_zero(m: Matrix) -> bool:
    return m.entries.count(m.ring.zero) == len(m.entries)


def sparse_matrix(data, ring, rows, cols):
    """Zero entries about as often as all others together."""
    element = st.integers(0, ring.p - 1) if isinstance(ring, PrimeField) else elements(ring)
    entry = st.one_of(st.just(ring.zero), element)
    size = rows * cols
    return Matrix(ring, rows, cols, data.draw(st.lists(entry, min_size=size, max_size=size)))


def kernel_product(a, b):
    """``a * b`` by the ring's product kernel, called directly."""
    ring, m, n, k = a.ring, a.rows, a.cols, b.cols
    if isinstance(ring, IntegerRing):
        flat = _kernels.matmul_int(a.entries, b.entries, m, n, k)
    elif isinstance(ring, PrimeField):
        flat = _kernels.matmul_mod(a.entries, b.entries, m, n, k, ring.p)
    else:
        p = getattr(ring.base, "p", 0)
        flat = _kernels.matmul_group(
            a.entries, b.entries, m, n, k, ring.group.mult, ring.zero, p, ring.supports
        )
    return Matrix(ring, m, k, flat)


@pytest.mark.parametrize("ring", ZERO_RINGS, ids=ZERO_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_test_agrees_with_counting(ring, data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    m = sparse_matrix(data, ring, rows, cols)
    assert m.is_zero() == counted_zero(m)


@pytest.mark.parametrize("ring", ZERO_RINGS, ids=ZERO_IDS)
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (224, 224)])
def test_zero_test_on_zeros_and_on_a_last_nonzero(ring, rows, cols):
    zero = Matrix.zeros(ring, rows, cols)
    assert isinstance(zero.entries, bytes) == (ring is F5)
    assert zero.is_zero() and counted_zero(zero)
    if rows * cols:
        last = Matrix(ring, rows, cols, [ring.zero] * (rows * cols - 1) + [ring.one])
        assert not last.is_zero() and not counted_zero(last)


@pytest.mark.parametrize("ring", ZERO_RINGS, ids=ZERO_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_and_sums_agree_with_the_kernels(ring, data):
    m, n, k = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b, c = (sparse_matrix(data, ring, r, s) for r, s in ((m, n), (n, k), (m, n)))
    assert a * b == kernel_product(a, b)
    assert a + c == generic_sum(a, c, negate=False)
    assert a - c == generic_sum(a, c, negate=True)
    assert -a == generic_sum(Matrix.zeros(ring, m, n), a, negate=True)
    for result in (a * b, a + c, -a):
        assert_canonical(result)
