"""Group-ring matrix products convolve over the Cayley table.

``Matrix.__mul__`` over Z[G] and F_p[G] runs ``_kernels.matmul_group``.
The product it replaced, through the regular representation (restrict the
left factor to the base ring, unfold the right factor's coefficients,
multiply over the base ring, fold the columns back), is kept here as the
oracle, next to the entrywise ``ring.mul`` / ``ring.add`` definition.
"""

import pytest
from hypothesis import given, settings, strategies as st

from chaincert import _kernels, io, matrix
from chaincert.matrix import Matrix, _expand_columns, _fold_columns, restrict_scalars
from chaincert.resolution import canonical_resolution
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField

from conftest import relabel_table

S3 = GroupTable.symmetric(3)
S3_MOVED = relabel_table(S3, [3, 0, 5, 1, 4, 2])
RINGS = [
    GroupRing(ZZ, S3),
    GroupRing(PrimeField(3), S3),
    GroupRing(ZZ, GroupTable.cyclic(6)),
    GroupRing(PrimeField(2), GroupTable.cyclic(4)),
    GroupRing(ZZ, S3_MOVED),
]
RING_IDS = ["ZS3", "F3S3", "ZC6", "F2C4", "ZS3-moved"]


def regular_product(a, b):
    """The product through the regular representation."""
    return _fold_columns(restrict_scalars(a) * _expand_columns(b), a.ring, a.rows)


def entrywise_product(a, b):
    ring = a.ring
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ring.zero
            for t in range(a.cols):
                acc = ring.add(acc, ring.mul(a.entry(i, t), b.entry(t, j)))
            out.append(acc)
    return Matrix(ring, a.rows, b.cols, out)


def assert_canonical(m):
    ring = m.ring
    bound = getattr(ring.base, "p", None)
    for x in m.entries:
        assert type(x) is tuple and len(x) == ring.group.order
        assert all(type(c) is int for c in x)
        if bound is not None:
            assert all(0 <= c < bound for c in x)


def elements(ring):
    p = getattr(ring.base, "p", None)
    coeff = st.integers(-4, 4) if p is None else st.integers(0, p - 1)
    sparse = st.one_of(st.just(0), coeff)
    return st.tuples(*[sparse] * ring.group.order)


def matrices(data, ring, rows, cols):
    entries = data.draw(
        st.lists(
            st.one_of(st.just(ring.zero), elements(ring)),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return Matrix(ring, rows, cols, entries)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ring_index=st.integers(0, len(RINGS) - 1))
def test_product_agrees_with_oracle_and_definition(data, ring_index):
    ring = RINGS[ring_index]
    m, n, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = matrices(data, ring, m, n)
    b = matrices(data, ring, n, k)
    product = a * b
    assert product.shape == (m, k)
    assert product == regular_product(a, b)
    assert product == entrywise_product(a, b)
    assert_canonical(product)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("m,n,k", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (0, 0, 2), (2, 0, 0)])
def test_empty_shapes(ring, m, n, k):
    a = [ring.one] * (m * n)
    b = [ring.one] * (n * k)
    p = getattr(ring.base, "p", 0)
    flat = _kernels.matmul_group(a, b, m, n, k, ring.group.mult, ring.zero, p, ring.supports)
    assert flat == [ring.zero] * (m * k)
    a, b = Matrix(ring, m, n, a), Matrix(ring, n, k, b)
    assert a * b == Matrix.zeros(ring, m, k)
    # restriction, expansion and folding keep every row of an empty shape
    assert regular_product(a, b) == a * b
    x = matrix.solve(a, a * b)
    assert x is not None and a * x == a * b


@pytest.mark.parametrize("table", [S3, S3_MOVED], ids=["S3", "S3-moved"])
def test_left_factor_element_acts_on_the_left(table):
    # two transpositions do not commute; a kernel reading mult[h][g]
    # returns the basis element of t*s for s*t
    ring = GroupRing(ZZ, table)
    s, t = next(
        (g, h)
        for g in range(table.order)
        for h in range(table.order)
        if table.mult[g][h] != table.mult[h][g]
    )
    a = Matrix(ring, 1, 2, [ring.basis_element(s), ring.one])
    b = Matrix(ring, 2, 1, [ring.basis_element(t), ring.zero])
    assert (a * b).entries == (ring.basis_element(table.mult[s][t]),)
    assert (b * a).entry(0, 0) == ring.basis_element(table.mult[t][s])
    assert (a * b).entry(0, 0) != (b * a).entry(0, 0)


def test_cancelling_sum_is_canonical_zero():
    # (t - 1) * norm = 0 in Z[C_6] and in F_2[C_4]
    for ring in (RINGS[2], RINGS[3]):
        t_m1 = ring.sub(ring.basis_element(1), ring.one)
        norm = (ring.base.one,) * ring.group.order
        a = Matrix(ring, 1, 2, [t_m1, ring.one])
        b = Matrix(ring, 2, 1, [norm, ring.zero])
        assert (a * b).entries == (ring.zero,)


def test_product_avoids_the_regular_representation(monkeypatch):
    def forbidden(*args):
        raise AssertionError("group-ring product left the coefficient tuples")

    for name in ("restrict_scalars", "_expand_columns", "_fold_columns"):
        monkeypatch.setattr(matrix, name, forbidden)
    monkeypatch.setattr(GroupRing, "regular_representation", forbidden)
    ring = RINGS[0]
    a = Matrix(ring, 2, 2, [ring.basis_element(g) for g in (1, 2, 3, 4)])
    assert (a * a).shape == (2, 2)


def fresh(ring):
    """An equal ring with tables of its own, empty."""
    return GroupRing(ring.base, ring.group)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("m,n,k", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (2, 3, 2)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_table_backed_product(ring, m, n, k, data):
    ring = fresh(ring)
    a = matrices(data, ring, m, n)
    b = matrices(data, ring, n, k)
    p = getattr(ring.base, "p", 0)
    e, mult = (a.entries, b.entries), ring.group.mult
    flat = _kernels.matmul_group(*e, m, n, k, mult, ring.zero, p, ring.supports)
    product = Matrix(ring, m, k, flat)
    assert product == a * b == entrywise_product(a, b) == regular_product(a, b)
    assert_canonical(product)
    # the table derived exactly the factors' entries, and each as its support
    if m and n and k:
        assert set(ring.supports) == {*a.entries, *b.entries}
    else:
        assert not ring.supports
    for x, pairs in ring.supports.items():
        assert pairs == [(g, c) for g, c in enumerate(x) if c]


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_restriction_writes_the_regular_representation_blocks(ring, rows, cols, data):
    ring = fresh(ring)
    a = matrices(data, ring, rows, cols)
    order = ring.group.order
    rep = ring.regular_representation
    expected = [
        [rep(a.entry(i, j))[r][c] for j in range(cols) for c in range(order)]
        for i in range(rows)
        for r in range(order)
    ]
    restricted = restrict_scalars(a)
    assert restricted.ring == ring.base
    assert restricted.shape == (rows * order, cols * order)
    assert restricted.to_rows() == expected
    assert set(ring.representations) == set(a.entries)
    assert restrict_scalars(a) == restricted  # read back from the table


def test_each_load_builds_its_own_tables(tmp_path):
    _, res = canonical_resolution("Z_over_Z[C_3]", 4)
    path = tmp_path / "res.json"
    io.save(str(path), io.resolution_to_json(res))
    _, first = io.load(str(path))
    d1, d2 = first.complex.d(1), first.complex.d(2)
    assert (d1 * d2).is_zero()
    restrict_scalars(d1)
    ring = first.ring
    assert ring.supports and ring.representations
    _, second = io.load(str(path))
    assert second.ring == ring and second.ring is not ring
    assert second.ring.supports is not ring.supports
    assert second.ring.representations is not ring.representations
    assert not second.ring.supports and not second.ring.representations
