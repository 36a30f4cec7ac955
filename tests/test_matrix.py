import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from chaincert import _kernels, io
from chaincert.matrix import (
    HermiteNormalForm,
    Invariants,
    Matrix,
    ShapeError,
    _column_echelon,
    _expand_columns,
    _fold_columns,
    block,
    cokernel_invariants,
    hnf,
    hstack,
    kernel_basis,
    restrict_scalars,
    snf,
    solve,
    vstack,
)
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField, RingError

from conftest import invariant_factors_by_minors

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
ZS3 = GroupRing(ZZ, GroupTable.symmetric(3))


_BIG = 2**64 + 3


def rand_int_matrix(rng, rows, cols, bound=9):
    return Matrix(ZZ, rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])


# ---------------------------------------------------------------------------
# basic operations


def test_identity_law():
    rng = random.Random(0)
    a = rand_int_matrix(rng, 3, 4)
    assert Matrix.identity(ZZ, 3) * a == a
    assert a * Matrix.identity(ZZ, 4) == a


def test_block_inverse_pair_shape():
    one = Matrix.from_rows(ZZ, [[1]])
    f = g = one
    b = block([[f, one - f * g], [one, -g]])
    assert b.to_rows() == [[1, 0], [1, -1]]


def test_f2_square():
    m = Matrix.from_rows(F2, [[1, 1], [0, 1]])
    assert (m * m) == Matrix.identity(F2, 2)


def test_shape_errors():
    a = Matrix.zeros(ZZ, 2, 3)
    b = Matrix.zeros(ZZ, 2, 3)
    with pytest.raises(ShapeError):
        a * b
    with pytest.raises(RingError):
        a + Matrix.zeros(F2, 2, 3)


def test_zero_dimensional_matrices():
    a = Matrix.zeros(ZZ, 0, 3)
    b = Matrix.zeros(ZZ, 3, 0)
    assert (a * b).shape == (0, 0)
    assert (b * a).shape == (3, 3)
    assert (b * a).is_zero()
    assert hstack(b, Matrix.identity(ZZ, 3)).shape == (3, 3)
    assert vstack(a, Matrix.identity(ZZ, 3)).shape == (3, 3)
    c = rand_int_matrix(random.Random(2), 2, 3)
    stacked = vstack(c, Matrix.identity(ZZ, 3))
    assert stacked.top_rows(2) == c
    assert stacked.top_rows(0) == a
    assert stacked.top_rows(5) == stacked
    with pytest.raises(ShapeError):
        stacked.top_rows(6)


def test_transpose_round_trip():
    rng = random.Random(1)
    a = rand_int_matrix(rng, 3, 5)
    assert a.transpose().transpose() == a


# ---------------------------------------------------------------------------
# copying: submatrix and block, against entry-by-entry oracles


def _ring_entries(ring, count):
    if ring is ZZ:
        element = st.integers(-9, 9)
    elif isinstance(ring, PrimeField):
        element = st.integers(0, ring.p - 1)
    else:
        element = st.tuples(*[st.integers(-3, 3)] * ring.group.order)
    return st.lists(element, min_size=count, max_size=count)


@st.composite
def _indices(draw, size):
    """Indices into range(size): a range, or a list in any order with
    repeats; either may be empty."""
    if size == 0 or draw(st.booleans()):
        lo = draw(st.integers(0, size))
        return range(lo, draw(st.integers(lo, size)))
    return draw(st.lists(st.integers(0, size - 1), max_size=2 * size))


@pytest.mark.parametrize("ring", [ZZ, F5, ZS3], ids=["Z", "F5", "Z[S3]"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_submatrix_matches_entrywise_copy(ring, data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    e = data.draw(_ring_entries(ring, rows * cols))
    row_idx, col_idx = data.draw(_indices(rows)), data.draw(_indices(cols))
    sub = Matrix(ring, rows, cols, e).submatrix(row_idx, col_idx)
    assert sub.ring == ring
    assert sub.shape == (len(row_idx), len(col_idx))
    assert tuple(sub.entries) == tuple(e[i * cols + j] for i in row_idx for j in col_idx)


def test_submatrix_empty_index_sets():
    a = rand_int_matrix(random.Random(5), 3, 4)
    assert a.submatrix([], [3, 1, 1]) == Matrix(ZZ, 0, 3, ())
    assert a.submatrix(range(3), []) == Matrix(ZZ, 3, 0, ())
    assert Matrix(ZZ, 0, 4, ()).submatrix([], range(4)) == Matrix(ZZ, 0, 4, ())
    assert a.submatrix([2, 0], [3, 0, 1]).to_rows() == [
        [a.entry(2, 3), a.entry(2, 0), a.entry(2, 1)],
        [a.entry(0, 3), a.entry(0, 0), a.entry(0, 1)],
    ]


def _random_matrix(ring, data, rows, cols):
    return Matrix(ring, rows, cols, data.draw(_ring_entries(ring, rows * cols)))


def _entrywise_block(grid):
    """Oracle: entry (i, j) of the assembled matrix, read off the block
    that covers it."""
    rows = []
    for row in grid:
        for i in range(row[0].rows):
            rows.append([m.entry(i, j) for m in row for j in range(m.cols)])
    return rows


@pytest.mark.parametrize("ring", [ZZ, F5, ZS3], ids=["Z", "F5", "Z[S3]"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_matches_entrywise_copy(ring, data):
    width = data.draw(st.integers(0, 5))
    grid = []
    for height in data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        # each block row cuts the same total width its own way
        cuts = sorted(data.draw(st.lists(st.integers(0, width), max_size=2)))
        edges = [0, *cuts, width]
        grid.append([
            _random_matrix(ring, data, height, hi - lo) for lo, hi in zip(edges, edges[1:])
        ])
    out = block(grid)
    assert out.ring == ring
    assert out.shape == (sum(row[0].rows for row in grid), width)
    assert out.to_rows() == _entrywise_block(grid)


@pytest.mark.parametrize("ring", [ZZ, F5, ZS3], ids=["Z", "F5", "Z[S3]"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hstack_matches_entrywise_copy(ring, data):
    rows = data.draw(st.integers(0, 3))
    widths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    mats = [_random_matrix(ring, data, rows, w) for w in widths]
    out = hstack(*mats)
    assert out.ring == ring
    assert out.shape == (rows, sum(widths))
    assert tuple(out.entries) == tuple(
        m.entry(i, j) for i in range(rows) for m in mats for j in range(m.cols)
    )


@pytest.mark.parametrize("ring", [ZZ, F5, ZS3], ids=["Z", "F5", "Z[S3]"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_vstack_matches_entrywise_copy(ring, data):
    cols = data.draw(st.integers(0, 3))
    heights = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    mats = [_random_matrix(ring, data, h, cols) for h in heights]
    out = vstack(*mats)
    assert out.ring == ring
    assert out.shape == (sum(heights), cols)
    assert tuple(out.entries) == tuple(
        m.entry(i, j) for m in mats for i in range(m.rows) for j in range(cols)
    )


def test_stack_errors():
    def z(rows, cols, ring=ZZ):
        return Matrix.zeros(ring, rows, cols)

    with pytest.raises(ShapeError):
        hstack()
    with pytest.raises(ShapeError):
        vstack()
    with pytest.raises(ShapeError):
        hstack(z(2, 1), z(3, 1))  # row mismatch
    with pytest.raises(ShapeError):
        hstack(z(0, 1), z(1, 0))  # even with no entries to copy
    with pytest.raises(ShapeError):
        vstack(z(1, 2), z(1, 3))  # column mismatch
    with pytest.raises(ShapeError):
        vstack(z(1, 0), z(0, 1))
    with pytest.raises(RingError):
        hstack(z(1, 1), z(1, 1, F5))
    with pytest.raises(RingError):
        vstack(z(1, 1), z(1, 1, F5))


def test_block_errors():
    def z(rows, cols, ring=ZZ):
        return Matrix.zeros(ring, rows, cols)

    with pytest.raises(ShapeError):
        block([])
    with pytest.raises(ShapeError):
        block([[z(2, 1), z(3, 1)]])  # heights differ within a block row
    with pytest.raises(ShapeError):
        block([[z(1, 2), z(1, 1)], [z(2, 2)]])  # total widths differ
    with pytest.raises(ShapeError):
        block([[z(1, 2)], [z(0, 3)]])  # even with no rows to copy
    with pytest.raises(ShapeError):
        block([[z(1, 2)], [z(1, 3)], [z(1, 1)]])  # the entry count still fits
    with pytest.raises(RingError):
        block([[z(1, 1), z(1, 1, F5)]])
    with pytest.raises(RingError):
        block([[z(1, 1)], [z(1, 1, F5)]])


# ---------------------------------------------------------------------------
# Oracles: the extended-gcd row combinations that the library's normal forms
# used before remainder elimination


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _combine_rows(mats, i1, i2, c):
    """Row operations on every matrix in mats so that the first matrix gets
    gcd at (i1, c) and zero at (i2, c)."""
    d = mats[0]
    a, b = d[i1][c], d[i2][c]
    if b == 0:
        return
    if a == 0:
        for m in mats:
            m[i1], m[i2] = m[i2], m[i1]
        return
    if b % a == 0:
        q = b // a
        for m in mats:
            m[i2] = [x - q * y for x, y in zip(m[i2], m[i1])]
        return
    x, y, g = _xgcd(a, b)
    ag, mbg = a // g, -(b // g)
    for m in mats:
        r1, r2 = m[i1], m[i2]
        m[i1] = [x * p + y * q for p, q in zip(r1, r2)]
        m[i2] = [mbg * p + ag * q for p, q in zip(r1, r2)]


def hnf_by_row_combinations(a: Matrix) -> HermiteNormalForm:
    """Oracle: the row Hermite form by extended-gcd row combinations, the
    library's ``hnf`` before remainder elimination. The Hermite form is
    unique, so its h must equal the library's; its u may differ."""
    m, n = a.rows, a.cols
    h = a.to_rows()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        if all(h[i][c] == 0 for i in range(r, m)):
            continue
        for i in range(r + 1, m):
            _combine_rows((h, u), r, i, c)
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return HermiteNormalForm(
        h=Matrix.from_rows(a.ring, h, cols=n),
        u=Matrix.from_rows(a.ring, u, cols=m),
    )


# ---------------------------------------------------------------------------
# Smith normal form, with the minor-gcd oracle


def _is_unimodular(u: Matrix) -> bool:
    inverse = solve(u, Matrix.identity(ZZ, u.rows))
    return inverse is not None and u * inverse == Matrix.identity(ZZ, u.rows)


def assert_valid_snf(a: Matrix):
    """The diagonal is nonnegative with zeros trailing and each entry
    dividing the next; on matrices small enough for the minor oracle, its
    nonzero entries are the invariant factors."""
    diag = snf(a)
    assert len(diag) == min(a.rows, a.cols)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero, "zeros must trail"
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    if min(a.rows, a.cols) <= 5:
        assert nonzero == invariant_factors_by_minors(a)
    return diag


def test_snf_examples():
    assert assert_valid_snf(Matrix.from_rows(ZZ, [[2, 0], [0, 3]])) == [1, 6]
    assert assert_valid_snf(Matrix.identity(ZZ, 4)) == [1, 1, 1, 1]
    assert assert_valid_snf(Matrix.zeros(ZZ, 3, 2)) == [0, 0]
    assert assert_valid_snf(Matrix.from_rows(ZZ, [[0, 4], [6, 0]])) == [2, 12]
    assert assert_valid_snf(Matrix.zeros(ZZ, 0, 3)) == []


def test_snf_against_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        a = rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=6)
        assert_valid_snf(a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.data(),
)
def test_snf_transform_identity_property(rows, cols, data):
    """Diagonal shape and invariant factors by minors; ``snf`` forms no
    transforms, so there is no u*a*v = d identity left to check."""
    entries = data.draw(
        st.lists(st.integers(-30, 30), min_size=rows * cols, max_size=rows * cols)
    )
    assert_valid_snf(Matrix(ZZ, rows, cols, entries))


def snf_by_column_combinations(a: Matrix) -> list[int]:
    """Oracle: the Smith diagonal by extended-gcd row and column
    combinations, the library's ``snf`` before remainder elimination."""
    m, n = a.rows, a.cols
    d = a.to_rows()

    def col_combine(j1, j2, i):
        """Column ops putting gcd at (i, j1), zero at (i, j2)."""
        p, q = d[i][j1], d[i][j2]
        if q == 0:
            return
        if p == 0:
            for row in d:
                row[j1], row[j2] = row[j2], row[j1]
            return
        if q % p == 0:
            f = q // p
            for row in d:
                row[j2] -= f * row[j1]
            return
        x, y, g = _xgcd(p, q)
        pg, mqg = p // g, -(q // g)
        for row in d:
            r1, r2 = row[j1], row[j2]
            row[j1] = x * r1 + y * r2
            row[j2] = mqg * r1 + pg * r2

    def swap_into(k):
        """Move a smallest-magnitude nonzero of d[k:, k:] to (k, k)."""
        best = None
        for i in range(k, m):
            for j in range(k, n):
                x = d[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            return False
        _, i, j = best
        if i != k:
            d[k], d[i] = d[i], d[k]
        if j != k:
            for row in d:
                row[k], row[j] = row[j], row[k]
        return True

    rank = 0
    for k in range(min(m, n)):
        if not swap_into(k):
            break
        while True:
            for i in range(k + 1, m):
                _combine_rows((d,), k, i, k)
            if all(d[k][j] == 0 for j in range(k + 1, n)):
                break
            for j in range(k + 1, n):
                col_combine(k, j, k)
            if all(d[i][k] == 0 for i in range(k + 1, m)):
                break
        rank = k + 1

    # diag(a, b) is equivalent to diag(gcd, lcm), so gcd/lcm swaps put the
    # nonzero diagonal into a divisibility chain
    diag = [abs(d[k][k]) for k in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag + [0] * (min(m, n) - rank)


@st.composite
def _int_matrices(draw):
    """A matrix over Z up to 7 x 7, any dimension possibly 0: full or
    rank-deficient (a product through a narrower middle), with small
    entries or entries up to 2^70, of either sign."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    element = st.integers(-(2**70), 2**70) if draw(st.booleans()) else st.integers(-9, 9)

    def mat(rows, cols):
        return Matrix(ZZ, rows, cols, draw(st.lists(element, min_size=rows * cols, max_size=rows * cols)))

    if draw(st.booleans()):
        middle = draw(st.integers(0, min(m, n)))
        return mat(m, middle) * mat(middle, n)
    return mat(m, n)


@settings(max_examples=400, deadline=None)
@given(a=_int_matrices())
@example(a=Matrix.zeros(ZZ, 0, 4))
@example(a=Matrix.zeros(ZZ, 4, 0))
@example(a=Matrix.zeros(ZZ, 0, 0))
@example(a=Matrix.from_rows(ZZ, [[-6, -10], [-15, -25]]))  # negative, rank 1
@example(a=Matrix.from_rows(ZZ, [[_BIG, 2 * _BIG, 1], [3, 6, _BIG], [-_BIG, 0, 0]]))
@example(a=Matrix.from_rows(ZZ, [[4, 6], [6, 9]]))  # pivot 2 after a re-pivot; row 0 leaves 1
def test_snf_matches_the_column_combination_oracle(a):
    assert snf(a) == snf_by_column_combinations(a)


# ---------------------------------------------------------------------------
# Hermite normal form


def assert_valid_hnf(a: Matrix):
    res = hnf(a)
    assert res.u * a == res.h
    assert _is_unimodular(res.u)
    # row echelon with positive pivots and reduced columns above
    last = -1
    for i in range(res.h.rows):
        row = res.h.row_list(i)
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            for ii in range(i, res.h.rows):
                assert not any(res.h.row_list(ii)), "zero rows must trail"
            break
        assert lead > last
        last = lead
        assert row[lead] > 0
        for ii in range(i):
            assert 0 <= res.h.entry(ii, lead) < row[lead]
    return res


def test_hnf_random():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_int_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), bound=20)
        assert_valid_hnf(a)


@settings(max_examples=300, deadline=None)
@given(a=_int_matrices())
@example(a=Matrix.zeros(ZZ, 0, 4))
@example(a=Matrix.zeros(ZZ, 4, 0))
@example(a=Matrix.from_rows(ZZ, [[-6, -10], [-15, -25]]))  # negative, rank 1
@example(a=Matrix.from_rows(ZZ, [[_BIG, 2 * _BIG, 1], [3, 6, _BIG], [-_BIG, 0, 0]]))
def test_hnf_matches_the_row_combination_oracle(a):
    """The Hermite form is unique: h is the oracle's; u is any unimodular
    transform with u * a = h."""
    res = hnf(a)
    assert res.h == hnf_by_row_combinations(a).h
    assert res.u * a == res.h
    assert _is_unimodular(res.u)


# ---------------------------------------------------------------------------
# solve


def test_solve_integers_examples():
    a = Matrix.from_rows(ZZ, [[2]])
    x = solve(a, Matrix.from_rows(ZZ, [[4]]))
    assert x == Matrix.from_rows(ZZ, [[2]])
    assert solve(a, Matrix.from_rows(ZZ, [[3]])) is None


def test_solve_group_ring_example(zc2):
    t = zc2.basis_element(1)
    a = Matrix(zc2, 1, 1, [zc2.add(zc2.one, t)])
    b = Matrix(zc2, 1, 1, [(2, 2)])
    x = solve(a, b)
    assert x is not None
    assert a * x == b


@pytest.mark.parametrize(
    "ring",
    [ZZ, F5, GroupRing(ZZ, GroupTable.cyclic(3)), GroupRing(F2, GroupTable.symmetric(3))],
    ids=str,
)
def test_solve_round_trip_property(ring):
    """Whenever B = A X0, solve(A, B) returns some X with A X = B."""
    rng = random.Random(13)
    for _ in range(20):
        m, n, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)

        def rand_el():
            if isinstance(ring, GroupRing):
                if isinstance(ring.base, PrimeField):
                    return tuple(rng.randrange(ring.base.p) for _ in range(ring.group.order))
                return tuple(rng.randint(-2, 2) for _ in range(ring.group.order))
            if isinstance(ring, PrimeField):
                return rng.randrange(ring.p)
            return rng.randint(-5, 5)

        a = Matrix(ring, m, n, [rand_el() for _ in range(m * n)])
        x0 = Matrix(ring, n, k, [rand_el() for _ in range(n * k)])
        b = a * x0
        x = solve(a, b)
        assert x is not None
        assert a * x == b


def test_solve_no_columns():
    a = Matrix.zeros(ZZ, 2, 0)
    assert solve(a, Matrix.zeros(ZZ, 2, 3)) is not None
    assert solve(a, Matrix.from_rows(ZZ, [[1, 0], [0, 0]])) is None


def test_solve_field_consistency():
    a = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    b = Matrix.from_rows(F3, [[1], [1]])
    x = solve(a, b)
    assert x is not None and a * x == b
    # rank-1 matrix, right side off the column space
    a2 = Matrix.from_rows(F3, [[1, 2], [2, 1]])
    assert solve(a2, Matrix.from_rows(F3, [[1], [1]])) is None


def _solve_int_by_columns(a, b):
    """Oracle: the integer solve one right-hand column at a time, with one
    residual update per column and one sum per row of V."""
    h, u, pivot_rows = _column_echelon(a)  # E = h^T, V = u^T
    rank = len(pivot_rows)
    cols_out = []
    for col in range(b.cols):
        resid = [b.entry(i, col) for i in range(b.rows)]
        y = []
        for j in range(rank):
            r = pivot_rows[j]
            lead = h[j][r]
            if resid[r] % lead:
                return None
            q = resid[r] // lead
            if q:
                y.append((j, q))
                for i in range(r, len(resid)):
                    resid[i] -= q * h[j][i]
        if any(resid):
            return None
        cols_out.append([sum([u[j][i] * q for j, q in y]) for i in range(a.cols)])
    entries = [cols_out[j][i] for i in range(a.cols) for j in range(b.cols)]
    return Matrix(a.ring, a.cols, b.cols, entries)


@st.composite
def _int_systems(draw):
    """A x = B over Z: A full or rank-deficient (a product through a
    narrower middle), small or above 2^64 entries, B solvable (A X0),
    random (mostly unsolvable) or with some columns zeroed; any of the
    three dimensions may be 0."""
    m, n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 4))
    element = st.integers(-(2**70), 2**70) if draw(st.booleans()) else st.integers(-6, 6)

    def mat(rows, cols):
        return Matrix(ZZ, rows, cols, draw(st.lists(element, min_size=rows * cols, max_size=rows * cols)))

    if draw(st.booleans()):
        middle = draw(st.integers(0, min(m, n)))
        a = mat(m, middle) * mat(middle, n)
    else:
        a = mat(m, n)
    b = a * mat(n, k) if draw(st.booleans()) else mat(m, k)
    zeroed = draw(st.sets(st.integers(0, max(k - 1, 0)))) if k else set()
    entries = [0 if j in zeroed else x for x, j in zip(b.entries, itertools.cycle(range(k)))]
    return a, Matrix(ZZ, m, k, entries)



@settings(max_examples=300, deadline=None)
@given(system=_int_systems())
@example(system=(Matrix.zeros(ZZ, 0, 3), Matrix.zeros(ZZ, 0, 2)))  # A has no rows
@example(system=(Matrix.zeros(ZZ, 3, 0), Matrix.zeros(ZZ, 3, 2)))  # no columns, solvable
@example(system=(Matrix.zeros(ZZ, 2, 0), Matrix.from_rows(ZZ, [[0, 1], [0, 0]])))
@example(system=(Matrix.from_rows(ZZ, [[2, 4], [1, 2]]), Matrix.zeros(ZZ, 2, 0)))  # B has no columns
@example(system=(  # rank 1, entries above 2^64, one zero column of B
    Matrix.from_rows(ZZ, [[_BIG, 2 * _BIG], [3, 6]]),
    Matrix.from_rows(ZZ, [[0, 5 * _BIG], [0, 15]]),
))
def test_solve_int_matches_the_column_by_column_oracle(system):
    a, b = system
    got = solve(a, b)
    assert got == _solve_int_by_columns(a, b)
    assert got is None or a * got == b


def _lattice_index(a: Matrix) -> tuple[int, int]:
    """Rank of the column lattice of ``a`` and the product of its invariant
    factors, its index in its saturation."""
    nonzero = [d for d in snf(a) if d]
    return len(nonzero), prod(nonzero)


@settings(max_examples=200, deadline=None)
@given(system=_int_systems())
def test_solve_and_kernel_basis_satisfy_their_equations(system):
    """``solve`` answers A X = B exactly when B lies in the column lattice
    of A, which holds when appending B keeps the rank and the index in the
    saturation (Smith diagonals); ``kernel_basis`` K has A K = 0, rank
    cols - rank(A), and trivial invariant factors, so its columns span the
    whole (saturated) kernel lattice."""
    a, b = system
    x = solve(a, b)
    assert (x is not None) == (_lattice_index(hstack(a, b)) == _lattice_index(a))
    assert x is None or a * x == b
    k = kernel_basis(a)
    assert (a * k).is_zero()
    rank, _ = _lattice_index(a)
    assert _lattice_index(k) == (a.cols - rank, 1)


@pytest.mark.parametrize(
    "ring", [GroupRing(ZZ, GroupTable.cyclic(3)), ZS3], ids=["Z[C3]", "Z[S3]"]
)
def test_group_ring_solve_matches_the_column_by_column_oracle(ring):
    # a group-ring system restricts to Z; the oracle solves the restricted
    # system column by column and folds the solution back
    rng = random.Random(17)

    def rand(rows, cols):
        return Matrix(ring, rows, cols, [
            tuple(rng.randint(-2, 2) for _ in range(ring.group.order)) for _ in range(rows * cols)
        ])

    outcomes = set()
    for _ in range(30):
        m, n, k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a = rand(m, n)
        b = a * rand(n, k) if rng.random() < 0.5 else rand(m, k)
        y = _solve_int_by_columns(restrict_scalars(a), _expand_columns(b))
        expected = None if y is None else _fold_columns(y, ring, n)
        got = solve(a, b)
        assert got == expected
        outcomes.add(got is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# kernels


def test_kernel_examples():
    k = kernel_basis(Matrix.from_rows(F5, [[1, 0]]))
    assert k.cols == 1
    assert k.to_rows() == [[0], [1]]

    k = kernel_basis(Matrix.from_rows(ZZ, [[2, -2]]))
    assert k.cols == 1
    assert [abs(x) for x in (k.entry(0, 0), k.entry(1, 0))] == [1, 1]
    assert k.entry(0, 0) == k.entry(1, 0)

    assert kernel_basis(Matrix.identity(ZZ, 3)).cols == 0


def test_kernel_of_zero_row_matrix():
    k = kernel_basis(Matrix.zeros(ZZ, 0, 3))
    assert k.cols == 3
    assert solve(k, Matrix.identity(ZZ, 3)) is not None


def test_kernel_completeness_brute_force():
    """Every small-box integer solution of A x = 0 lies in the lattice
    spanned by the kernel basis."""
    rng = random.Random(17)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_int_matrix(rng, m, n, bound=3)
        k = kernel_basis(a)
        assert (a * k).is_zero()
        for point in itertools.product(range(-2, 3), repeat=n):
            x = Matrix(ZZ, n, 1, list(point))
            if (a * x).is_zero():
                assert solve(k, x) is not None, (a.to_rows(), point)


def test_kernel_field_property():
    rng = random.Random(19)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = Matrix(F3, m, n, [rng.randrange(3) for _ in range(m * n)])
        k = kernel_basis(a)
        assert (a * k).is_zero()
        # dimension check by rank-nullity
        from chaincert.matrix import rank_field

        assert k.cols == n - rank_field(a)


# ---------------------------------------------------------------------------
# cokernel invariants


def test_cokernel_examples():
    assert cokernel_invariants(Matrix.from_rows(ZZ, [[2]])) == Invariants(0, (2,))
    assert cokernel_invariants(Matrix.zeros(ZZ, 2, 0)) == Invariants(2, ())
    assert cokernel_invariants(Matrix.identity(ZZ, 3)) == Invariants(0, ())
    assert cokernel_invariants(Matrix.from_rows(F5, [[0, 0], [0, 1]])) == Invariants(1, ())


@pytest.mark.parametrize(
    "inv,text",
    [
        (Invariants(0), "0"),
        (Invariants(1), "Z"),
        (Invariants(2), "Z^2"),
        (Invariants(0, (2, 6)), "Z/2 + Z/6"),
        (Invariants(1, (3,)), "Z + Z/3"),
        (Invariants(100_000, (2, 2)), "Z^100000 + Z/2 + Z/2"),
        (Invariants(0, characteristic=5), "0"),
        (Invariants(1, characteristic=5), "F_5"),
        (Invariants(3, characteristic=5), "F_5^3"),
        (Invariants(100_000, characteristic=2), "F_2^100000"),
    ],
)
def test_invariants_render_free_part_as_one_power(inv, text):
    assert str(inv) == text


def test_field_label_is_printed_but_not_compared():
    inv = cokernel_invariants(Matrix.zeros(F5, 3, 1))
    assert str(inv) == "F_5^3"
    assert inv == Invariants(3) and hash(inv) == hash(Invariants(3))
    assert str(cokernel_invariants(Matrix.zeros(ZZ, 3, 1))) == "Z^3"
    # over F_p[G] the invariants are those of the restriction to F_p
    f2c4 = GroupRing(F2, GroupTable.cyclic(4))
    assert str(cokernel_invariants(restrict_scalars(Matrix.zeros(f2c4, 1, 1)))) == "F_2^4"


@pytest.mark.parametrize("ring", [ZZ, F5], ids=["Z", "F5"])
@pytest.mark.parametrize("rows,cols", [(10**7, 0), (0, 10**7), (0, 0)])
def test_cokernel_of_an_empty_matrix_needs_no_row_pass(ring, rows, cols, monkeypatch):
    def row_pass(*args):
        raise AssertionError("a pass over the rows of a matrix with no entries")

    monkeypatch.setattr(Matrix, "to_rows", row_pass)
    monkeypatch.setattr(_kernels, "rref_mod", row_pass)
    assert cokernel_invariants(Matrix(ring, rows, cols, ())) == Invariants(rows)


def test_cokernel_group_ring_rejected(zc2):
    with pytest.raises(RingError):
        cokernel_invariants(Matrix.zeros(zc2, 1, 1))


# ---------------------------------------------------------------------------
# restriction of scalars


def test_restrict_scalars_values(zc2):
    t = zc2.basis_element(1)
    a = Matrix(zc2, 1, 1, [zc2.sub(t, zc2.one)])
    assert restrict_scalars(a).to_rows() == [[-1, 1], [1, -1]]


def test_restrict_scalars_multiplicative(zc2):
    rng = random.Random(23)
    for _ in range(15):
        m, n, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)

        def rand_el():
            return (rng.randint(-3, 3), rng.randint(-3, 3))

        a = Matrix(zc2, m, n, [rand_el() for _ in range(m * n)])
        b = Matrix(zc2, n, k, [rand_el() for _ in range(n * k)])
        assert restrict_scalars(a * b) == restrict_scalars(a) * restrict_scalars(b)


# ---------------------------------------------------------------------------
# storage: bytes over F_p with p <= 13, tuples otherwise

STORAGE_FIELDS = [PrimeField(p) for p in (2, 3, 5, 7, 11, 13, 17)]


def _assert_stored(m: Matrix, want):
    """``m`` holds bytes exactly when its field has byte lanes, and its
    entries, compared as a tuple, are ``want``."""
    assert isinstance(m.entries, bytes if m.ring.p <= 13 else tuple)
    assert tuple(m.entries) == tuple(want)


def _product_entries(a: Matrix, b: Matrix) -> list:
    p = a.ring.p
    return [
        sum(a.entry(i, t) * b.entry(t, j) for t in range(a.cols)) % p
        for i in range(a.rows)
        for j in range(b.cols)
    ]


@pytest.mark.parametrize("ring", STORAGE_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_operation_keeps_the_storage_and_the_entries(ring, data):
    p = ring.p
    rows, inner, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    residues = st.integers(0, p - 1)
    ea = data.draw(st.lists(residues, min_size=rows * inner, max_size=rows * inner))
    eb = data.draw(st.lists(residues, min_size=rows * inner, max_size=rows * inner))
    ec = data.draw(st.lists(residues, min_size=inner * cols, max_size=inner * cols))
    a, b = Matrix(ring, rows, inner, ea), Matrix(ring, rows, inner, eb)
    c = Matrix(ring, inner, cols, ec)
    _assert_stored(a, ea)
    identity = [int(i == j) for i in range(rows) for j in range(rows)]
    _assert_stored(Matrix.identity(ring, rows), identity)
    _assert_stored(Matrix.zeros(ring, rows, cols), [0] * (rows * cols))
    _assert_stored(Matrix.from_rows(ring, a.to_rows(), cols=inner), ea)
    _assert_stored(a + b, [(x + y) % p for x, y in zip(ea, eb)])
    _assert_stored(a - b, [(x - y) % p for x, y in zip(ea, eb)])
    _assert_stored(-a, [-x % p for x in ea])
    _assert_stored(a * c, _product_entries(a, c))
    row_idx, col_idx = data.draw(_indices(rows)), data.draw(_indices(inner))
    sub = [a.entry(i, j) for i in row_idx for j in col_idx]
    _assert_stored(a.submatrix(row_idx, col_idx), sub)
    top = data.draw(st.integers(0, rows))
    _assert_stored(a.top_rows(top), ea[: top * inner])
    _assert_stored(a.transpose(), [a.entry(i, j) for j in range(inner) for i in range(rows)])
    if rows and inner:
        grid = [[a, b], [b, a]]
        _assert_stored(block(grid), [x for row in _entrywise_block(grid) for x in row])
    x = solve(a, a * c)  # solvable: c is one solution
    assert x is not None
    _assert_stored(x, x.entries)
    _assert_stored(a * x, (a * c).entries)
    kernel = kernel_basis(a)
    _assert_stored(kernel, kernel.entries)
    _assert_stored(a * kernel, [0] * (rows * kernel.cols))


@pytest.mark.parametrize("ring", STORAGE_FIELDS, ids=str)
def test_parsed_matrices_keep_the_storage(ring):
    digits = [["0", "1", "2"], ["7", "9", "3"]]  # one character each: the byte path
    wide = [["10", "11", "12"], ["0", "1", "2"]]  # two characters: the table path
    for data in (digits, wide):
        want = [int(x) % ring.p for row in data for x in row]
        _assert_stored(io.matrix_from_json(ring, 2, 3, data), want)


def test_bytes_entries_are_kept_without_a_copy():
    entries = bytes([1, 0, 4, 2])
    assert Matrix(F5, 2, 2, entries).entries is entries
    with pytest.raises(TypeError):
        Matrix(F5, 2, 2, 4)  # not four zeros, as bytes(4) would give
    with pytest.raises(ValueError, match="F5"):
        Matrix(F5, 1, 1, [(1, 0)])
