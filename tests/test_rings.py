import random

import pytest
from hypothesis import given, strategies as st

from chaincert.matrix import Matrix
from chaincert.rings import (
    ZZ,
    GroupRing,
    GroupTable,
    PrimeField,
    RingError,
    _Derived,
    is_prime,
)


def test_integer_arithmetic():
    assert ZZ.add(2, 3) == 5
    assert ZZ.mul(-4, 6) == -24
    assert ZZ.neg(7) == -7


def test_prime_field_basics():
    f5 = PrimeField(5)
    assert f5.mul(3, 4) == 2
    assert f5.add(4, 3) == 2
    assert f5.neg(2) == 3


def test_prime_field_rejects_composite():
    with pytest.raises(RingError):
        PrimeField(4)
    with pytest.raises(RingError):
        PrimeField(1)
    with pytest.raises(RingError):
        PrimeField(2**31 + 11)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_group_table_validation():
    GroupTable.cyclic(6).validate()
    GroupTable.symmetric(3).validate()
    broken = GroupTable(order=2, mult=((0, 1), (1, 1)), identity=0)
    with pytest.raises(RingError):
        broken.validate()
    bad_identity = GroupTable(order=2, mult=((0, 1), (1, 0)), identity=1)
    with pytest.raises(RingError):
        bad_identity.validate()


def test_group_table_rejects_non_associative_loop():
    # a Latin square with identity 0 in which every element is its own
    # inverse; no group of order 5 has an element of order 2
    loop = GroupTable(
        order=5,
        mult=(
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        ),
        identity=0,
    )
    assert all(loop.mult[i][i] == 0 for i in range(5))
    with pytest.raises(RingError, match="non-associative"):
        loop.validate()


def test_group_table_rejects_too_many_generators():
    # {0,1} and {0,1,2} are closed, so the greedy generating set is 1, 2, 3:
    # more than log2(4), which no group of order 4 needs
    table = GroupTable(
        order=4,
        mult=((0, 1, 2, 3), (1, 0, 1, 3), (2, 2, 0, 3), (3, 3, 3, 0)),
        identity=0,
    )
    with pytest.raises(RingError, match="not a group"):
        table.validate()


@pytest.mark.parametrize(
    "table", [GroupTable.cyclic(240), GroupTable.symmetric(5)], ids=["C240", "S5"]
)
def test_large_group_tables_validate(table):
    table.validate()


def test_symmetric_group_is_nonabelian():
    s3 = GroupTable.symmetric(3)
    assert any(
        s3.mult[i][j] != s3.mult[j][i] for i in range(6) for j in range(6)
    )


def test_group_ring_c2_zero_divisor(zc2):
    one = zc2.one
    t = zc2.basis_element(1)
    a = zc2.add(one, t)
    b = zc2.sub(one, t)
    assert zc2.mul(a, b) == zc2.zero


def test_group_ring_rejects_nesting(zc2):
    with pytest.raises(RingError):
        GroupRing(zc2, GroupTable.cyclic(2))


def test_group_ring_constants_are_computed_once():
    table = GroupTable.symmetric(3)
    moved = GroupTable(table.order, table.mult, table.identity)
    for base in (ZZ, PrimeField(3)):
        r = GroupRing(base, table)
        assert r.zero is r.zero and r.one is r.one
        assert r.zero == (base.zero,) * 6
        assert r.one == r.basis_element(table.identity)
        assert r.mul(r.one, r.basis_element(4)) == r.basis_element(4)
        # equality and hashing see only the base ring and the table, before
        # and after the constants are cached
        fresh = GroupRing(base, moved)
        assert fresh == r and hash(fresh) == hash(r)
        assert fresh.one == r.one and fresh == r and hash(fresh) == hash(r)
        assert {r: 1}[fresh] == 1
        assert GroupRing(base, GroupTable.cyclic(6)) != r
    assert GroupRing(ZZ, table) != GroupRing(PrimeField(3), table)


def test_a_derived_table_derives_each_key_once_and_stores_no_failure():
    """The tables of supports and representations, and the reader's literal
    and text tables, rely on this: a key is derived once however often it
    is looked up, and a derive that raises stores nothing, so the next
    lookup derives, and raises, again."""
    calls = []

    def derive(text):
        calls.append(text)
        return int(text)

    table = _Derived(derive)
    assert [table[t] for t in ("7", "7", "-2", "7", "-2")] == [7, 7, -2, 7, -2]
    assert calls == ["7", "-2"] and table == {"7": 7, "-2": -2}
    for attempt in (1, 2):
        with pytest.raises(ValueError):
            table["x"]
        assert "x" not in table and calls.count("x") == attempt
    assert table == {"7": 7, "-2": -2}


def test_regular_representation_values(zc2):
    t = zc2.basis_element(1)
    assert zc2.regular_representation(zc2.one) == ((1, 0), (0, 1))
    assert zc2.regular_representation(t) == ((0, 1), (1, 0))
    assert zc2.regular_representation(zc2.add(zc2.one, t)) == ((1, 1), (1, 1))


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_regular_representation_is_ring_homomorphism(order):
    ring = GroupRing(ZZ, GroupTable.cyclic(order))
    rng = random.Random(order)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(order))
        b = tuple(rng.randint(-3, 3) for _ in range(order))
        lhs = Matrix.from_rows(ZZ, ring.regular_representation(ring.mul(a, b)))
        rhs = Matrix.from_rows(ZZ, ring.regular_representation(a)) * Matrix.from_rows(
            ZZ, ring.regular_representation(b)
        )
        assert lhs == rhs


def test_regular_representation_nonabelian_homomorphism():
    ring = GroupRing(ZZ, GroupTable.symmetric(3))
    rng = random.Random(99)
    for _ in range(10):
        a = tuple(rng.randint(-2, 2) for _ in range(6))
        b = tuple(rng.randint(-2, 2) for _ in range(6))
        lhs = Matrix.from_rows(ZZ, ring.regular_representation(ring.mul(a, b)))
        rhs = Matrix.from_rows(ZZ, ring.regular_representation(a)) * Matrix.from_rows(
            ZZ, ring.regular_representation(b)
        )
        assert lhs == rhs


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_axioms_integers(a, b, c):
    assert ZZ.add(ZZ.add(a, b), c) == ZZ.add(a, ZZ.add(b, c))
    assert ZZ.mul(ZZ.mul(a, b), c) == ZZ.mul(a, ZZ.mul(b, c))
    assert ZZ.mul(a, ZZ.add(b, c)) == ZZ.add(ZZ.mul(a, b), ZZ.mul(a, c))
    assert ZZ.mul(ZZ.one, a) == a


@given(st.data())
def test_ring_axioms_group_ring(data):
    ring = GroupRing(PrimeField(3), GroupTable.symmetric(3))
    elems = st.tuples(*[st.integers(0, 2)] * 6)
    a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(ring.add(a, b), c) == ring.add(ring.mul(a, c), ring.mul(b, c))
    assert ring.mul(ring.one, a) == a
    assert ring.mul(a, ring.one) == a


@pytest.mark.parametrize(
    "ring",
    [ZZ, PrimeField(7), GroupRing(ZZ, GroupTable.cyclic(3)), GroupRing(PrimeField(2), GroupTable.cyclic(2))],
    ids=str,
)
def test_parse_render_round_trip(ring):
    rng = random.Random(5)
    for _ in range(25):
        if isinstance(ring, GroupRing):
            if isinstance(ring.base, PrimeField):
                el = tuple(rng.randrange(ring.base.p) for _ in range(ring.group.order))
            else:
                el = tuple(rng.randint(-9, 9) for _ in range(ring.group.order))
        elif isinstance(ring, PrimeField):
            el = rng.randrange(ring.p)
        else:
            el = rng.randint(-99, 99)
        if isinstance(ring, GroupRing):
            # files store a group-ring element as its coefficients, each
            # rendered and parsed by the base ring
            assert tuple(ring.base.parse(ring.base.render(c)) for c in el) == el
        else:
            assert ring.parse(ring.render(el)) == el


def test_group_ring_render():
    # the text a failed identity's detail prints a group-ring entry in
    zc3 = GroupRing(ZZ, GroupTable.cyclic(3))
    assert zc3.render(zc3.zero) == "0"
    assert zc3.render((1, -2, 0)) == "1-2*g1"
    assert zc3.render((0, 1, -1)) == "g1-g2"
    assert zc3.render((0, 0, 3)) == "3*g2"
