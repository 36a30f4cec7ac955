"""The table-driven matrix codec agrees with the per-entry codec it
replaced.

The reference below is the old per-entry codec, kept here as the oracle:
one ``ring.parse`` / ``ring.render`` call per entry (per coefficient, over
a group ring). The table codec must render the same document, read it back
to the same matrix and accept exactly the literals ``ring.parse`` accepts.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from chaincert import io
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, generate_resolution, pad_top
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField, Ring
from chaincert.stabilize import total_equivalence

from conftest import f2c4_resolution

F2 = PrimeField(2)
F5 = PrimeField(5)
F_MERSENNE = PrimeField(2**31 - 1)
ZS3 = GroupRing(ZZ, GroupTable.symmetric(3))
F2C4 = GroupRing(F2, GroupTable.cyclic(4))
RINGS = [ZZ, F2, F5, F_MERSENNE, ZS3, F2C4]
RING_IDS = ["Z", "F2", "F5", "F2^31-1", "ZS3", "F2C4"]


# ---------------------------------------------------------------------------
# oracle: the per-entry codec


def _entry_out(ring: Ring, x):
    if isinstance(ring, GroupRing):
        return [ring.base.render(c) for c in x]
    return ring.render(x)


def _entry_in(ring: Ring, value):
    if isinstance(ring, GroupRing):
        if not isinstance(value, list) or len(value) != ring.group.order:
            raise io.MalformedFileError("group-ring entry must list one coefficient per element")
        return tuple(ring.base.parse(_require_str(c)) for c in value)
    return ring.parse(_require_str(value))


def _require_str(value) -> str:
    if not isinstance(value, str):
        raise io.MalformedFileError(f"expected a string literal, got {value!r}")
    return value


def oracle_to_json(m: Matrix) -> list:
    return [[_entry_out(m.ring, m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def oracle_from_json(ring: Ring, rows: int, cols: int, data) -> Matrix:
    return Matrix(ring, rows, cols, [_entry_in(ring, x) for row in data for x in row])


# ---------------------------------------------------------------------------
# agreement


def base_values(base):
    if base is ZZ:
        # small values repeat; wide ones reach past 64 bits, both signs
        return st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100))
    return st.one_of(st.integers(0, min(base.p - 1, 3)), st.integers(0, base.p - 1))


def elements(ring):
    if isinstance(ring, GroupRing):
        return st.tuples(*[base_values(ring.base)] * ring.group.order)
    return base_values(ring)


@st.composite
def matrices(draw, ring):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    entries = draw(st.lists(elements(ring), min_size=rows * cols, max_size=rows * cols))
    return Matrix(ring, rows, cols, entries)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codec_matches_per_entry_oracle(ring, data):
    m = data.draw(matrices(ring))
    text = json.loads(io.dump_canonical(m))
    assert text == oracle_to_json(m)
    again = io.matrix_from_json(ring, m.rows, m.cols, text)
    assert again == m
    assert again == oracle_from_json(ring, m.rows, m.cols, text)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_codec_empty_shapes(ring, shape):
    m = Matrix.zeros(ring, *shape)
    doc = json.loads(io.dump_canonical(m))
    assert doc == oracle_to_json(m) == [[] for _ in range(shape[0])]
    assert io.matrix_from_json(ring, *shape, doc) == m


# ---------------------------------------------------------------------------
# the accepted literal language is ring.parse's


NON_CANONICAL = ["07", "-1", "+3", "12", " 7 ", "-0", "1_000"]


@pytest.mark.parametrize("ring", [ZZ, F2, F5, F_MERSENNE], ids=["Z", "F2", "F5", "F2^31-1"])
def test_non_canonical_literals_parse_like_ring_parse(ring):
    data = [NON_CANONICAL]
    m = io.matrix_from_json(ring, 1, len(NON_CANONICAL), data)
    assert m.row_list(0) == [ring.parse(t) for t in NON_CANONICAL]
    assert m == oracle_from_json(ring, 1, len(NON_CANONICAL), data)


def test_non_canonical_group_ring_coefficients():
    cells = [["07", "-1", "+3", "12"], [" 7 ", "0", "1", "-2"]]
    m = io.matrix_from_json(F2C4, 1, 2, [cells])
    assert m.row_list(0) == [tuple(F2.parse(c) for c in cell) for cell in cells]
    assert m == oracle_from_json(F2C4, 1, 2, [cells])


# ---------------------------------------------------------------------------
# the plain documents are fresh: editing one cell, as the fuzz tests do,
# changes no other


def test_group_ring_cells_are_distinct_lists():
    res = f2c4_resolution(2)
    doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    cells = [cell for f in doc["payload"]["forward"] for row in f for cell in row]
    assert len({id(cell) for cell in cells}) == len(cells)
    first = list(cells[0])
    twins = [cell for cell in cells[1:] if cell == first]
    assert twins
    cells[0][0] = "mutated"
    assert all(cell == first for cell in twins)


def test_rows_are_distinct_lists():
    pres = ModulePresentation(ZZ, 3, Matrix.zeros(ZZ, 3, 0))
    doc = io.resolution_to_json(generate_resolution(pres, n=1, max_rank=3, seed=1))
    rows = doc["payload"]["presentation"]["relations"]
    assert rows == [[], [], []]
    assert len({id(row) for row in rows}) == 3
