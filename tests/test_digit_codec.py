"""The byte path of the matrix codec agrees with the table path.

Over F_p with p <= 10 every canonical entry is one digit, so
``io._matrix_text`` writes the digits with one strided slice into the
quoted cells of the whole matrix. The references are kept here as the
oracles: each cell rendered on its own by ``ring.render`` and one join
per row, and one dict lookup per cell, which ``io.matrix_from_json`` must
match on one-digit literals, on every other literal and on non-string
cells.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from chaincert import io
from chaincert.matrix import Matrix
from chaincert.rings import ZZ, PrimeField

SMALL_FIELDS = [PrimeField(p) for p in (2, 3, 5, 7)]
SMALL_IDS = ["F2", "F3", "F5", "F7"]


# ---------------------------------------------------------------------------
# oracles: per-cell rendering, and the table reader


def table_matrix_text(m: Matrix) -> str:
    if not m.rows:
        return "[]"
    if not m.cols:
        return "[" + ",".join(["[]"] * m.rows) + "]"
    cells = ['"' + m.ring.render(x) + '"' for x in m.entries]
    rows = [",".join(cells[i : i + m.cols]) for i in range(0, len(cells), m.cols)]
    return "[[" + "],[".join(rows) + "]]"


def _table_literals(base, literals) -> dict:
    """The literals parsed in file order, so the first bad one is named."""
    table = {}
    for text in literals:
        try:
            if text in table:
                continue
        except TypeError as exc:
            raise io.MalformedFileError("matrix entries must be string literals") from exc
        if not isinstance(text, str):
            raise io.MalformedFileError(f"expected a string literal, got {io._shown(text)}")
        try:
            table[text] = base.parse(text)
        except ValueError as exc:
            raise io.MalformedFileError(f"bad literal {io._shown(text)}") from exc
    return table


def table_matrix_from_json(ring, rows: int, cols: int, data) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise io.MalformedFileError(f"matrix must have {rows} rows")
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise io.MalformedFileError(f"matrix row must have {cols} entries")
    cells = list(itertools.chain.from_iterable(data))
    return Matrix(ring, rows, cols, map(_table_literals(ring, cells).__getitem__, cells))


# ---------------------------------------------------------------------------
# writing


@st.composite
def digit_matrices(draw, ring):
    """1x1, 1xk, kx1 and up to 30x30, mostly zeros like the certificates'
    blocks, or dense."""
    shape = draw(
        st.one_of(
            st.just((1, 1)),
            st.tuples(st.just(1), st.integers(1, 30)),
            st.tuples(st.integers(1, 30), st.just(1)),
            st.tuples(st.integers(1, 30), st.integers(1, 30)),
        )
    )
    rows, cols = shape
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = ring.p
    entries = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(rows * cols)]
    return Matrix(ring, rows, cols, entries)


def assert_writes_like_the_table(m: Matrix):
    text = io._matrix_text(m, io._texts(m.ring))
    assert text == table_matrix_text(m)
    assert io.matrix_from_json(m.ring, m.rows, m.cols, json.loads(text)) == m


@pytest.mark.parametrize("ring", SMALL_FIELDS, ids=SMALL_IDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_digit_text_matches_the_table_path(ring, data):
    assert_writes_like_the_table(data.draw(digit_matrices(ring)))


@pytest.mark.parametrize("ring", SMALL_FIELDS, ids=SMALL_IDS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (30, 30)])
def test_digit_text_of_zero_and_identity(ring, shape):
    assert_writes_like_the_table(Matrix.zeros(ring, *shape))
    assert_writes_like_the_table(Matrix.identity(ring, shape[0]))


@pytest.mark.parametrize("entries,cell", [(b"\x07\x03", "7"), (b"\x0c\x03", "12"), (b"\xff\x00", "255")])
def test_unchecked_byte_entries_render_as_the_table_path_does(entries, cell):
    """A ``bytes`` argument is kept unchecked, so over F_5 it can hold a
    non-canonical entry: a digit past p is written as that digit; anything
    else sends the matrix to the table path."""
    m = Matrix(PrimeField(5), 1, 2, entries)
    text = io._matrix_text(m, io._texts(m.ring))
    assert text == table_matrix_text(m)
    assert json.loads(text)[0][0] == cell
    assert "?" not in text


@pytest.mark.parametrize("entries", [[-1, 3], [256, 0], [7, 3], [12, 3], [255, 0]])
def test_entries_outside_a_byte_are_refused_at_construction(entries):
    """Over F_5 the entries are stored as bytes, and a converted sequence
    must hold residues: an entry outside 0-255, or inside it but not in
    [0, 5), is refused."""
    with pytest.raises(ValueError, match="F5"):
        Matrix(PrimeField(5), 1, 2, entries)


# ---------------------------------------------------------------------------
# reading

LITERALS = [str(d) for d in range(10)] + ["", "05", "+1", " 1", "٣", "a"]
NON_STRINGS = [1, None, 1.5, True, ["1"], {"1": 1}]
READ_RINGS = [ZZ, *SMALL_FIELDS, PrimeField(11), PrimeField(2**31 - 1)]
READ_IDS = ["Z", *SMALL_IDS, "F11", "F2^31-1"]


def _outcome(read, ring, rows, cols, data):
    try:
        return read(ring, rows, cols, data)
    except io.MalformedFileError as exc:
        return f"MalformedFileError: {exc}"


def assert_reads_like_the_table(ring, rows, cols, data):
    got = _outcome(io.matrix_from_json, ring, rows, cols, data)
    want = _outcome(table_matrix_from_json, ring, rows, cols, data)
    assert got == want
    if isinstance(got, Matrix):
        assert all(type(x) is int for x in got.entries)


@pytest.mark.parametrize("ring", READ_RINGS, ids=READ_IDS)
@pytest.mark.parametrize("literal", LITERALS + NON_STRINGS, ids=repr)
def test_each_literal_reads_like_the_table_path(ring, literal):
    """Alone, next to one-digit literals, and repeated over a 2x3 matrix."""
    assert_reads_like_the_table(ring, 1, 1, [[literal]])
    assert_reads_like_the_table(ring, 2, 3, [["0", literal, "7"], ["9", "1", literal]])
    assert_reads_like_the_table(ring, 2, 3, [[literal] * 3, [literal] * 3])


@pytest.mark.parametrize("ring", READ_RINGS, ids=READ_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_literal_mixtures_read_like_the_table_path(ring, data):
    rows = data.draw(st.integers(0, 6))
    cols = data.draw(st.integers(0, 6))
    pool = st.sampled_from(LITERALS[:10]) if data.draw(st.booleans()) else st.sampled_from(LITERALS)
    cells = data.draw(st.lists(pool, min_size=rows * cols, max_size=rows * cols))
    data_rows = [cells[i * cols : (i + 1) * cols] for i in range(rows)]
    assert_reads_like_the_table(ring, rows, cols, data_rows)
