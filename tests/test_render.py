"""The text renderer writes what ``json.dumps`` wrote of the nested lists.

Files are written from documents whose matrices are ``Matrix`` leaves:
``dump_canonical`` renders each leaf straight from its entries and hands
every other node to the JSON encoder. The references are ``json.dumps``
with sorted keys and fixed separators and the per-entry oracle of
``test_codec``; the plain documents ``resolution_to_json`` and
``certificate_to_json`` return are held to that oracle too.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from chaincert import io
from chaincert.matrix import Matrix
from chaincert.resolution import (
    ModulePresentation,
    canonical_resolution,
    generate_resolution,
    pad_top,
)
from chaincert.rings import ZZ, PrimeField
from chaincert.stabilize import total_equivalence

from conftest import f2c4_resolution, s3_resolution
from test_codec import RING_IDS, RINGS, elements, matrices, oracle_to_json
from test_fuzz import DOCUMENTS, _mutate


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def assert_renders_like_the_lists(m: Matrix):
    assert io.dump_canonical(m) == canonical(oracle_to_json(m))


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rendered_matrix_text_matches_the_lists(ring, data):
    assert_renders_like_the_lists(data.draw(matrices(ring)))


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (1, 0), (0, 1)])
def test_rendered_empty_shapes(ring, shape):
    assert_renders_like_the_lists(Matrix.zeros(ring, *shape))


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rendered_single_row_and_column(ring, data):
    """One row or one column: no row separator, or one per entry."""
    count = data.draw(st.integers(1, 6))
    values = data.draw(st.lists(elements(ring), min_size=count, max_size=count))
    assert_renders_like_the_lists(Matrix(ring, 1, count, values))
    assert_renders_like_the_lists(Matrix(ring, count, 1, values))


# ---------------------------------------------------------------------------
# documents without matrices are written exactly as json.dumps writes them


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(DOCUMENTS)))
def test_fuzz_corpus_documents_dump_like_json_dumps(data, name):
    doc, paths = DOCUMENTS[name]
    for plain in (doc, _mutate(doc, paths, data)):
        assert io.dump_canonical(plain) == canonical(plain)


def json_values(leaves=st.nothing()):
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-(2**70), 2**70)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=6)
    )
    return st.recursive(
        scalars | leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(doc=json_values())
def test_generated_documents_dump_like_json_dumps(doc):
    assert io.dump_canonical(doc) == canonical(doc)


def _with_plain_leaves(node):
    if isinstance(node, Matrix):
        return oracle_to_json(node)
    if isinstance(node, dict):
        return {key: _with_plain_leaves(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_with_plain_leaves(value) for value in node]
    return node


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_leaves_anywhere_dump_like_their_lists(ring, data):
    doc = data.draw(json_values(leaves=matrices(ring)))
    assert io.dump_canonical(doc) == canonical(_with_plain_leaves(doc))


def test_a_dict_holding_a_matrix_needs_string_keys():
    with pytest.raises(TypeError):
        io.dump_canonical({1: Matrix.zeros(ZZ, 1, 1)})
    with pytest.raises(TypeError):
        io.dump_canonical([Matrix.zeros(ZZ, 1, 1), object()])


# ---------------------------------------------------------------------------
# files: the documents the command line writes


def _generated(pres, max_rank):
    return [generate_resolution(pres, n=3, max_rank=max_rank, seed=s) for s in (1, 2)]


def _pairs():
    f5 = PrimeField(5)
    _, zc2 = canonical_resolution("Z_over_Z[C_2]", 2)
    s3 = s3_resolution()
    f2c4 = f2c4_resolution(3)
    return [
        pytest.param(*_generated(ModulePresentation(f5, 2, Matrix(f5, 2, 0, ())), 5), id="F5"),
        pytest.param(*_generated(ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0])), 4), id="Z"),
        pytest.param(zc2, pad_top(zc2, 1), id="ZC2"),
        pytest.param(s3, pad_top(s3, 1), id="ZS3"),
        pytest.param(f2c4, pad_top(f2c4, 2), id="F2C4"),
    ]


@pytest.mark.parametrize("first,second", _pairs())
def test_documents_dump_like_their_plain_forms(first, second):
    cert = total_equivalence(first, second)
    plain = _with_plain_leaves(io.certificate_document(cert))
    assert io.dump_canonical(io.certificate_document(cert)) == canonical(plain)
    assert io.certificate_to_json(cert) == plain
    for res in (first, second):
        plain = _with_plain_leaves(io.resolution_document(res))
        assert io.dump_canonical(io.resolution_document(res)) == canonical(plain)
        assert io.resolution_to_json(res) == plain


def test_certificates_saved_twice_in_one_process_are_identical(tmp_path):
    """Each file renders its entry texts afresh, so saving a Z and a
    Z[C_3] certificate, and then both again, gives the same bytes each
    time: ``json.dumps`` of the plain documents."""
    _, zc3 = canonical_resolution("Z_over_Z[C_3]", 3)
    pairs = {
        "Z": _generated(ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0])), 4),
        "ZC3": (zc3, pad_top(zc3, 1)),
    }
    docs = {name: io.certificate_document(total_equivalence(*p)) for name, p in pairs.items()}
    for copy in range(2):
        for name, doc in docs.items():
            path = tmp_path / f"{name}-{copy}.json"
            io.save(str(path), doc)
            assert path.read_bytes() == canonical(_with_plain_leaves(doc)).encode()
