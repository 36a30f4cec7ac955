"""Exit contract under malformed files.

Mutations of a valid Z[S_3] certificate and a Z[C_6] resolution file are
fed to ``check`` and ``validate``: whatever the damage, the command exits
0, 1 or 2 and raises nothing. Bad ring strings and broken Cayley tables
are malformed input: they exit 1, at once. Byte edits inside the digit
matrices of an F_5 certificate, which ``io.load`` lifts out of the text,
give the exit code and output of the plain JSON reading.
"""

import contextlib
import copy
import io as textio
import json
import re
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from chaincert import io
from chaincert.cli import main
from chaincert.matrix import Matrix
from chaincert.resolution import (
    ModulePresentation,
    canonical_resolution,
    generate_resolution,
    pad_top,
)
from chaincert.rings import PrimeField
from chaincert.stabilize import total_equivalence

from conftest import s3_resolution

REPLACEMENTS = [None, True, 0, "", [], {}, [[]], 2**70, str(2**70)]


def _paths(node, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON document."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _documents():
    res = s3_resolution()
    cert = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    _, zc6 = canonical_resolution("Z_over_Z[C_6]", 4)
    docs = {"ZS3-certificate": cert, "ZC6-resolution": io.resolution_to_json(zc6)}
    return {name: (doc, list(_paths(doc))) for name, doc in docs.items()}


DOCUMENTS = _documents()


def _is_coefficient_list(node) -> bool:
    return isinstance(node, list) and len(node) > 1 and all(isinstance(c, str) for c in node)


def _mutate(doc, paths, data):
    doc = copy.deepcopy(doc)
    kind = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if kind == "truncate":
        paths = [p for p in paths if _is_coefficient_list(_node(doc, p))]
    elif kind == "delete":
        paths = [p for p in paths if p]
    path = data.draw(st.sampled_from(paths))
    if kind == "replace":
        value = data.draw(st.sampled_from(REPLACEMENTS))
        if not path:
            return value
        _node(doc, path[:-1])[path[-1]] = value
    elif kind == "delete":
        del _node(doc, path[:-1])[path[-1]]
    else:
        coeffs = _node(doc, path)
        del coeffs[data.draw(st.integers(0, len(coeffs) - 1)) :]
    return doc


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(DOCUMENTS)),
    command=st.sampled_from(["check", "validate"]),
)
def test_mutated_files_keep_the_exit_contract(workdir, data, name, command):
    doc, paths = DOCUMENTS[name]
    path = workdir / "mutated.json"
    path.write_text(json.dumps(_mutate(doc, paths, data)))
    sink = textio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main([command, str(path)])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_unmutated_files_pass(tmp_path, name):
    doc, _ = DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    command = "check" if name.endswith("certificate") else "validate"
    assert main([command, str(path)]) == 0


def _run(workdir, command, doc):
    """Exit code, wall time and stderr of ``command`` on ``doc``."""
    path = workdir / "case.json"
    path.write_text(json.dumps(doc))
    out, err = textio.StringIO(), textio.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return code, perf_counter() - start, err.getvalue()


BAD_RINGS = ["Q", "Fp:", "Fp:4", "Fp:-5", "FpG:x", "ZG", f"Fp:{2**61 - 1}", f"FpG:{2**61 - 1}"]


@pytest.mark.parametrize("ring", BAD_RINGS)
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_bad_ring_strings_exit_1_at_once(workdir, name, ring):
    doc = copy.deepcopy(DOCUMENTS[name][0])
    doc["ring"] = ring
    if ring == "ZG":
        del doc["group"]
    command = "check" if name.endswith("certificate") else "validate"
    code, elapsed, err = _run(workdir, command, doc)
    assert (code, err.startswith("error:")) == (1, True)
    assert elapsed < 1.0


def _swap_in_row(group):
    row = group["mult"][1]
    row[1], row[2] = row[2], row[1]


def _out_of_range(group):
    group["mult"][2][3] = group["order"]


def _wrong_identity(group):
    group["identity"] = "1"


def _ragged_row(group):
    group["mult"][4].pop()


@pytest.mark.parametrize("damage", [_swap_in_row, _out_of_range, _wrong_identity, _ragged_row])
def test_broken_cayley_tables_exit_1_at_once(workdir, damage):
    doc = copy.deepcopy(DOCUMENTS["ZS3-certificate"][0])
    assert doc["group"]["order"] == "6" and doc["group"]["identity"] == "0"
    damage(doc["group"])
    code, elapsed, err = _run(workdir, "check", doc)
    assert (code, err.startswith("error:")) == (1, True)
    assert "bad group table" in err
    assert elapsed < 1.0


def _f5_certificate_text():
    ring = PrimeField(5)
    pres = ModulePresentation(ring, 2, Matrix(ring, 2, 0, ()))
    first = generate_resolution(pres, n=3, max_rank=6, seed=1)
    second = generate_resolution(pres, n=3, max_rank=6, seed=2)
    return io.dump_canonical(io.certificate_document(total_equivalence(first, second)))


F5_TEXT = _f5_certificate_text()
# every digit matrix of the text, '[["' through the first ']]': the spans
# io.load lifts out whole
F5_SPANS = [m.span() for m in re.finditer(r'\[\["[0-9",\[\]]*?\]\]', F5_TEXT)]
EDIT_CHARS = '0123456789[]",: \nNaIe'


def _check_outcome(path):
    """Exit code, stdout and stderr of ``check`` on ``path``."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_the_f5_certificate_is_lifted():
    assert len(F5_SPANS) > 10
    assert io._lift_digit_matrices(F5_TEXT.encode()) is not None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_byte_edits_inside_lifted_spans_exit_as_the_plain_reading(workdir, data):
    start, end = data.draw(st.sampled_from(F5_SPANS))
    at = data.draw(st.integers(start, end - 1))
    kind = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    char = "" if kind == "delete" else data.draw(st.sampled_from(EDIT_CHARS))
    path = workdir / "edited.json"
    path.write_text(F5_TEXT[:at] + char + F5_TEXT[at + (kind != "insert") :])
    lifted = _check_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_lift_digit_matrices", lambda text: None)
        plain = _check_outcome(path)
    assert lifted[0] in (0, 1, 2)
    assert "Traceback" not in lifted[2]
    assert lifted == plain
