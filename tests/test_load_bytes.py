"""``io.load`` reads a file's bytes once and reads them as text mode does.

The oracle reads the file as ``open(path, encoding="utf-8").read()``
does (strict UTF-8, then universal newlines), parses that text with
``json.loads`` and reads the document with ``io._from_document``; a
decoding or parsing error is ``load``'s "not valid JSON" error. On files
with carriage returns, a byte-order mark, bytes that are not UTF-8 and
non-ASCII text in an F_p file, ``io.load`` must give an equal value, or
the same exception with the same text.

A matrix with several bad literals names the first in row-major order,
in every process whatever its hash seed.
"""

import json
import os
import re

import pytest

from chaincert import io
from chaincert.cli import main
from chaincert.matrix import Matrix
from chaincert.resolution import (
    ModulePresentation,
    canonical_resolution,
    generate_resolution,
    pad_top,
)
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField
from chaincert.stabilize import total_equivalence

from conftest import run_cli


def _bases():
    """Resolution and certificate texts over Z (always read plainly) and
    over F_5 (read with the digit matrices lifted out)."""
    f5 = PrimeField(5)
    texts = {}
    for name, pres in (
        ("Z", ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0]))),
        ("F5", ModulePresentation(f5, 2, Matrix(f5, 2, 0, ()))),
    ):
        first, second = (generate_resolution(pres, n=3, max_rank=6, seed=s) for s in (1, 2))
        texts[f"{name}-resolution"] = io.dump_canonical(io.resolution_document(first))
        cert = total_equivalence(first, second)
        texts[f"{name}-certificate"] = io.dump_canonical(io.certificate_document(cert))
    return texts


BASES = _bases()
NAMES = sorted(BASES)


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


def _text_mode_read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except ValueError as exc:
        raise io.MalformedFileError(f"not valid JSON: {exc}") from exc
    return io._from_document(doc)


def assert_reads_as_text_mode(tmp_path, data: bytes):
    path = tmp_path / "case.json"
    path.write_bytes(data)
    got = _outcome(io.load, str(path))
    assert got == _outcome(_text_mode_read, str(path))
    return got


def _in_first_matrix(text, separator):
    """``separator`` in place of the first comma between two cells of a
    matrix row, in the first matrix of two or more columns (over F_5 a
    digit matrix)."""
    match = re.search(r'\[\["[^"]*"(,)"', text)
    return text[: match.start(1)] + separator + text[match.end(1) :]


EDITS = {
    "unedited": lambda text: text.encode(),
    "CRLF line ending": lambda text: text.replace("\n", "\r\n").encode(),
    "CRLF after every comma": lambda text: text.replace(",", ",\r\n").encode(),
    "lone CR after every comma": lambda text: text.replace(",", ",\r").encode(),
    "CRLF inside a matrix": lambda text: _in_first_matrix(text, ",\r\n").encode(),
    "lone CR inside a matrix": lambda text: _in_first_matrix(text, "\r,").encode(),
    "CR inside a string": lambda text: text.replace('"kind":"', '"kind":"\r', 1).encode(),
    "CRLF, then truncated": lambda text: text.replace(",", ",\r\n")[: len(text)].encode(),
    "CR, then a bad value": lambda text: (
        text.replace(",", ",\r").replace('"kind"', '"kind":', 1).encode()
    ),
    "BOM": lambda text: b"\xef\xbb\xbf" + text.encode(),
    "byte 0xff": lambda text: text.encode().replace(b'"payload"', b'"pay\xffload"', 1),
    "truncated UTF-8 sequence": lambda text: text.encode()[:-1] + b"\xc3",
    "non-ASCII in a string": lambda text: (
        text.replace('"payload":{', '"payload":{"note":"é",', 1).encode()
    ),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("name", NAMES)
def test_files_read_as_text_mode_reads_them(tmp_path, name, edit):
    assert_reads_as_text_mode(tmp_path, EDITS[edit](BASES[name]))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "edit", ["CRLF after every comma", "lone CR after every comma", "CRLF inside a matrix"]
)
def test_carriage_returns_between_tokens_are_whitespace(tmp_path, name, edit):
    kind, obj = assert_reads_as_text_mode(tmp_path, EDITS[edit](BASES[name]))
    document = io.resolution_document if kind == "resolution" else io.certificate_document
    assert io.dump_canonical(document(obj)) == BASES[name]


@pytest.mark.parametrize("kind", ["resolution", "certificate"])
def test_only_ascii_fp_files_are_lifted(kind):
    text = BASES[f"F5-{kind}"]
    assert io._lift_digit_matrices(text.encode()) is not None
    assert io._lift_digit_matrices(EDITS["CRLF line ending"](text)) is not None
    for edit in ("non-ASCII in a string", "BOM", "byte 0xff"):
        assert io._lift_digit_matrices(EDITS[edit](text)) is None


def test_a_byte_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    data = EDITS["byte 0xff"](BASES["Z-certificate"])
    path = tmp_path / "not-utf8.json"
    path.write_bytes(data)
    assert main(["check", str(path)]) == 1
    at = data.index(b"\xff")
    assert capsys.readouterr().err == (
        f"error: not valid JSON: 'utf-8' codec can't decode byte 0xff in position {at}:"
        " invalid start byte\n"
    )


# ---------------------------------------------------------------------------
# the first bad literal, in every process


def test_the_first_faulty_cell_in_row_major_order_is_named():
    def error(data):
        with pytest.raises(io.MalformedFileError) as info:
            io.matrix_from_json(ZZ, 2, 2, data)
        return str(info.value)

    assert error([["1", "y2"], ["x1", "0"]]) == "bad literal 'y2'"
    assert error([["1", "x1"], [["1"], "y2"]]) == "bad literal 'x1'"
    assert error([["1", ["1"]], ["x1", "y2"]]) == "matrix entries must be string literals"
    assert error([["1", 7], ["x1", "y2"]]) == "expected a string literal, got 7"
    zc2 = GroupRing(ZZ, GroupTable.cyclic(2))
    with pytest.raises(io.MalformedFileError, match="^bad literal 'x1'$"):
        io.matrix_from_json(zc2, 1, 2, [[["0", "x1"], ["y2", "1"]]])


def _z_resolution_with_two_bad_literals() -> dict:
    pres = ModulePresentation(ZZ, 1, Matrix(ZZ, 1, 1, [2]))
    doc = io.resolution_to_json(generate_resolution(pres, n=2, max_rank=4, seed=7))
    row = doc["payload"]["augmentation"][0]
    row[:2] = ["x1", "y2"]
    return doc


def _group_ring_certificate_with_two_bad_coefficients() -> dict:
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    cells = next(m[0] for m in doc["payload"]["forward"] if m and m[0])
    cells[0] = ["x1", "y2"]
    return doc


@pytest.mark.parametrize(
    "command,document",
    [
        ("validate", _z_resolution_with_two_bad_literals),
        ("check", _group_ring_certificate_with_two_bad_coefficients),
    ],
    ids=["Z-resolution", "group-ring-certificate"],
)
def test_the_named_bad_literal_does_not_depend_on_the_hash_seed(tmp_path, command, document):
    path = tmp_path / "bad.json"
    path.write_text(io.dump_canonical(document()))
    errors = set()
    for seed in range(1, 9):
        env = {**os.environ, "PYTHONHASHSEED": str(seed)}
        run = run_cli([command, str(path)], env, capture_output=True, text=True)
        assert run.returncode == 1
        errors.add(run.stderr)
    assert errors == {"error: bad literal 'x1'\n"}
