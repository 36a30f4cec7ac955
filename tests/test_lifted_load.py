"""``io.load`` with digit matrices lifted out of the text reads every
file as the plain JSON reading does.

Over F_p with p <= 10 the writer writes each matrix as its digit
template with the digits in place, and ``io.load`` lifts such spans out
whole before the JSON parser runs (``io._lift_digit_matrices``). The
oracle is the same ``io.load`` with the lifting patched off, called from
the same frame, so it runs at the same stack depth and meets the
parser's nesting limit at the same depth. Each case must give equal
objects, or the same exception with the same text.
"""

import json
import re
from functools import partial
from time import perf_counter

import pytest

from chaincert import io
from chaincert.cli import main
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, generate_resolution
from chaincert.rings import GroupRing, GroupTable, PrimeField
from chaincert.stabilize import total_equivalence

PRIMES = [2, 3, 5, 7]


def _bases():
    texts = {}
    for p in PRIMES:
        ring = PrimeField(p)
        pres = ModulePresentation(ring, 2, Matrix(ring, 2, 0, ()))
        first = generate_resolution(pres, n=3, max_rank=6, seed=p)
        second = generate_resolution(pres, n=3, max_rank=6, seed=p + 100)
        texts[f"F{p}-resolution"] = io.dump_canonical(io.resolution_document(first))
        cert = total_equivalence(first, second)
        texts[f"F{p}-certificate"] = io.dump_canonical(io.certificate_document(cert))
    return texts


BASES = _bases()
NAMES = sorted(BASES)


def outcome(path):
    try:
        return io.load(str(path))
    except Exception as exc:
        return type(exc), str(exc)


def assert_reads_as_the_plain_path(tmp_path, text, lifts=None):
    path = tmp_path / "case.json"
    path.write_text(text, encoding="utf-8")
    got = outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_lift_digit_matrices", lambda text: None)
        want = outcome(path)
    assert got == want
    if lifts is not None:
        assert (io._lift_digit_matrices(path.read_bytes()) is not None) == lifts
    return got


# ---------------------------------------------------------------------------
# edits of a base text


def _suffix(text):
    """The canonical text's ending: the ring, the closing brace, a newline."""
    match = re.search(r'"ring":"Fp:\d"\}\n\Z', text)
    assert match
    return match.start()


def _insert_in_payload(text, member):
    return text.replace('"payload":{', '"payload":{' + member + ",", 1)


def _hide_ring(ring, extra=""):
    """The last key becomes x\\"ring, so the text still ends as an F_p file
    does, and ``ring`` is the ring read."""

    def edit(text):
        at = _suffix(text)
        p = text[at:].split(":")[2][0]
        return text[:at] + extra + f'"ring":"{ring}","x\\"ring":"Fp:{p}"}}\n'

    return edit


def _ragged_row(text):
    match = re.search(r'(,"\d")"?\],\["', text)
    return text[: match.start(1)] + text[match.end(1) :]


def _replace_ranks(text):
    return re.sub(r'"ranks":\[[^\]]*\]', '"ranks":[["1","2"],["0","1"]]', text, count=1)


def _replace_tower_ranks(text):
    return re.sub(r'"t":\[[^\]]*\]', '"t":[["1","2"]]', text, count=1)


def _reshaped_span(text):
    """The first digit matrix of more than one entry, replaced by a zero
    matrix of as many entries in another shape: the transposed one, or
    one row for a square matrix."""
    for match in re.finditer(r'\[\["[0-9",\[\]]*?\]\]', text):
        rows = json.loads(match.group())
        r, c = len(rows), len(rows[0])
        if r * c > 1:
            shape = (c, r) if r != c else (1, r * c)
            span = json.dumps([["0"] * shape[1]] * shape[0], separators=(",", ":"))
            return text[: match.start()] + span + text[match.end() :]
    raise AssertionError("no digit matrix has two entries")


def _non_ascii_digit(text):
    # int() reads the Arabic-Indic digit three as 3
    return re.sub(r'\[\["\d"', '[["\u0663"', text, count=1)


def _digits(rows, cols):
    return json.dumps([[str(i % 10) for i in range(cols)]] * rows, separators=(",", ":"))


# JSON values for the span rule, each with the number of digit matrices
# the lifted reading takes out of it; the row scan looks at io._ROWS rows
# at a time
SPANS = {
    "one-column matrix": ('[["1"],["2"],["3"]]', 1),
    "one-row matrix": ('[["1","2","3"]]', 1),
    **{
        f"{rows} rows": (_digits(rows, 2), 1)
        for chunks in (1, 2)
        for rows in (chunks * io._ROWS - 1, chunks * io._ROWS, chunks * io._ROWS + 1)
    },
    "two digit matrices back to back": ('[[["1"]],[["2","3"]]]', 2),
    "digit rows, then a number row as wide": ('[["1"],["2"],[333]]', 0),
    "digit rows, then a two-digit row as wide": ('[["1"],["2"],["33"]]', 0),
    "digit rows, then a row of another width": ('[["1"],["2"],[3]]', 0),
    "a middle row one digit short": ('[["1","2"],["3"],["4","5"]]', 0),
    "a row one digit long": ('[["1","2"],["3","4","5"]]', 0),
    "'[[\"' inside a string before a matrix": ('["[[",[["1","2"]]]', 1),
    "'[[\"' inside a string before a wider matrix": ('["x[[",[["1","2","3","4","5"]]]', 1),
    # the search goes on at the byte that ended a span that is not a digit
    # matrix: a matrix starting there is lifted, one inside it is parsed
    "a digit matrix at the end of a rejected span": ('[[["1"],["2"],[3]],[["4"]]]', 1),
    "a digit matrix inside a rejected span": ('[["1"],[["2"]],["3"]]', 0),
    # a first row whose length fits no column count ends its span
    "a digit matrix after a first row of no row width": ('[["12"],["3"],[["4"]]]', 1),
}


def _ends_inside_a_matrix(text):
    """The text cut after the first row of its last digit matrix, then the
    ring: the file ends inside that matrix."""
    at = text.rindex('"]]') + 3
    return text[: text.index('],["', text.rindex('[["', 0, at)) + 2] + text[_suffix(text) :]


EDITS = {
    "unedited": (lambda text: text, True),
    "reindented": (lambda text: json.dumps(json.loads(text), indent=2, sort_keys=True), False),
    "spaced rows": (lambda text: text.replace('","', '", "'), False),
    "span inside a string": (lambda text: text.replace('"kind":"', '"kind":"[["1"]]', 1), False),
    "ragged row": (_ragged_row, None),
    "reshaped digit matrix": (_reshaped_span, True),
    "digit 7": (lambda text: re.sub(r'\[\["\d"', '[["7"', text, count=1), True),
    "NaN elsewhere": (lambda text: _insert_in_payload(text, '"extra":NaN'), False),
    "Infinity elsewhere": (lambda text: _insert_in_payload(text, '"extra":[Infinity]'), False),
    "-Infinity elsewhere": (lambda text: _insert_in_payload(text, '"extra":-Infinity'), False),
    "NaN in a key": (lambda text: _insert_in_payload(text, '"NaN":[["1"]]'), False),
    "duplicate key, overridden": (
        lambda text: _insert_in_payload(text, '"presentation":[["1","2"]]'),
        True,
    ),
    "duplicate key, overriding": (
        lambda text: text.replace('},"ring":', ',"presentation":[["1","2"]]},"ring":', 1),
        True,
    ),
    "duplicate top-level ring": (lambda text: '{"ring":"Z",' + text[1:], True),
    "non-ASCII elsewhere": (lambda text: _insert_in_payload(text, '"note":"\u00e9"'), False),
    "non-ASCII digit": (_non_ascii_digit, False),
    "BOM": (lambda text: "\ufeff" + text, False),
    "hidden ring Z": (_hide_ring("Z"), True),
    "hidden ring F3": (_hide_ring("Fp:3"), True),
    "hidden ring F13": (_hide_ring("Fp:13"), True),
    "hidden ring F2^31-1": (_hide_ring(f"Fp:{2**31 - 1}"), True),
    "hidden group ring": (
        _hide_ring("FpG:2", '"group":{"identity":"0","mult":[["0","1"],["1","0"]],"order":"2"},'),
        True,
    ),
    "group ring without a table": (_hide_ring("FpG:2"), True),
    "ring Fp:4": (lambda text: text[: _suffix(text)] + '"ring":"Fp:4"}\n', True),
    "digit matrix as ranks": (_replace_ranks, True),
    "digit matrix as tower ranks": (_replace_tower_ranks, True),
    "digit matrix as stage report": (
        lambda text: _insert_in_payload(text, '"stage_report":[["1","0"]]'),
        True,
    ),
    "digit matrix in a stage report entry": (
        lambda text: _insert_in_payload(text, '"stage_report":[{"name":[["1"]],"ok":true}]'),
        True,
    ),
    "not an object": (lambda text: '[["1"]]\n', False),
    "truncated": (lambda text: text[: len(text) // 2], None),
    "ends inside a matrix": (_ends_inside_a_matrix, False),
    "digit matrices back to back, no comma": (
        lambda text: _insert_in_payload(text, '"extra":[[["1"]][["2"]]]'),
        False,
    ),
    **{
        f"span rule: {name}": (partial(_insert_in_payload, member=f'"extra":{value}'), True)
        for name, (value, _) in SPANS.items()
    },
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("name", NAMES)
def test_edited_files_read_as_the_plain_path_reads_them(tmp_path, name, edit):
    change, lifts = EDITS[edit]
    assert_reads_as_the_plain_path(tmp_path, change(BASES[name]), lifts)


def _expanded(node):
    """The document with each lifted (rows, cols, digits), held inside two
    lists, written back as the rows of digit strings it stands for."""
    if isinstance(node, dict):
        return {key: _expanded(value) for key, value in node.items()}
    if isinstance(node, list) and node and isinstance(node[0], list) and node[0]:
        if isinstance(node[0][0], tuple):
            rows, cols, digits = node[0][0]
            text = digits.decode()
            return [list(text[i : i + cols]) for i in range(0, rows * cols, cols)]
    return [_expanded(value) for value in node] if isinstance(node, list) else node


def _lifted_count(node) -> int:
    if isinstance(node, dict):
        return sum(map(_lifted_count, node.values()))
    if isinstance(node, list):
        return sum(map(_lifted_count, node))
    return isinstance(node, tuple)


@pytest.mark.parametrize("name", sorted(SPANS))
def test_the_span_rule_lifts_exactly_the_digit_matrices(name):
    value, count = SPANS[name]
    text = '{"a":' + value + ',"ring":"Fp:5"}\n'
    doc = io._lift_digit_matrices(text.encode())
    if not count:
        assert doc is None
        return
    assert _lifted_count(doc) == count
    assert _expanded(doc) == json.loads(text)


def test_a_row_scan_that_runs_off_the_end_lifts_nothing():
    """The bytes after the first row are a ',' and then, one row width on,
    past the end of the file."""
    text = b'{"a":[["1","2","3","4"],"ring":"Fp:5"}'
    assert len(text) - text.index(b"],") < 4 * 4 + 2
    assert io._lift_digit_matrices(text) is None


def _staggered_first_rows(width: int, count: int, tail: int) -> bytes:
    """``count`` first rows of ``width`` bytes, '[["', commas and ']', their
    ']' five bytes apart modulo ``width``, then ``tail`` commas: from each
    first row a row scan runs through the rows after it and all the commas,
    and the first span holds them all."""
    rows = (b'[["' + b"," * (width - 4) + b"]" + b",,,,,") * count
    return b'{"a":' + rows + b"," * tail + b']"ring":"Fp:5"}'


@pytest.mark.parametrize(
    "text",
    [b'[["' * 300_000 + b']"ring":"Fp:5"}', _staggered_first_rows(2002, 400, 1_600_000)],
    ids=["many '[[\"' before one ']'", "staggered first rows"],
)
def test_the_search_is_bounded_on_hostile_text(tmp_path, capsys, text):
    """No byte is in two spans. A search that looked for a span again inside
    one that is not a digit matrix takes seconds on these files: in the
    first, a slice per '[["' up to the one ']'; in the second, a slice,
    zeroing and template per first row up to the end of the commas."""
    path = tmp_path / "hostile.json"
    path.write_bytes(text)
    start = perf_counter()
    assert main(["check", str(path)]) == 1
    assert perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert len(captured.out) + len(captured.err) < 1024


@pytest.mark.parametrize("name", NAMES)
def test_base_files_are_lifted_and_read_back(tmp_path, name):
    got = assert_reads_as_the_plain_path(tmp_path, BASES[name], lifts=True)
    kind, obj = got
    assert kind == name.split("-")[1]
    document = io.resolution_document if kind == "resolution" else io.certificate_document
    assert io.dump_canonical(document(obj)) == BASES[name]


@pytest.mark.parametrize(
    "ring,rows,cols",
    [
        (PrimeField(5), 2, 3),
        (PrimeField(5), 3, 2),
        (PrimeField(5), 1, 6),
        (GroupRing(PrimeField(5), GroupTable.cyclic(2)), 3, 2),
    ],
)
def test_a_lifted_matrix_is_read_only_at_its_shape_and_over_no_group_ring(ring, rows, cols):
    lifted = (3, 2, b"102030")
    if (rows, cols) == (3, 2) and not isinstance(ring, GroupRing):
        assert io.matrix_from_json(ring, rows, cols, [[lifted]]).entries == bytes([1, 0, 2, 0, 3, 0])
    else:
        with pytest.raises(io.MalformedFileError):
            io.matrix_from_json(ring, rows, cols, [[lifted]])


def _nested(depth: int) -> str:
    """A digit matrix inside ``depth`` arrays, in an F_5 file."""
    return '{"a":' + "[" * depth + '[["1","2"]]' + "]" * depth + ',"ring":"Fp:5"}\n'


def test_nesting_around_the_parser_limit(tmp_path):
    """The depth at which the plain reading first fails is found with the
    oracle itself; one below it, at it and one above it, both readings
    agree, the lifted one lifting the innermost matrix while it parses."""

    def plain_fails(depth):
        path = tmp_path / "probe.json"
        path.write_text(_nested(depth))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io, "_lift_digit_matrices", lambda text: None)
            result = outcome(path)
        return "recursion" in result[1]

    low, high = 1, 1
    while not plain_fails(high):
        low, high = high, high * 2
    while high - low > 1:  # plain_fails(high) and not plain_fails(low)
        mid = (low + high) // 2
        low, high = (low, mid) if plain_fails(mid) else (mid, high)
    results = []
    for depth in (high - 2, high - 1, high, high + 1):  # a loop: no frame of its own
        results.append(assert_reads_as_the_plain_path(tmp_path, _nested(depth)))
    assert [r[1] for r in results[:2]] == ["missing or unsupported format_version"] * 2
    assert all("recursion" in r[1] for r in results[2:])
