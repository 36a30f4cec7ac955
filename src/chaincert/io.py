"""On-disk JSON formats for resolutions and certificates.

Every file is UTF-8 JSON with top-level fields format_version, kind
("resolution" or "certificate"), ring, an embedded Cayley table for group
rings, and a kind-specific payload. All integers are decimal strings so
the format stays bit-exact across languages; group-ring elements are
arrays of base-ring strings in the table's element order. Serialization is
canonical (sorted keys, fixed separators), so identical data produces
byte-identical files.

Matrices are coded through tables, each a ``rings._Derived`` that stores
a pure function's value when a key is first looked up and stores nothing
when it raises. Reading maps a matrix's cells, in file order, through a
table of ``_literal``, which parses each literal once, so the first bad
literal is the one named. The
accepted literal language is exactly that of ``ring.parse`` (the base
ring's, for group-ring coefficients); a cell that is not a string, or a
literal ``ring.parse`` rejects, is a ``MalformedFileError``. An integer
literal may have at most ``sys.int_max_str_digits`` digits (4300 by
default), the most Python converts; longer ones are bad literals on
reading, and a write that meets one raises ``ValueError`` first.
Writing never builds the nested lists: the document builders
(``resolution_document``, ``certificate_document``) leave every matrix as
a ``Matrix`` leaf. The writer (``_emit``) appends the text of each node
to one list of pieces: a matrix's text is one piece, each row one join
over a table of entry texts (``_texts``), one table per ring and file,
which renders each distinct value once; a list of strings is one encoder
piece.
``dump_canonical`` joins the pieces once; ``save`` renders them all and
then writes them one by one, never joining the whole text.
``resolution_to_json`` and ``certificate_to_json`` return the plain
documents, rows of strings as parsing the file gives them back, by
reading that same text.

Matrices whose entries are single decimal digits take a byte path. Over
F_p with p <= 10 every canonical entry is a residue 0-9, whose text is
that one digit, so ``_digit_text`` maps the entries' bytes to ASCII
digits, writes them with one strided slice into the quoted cells of the
whole matrix and joins the rows; that is the text the table path writes,
and an entry in 10-255, which only an unchecked ``bytes`` argument to
``Matrix`` can hold, sends the matrix back to the table path. ``load``
reads a file once, as bytes, and such a matrix through its template
(``_template``). The search hops forward from each '[["': the first row
gives the shape's width, a strided look at the byte after each row its
height, and a span whose digits, zeroed, give the template of that shape
is lifted out whole, its digits taken by one strided slice per row. The
search goes on at the end of every span, lifted or not, so it is linear
in the text. The JSON parser reads only what is left
(``_lift_digit_matrices``), and the digits are mapped to their values by
one ``bytes.translate`` through the ring's table (``Ring.digit_values``).
Only the plain reading decodes the bytes, as text mode does. What is
accepted, and every error, stays the plain reading's.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from functools import partial

from .chain import ChainComplex
from .matrix import Matrix
from .resolution import ModulePresentation, TruncatedResolution
from .rings import ZZ, GroupRing, GroupTable, IntegerRing, PrimeField, Ring, RingError, _Derived
from .stabilize import EquivalenceCertificate

FORMAT_VERSION = 1
CERTIFICATE_VERSION = 1


class MalformedFileError(ValueError):
    """The file is not a well-formed document of the expected schema."""


def _int_in(value) -> int:
    if not isinstance(value, str):
        raise MalformedFileError(f"expected a decimal string, got {_shown(value)}")
    try:
        return int(value)
    except ValueError as exc:
        note = _over_limit(value)
        raise MalformedFileError(f"bad integer literal {_shown(value)}{note}") from exc


def _over_limit(text: str) -> str:
    """The note for a literal past Python's digit limit, else ""."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    digits = sum(map(str.isdigit, text))
    if limit and digits > limit:
        return f": {digits} digits, over the limit of {limit} (sys.int_max_str_digits)"
    return ""


# ---------------------------------------------------------------------------
# rings


def ring_to_json(ring: Ring) -> dict:
    if isinstance(ring, IntegerRing):
        return {"ring": "Z"}
    if isinstance(ring, PrimeField):
        return {"ring": f"Fp:{ring.p}"}
    if isinstance(ring, GroupRing):
        name = "ZG" if isinstance(ring.base, IntegerRing) else f"FpG:{ring.base.p}"
        return {
            "ring": name,
            "group": {
                "order": str(ring.group.order),
                "identity": str(ring.group.identity),
                "mult": [[str(x) for x in row] for row in ring.group.mult],
            },
        }
    raise RingError(f"unsupported ring {ring}")


def _prime_field(name: str, modulus: str) -> PrimeField:
    try:
        return PrimeField(int(modulus))
    except (ValueError, RingError) as exc:
        raise MalformedFileError(f"bad prime field {name!r}") from exc


def ring_from_json(doc: dict) -> Ring:
    name = doc.get("ring")
    if not isinstance(name, str):
        raise MalformedFileError("missing ring field")
    if name == "Z":
        return ZZ
    if name.startswith("Fp:"):
        return _prime_field(name, name[3:])
    if name == "ZG" or name.startswith("FpG:"):
        base = ZZ if name == "ZG" else _prime_field(name, name[4:])
        group_doc = doc.get("group")
        if not isinstance(group_doc, dict):
            raise MalformedFileError("group ring without a Cayley table")
        try:
            table = GroupTable(
                order=_int_in(group_doc["order"]),
                mult=tuple(
                    tuple(_int_in(x) for x in row) for row in group_doc["mult"]
                ),
                identity=_int_in(group_doc["identity"]),
            )
            table.validate()
        except (KeyError, TypeError) as exc:
            raise MalformedFileError("bad group table") from exc
        except RingError as exc:
            raise MalformedFileError(f"bad group table: {exc}") from exc
        return GroupRing(base, table)
    raise MalformedFileError(f"unknown ring {name!r}")


# ---------------------------------------------------------------------------
# matrices


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _literal(parse, text):
    """``parse(text)``; a ``text`` that is not a string, or that ``parse``
    rejects, is malformed. The reader looks literals up in
    ``_Derived(partial(_literal, parse))``, which parses each once."""
    if not isinstance(text, str):
        raise MalformedFileError(f"expected a string literal, got {_shown(text)}")
    try:
        return parse(text)
    except ValueError as exc:
        raise MalformedFileError(f"bad literal {_shown(text)}{_over_limit(text)}") from exc


def _texts(ring: Ring) -> _Derived:
    """{value: its JSON text}, each value rendered when first looked up: a
    quoted decimal, or over a group ring an array of them through the base
    ring's table. ``_pieces`` makes new tables for each file."""
    if isinstance(ring, GroupRing):
        coeffs = _texts(ring.base).__getitem__
        return _Derived(lambda value: "[" + ",".join(map(coeffs, value)) + "]")
    return _Derived(lambda value: '"' + ring.render(value) + '"')


# byte value -> ASCII digit for 0-9; every other byte maps to "?", which no
# digit text holds, so one search finds an entry that is not a single digit
_DIGIT_OF = bytes(range(48, 58)) + b"?" * 246

# ASCII digit -> "0", every other byte kept: a span whose image is the
# template of its shape is a digit matrix
_ZEROED = bytes.maketrans(b"0123456789", b"0" * 10)
# rows per strided look at the bytes after a digit matrix's rows: a slice
# to the end of the file would copy all that follows, one byte a row width
_ROWS = 64


def _template(rows: int, cols: int) -> bytearray:
    """The canonical JSON text of a ``rows`` x ``cols`` matrix (both at
    least 1) of single-digit entries, every digit written as "0": "[" then
    one '["0",...,"0"],' per row, the last row's "," becoming the outer
    array's "]". ``_lift_digit_matrices`` recognizes a matrix by it."""
    text = bytearray(b"[") + (b"[" + b'"0",' * (cols - 1) + b'"0"],') * rows
    text[-1] = ord("]")
    return text


def _digit_text(m: Matrix) -> str | None:
    """The canonical JSON text of ``m``, a matrix over F_p with p <= 10
    (entries stored as bytes), when every entry is in 0-9, else None. The
    digits are written by one strided slice into '"0",' repeated once per
    entry, whose rows, each without its last comma, are joined by "],["."""
    digits = m.entries.translate(_DIGIT_OF)
    if b"?" in digits:
        return None
    cells = bytearray(b'"0",') * len(digits)
    cells[1::4] = digits
    view, stride = memoryview(cells), 4 * m.cols
    rows = b"],[".join([view[i : i + stride - 1] for i in range(0, len(cells), stride)])
    return f"[[{rows.decode('ascii')}]]"


def _matrix_text(m: Matrix, texts: _Derived) -> str:
    """The canonical JSON text of ``m``: an array of rows, each an array of
    entries. Over F_p with p <= 10 every canonical entry is one digit, and
    the text is written from the entries' bytes (``_digit_text``);
    otherwise each row is one join over ``texts``, the file's table."""
    if not m.rows:
        return "[]"
    if not m.cols:
        return "[" + ",".join(["[]"] * m.rows) + "]"
    if isinstance(m.ring, PrimeField) and m.ring.p <= 10:
        text = _digit_text(m)
        if text is not None:
            return text
    cells = map(texts.__getitem__, m.entries)
    rows = map(",".join, zip(*[cells] * m.cols))  # consecutive runs of `cols`
    return "[[" + "],[".join(rows) + "]]"


def _digit_matrix(ring: Ring, rows: int, cols: int, lifted: tuple) -> Matrix:
    """The matrix of a digit matrix lifted out of the text: ``lifted`` is
    its (rows, cols, ASCII digits in row-major order). The digits are
    mapped by one ``bytes.translate`` through the values ``ring.parse``
    gives them (``ring.digit_values``), the values the literal table gives
    them."""
    if lifted[:2] != (rows, cols) or isinstance(ring, GroupRing):
        raise MalformedFileError(f"not a {rows}x{cols} matrix over {ring} of digits")
    return Matrix(ring, rows, cols, lifted[2].translate(ring.digit_values))


def matrix_from_json(ring: Ring, rows: int, cols: int, data) -> Matrix:
    if isinstance(data, list) and data and isinstance(data[0], list) and data[0]:
        if isinstance(data[0][0], tuple):  # JSON has no tuples: a lifted matrix
            return _digit_matrix(ring, rows, cols, data[0][0])
    if not isinstance(data, list) or len(data) != rows:
        raise MalformedFileError(f"matrix must have {rows} rows")
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise MalformedFileError(f"matrix row must have {cols} entries")
    cells = itertools.chain.from_iterable(data)
    if isinstance(ring, GroupRing):
        order = ring.group.order
        if not all(isinstance(cell, list) and len(cell) == order for cell in cells):
            raise MalformedFileError("group-ring entry must list one coefficient per element")
        literals = itertools.chain.from_iterable(itertools.chain.from_iterable(data))
        coeffs = map(_Derived(partial(_literal, ring.base.parse)).__getitem__, literals)
        values = zip(*[coeffs] * order)  # consecutive runs of `order`
    else:
        values = map(_Derived(partial(_literal, ring.parse)).__getitem__, cells)
    try:
        return Matrix(ring, rows, cols, tuple(values))
    except TypeError as exc:  # an unhashable cell
        raise MalformedFileError("matrix entries must be string literals") from exc
    except (ValueError, RingError) as exc:  # a bad literal's error too, same text
        raise MalformedFileError(str(exc)) from exc


# ---------------------------------------------------------------------------
# sub-documents shared by resolutions and certificates


def _fields(doc, what: str, *keys) -> list:
    """``doc[key]`` for each key in turn. A missing key, or a ``doc`` that
    cannot be indexed by one, is malformed: ``what``, then the lookup's
    error."""
    try:
        return [doc[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise MalformedFileError(f"{what}: {exc}") from exc


def _payload(doc: dict) -> dict:
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise MalformedFileError("missing payload")
    return payload


def _ranks_from_json(data) -> list[int]:
    if not isinstance(data, list) or not data:
        raise MalformedFileError("ranks must be a nonempty list")
    ranks = [_int_in(r) for r in data]
    lowest = min(ranks)
    if lowest < 0:
        raise MalformedFileError(f"negative rank {lowest}")
    return ranks


def _presentation_document(pres: ModulePresentation) -> dict:
    return {
        "ambient_rank": str(pres.ambient_rank),
        "relation_count": str(pres.relations.cols),
        "relations": pres.relations,
    }


def _presentation_from_json(ring: Ring, doc) -> ModulePresentation:
    ambient, rel_count, relations = _fields(
        doc, "bad presentation", "ambient_rank", "relation_count", "relations"
    )
    ambient = _int_in(ambient)
    relations = matrix_from_json(ring, ambient, _int_in(rel_count), relations)
    return ModulePresentation(ring, ambient, relations)


def _complex_document(c: ChainComplex) -> dict:
    """The ranks and the boundaries, stored top degree first."""
    return {
        "ranks": [str(r) for r in c.ranks],
        "boundaries": [c.d(i) for i in range(c.length, 0, -1)],
    }


def _complex_from_json(ring: Ring, doc) -> ChainComplex:
    ranks_doc, boundaries_doc = _fields(doc, "bad complex", "ranks", "boundaries")
    ranks = _ranks_from_json(ranks_doc)
    n = len(ranks) - 1
    if not isinstance(boundaries_doc, list) or len(boundaries_doc) != n:
        raise MalformedFileError(f"expected {n} boundaries")
    diffs = [
        matrix_from_json(ring, ranks[i - 1], ranks[i], boundaries_doc[n - i])
        for i in range(1, n + 1)
    ]
    return ChainComplex(ring, ranks, diffs)


# ---------------------------------------------------------------------------
# resolutions


def resolution_document(res: TruncatedResolution) -> dict:
    """The resolution file's document, matrices left as ``Matrix`` leaves
    for ``dump_canonical``."""
    doc = ring_to_json(res.ring)
    doc.update(
        {
            "format_version": str(FORMAT_VERSION),
            "kind": "resolution",
            "payload": {
                "presentation": _presentation_document(res.presentation),
                **_complex_document(res.complex),
                "augmentation": res.augmentation,
                "cochain": res.cochain,
            },
        }
    )
    return doc


def resolution_to_json(res: TruncatedResolution) -> dict:
    """The resolution file's document as plain JSON values."""
    return json.loads(dump_canonical(resolution_document(res)))


def resolution_from_json(doc: dict) -> TruncatedResolution:
    ring = ring_from_json(doc)
    payload = _payload(doc)
    pres_doc, augmentation_doc = _fields(
        payload, "missing resolution field", "presentation", "augmentation"
    )
    cochain = payload.get("cochain", False)
    if not isinstance(cochain, bool):
        raise MalformedFileError("cochain flag must be a boolean")
    pres = _presentation_from_json(ring, pres_doc)
    complex_ = _complex_from_json(ring, payload)
    aug_cols = complex_.ranks[-1] if cochain else complex_.ranks[0]
    augmentation = matrix_from_json(ring, pres.ambient_rank, aug_cols, augmentation_doc)
    try:
        return TruncatedResolution(pres, complex_, augmentation, cochain=cochain)
    except (ValueError, RingError) as exc:
        raise MalformedFileError(str(exc)) from exc


# ---------------------------------------------------------------------------
# certificates


def certificate_document(cert: EquivalenceCertificate) -> dict:
    """The certificate file's document, matrices left as ``Matrix`` leaves
    for ``dump_canonical``."""
    doc = ring_to_json(cert.source.ring)
    doc.update(
        {
            "format_version": str(FORMAT_VERSION),
            "kind": "certificate",
            "payload": {
                "certificate_version": str(CERTIFICATE_VERSION),
                "presentation": _presentation_document(cert.presentation),
                "source": _complex_document(cert.source),
                "target": _complex_document(cert.target),
                "forward": list(cert.fwd),
                "backward": list(cert.bwd),
                "source_homotopy": list(cert.src_homotopy),
                "target_homotopy": list(cert.tgt_homotopy),
                "tower_ranks": {
                    "t": [str(r) for r in cert.t_ranks],
                    "s": [str(r) for r in cert.s_ranks],
                },
                "block_isomorphisms": {
                    "forward": list(cert.iso_fwd),
                    "backward": list(cert.iso_bwd),
                },
            },
        }
    )
    return doc


def certificate_to_json(cert: EquivalenceCertificate) -> dict:
    """The certificate file's document as plain JSON values."""
    return json.loads(dump_canonical(certificate_document(cert)))


def certificate_from_json(doc: dict) -> EquivalenceCertificate:
    ring = ring_from_json(doc)
    payload = _payload(doc)
    version = payload.get("certificate_version")
    if version != str(CERTIFICATE_VERSION):
        raise MalformedFileError(
            f"certificate_version must be '{CERTIFICATE_VERSION}',"
            f" got {_shown(version)}"
        )
    pres_doc, source_doc, target_doc, fwd_doc, bwd_doc, s_doc, t_doc, towers = _fields(
        payload, "missing certificate field", "presentation", "source", "target",
        "forward", "backward", "source_homotopy", "target_homotopy", "tower_ranks",
    )
    try:  # a bad tower rank is named before a missing block list
        t_ranks = tuple(_int_in(r) for r in towers["t"])
        s_ranks = tuple(_int_in(r) for r in towers["s"])
        iso_fwd_doc = payload["block_isomorphisms"]["forward"]
        iso_bwd_doc = payload["block_isomorphisms"]["backward"]
    except (KeyError, TypeError) as exc:
        raise MalformedFileError(f"missing certificate field: {exc}") from exc
    stage_doc = payload.get("stage_report", [])

    presentation = _presentation_from_json(ring, pres_doc)
    source = _complex_from_json(ring, source_doc)
    target = _complex_from_json(ring, target_doc)
    if source.length != target.length:
        raise MalformedFileError("source and target lengths differ")
    n = source.length
    if len(t_ranks) != n + 1 or len(s_ranks) != n + 1:
        raise MalformedFileError("tower ranks must cover every degree")

    src, tgt = source.ranks, target.ranks
    e = [t + s for t, s in zip(t_ranks, s_ranks)]
    parts = []
    for data, shapes in (
        (fwd_doc, list(zip(tgt, src))),
        (bwd_doc, list(zip(src, tgt))),
        (s_doc, list(zip(src[1:], src))),
        (t_doc, list(zip(tgt[1:], tgt))),
        (iso_fwd_doc, list(zip(e, e))),
        (iso_bwd_doc, list(zip(e, e))),
    ):
        if not isinstance(data, list) or len(data) != len(shapes):
            raise MalformedFileError(f"expected {len(shapes)} matrices")
        parts.append(tuple(matrix_from_json(ring, r, c, x) for (r, c), x in zip(shapes, data)))
    fwd, bwd, s_parts, t_parts, iso_fwd, iso_bwd = parts

    # older writers stored a stage report; it is shape-checked and dropped
    if not isinstance(stage_doc, list):
        raise MalformedFileError("stage_report must be a list")
    for item in stage_doc:
        if not isinstance(item, dict) or "name" not in item or "ok" not in item:
            raise MalformedFileError("bad stage report entry")

    return EquivalenceCertificate(
        presentation, source, target, fwd, bwd, s_parts, t_parts, t_ranks, s_ranks, iso_fwd, iso_bwd
    )


# ---------------------------------------------------------------------------
# files


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(node, out: list, tables: _Derived) -> None:
    """Append the pieces of ``json.dumps(node, sort_keys=True,
    separators=(",", ":"))`` to ``out``, with each ``Matrix`` leaf written
    by ``_matrix_text`` through ``tables[ring]``, the file's ``_texts``
    table for its ring. Dicts (whose keys must be strings), and lists and
    tuples that hold anything but strings, are taken apart here; every
    other node is one encoder call."""
    if isinstance(node, Matrix):
        out.append(_matrix_text(node, tables[node.ring]))
    elif isinstance(node, dict):
        if not all(isinstance(key, str) for key in node):
            raise TypeError("a document's dict keys must be strings")
        opening = "{"
        for key in sorted(node):
            out.append(opening + _ENCODER.encode(key) + ":")
            _emit(node[key], out, tables)
            opening = ","
        out.append("{}" if opening == "{" else "}")
    elif isinstance(node, (list, tuple)) and not all(isinstance(x, str) for x in node):
        opening = "["
        for item in node:
            out.append(opening)
            _emit(item, out, tables)
            opening = ","
        out.append("]")
    else:
        out.append(_ENCODER.encode(node))


def _pieces(doc) -> list[str]:
    """The file text of ``doc`` as a list of pieces, in order."""
    out: list[str] = []
    _emit(doc, out, _Derived(_texts))
    out.append("\n")
    return out


def dump_canonical(doc) -> str:
    """The file text of ``doc``: canonical JSON (sorted keys, fixed
    separators) and a newline. ``Matrix`` leaves are rendered straight from
    their entries; every other node is written as ``json.dumps`` writes it."""
    return "".join(_pieces(doc))


def save(path: str, doc: dict) -> None:
    """Write ``doc``'s file text to ``path``, atomically: the text is
    rendered first, piece by piece (``_pieces``), then written one piece
    at a time to a new temporary file in the directory of the file
    ``path`` names (symbolic links followed) and moved over that file by
    ``os.replace``. A render or a write that raises leaves any earlier
    file as it was and no temporary file behind. The file gets the mode a
    new file from ``open(path, "w")`` gets, 0o666 less the umask. A
    ``path`` that names something other than a regular file, such as
    ``/dev/null`` or a pipe, is written in place."""
    pieces = _pieces(doc)
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
        return
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the caller's path, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _lift_digit_matrices(data: bytes):
    """The file's bytes ``data`` parsed as JSON with each digit matrix the
    writer wrote, the text of its ``_template`` with digits in place of the
    zeros, lifted out whole, or None where nothing is lifted.

    Only ASCII text that ends, but for whitespace, as an F_p file with
    p < 10 does ('"ring":"Fp:p"}', p one character) and holds no NaN or
    Infinity is lifted. The first ']' after a '[["' closes a first row, and
    the last '[["' before that ']' starts the span, since a digit matrix's
    first row holds no other. The row gives ``cols`` and the row width
    ``4 * cols + 2``, or ends the span where its length is not of that
    form; a strided look at the byte after each row (',' before another
    row, ']' after the last), ``_ROWS`` rows to a slice, gives ``rows``.
    The span is a digit matrix when zeroing its digits gives the template
    of that shape; its digits are then one strided slice per row. Either
    way the search goes on at the byte that ended the span, so no byte is
    in two spans and the search takes time linear in the text. A digit
    matrix that starts inside a span that is not one is left to the
    parser; in the writer's files every '[["' starts a digit matrix. The
    parser reads the text with each such span replaced by "[[NaN]]", the same
    array depth, so its nesting limit acts as on the text, and the
    ``parse_constant`` hook hands back (rows, cols, digits) for each in
    text order; the document holds the tuple where the matrix was, inside
    two lists, and only ``matrix_from_json`` accepts that. A span the
    parser reads inside a string (the text is then not valid JSON) leaves
    its tuple unclaimed; that, or a skeleton that does not parse, gives
    None. No newline is translated: outside strings "\\r" is whitespace, as "\\n" is."""
    tail = data[-64:].rstrip()[-14:]
    if not (tail[:11] == b'"ring":"Fp:' and tail[12:] == b'"}' and data.isascii()):
        return None
    pieces, lifted = [], []
    copied = first = 0
    while (first := data.find(b'[["', first)) >= 0:
        if (close := data.find(b"]", first)) < 0:
            break
        # a digit matrix's first row holds no other '[["'
        first = data.rfind(b'[["', first, close)
        cols, extra = divmod(close - first - 1, 4)
        if extra:
            first = close
            continue
        width, end = 4 * cols + 2, close + 1
        # `end` steps over the ',' after each row, _ROWS rows to a slice
        while (seps := data[end : end + _ROWS * width : width]) == b"," * _ROWS:
            end += _ROWS * width
        end += (len(seps) - len(seps.lstrip(b","))) * width
        span, rows = data[first : end + 1], (end - first) // width
        if span.translate(_ZEROED) == _template(rows, cols):
            pieces += (data[copied:first], b"[[NaN]]")
            digits = [span[o : o + 4 * cols : 4] for o in range(3, len(span), width)]
            lifted.append((rows, cols, b"".join(digits)))
            copied = end + 1
        first = end
    skeleton = b"".join([*pieces, data[copied:]])
    # no span holds a letter, so the text holds NaN or Infinity exactly
    # where the skeleton holds more than the spans' places
    if not lifted or skeleton.count(b"NaN") != len(lifted) or b"Infinity" in skeleton:
        return None
    claims = iter(lifted)
    try:
        doc = json.loads(skeleton.decode("ascii"), parse_constant=partial(next, claims))
    except (ValueError, RecursionError):
        return None
    if next(claims, None) is not None:
        return None
    return doc


def _parse_json(data: bytes):
    """The document in ``data``, decoded as text mode decodes a file: strict
    UTF-8, then universal newlines; the parser is given the ``str``."""
    try:
        text = data.decode("utf-8")
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
    # bad UTF-8, bad JSON, over-long JSON numbers, nesting past the parser's depth
    except (ValueError, RecursionError) as exc:
        raise MalformedFileError(f"not valid JSON: {exc}") from exc


def load(path: str):
    """Parse a file into ("resolution", TruncatedResolution) or
    ("certificate", EquivalenceCertificate).

    The file is read once, as bytes. The document with digit matrices
    lifted out (``_lift_digit_matrices``) is read if there is one and
    reading it raises nothing; else the plain document (``_parse_json``)
    is, so what is accepted, and every error, is the plain reading's."""
    with open(path, "rb") as fh:
        data = fh.read()
    lifted = _lift_digit_matrices(data)
    if lifted is not None:
        try:
            return _from_document(lifted)
        except Exception:  # reported as the plain document's failure, below
            pass
    return _from_document(_parse_json(data))


def _from_document(doc):
    if not isinstance(doc, dict):
        raise MalformedFileError("top level must be an object")
    if doc.get("format_version") != str(FORMAT_VERSION):
        raise MalformedFileError("missing or unsupported format_version")
    kind = doc.get("kind")
    if kind == "resolution":
        return kind, resolution_from_json(doc)
    if kind == "certificate":
        return kind, certificate_from_json(doc)
    raise MalformedFileError(f"unknown kind {kind!r}")
