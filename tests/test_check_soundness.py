"""``check`` refuses a certificate that breaks any one identity family.

Each row bumps one stored entry of a valid certificate, over Z, F_5 or the
group ring F_2[C_4], so that one identity of the named family fails, runs
``chaincert check`` on the file, and asserts exit 2, that family first
among the ``[FAIL]`` lines, and that identity among them. A failed matrix
identity names its first differing entry, both values rendered by
``ring.render``; the tower-rank recursion compares ranks and has no entry
to name.

The edited presentation, which no v1 check reads, is the strict expected
failure in ``tests/test_io_cli.py``.
"""

import itertools
import json
import re

import pytest

from chaincert import io
from chaincert.cli import main
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, generate_resolution, pad_top
from chaincert.rings import ZZ, GroupRing, PrimeField
from chaincert.stabilize import total_equivalence

from conftest import f2c4_resolution

F5 = PrimeField(5)


def _generated_pair(pres):
    return [generate_resolution(pres, n=3, max_rank=5, seed=seed) for seed in (7, 8)]


PAIRS = {
    "Z": lambda: _generated_pair(ModulePresentation(ZZ, 1, Matrix(ZZ, 1, 1, [2]))),
    "F5": lambda: _generated_pair(ModulePresentation(F5, 2, Matrix.zeros(F5, 2, 0))),
    "F2C4": lambda: [f2c4_resolution(3), pad_top(f2c4_resolution(3), 1)],
}


def _at(payload: dict, path: list):
    for key in path:
        payload = payload[key]
    return payload


def _nonzero(cell) -> bool:
    """A stored entry, or a row of them, is nonzero; a group-ring entry is
    its list of coefficients."""
    return any(map(_nonzero, cell)) if isinstance(cell, list) else int(cell) != 0


def _plus_one(cell, ring):
    """A stored entry plus the ring's one: over a group ring, one added to
    the coefficient of the identity element."""
    if isinstance(ring, GroupRing):
        at = ring.group.identity
        return [_plus_one(c, ring.base) if g == at else c for g, c in enumerate(cell)]
    value = int(cell) + 1
    return str(value % ring.p if isinstance(ring, PrimeField) else value)


def _bump_left_factor(a: list, b: list, ring) -> None:
    """Add one to a[0][c] for the first c where row c of b is nonzero, so
    that the product a.b changes by that row (in row 0)."""
    c = next(c for c, row in enumerate(b) if _nonzero(row))
    a[0][c] = _plus_one(a[0][c], ring)


def _renderings(ring) -> set:
    """``ring.render`` of every element of a finite group ring."""
    coefficients = range(ring.base.p)
    return {ring.render(x) for x in itertools.product(coefficients, repeat=ring.group.order)}


def _shift_tower(payload: dict) -> None:
    """Move one unit of degree 0 from s to t: the blocks keep their side,
    so the file still parses, but t_0 is no longer p_0."""
    towers = payload["tower_ranks"]
    towers["t"][0] = str(int(towers["t"][0]) + 1)
    towers["s"][0] = str(int(towers["s"][0]) - 1)


# family: the stored matrix a to bump so that the stored product a.b
# changes, b, and the name of the check that fails; a file lists a
# complex's boundaries from the top down, so d_1 is the last
ROWS = {
    "d.d on the first complex": (
        ["source", "boundaries", -1], ["source", "boundaries", -2], "first complex: d1.d2 = 0"
    ),
    "d.d on the second complex": (
        ["target", "boundaries", -1], ["target", "boundaries", -2], "second complex: d1.d2 = 0"
    ),
    "forward square": (
        ["forward", 0], ["source", "boundaries", -1], "forward map: square at degree 1"
    ),
    "backward square": (
        ["backward", 0], ["target", "boundaries", -1], "backward map: square at degree 1"
    ),
    "source homotopy": (
        ["source_homotopy", 0],
        ["source", "boundaries", -1],
        "source homotopy: homotopy identity at degree 1",
    ),
    "target homotopy": (
        ["target_homotopy", 0],
        ["target", "boundaries", -1],
        "target homotopy: homotopy identity at degree 1",
    ),
    "tower-rank recursion": (None, None, "tower rank recursion"),
    "block pair": (
        ["block_isomorphisms", "forward", 0],
        ["block_isomorphisms", "backward", 0],
        "block pair mutually inverse at degree 0",
    ),
}

DETAIL = re.compile(r"entry \(\d+, \d+\) is (.+), not (.+)")


@pytest.mark.parametrize("family", list(ROWS))
@pytest.mark.parametrize("ring", list(PAIRS))
def test_check_refuses_each_broken_identity_family(tmp_path, capsys, ring, family):
    pair = PAIRS[ring]()
    ring = pair[0].ring
    doc = json.loads(io.dump_canonical(io.certificate_document(total_equivalence(*pair))))
    a, b, name = ROWS[family]
    payload = doc["payload"]
    if a is None:
        _shift_tower(payload)
    else:
        _bump_left_factor(_at(payload, a), _at(payload, b), ring)
    path = tmp_path / "cert.json"
    path.write_text(io.dump_canonical(doc))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed[0].startswith(f"[FAIL] {name.split(':')[0]}")
    line = next(line for line in failed if line.startswith(f"[FAIL] {name}"))
    if a is not None:
        values = DETAIL.fullmatch(line.removeprefix(f"[FAIL] {name}: ")).groups()
        assert values[0] != values[1]
        if isinstance(ring, GroupRing):
            assert set(values) <= _renderings(ring)
