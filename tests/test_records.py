"""Value semantics of the chain records ``ChainComplex``, ``ChainMap`` and
``TruncatedResolution``: frozen records that compare and hash by their
fields, keep lists as tuples, and refuse misshapen or mixed-ring input
with the messages below."""

import dataclasses

import pytest

from chaincert.chain import ChainComplex, ChainMap
from chaincert.matrix import Matrix, ShapeError
from chaincert.resolution import ModulePresentation, TruncatedResolution
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField, RingError

F3 = PrimeField(3)


def _m(ring, *rows):
    return Matrix.from_rows(ring, [list(row) for row in rows])


def _complex(d=2, ring=ZZ):
    return ChainComplex(ring, [1, 1], [_m(ring, [d])])


def _map(source, target, f0=1, f1=1, ring=ZZ):
    return ChainMap(source, target, [_m(ring, [f0]), _m(ring, [f1])])


def _resolution(relation=2, d=2, aug=1, ring=ZZ, cochain=False):
    pres = ModulePresentation(ring, 1, _m(ring, [relation]))
    return TruncatedResolution(pres, _complex(d, ring), _m(ring, [aug]), cochain)


# each pair differs in exactly one field, named first
DIFFERING = {
    "ChainComplex": [
        ("ring", ChainComplex(ZZ, [2], []), ChainComplex(F3, [2], [])),
        ("ranks", ChainComplex(ZZ, [1], []), ChainComplex(ZZ, [2], [])),
        ("diffs", _complex(2), _complex(4)),
    ],
    "ChainMap": [
        ("source", _map(_complex(2), _complex(2)), _map(_complex(4), _complex(2))),
        ("target", _map(_complex(2), _complex(2)), _map(_complex(2), _complex(4))),
        ("parts", _map(_complex(2), _complex(2)), _map(_complex(2), _complex(2), f1=3)),
    ],
    "TruncatedResolution": [
        ("presentation", _resolution(relation=2), _resolution(relation=4)),
        ("complex", _resolution(d=2), _resolution(d=4)),
        ("augmentation", _resolution(aug=1), _resolution(aug=3)),
        ("cochain", _resolution(ring=F3), _resolution(ring=F3, cochain=True)),
    ],
}

CASES = [
    pytest.param(field, a, b, id=f"{record}.{field}")
    for record, rows in DIFFERING.items()
    for field, a, b in rows
]


def _rebuilt_from_lists(record):
    """The same record built again, every sequence field given as a list."""
    values = {
        f.name: list(v) if isinstance(v := getattr(record, f.name), tuple) else v
        for f in dataclasses.fields(record)
    }
    return type(record)(**values)


@pytest.mark.parametrize("field, a, b", CASES)
def test_records_from_lists_equal_those_from_tuples_and_hash_alike(field, a, b):
    for record in (a, b):
        again = _rebuilt_from_lists(record)
        assert again == record
        assert hash(again) == hash(record)
        assert all(
            isinstance(getattr(again, f.name), tuple)
            for f in dataclasses.fields(again)
            if f.name in ("ranks", "diffs", "parts")
        )


@pytest.mark.parametrize("field, a, b", CASES)
def test_changing_one_field_makes_records_unequal(field, a, b):
    differing = [f.name for f in dataclasses.fields(a) if getattr(a, f.name) != getattr(b, f.name)]
    assert differing == [field]
    assert a != b and b != a


@pytest.mark.parametrize("field, a, b", CASES)
def test_records_are_frozen(field, a, b):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, field, getattr(b, field))
    assert getattr(a, field) != getattr(b, field)


def test_reprs_name_no_matrix():
    assert repr(_complex()) == "ChainComplex(Z, ranks=[1, 1])"
    assert repr(ChainComplex(F3, [2], [])) == "ChainComplex(F3, ranks=[2])"
    zc2 = GroupRing(ZZ, GroupTable.cyclic(2))
    assert repr(ChainComplex(zc2, [2], [])) == "ChainComplex(Z[G2], ranks=[2])"
    for record in (_map(_complex(), _complex()), _resolution()):
        assert "Matrix" not in repr(record)


def _refusals():
    """(message, exception type, construction) for every constructor check."""
    c1, c2 = _complex(), ChainComplex(ZZ, [1, 1, 0], [_m(ZZ, [2]), Matrix.zeros(ZZ, 1, 0)])
    pres = ModulePresentation(ZZ, 1, _m(ZZ, [2]))
    pres3 = ModulePresentation(F3, 1, _m(F3, [2]))
    one, one3, row = _m(ZZ, [1]), _m(F3, [1]), Matrix.zeros(ZZ, 1, 2)
    cases = {
        "a complex needs at least degree 0": (ShapeError, lambda: ChainComplex(ZZ, [], [])),
        "need one boundary per adjacent degree pair": (
            ShapeError, lambda: ChainComplex(ZZ, [1, 1], [])
        ),
        "boundary 1 has the wrong ring": (RingError, lambda: ChainComplex(ZZ, [1, 1], [one3])),
        "boundary 1 must be 1x2, got (1, 1)": (ShapeError, lambda: ChainComplex(ZZ, [1, 2], [one])),
        "chain map needs equal-length complexes": (ShapeError, lambda: ChainMap(c1, c2, [one] * 2)),
        "need one component per degree": (ShapeError, lambda: ChainMap(c1, c1, [one])),
        "component 1 must be 1x1": (ShapeError, lambda: ChainMap(c1, c1, [one, row])),
        "chain map component over the wrong ring": (
            RingError, lambda: ChainMap(c1, c1, [one3] * 2)
        ),
        "complex over the wrong ring": (RingError, lambda: TruncatedResolution(pres3, c1, one3)),
        "augmentation over the wrong ring": (
            RingError, lambda: TruncatedResolution(pres, c1, one3)
        ),
        "cochain orientation is available over prime fields only": (
            RingError, lambda: TruncatedResolution(pres, c1, one, cochain=True)
        ),
        "augmentation must be 1x1": (ShapeError, lambda: TruncatedResolution(pres, c1, row)),
    }
    return [pytest.param(message, *case, id=message) for message, case in cases.items()]


@pytest.mark.parametrize("message, error, build", _refusals())
def test_each_constructor_check_raises_its_message(message, error, build):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
