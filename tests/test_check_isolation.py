"""``check`` runs no construction.

Every construction entry point is replaced, at each ``chaincert`` module
binding that holds it (as perfbench's tracer finds them), by a function
that records the call and raises. ``check`` must still accept valid
certificates over Z, F_5, F_2[C_4] and Z[S_3], and still refuse each of
them with one block entry bumped. So what it trusts is products,
comparisons and shape checks, never a solve, a Hermite or Smith form, a
field rank or row reduction, a lift, a resolution's validation or a
generator.

Nor does it build the chain-object layer: ``make_equivalence``, at every
binding, and the ``ChainMap`` and ``HomotopyEquivalence`` constructors
raise too. ``check`` reads the stored ranks and matrices as they are.
"""

import dataclasses
import sys

import pytest

from chaincert import io
from chaincert.chain import ChainMap, HomotopyEquivalence
from chaincert.cli import main
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, generate_resolution, pad_top
from chaincert.rings import ZZ, PrimeField
from chaincert.stabilize import total_equivalence

from conftest import f2c4_resolution, s3_resolution

CONSTRUCTION = [
    ("chaincert.matrix", "solve"),
    ("chaincert.matrix", "hnf"),
    ("chaincert.matrix", "_hermite"),
    ("chaincert.matrix", "snf"),
    ("chaincert.matrix", "cokernel_invariants"),
    ("chaincert.matrix", "rank_field"),
    ("chaincert.matrix", "kernel_basis"),
    ("chaincert._kernels", "rref_mod"),
    ("chaincert.resolution", "validate_resolution"),
    ("chaincert.stabilize", "_lift"),
    ("chaincert.stabilize", "_assemble"),
    ("chaincert.stabilize", "_blocks"),
    ("chaincert.stabilize", "build_ladder_maps"),
    ("chaincert.stabilize", "inverse_pair"),
    ("chaincert.stabilize", "total_equivalence"),
    ("chaincert.resolution", "generate_resolution"),
]

CHAIN_OBJECTS = [("chaincert.chain", "make_equivalence")]
CHAIN_CLASSES = [ChainMap, HomotopyEquivalence]


F5 = PrimeField(5)


def _generated_pair(pres):
    return tuple(generate_resolution(pres, n=3, max_rank=5, seed=seed) for seed in (7, 8))


def _padded_pair(res):
    return res, pad_top(res, 1)


PAIRS = {
    "Z": lambda: _generated_pair(ModulePresentation(ZZ, 1, Matrix(ZZ, 1, 1, [2]))),
    "F5": lambda: _generated_pair(ModulePresentation(F5, 2, Matrix.zeros(F5, 2, 0))),
    "F2C4": lambda: _padded_pair(f2c4_resolution(3)),
    "ZS3": lambda: _padded_pair(s3_resolution()),
}


def _bumped(cert):
    """The certificate with one added to the (0, 0) entry of h_0. k_0 is
    invertible, so (h_0 + E) k_0 != 1."""
    h = cert.iso_fwd[0]
    entries = list(h.entries)
    entries[0] = h.ring.add(entries[0], h.ring.one)
    bumped = Matrix(h.ring, h.rows, h.cols, entries)
    return dataclasses.replace(cert, iso_fwd=(bumped, *cert.iso_fwd[1:]))


def _forbid_construction(monkeypatch) -> list:
    """Replace every construction entry point and every chain-object
    builder at each module binding that holds it, and the chain-object
    constructors on their classes; the returned list collects the names of
    those called."""
    called = []

    def forbidden(name):
        def call(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"check called {name}")

        return call

    modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "chaincert" or name.startswith("chaincert."))
    ]
    for module_name, attr in CONSTRUCTION + CHAIN_OBJECTS:
        original = getattr(sys.modules[module_name], attr)
        bindings = [
            (module, key)
            for module in modules
            for key, value in vars(module).items()
            if value is original
        ]
        assert bindings, f"{module_name}.{attr} not found"
        for module, key in bindings:
            monkeypatch.setattr(module, key, forbidden(attr))
    for cls in CHAIN_CLASSES:
        monkeypatch.setattr(cls, "__init__", forbidden(f"{cls.__name__}.__init__"))
    return called


@pytest.mark.parametrize("bump,code", [(False, 0), (True, 2)], ids=["valid", "bumped"])
@pytest.mark.parametrize("ring", list(PAIRS))
def test_check_runs_without_construction(tmp_path, monkeypatch, ring, bump, code):
    cert = total_equivalence(*PAIRS[ring]())
    if bump:
        cert = _bumped(cert)
    path = tmp_path / "cert.json"
    io.save(str(path), io.certificate_document(cert))
    called = _forbid_construction(monkeypatch)
    assert main(["check", str(path)]) == code
    assert called == []
