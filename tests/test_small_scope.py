"""Small-scope completeness: every pair up to a size gets a certificate.

The paper's theorem is universal, so the scope is exhausted rather than
sampled. Every F_2 resolution of F_2 (one generator, no relations) with
n = 2 and ranks at most 2 is enumerated: every augmentation and pair of
boundaries of every rank vector, kept when ``validate_resolution`` passes.
There are 58. For each of the 3,364 ordered pairs, ``total_equivalence``
builds a certificate that ``verify_certificate`` accepts, and the file
written from it reads back as the same certificate.
"""

import itertools

import pytest

from chaincert import io
from chaincert.chain import ChainComplex
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, TruncatedResolution, validate_resolution
from chaincert.rings import PrimeField
from chaincert.stabilize import total_equivalence, verify_certificate

F2 = PrimeField(2)


def _matrices(rows, cols):
    for entries in itertools.product(range(2), repeat=rows * cols):
        yield Matrix(F2, rows, cols, entries)


def _resolutions():
    """Every valid F_2 resolution of F_2 with n = 2 and ranks <= 2."""
    pres = ModulePresentation(F2, 1, Matrix(F2, 1, 0, ()))
    for ranks in itertools.product(range(3), repeat=3):
        r0, r1, r2 = ranks
        for aug, d1, d2 in itertools.product(_matrices(1, r0), _matrices(r0, r1), _matrices(r1, r2)):
            res = TruncatedResolution(pres, ChainComplex(F2, ranks, [d1, d2]), aug)
            if validate_resolution(res).ok:
                yield res


@pytest.fixture(scope="module")
def certificates():
    resolutions = list(_resolutions())
    assert len(resolutions) == 58
    return [total_equivalence(p, q) for p, q in itertools.product(resolutions, repeat=2)]


def test_every_small_pair_gets_a_verified_certificate(certificates):
    assert len(certificates) == 58 * 58
    refused = [i for i, cert in enumerate(certificates) if not verify_certificate(cert).ok]
    assert refused == []


def test_every_small_certificate_reads_back(certificates, tmp_path):
    path = tmp_path / "cert.json"
    changed = []
    for i, cert in enumerate(certificates):
        path.write_text(io.dump_canonical(io.certificate_document(cert)))
        if io.load(str(path)) != ("certificate", cert):
            changed.append(i)
    assert changed == []
