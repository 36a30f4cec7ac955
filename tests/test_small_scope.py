"""Small-scope completeness: every pair up to a size gets a certificate.

The paper's theorem is universal, so each scope is exhausted rather than
sampled. A scope is every F_p resolution of F_p (one generator, no
relations) of length n with ranks at most 2: every augmentation and
boundary of every rank vector, kept when ``validate_resolution`` passes.
Over F_2 with n = 2 there are 58 (3,364 ordered pairs), over F_3 with
n = 1 there are 86 (7,396 ordered pairs). For each ordered pair,
``total_equivalence`` builds a certificate that ``verify_certificate``
accepts, and the file written from it reads back as an equal record.
"""

import itertools

import pytest

from chaincert import io
from chaincert.chain import ChainComplex
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, TruncatedResolution, validate_resolution
from chaincert.rings import PrimeField
from chaincert.stabilize import total_equivalence, verify_certificate

SCOPES = {  # name: (p, n, number of resolutions)
    "F2 n=2": (2, 2, 58),
    "F3 n=1": (3, 1, 86),
}


def _matrices(field, rows, cols):
    for entries in itertools.product(range(field.p), repeat=rows * cols):
        yield Matrix(field, rows, cols, entries)


def _resolutions(p, n):
    """Every valid F_p resolution of F_p of length n with ranks <= 2."""
    field = PrimeField(p)
    pres = ModulePresentation(field, 1, Matrix(field, 1, 0, ()))
    for ranks in itertools.product(range(3), repeat=n + 1):
        shapes = [(1, ranks[0])] + [(ranks[i - 1], ranks[i]) for i in range(1, n + 1)]
        for aug, *diffs in itertools.product(*(_matrices(field, *shape) for shape in shapes)):
            res = TruncatedResolution(pres, ChainComplex(field, ranks, diffs), aug)
            if validate_resolution(res).ok:
                yield res


@pytest.fixture(scope="module", params=list(SCOPES))
def certificates(request):
    p, n, count = SCOPES[request.param]
    resolutions = list(_resolutions(p, n))
    assert len(resolutions) == count
    return [total_equivalence(a, b) for a, b in itertools.product(resolutions, repeat=2)]


def test_every_small_pair_gets_a_verified_certificate(certificates):
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
