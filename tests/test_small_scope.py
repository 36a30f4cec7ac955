"""Small-scope completeness: every pair up to a size gets a certificate.

The paper's theorem is universal, so each scope is exhausted rather than
sampled. A scope is every F_p resolution of F_p (one generator, no
relations) of length n with ranks at most 2: every augmentation and
boundary of every rank vector, kept when ``validate_resolution`` passes.
Over F_2 with n = 2 there are 58 (3,364 ordered pairs), over F_3 with
n = 1 there are 86 (7,396 ordered pairs). For each ordered pair,
``total_equivalence`` builds a certificate that ``verify_certificate``
accepts, and the file written from it reads back as an equal record.

Soundness on a fixed sample of the F_2, n = 2 certificates: every single
entry of every stored matrix is flipped in turn, and ``verify_certificate``
must accept exactly the flips that leave every v1 identity true, as
evaluated here with plain nested lists mod 2.

The larger scope F_2, n = 3 (220 resolutions, 48,400 ordered pairs) runs
as its own CI step, ``python tests/large_scope.py``.
"""

import collections
import dataclasses
import itertools

import pytest

from chaincert import io
from chaincert.chain import ChainComplex
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, TruncatedResolution, validate_resolution
from chaincert.rings import PrimeField
from chaincert.stabilize import total_equivalence, verify_certificate

SOUNDNESS_SCOPE, SOUNDNESS_STRIDE = "F2 n=2", 250  # every 250th ordered pair

SCOPES = {  # name: (p, n, number of resolutions)
    "F2 n=2": (2, 2, 58),
    "F3 n=1": (3, 1, 86),
}


def _matrices(field, rows, cols):
    for entries in itertools.product(range(field.p), repeat=rows * cols):
        yield Matrix(field, rows, cols, entries)


def _resolutions(p, n, dim=1):
    """Every valid F_p resolution of F_p^dim of length n with ranks <= 2."""
    field = PrimeField(p)
    pres = ModulePresentation(field, dim, Matrix(field, dim, 0, ()))
    for ranks in itertools.product(range(3), repeat=n + 1):
        shapes = [(dim, ranks[0])] + [(ranks[i - 1], ranks[i]) for i in range(1, n + 1)]
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


def _lists(m):
    """The rows of ``m`` as lists of ints."""
    return [[m.entries[r * m.cols + c] for c in range(m.cols)] for r in range(m.rows)]


def _mul(a, b, cols):
    """The product of two nested lists mod 2; ``b`` has ``cols`` columns."""
    b_cols = [[row[c] for row in b] for c in range(cols)]
    return [[sum(x & y for x, y in zip(row, col)) & 1 for col in b_cols] for row in a]


def _add(*terms):
    return [[sum(xs) & 1 for xs in zip(*rows)] for rows in zip(*terms)]


def _zero(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _one(size):
    return [[int(r == c) for c in range(size)] for r in range(size)]


def _identities_hold(cert) -> bool:
    """Every identity ``verify_certificate`` checks, written out over F_2
    from the stored entries alone: the tower rank recursion, d.d = 0 on
    both complexes, both chain maps, both homotopies (bwd.fwd = 1 + d s +
    s d, fwd.bwd = 1 + d t + t d, with s_{-1} = s_n = 0) and h k = 1 for
    every block pair."""
    src, tgt = cert.source, cert.target
    n, p, q = src.length, src.ranks, tgt.ranks
    t, s = cert.t_ranks, cert.s_ranks
    tt, ss = [p[i] for i in range(n)] + [p[n] - s[n]], [q[i] for i in range(n)] + [q[n] - t[n]]
    for i in range(n + 1):
        if t[i] != tt[i] + (s[i - 1] if i else 0) or s[i] != ss[i] + (t[i - 1] if i else 0):
            return False
    ds, dt = [None] + [_lists(m) for m in src.diffs], [None] + [_lists(m) for m in tgt.diffs]
    f, g = [_lists(m) for m in cert.fwd], [_lists(m) for m in cert.bwd]
    hs, ht = [_lists(m) for m in cert.src_homotopy], [_lists(m) for m in cert.tgt_homotopy]
    for d, r in ((ds, p), (dt, q)):
        if any(_mul(d[i], d[i + 1], r[i + 1]) != _zero(r[i - 1], r[i + 1]) for i in range(1, n)):
            return False
    for i in range(1, n + 1):
        if _mul(dt[i], f[i], p[i]) != _mul(f[i - 1], ds[i], p[i]):
            return False
        if _mul(ds[i], g[i], q[i]) != _mul(g[i - 1], dt[i], q[i]):
            return False
    for a, b, d, r, h in ((f, g, ds, p, hs), (g, f, dt, q, ht)):
        for i in range(n + 1):
            rhs = [_one(r[i])]
            if i < n:
                rhs.append(_mul(d[i + 1], h[i], r[i]))
            if i:
                rhs.append(_mul(h[i - 1], d[i], r[i]))
            if _mul(b[i], a[i], r[i]) != _add(*rhs):
                return False
    return all(
        _mul(_lists(h), _lists(k), e) == _one(e)
        for h, k, e in zip(cert.iso_fwd, cert.iso_bwd, map(sum, zip(t, s)))
    )


def _flipped(m, at):
    entries = bytearray(m.entries)
    entries[at] ^= 1
    return Matrix(m.ring, m.rows, m.cols, bytes(entries))


def _single_flips(cert):
    """(family, certificate) for every single-entry flip of every stored
    matrix: both complexes' boundaries, both maps, both homotopies and
    both block lists."""
    for name in ("source", "target"):
        c = getattr(cert, name)
        for i, m in enumerate(c.diffs):
            for at in range(len(m.entries)):
                diffs = c.diffs[:i] + (_flipped(m, at),) + c.diffs[i + 1 :]
                yield name, dataclasses.replace(cert, **{name: ChainComplex(c.ring, c.ranks, diffs)})
    for name in ("fwd", "bwd", "src_homotopy", "tgt_homotopy", "iso_fwd", "iso_bwd"):
        parts = getattr(cert, name)
        for i, m in enumerate(parts):
            for at in range(len(m.entries)):
                flipped = parts[:i] + (_flipped(m, at),) + parts[i + 1 :]
                yield name, dataclasses.replace(cert, **{name: flipped})


@pytest.mark.parametrize("certificates", [SOUNDNESS_SCOPE], indirect=True)
def test_check_refuses_exactly_the_flips_that_break_an_identity(certificates):
    # A flip can leave every identity true: over F_2 a flip of s_i at
    # (a, b) moves only d_{i+1} s_i and s_i d_{i+1}, by column a of d_{i+1}
    # and by row b of it, so it is accepted when both are zero.
    sample = certificates[::SOUNDNESS_STRIDE]
    flips, accepted, disagreements = 0, collections.Counter(), []
    for k, cert in enumerate(sample):
        assert _identities_hold(cert)
        for family, flipped in _single_flips(cert):
            verdict = verify_certificate(flipped).ok
            flips += 1
            accepted[family] += verdict
            if verdict != _identities_hold(flipped):
                disagreements.append((k, family, verdict))
    assert flips > 5000
    assert disagreements == [], f"{flips} flips, accepted per family: {dict(accepted)}"
