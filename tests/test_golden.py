"""Golden certificate and resolution-file hashes: output must stay
byte-identical.

Each case builds a fixed pair of resolutions, runs the full stabilization
pipeline and hashes the canonical JSON of the certificate. A change to
construction, serialization or the kernels that alters a single byte of
any certificate fails here. The input resolutions of the same pairs are
hashed as resolution files too, which pins the bytes `generate` and
`dualize` write.
"""

import hashlib

import pytest

from chaincert import io
from chaincert.matrix import Matrix
from chaincert.resolution import (
    ModulePresentation,
    canonical_resolution,
    generate_resolution,
    pad_top,
)
from chaincert.rings import ZZ, PrimeField
from chaincert.stabilize import total_equivalence

from conftest import f2c4_resolution, relabel, s3_resolution


def _fp_pair():
    f5 = PrimeField(5)
    pres = ModulePresentation(f5, 2, Matrix(f5, 2, 0, ()))
    return (
        generate_resolution(pres, n=3, max_rank=6, seed=11),
        generate_resolution(pres, n=3, max_rank=6, seed=12),
    )


def _z_pair():
    pres = ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0]))
    return (
        generate_resolution(pres, n=3, max_rank=5, seed=21),
        generate_resolution(pres, n=3, max_rank=5, seed=22),
    )


def _zc2_pair():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    return res, pad_top(res, 1)


def _s3_pair():
    res = s3_resolution()
    return res, pad_top(res, 1)


def _f2c4_pair():
    res = f2c4_resolution(4)
    return res, pad_top(res, 2)


def _zc6_pair():
    _, res = canonical_resolution("Z_over_Z[C_6]", 4)
    return res, pad_top(res, 3)


def _s3_moved_pair():
    # the identity becomes element 3, as in the benchmark's relabelled groups
    res = relabel(s3_resolution(), [3, 0, 5, 1, 4, 2])
    return res, pad_top(res, 2)


def _fp_deep_pair():
    f5 = PrimeField(5)
    pres = ModulePresentation(f5, 2, Matrix(f5, 2, 0, ()))
    return (
        generate_resolution(pres, n=6, max_rank=6, seed=31),
        generate_resolution(pres, n=6, max_rank=6, seed=32),
    )


def _z_deep_pair():
    pres = ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0]))
    return (
        generate_resolution(pres, n=5, max_rank=5, seed=41),
        generate_resolution(pres, n=5, max_rank=5, seed=42),
    )


GOLDEN = [
    pytest.param(
        _fp_pair,
        "eba74732a3337657581c75ed046b8357fd2c8a80928232f4bc7cf7e384e1285e",
        id="F5-dim2-n3",
    ),
    pytest.param(
        _z_pair,
        "a3dd43db1c23361d93d1151e77ec69dc1fcd1303afe5fec67dc37671a51be5de",
        id="Z-torsion6-n3",
    ),
    pytest.param(
        _zc2_pair,
        "db57161efc631dd18987e44612f1ff236fd7a28107cb162b34823e39d1305a3c",
        id="ZC2-n2-pad1",
    ),
    pytest.param(
        _s3_pair,
        "856eac60890a47fee6e0549a99d5e1e3896a224bc803fb9c2bad5f828e81f071",
        id="ZS3-n2-pad1",
    ),
    pytest.param(
        _f2c4_pair,
        "b975bc921b4f23ec450cd59868b59180c9217c024d8154bb4dd855599c2ca115",
        id="F2C4-n4-pad2",
    ),
    pytest.param(
        _fp_deep_pair,
        "898e38e8ab46e5f32a05b104886d93869763009be7d7ff8c093c7f6e431aabe4",
        id="F5-dim2-n6",
    ),
    pytest.param(
        _z_deep_pair,
        "1e26b3d448d087b33da52332024ccb24183e2c2016d08559ce9909de7a48f63e",
        id="Z-torsion6-n5",
    ),
    pytest.param(
        _zc6_pair,
        "eb5053d86de337395c110fc97e968fbd02ae5990b612956ec8a2d21b1d68eca2",
        id="ZC6-n4-pad3",
    ),
    pytest.param(
        _s3_moved_pair,
        "1395b20acd9903d31c4d47f5fb5bcbac6c0fff8de979bb4db86a10b59a46147d",
        id="ZS3-moved-n2-pad2",
    ),
]


def certificate_digest(pair) -> str:
    cert = total_equivalence(*pair)
    text = io.dump_canonical(io.certificate_to_json(cert))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("build,digest", GOLDEN)
def test_golden_certificate_hash(build, digest):
    assert certificate_digest(build()) == digest


# sha256 of the canonical resolution file of each input of a golden pair
RESOLUTION_GOLDEN = [
    pytest.param(
        _fp_pair,
        (
            "24769ead40ecde181cd3de964269eb502e459cdb28925fc818c7b07fab6a2dcd",
            "da475dc0a4c41a3fc026f5ed7023e01b69e7528d70581952320e01e2f36ff257",
        ),
        id="F5-dim2-n3",
    ),
    pytest.param(
        _z_pair,
        (
            "658553c1b730880d20583215cbc82cfa6373748fea745173826d99dcfba3b22b",
            "49c0210b946a844fb2eb7687dbc2a83aec3e674bcbddfc899b715435badd00ae",
        ),
        id="Z-torsion6-n3",
    ),
    pytest.param(
        _zc2_pair,
        (
            "495e052abf47d61ba521ec3912c00263a1923b0e0a4534e8a7ef5fa2cd60838a",
            "72c9238fc5c3a46d51844248e860d68e3a4465469a62913e45c24818b6ac0af6",
        ),
        id="ZC2-n2-pad1",
    ),
    pytest.param(
        _s3_pair,
        (
            "a4361ead30361acc0884a7ec50589eddc9da5c651b54904563c012ce31e65303",
            "771ad5f747e495105d26ca0079f1e73cb42d91671f48590af9753006de845301",
        ),
        id="ZS3-n2-pad1",
    ),
    pytest.param(
        _f2c4_pair,
        (
            "51ce02944e04038fe6d4bbd6f2aebaa04c118380881a5a952e47ea5ae45ef8ae",
            "8cf7d1c5226ccf7cce724e768cff9f4aa46a47959e6cb3cd9d65824fcea718e5",
        ),
        id="F2C4-n4-pad2",
    ),
    pytest.param(
        _zc6_pair,
        (
            "3578afb22c4aab73b787321ed1840e00027bcf78ba547feb1d5857aad91ccf9e",
            "0108b38dbc3771c4e1c87e051a111726e1190679c647cac9ad7f5ad50fd1fd40",
        ),
        id="ZC6-n4-pad3",
    ),
    pytest.param(
        _s3_moved_pair,
        (
            "b302ce0f24006f8d9bcbba81620de058801266b8a4d6bb183a05a38cc8ddcb51",
            "52cef788713a246704fd9eb5ef69083c993a0dc3f38e7148d82fd3029233bb49",
        ),
        id="ZS3-moved-n2-pad2",
    ),
]


@pytest.mark.parametrize("build,digests", RESOLUTION_GOLDEN)
def test_golden_resolution_hash(build, digests):
    texts = [io.dump_canonical(io.resolution_to_json(r)) for r in build()]
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == digests
