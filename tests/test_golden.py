"""Golden certificate and resolution-file hashes: output must stay
byte-identical.

Each case builds a fixed pair of resolutions, runs the full stabilization
pipeline and hashes the canonical JSON of the certificate. A change to
construction, serialization or the kernels that alters a single byte of
any certificate fails here; each sub-document is hashed on its own as
well, so a failure names the part that changed. The input resolutions of the same pairs are
hashed as resolution files too, which pins the bytes `generate` and
`dualize` write. The files the command line itself writes (`stabilize
--out`, `generate`, `dualize`), rendered from documents with ``Matrix``
leaves, are held to the same digests.
"""

import hashlib

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
        "749f9eb1fc9b0046bdddfd52ebcff48c1e29b0db27b32a3ae67c5154f13216ce",
        id="F5-dim2-n3",
    ),
    pytest.param(
        _z_pair,
        "1886ec03bdee000404b268c7191efcaa8a57e8c3906b0d87f65b977ceccdb76b",
        id="Z-torsion6-n3",
    ),
    pytest.param(
        _zc2_pair,
        "76429833a639fb20dcd65b8493fbacc61290c2c3ef50790a90bc8d3bafa27922",
        id="ZC2-n2-pad1",
    ),
    pytest.param(
        _s3_pair,
        "7dbbaaf60556d3e3a02e7a9e8d0eb69d4ad28d177929b7345a54176ab2cf68c6",
        id="ZS3-n2-pad1",
    ),
    pytest.param(
        _f2c4_pair,
        "f27645b1440a694676f806050fcd9d63367d6ded05b5b31c235a5fe24e04d954",
        id="F2C4-n4-pad2",
    ),
    pytest.param(
        _fp_deep_pair,
        "d7fa52444e3412b69485f4bbab9d552103e5d6fae09a34320082e1df37c3c7d5",
        id="F5-dim2-n6",
    ),
    pytest.param(
        _z_deep_pair,
        "0c3dfd877546a51381d8f1a3ab7243bdc00bf434d2e83db933b351e11e2e23e2",
        id="Z-torsion6-n5",
    ),
    pytest.param(
        _zc6_pair,
        "eb2f09201757af116615b94e4584753b06b52c2a14d3b4c0120fbf5d039a1e1e",
        id="ZC6-n4-pad3",
    ),
    pytest.param(
        _s3_moved_pair,
        "e112a8cd82b5343196d68017be90a2c5ca2c35d6ee86bac9e600596f328bf7fd",
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


# sha256 of the canonical JSON of each sub-document of a golden certificate,
# recorded while construction still composed the 2n+1 expansion stages: the
# certificate's content must not depend on how it is built
SUBDOCUMENTS = (
    "presentation",
    "source",
    "target",
    "forward",
    "backward",
    "source_homotopy",
    "target_homotopy",
    "tower_ranks",
    "block_isomorphisms",
)

SUBDOCUMENT_GOLDEN = {
    "F5-dim2-n3": {
        "presentation": "392fa359e22703855b445e1eba27dda1a5afdf02e7016b6f20692decdfb70b6c",
        "source": "448edec22ac469ecb70317aac54ad1c3c7cbbb2ccc3a0c14fcb140dc1991148e",
        "target": "8a9acc48e87372af8e879ef0ae07e5b1d59e0a673d2802dd3fedad523dedf115",
        "forward": "2555d935eeefca670a2d562c3df8c446f72d22028524090336ab649954896621",
        "backward": "c8c60f7fc2525aedd8eeb1dca7aac9a6d3b5e61090dc8fb117456dde172da86a",
        "source_homotopy": "ac632cad4ac63f67baae5f14ea1bcef667139da9191fd35ec92aee26e1bb0e25",
        "target_homotopy": "8b0092535180289dbb166ea5575d8ee359fb3741614ab8352a8e6e63cbf94b39",
        "tower_ranks": "921d2aea4b9c600afbfc0b63254dfba1a1fae1aaf1bd8d4a1c385bce2e20bb25",
        "block_isomorphisms": "0524652eb75869204c2f490889315028e377a32b5d40fd3aad0fb5e98eacd6d8",
        "ring": "b3c97ee34667b517ed8f98b8fead5bb9f0acc005e4a39f70a80fc2e18e7e36ad",
    },
    "Z-torsion6-n3": {
        "presentation": "ce507ba5619c71ef42d55042b239d089c39728fda6c70050e1894ab4243b005f",
        "source": "83c00b1c60f47ca0f8d5528cc6037c5d181e9ba7f433c5124c856609b2f55304",
        "target": "a54414dbf149702fdb45dcce88f4a8cebbc2d034dd0e29e3a13104d4cd043621",
        "forward": "bdfcf24a432c14f2bfc768243a9c0a43cbd3cbc2a7c72c0f16762a4b35299dc2",
        "backward": "854481f8c688cac529a7fa6b08e14e749d711542fafdbb057f69be83b4a36772",
        "source_homotopy": "883145f75df50ff869c0de040e754dac7eca22a8285ed494878a3f7d55e4298a",
        "target_homotopy": "707298963aa62ff7115e324cc0907cb8f6d96cbf909c313ee15128410432d7a2",
        "tower_ranks": "0d2e6202d8d18a2a9a79a4a4f649b65c6f97f7be923b01fc41c110a51a1f6d7e",
        "block_isomorphisms": "9ca93f5ebccd0a0420ed9a4a999e7de076936a4c837e25b0dfdf8d0f6187028c",
        "ring": "7837b2ce4ee04c30121ed84c95ae36f707753617abbba69f04fcba5ea51b849f",
    },
    "ZC2-n2-pad1": {
        "presentation": "99669c81b701ccf34505009285ac72aa07ad97bd421fbc10f8c0364a9bd54801",
        "source": "bb8c435369ac1d0f2e21e10ff4130ea669bed825838d963f6a1508a86e0981ab",
        "target": "bb8c435369ac1d0f2e21e10ff4130ea669bed825838d963f6a1508a86e0981ab",
        "forward": "d878568f32ed81d38e5dee3eda2911b530b84c13288590912034af0726909ff4",
        "backward": "2e340b2a36f164337aa5782467cbaca3bbf99977f8aab7633d91b8699c2d74d5",
        "source_homotopy": "b0931434cb0806c04c584dfc00802adc82f0a57364fe48cc0adde3d8f041c66b",
        "target_homotopy": "b0931434cb0806c04c584dfc00802adc82f0a57364fe48cc0adde3d8f041c66b",
        "tower_ranks": "135c302b3b4eba1ef6f082f4015e6e3846c0888a683efd5ab88f55c7c9585223",
        "block_isomorphisms": "0a757f047549bd067d00b70a3fd45b9d83a81a67781b3143c156f3199b2ee506",
        "ring": "9382d7b7fe72a1e35bf190e7c1b7cd26fd123ea2e96ebf564dba2b0c5c7c6304",
    },
    "ZS3-n2-pad1": {
        "presentation": "87386a7eb4ed41d60c2c120a327398e0b484a030f99137df3471bffc87855e59",
        "source": "9c6663376147ad7643c1de0a10f57499ad703a926144790a184494190d69a08e",
        "target": "9c6663376147ad7643c1de0a10f57499ad703a926144790a184494190d69a08e",
        "forward": "ec0815436cf05d26cd4a8c4042a69fc68e32a640b3690e6dc361d2b2acc0d627",
        "backward": "07e48890cc6f017e78a8db5fa8744e38bbe76e653b86059d716af8004905af42",
        "source_homotopy": "0f98fb43124ac4dfd8bc25be510bb47874f3bb2bbb3b86234839bd3c4c991f65",
        "target_homotopy": "0f98fb43124ac4dfd8bc25be510bb47874f3bb2bbb3b86234839bd3c4c991f65",
        "tower_ranks": "67940e67de422d6089b957db4a59109dbeff9b8ed0209dc61490a4e6a0cb28e9",
        "block_isomorphisms": "cee5cd043d4713a5a78061c789e0a6f7faa114dd4562b3569ab27aba73b053f0",
        "ring": "453e3e558e998d7c1852b81afc6a96ea1511436b5bdfcf4387e49f79c1d9f93c",
    },
    "F2C4-n4-pad2": {
        "presentation": "4e3bc07407d7461585964dc1e81883eda99b16020d45743853e1efe154c5beb5",
        "source": "2582d8c1574e2faeaf8d71c04bba633a891efd5c836fa0842a5be4a79a581736",
        "target": "2582d8c1574e2faeaf8d71c04bba633a891efd5c836fa0842a5be4a79a581736",
        "forward": "41599ead8619e3a6f161dba90cedcb4e53cd1370f43abd639047ea3c3ce196a3",
        "backward": "77b8c6e8b406df40840503ed5e3c5a5f927025c2293858ff73c53a82af39c696",
        "source_homotopy": "94b8a8bd172abc29d7d710370fb202c64fc421c003b875dd5ebe4220069a0bc6",
        "target_homotopy": "94b8a8bd172abc29d7d710370fb202c64fc421c003b875dd5ebe4220069a0bc6",
        "tower_ranks": "8e86718254c6ed691f9426522c78a7bb65753d5833f45dd891cef7c2254fb9de",
        "block_isomorphisms": "8ceb00a034d008c602e92abe394e7ca8433a1f443392d783eaececb7576fef89",
        "ring": "97a6bdbf4d21d3c471c95b7ef64708572807b3c120b874ba674d563924194650",
    },
    "F5-dim2-n6": {
        "presentation": "392fa359e22703855b445e1eba27dda1a5afdf02e7016b6f20692decdfb70b6c",
        "source": "0e184d18d11962eacc980bc420c4ebdf336e6ee4625723aa709672e086047a4c",
        "target": "5e720471eecabefa8d243a211ea554a1c6378be409674a816361b057c7a18b0e",
        "forward": "016b1e95253ed0cf02a3a91993416cb8e728c255dc85870c7caa42cf0ffcbf15",
        "backward": "7451fa8b2441702b4301a8234f414b38eb66ceebbc13a0733b6a5bcccebcb9b1",
        "source_homotopy": "536a683f83057af68a1a71d9294d6f9b4ba1710be1a323a1895ad9694e442d8d",
        "target_homotopy": "c3d03eb7c1e0de62a07dfc864bbfd6387b835d4bc87585f062f16fa62459d136",
        "tower_ranks": "0f65e815f8bce9529b556676557127e2273fb2edbbf58cc820d0a50a44db5587",
        "block_isomorphisms": "12295d8e14780bb680df154e3ac6e843577309993a7754cf9995a62fbcaa4f20",
        "ring": "b3c97ee34667b517ed8f98b8fead5bb9f0acc005e4a39f70a80fc2e18e7e36ad",
    },
    "Z-torsion6-n5": {
        "presentation": "ce507ba5619c71ef42d55042b239d089c39728fda6c70050e1894ab4243b005f",
        "source": "dcc56dd1dfc425f5aaa5f01c8d3cc771e7df3072d508290eb19935de099434e6",
        "target": "7de4c93cc1453c4445858682e6ae55a64bd482fc85ebe187df9906282bc22271",
        "forward": "7ed8c6d144fba20212d91dbef16e44a6838d345e6040a90eb625f5fd471b98d3",
        "backward": "d4977e68e9076cefd5b938e4abf420e73fb822706f2d53b5fe02a767a409a9a9",
        "source_homotopy": "e8c6f1a93206f0afa6336ae714052102e27ee58c1035bbaad0c4b599f16364c8",
        "target_homotopy": "68fc0158d9e7ad91639e828bccb4c4380cbcf79091fd57ffad82bc10f25e7213",
        "tower_ranks": "1ec01c6f245b7505e529d314026c470cae75b300f8e878070f2a7741938e1c5b",
        "block_isomorphisms": "058d12c52e9b4f2617a74a812d6e63e141edc40dfd4755bf891c167d247073e6",
        "ring": "7837b2ce4ee04c30121ed84c95ae36f707753617abbba69f04fcba5ea51b849f",
    },
    "ZC6-n4-pad3": {
        "presentation": "f57732989e9ccaae4ca32f987272a9619fd04ea26608e2263a1aae6ece76bd9f",
        "source": "230d433a31b2aba30a417832a601bd3ea5653b51521094a2010d87857a0281a0",
        "target": "230d433a31b2aba30a417832a601bd3ea5653b51521094a2010d87857a0281a0",
        "forward": "1fb1741ce978395009d7bc14b9cdb11e45e50725086073877447982cf2379634",
        "backward": "663721853f835cd306bce34c6718db55e332b923de21b1004ee2a9cfb56927a5",
        "source_homotopy": "7833074dad711bb5f09c70ae5bdc001439347a5faf5608488fc89220e2b541bc",
        "target_homotopy": "7833074dad711bb5f09c70ae5bdc001439347a5faf5608488fc89220e2b541bc",
        "tower_ranks": "68c77d59f17e135540f992f1f96006b30183889d2c59db209ca82d387e10006d",
        "block_isomorphisms": "a7a829ca5bb056bd417c723bd559469e419fb01d9adffa84f7766fdc3ac0d035",
        "ring": "cada3c9ba237fd94feab886b4a81ca79de6b764fe0f4455056b799e791f95958",
    },
    "ZS3-moved-n2-pad2": {
        "presentation": "4f0043a18ae7c0f148117943d4e7d0a68e0c0465ca6575f142bc220bbc130e59",
        "source": "4380627b1e092eff3d4dd45cdd5d75770a9901f553ef6d298943f7f47b703284",
        "target": "4380627b1e092eff3d4dd45cdd5d75770a9901f553ef6d298943f7f47b703284",
        "forward": "9d685dcc549f3d26c554a7ab0a8c45684e11fbfb08ca99cc90cd862b5c7adffe",
        "backward": "236d0703153541e33a723b0280f63d4b90bfe2acc272bff8e17d46ca19795fcb",
        "source_homotopy": "bc92f6d864a430633d4726b1dcdf17b13d93d5df8f1257ce41aa933ff8f76e32",
        "target_homotopy": "bc92f6d864a430633d4726b1dcdf17b13d93d5df8f1257ce41aa933ff8f76e32",
        "tower_ranks": "25ee4f71d36e0d79a4699a9ba7d634c4965af498fa9c1a4b1bfcb34d15c59ebe",
        "block_isomorphisms": "fbd3256b183e73c656dc35b8fdff52b0330c58ba8a2bb465302a43c5e7b363d0",
        "ring": "0992cf96f6ad5e868632c3f2e16a1a54ff8212339a9ed2b41cff4fe1631f7a42",
    },
}


def subdocument_digests(pair) -> dict:
    doc = io.certificate_to_json(total_equivalence(*pair))
    parts = {key: doc["payload"][key] for key in SUBDOCUMENTS}
    parts["ring"] = {key: doc[key] for key in ("ring", "group") if key in doc}
    return {
        key: hashlib.sha256(io.dump_canonical(value).encode()).hexdigest()
        for key, value in parts.items()
    }


@pytest.mark.parametrize(
    "build,digests",
    [pytest.param(p.values[0], SUBDOCUMENT_GOLDEN[p.id], id=p.id) for p in GOLDEN],
)
def test_golden_subdocument_hashes(build, digests):
    assert subdocument_digests(build()) == digests


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


def _sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _save_inputs(pair, directory) -> list[str]:
    """Write both resolutions as the command line writes them."""
    paths = []
    for name, res in zip("pq", pair):
        path = str(directory / f"{name}.json")
        io.save(path, io.resolution_document(res))
        paths.append(path)
    return paths


@pytest.mark.parametrize("build,digest", GOLDEN)
def test_golden_certificate_written_by_stabilize(build, digest, tmp_path, capsys):
    p, q = _save_inputs(build(), tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["stabilize", p, q, "--out", out]) == 0
    assert _sha256_of(out) == digest


@pytest.mark.parametrize("build,digests", RESOLUTION_GOLDEN)
def test_golden_resolution_written_by_the_command_line(build, digests, tmp_path, capsys):
    pair = build()
    paths = _save_inputs(pair, tmp_path)
    assert tuple(map(_sha256_of, paths)) == digests
    for res, path in zip(pair, paths):
        if not isinstance(res.ring, PrimeField):
            continue  # dualize is defined over a field, where it is an involution
        dual, back = path + ".dual", path + ".back"
        assert main(["dualize", path, "--out", dual]) == 0
        assert main(["dualize", dual, "--out", back]) == 0
        assert _sha256_of(back) == _sha256_of(path)


# the golden pairs over F_5 and Z are generate_resolution outputs of module
# presets, so `generate` rewrites their input files byte for byte
GENERATE_ARGS = {
    "F5-dim2-n3": ("Fp:5", "dim:2", 3, 6, (11, 12)),
    "Z-torsion6-n3": ("Z", "Z/6+Z", 3, 5, (21, 22)),
}


@pytest.mark.parametrize(
    "args,digests",
    [
        pytest.param(GENERATE_ARGS[p.id], p.values[1], id=p.id)
        for p in RESOLUTION_GOLDEN
        if p.id in GENERATE_ARGS
    ],
)
def test_golden_resolution_written_by_generate(args, digests, tmp_path, capsys):
    ring, module, n, max_rank, seeds = args
    written = []
    for seed in seeds:
        path = str(tmp_path / f"{seed}.json")
        argv = ["generate", "--ring", ring, "--module", module, "--n", str(n),
                "--max-rank", str(max_rank), "--seed", str(seed), "--out", path]
        assert main(argv) == 0
        written.append(_sha256_of(path))
    assert tuple(written) == digests


# `generate --ring Fp:p --module dim:2 --n 4 --max-rank 8` over every prime
# whose matrices are byte lanes (p <= 13) and over F_17, which is not: sha256
# of the files written with seeds 1 and 2, then of the certificate `stabilize`
# writes for that pair. Generation takes a kernel basis at every degree and
# construction solves the lifts, so both run Gaussian elimination over F_p.
LANE_GENERATE_GOLDEN = {
    2: (
        "0a7b515a51af41fb156d6bffe984a94d0755d774943aefb60be8dce8048efec1",
        "a61738f1fc00f6e61ff13e11b70722b5b5f0d0776223add12f1f947292d1328f",
        "e8acd54c0318a8d5bc904e6f598192010d29f7eb729cf491948a74c40e5a7e16",
    ),
    3: (
        "1340d0b1258ce35ac2937b49ca97ca2a13a26a6acbb072e0622baaa5b78e692e",
        "8665dc8540dbe55ef61c32375e280bbb15bfdb293c115560056413d632f4e97b",
        "01b41330f763aa5411e1442cd1e6b408e0eea856a00d99b2a0a5158c53d13f50",
    ),
    7: (
        "092c39b75f16bffc5d17e1aead4bb0fa26ffb4fd157ee7e8b90cea99c22745fd",
        "50b532f53e80ad7a09f69fad46c8e15e4592d3b876ad369071cbd3341b71af42",
        "63c97c9aeeefbd7971385aece1a5d5039aadd5d53a0e7a6250d8f2d9230953d9",
    ),
    11: (
        "2cbaf5f9eb8e13922b2ded6cc017e4ac1b1ef384adb1ea61c199df6445b428b0",
        "718502649c9cc494590b3161499344ee11022c38c5080617f2f7f97f2e925998",
        "cbde5aae247e57ce53f8b16e120581980363911786222a8ddbee29f15949e456",
    ),
    13: (
        "07dbd45b772bc1127a541088be25f61a27fac9ec81c75985782728706849f2af",
        "6872b59dc07ee12b17b6272c9ff55b4bbe8c9b00f48927f2ace65a1db55a8959",
        "cd0ffbb45cfc69d5581bc67d4df2c1fb73d48923809552163ad638f4426822cc",
    ),
    17: (
        "6d555112c3844e287598571d5cc0a29cfcb9051f2c33a4d37fcd1d7174f8134b",
        "c28042eb8d7fe36cbde5e539983af31ff839137e24db9f2091f476fdbe72d32d",
        "c28c587cc70debe206b52826a138e5d8f1852bfb8ede045e68d761db75f1ab27",
    ),
}


@pytest.mark.parametrize("p", sorted(LANE_GENERATE_GOLDEN), ids=lambda p: f"F{p}-dim2-n4")
def test_golden_generate_and_stabilize_over_small_primes(p, tmp_path, capsys):
    paths = [str(tmp_path / f"{seed}.json") for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        argv = ["generate", "--ring", f"Fp:{p}", "--module", "dim:2", "--n", "4",
                "--max-rank", "8", "--seed", str(seed), "--out", path]
        assert main(argv) == 0
    cert = str(tmp_path / "cert.json")
    assert main(["stabilize", *paths, "--out", cert]) == 0
    assert tuple(map(_sha256_of, [*paths, cert])) == LANE_GENERATE_GOLDEN[p]
