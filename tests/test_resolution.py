import random
from time import perf_counter

import pytest

from chaincert.chain import ChainComplex, homology_invariants
from chaincert.matrix import Matrix
from chaincert.resolution import (
    ModulePresentation,
    TruncatedResolution,
    canonical_resolution,
    dualize,
    generate_resolution,
    pad_top,
    presentation_invariants,
    validate_resolution,
)
from chaincert.rings import ZZ, PrimeField, RingError

F2 = PrimeField(2)
F3 = PrimeField(3)


def z_mod(m):
    return ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[m]]))


def test_canonical_c2():
    pres, res = canonical_resolution("Z_over_Z[C_2]", 2)
    ring = res.ring
    t = ring.basis_element(1)
    assert res.complex.ranks == (1, 1, 1)
    assert res.complex.d(1) == Matrix(ring, 1, 1, [ring.sub(t, ring.one)])
    assert res.complex.d(2) == Matrix(ring, 1, 1, [ring.add(ring.one, t)])
    assert validate_resolution(res).ok


def test_canonical_c3():
    _, res = canonical_resolution("Z_over_Z[C_3]", 3)
    ring = res.ring
    t = ring.basis_element(1)
    norm = (1, 1, 1)
    assert res.complex.d(1) == Matrix(ring, 1, 1, [ring.sub(t, ring.one)])
    assert res.complex.d(2) == Matrix(ring, 1, 1, [norm])
    assert res.complex.d(3) == Matrix(ring, 1, 1, [ring.sub(t, ring.one)])
    assert validate_resolution(res).ok


@pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (5, 2), (12, 3)])
def test_canonical_cyclic_all_lengths(m, n):
    _, res = canonical_resolution(f"Z_over_Z[C_{m}]", n)
    assert validate_resolution(res).ok


def test_canonical_trivial():
    _, res = canonical_resolution("Z_over_Z", 1)
    assert res.complex.ranks == (1, 0)
    assert res.augmentation == Matrix.identity(ZZ, 1)
    assert validate_resolution(res).ok


def test_canonical_unknown_name():
    with pytest.raises(ValueError):
        canonical_resolution("Z_over_Z[C_99]", 2)
    with pytest.raises(ValueError):
        canonical_resolution("nonsense", 2)


def test_hand_built_z_mod_2():
    res = TruncatedResolution(
        z_mod(2),
        ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[2]])]),
        Matrix.identity(ZZ, 1),
    )
    assert validate_resolution(res).ok


def test_wrong_image_fails_at_degree_zero():
    res = TruncatedResolution(
        z_mod(2),
        ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[4]])]),
        Matrix.identity(ZZ, 1),
    )
    report = validate_resolution(res)
    assert not report.ok
    assert report.first_failure.name == "exact at degree 0"


def test_generated_resolutions_validate():
    rng = random.Random(1)
    for ring, pres in [
        (ZZ, z_mod(2)),
        (ZZ, ModulePresentation(ZZ, 2, Matrix.from_rows(ZZ, [[2, 0], [0, 6]]))),
        (F2, ModulePresentation(F2, 1, Matrix.from_rows(F2, [[0]]))),
        (F3, ModulePresentation(F3, 2, Matrix(F3, 2, 0, ()))),
    ]:
        for _ in range(4):
            n = rng.randint(1, 4)
            res = generate_resolution(pres, n=n, max_rank=5, seed=rng.randrange(10**6))
            assert validate_resolution(res).ok, (str(ring), n)


@pytest.mark.parametrize("max_rank", [8, 12, 16])
def test_generation_over_z_keeps_entries_small(max_rank):
    """Z + Z/6 at length 8: every kernel basis comes from a Hermite form
    by remainder elimination. With extended-gcd row combinations, seed 1
    at max_rank 16 reached entries of about 2 million bits and ran for
    about 40 s."""
    pres = ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [0, 6]))
    for seed in range(1, 21):
        start = perf_counter()
        res = generate_resolution(pres, n=8, max_rank=max_rank, seed=seed)
        assert perf_counter() - start < 1.0, seed
        entries = [x for d in (res.augmentation, *res.complex.diffs) for x in d.entries]
        assert max(abs(x) for x in entries).bit_length() < 64, seed
        assert validate_resolution(res).ok, seed


def test_generate_f2_seed42():
    pres = ModulePresentation(F2, 1, Matrix.from_rows(F2, [[0]]))
    res = generate_resolution(pres, n=3, max_rank=5, seed=42)
    assert validate_resolution(res).ok


def test_generate_deterministic():
    pres = z_mod(6)
    a = generate_resolution(pres, n=3, max_rank=5, seed=9)
    b = generate_resolution(pres, n=3, max_rank=5, seed=9)
    assert a == b
    c = generate_resolution(pres, n=3, max_rank=5, seed=10)
    assert a != c


def test_generate_zero_module_reaches_rank_zero():
    # an identity presentation resolves to nothing; with no padding room
    # the top term must be rank 0 (rank-0 terms are first-class)
    pres = ModulePresentation(ZZ, 2, Matrix.identity(ZZ, 2))
    res = generate_resolution(pres, n=2, max_rank=0, seed=0)
    assert res.complex.ranks[-1] == 0
    assert validate_resolution(res).ok


def test_generate_rejects_group_ring(zc2):
    pres = ModulePresentation(zc2, 1, Matrix.zeros(zc2, 1, 0))
    with pytest.raises(RingError):
        generate_resolution(pres, n=2, max_rank=3, seed=0)


def test_h0_matches_presentation():
    rng = random.Random(3)
    for m in (2, 6, 12):
        pres = z_mod(m)
        res = generate_resolution(pres, n=2, max_rank=4, seed=rng.randrange(100))
        assert homology_invariants(res.complex, 0) == presentation_invariants(pres)


def test_canonical_top_homology_nonzero():
    # truncation legitimately leaves an un-killed kernel at the top
    for name, n in [("Z_over_Z[C_2]", 2), ("Z_over_Z[C_3]", 3)]:
        _, res = canonical_resolution(name, n)
        top = homology_invariants(res.complex, n)
        assert not top.trivial


def test_pad_top_values():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    padded = pad_top(res, 1)
    ring = res.ring
    t = ring.basis_element(1)
    assert padded.complex.ranks == (1, 1, 2)
    assert padded.complex.d(2) == Matrix(ring, 1, 2, [ring.add(ring.one, t), ring.zero])
    assert validate_resolution(padded).ok


def test_dualize_round_trip_and_validation():
    pres = ModulePresentation(F3, 2, Matrix.from_rows(F3, [[1], [1]]))
    res = generate_resolution(pres, n=3, max_rank=4, seed=11)
    dual = dualize(res)
    assert dual.cochain
    assert dual.complex.ranks == tuple(reversed(res.complex.ranks))
    assert dualize(dual) == res
    assert validate_resolution(dual).ok


def test_dualize_transpose_example():
    pres = ModulePresentation(F2, 1, Matrix(F2, 1, 0, ()))
    res = TruncatedResolution(
        pres,
        ChainComplex(F2, [1, 2], [Matrix.from_rows(F2, [[0, 1]])]),
        Matrix.identity(F2, 1),
    )
    dual = dualize(res)
    assert dual.complex.d(1) == Matrix.from_rows(F2, [[0], [1]])


def test_dualize_zero_resolution():
    pres = ModulePresentation(F2, 0, Matrix.zeros(F2, 0, 0))
    res = TruncatedResolution(
        pres,
        ChainComplex(F2, [0, 0], [Matrix.zeros(F2, 0, 0)]),
        Matrix.zeros(F2, 0, 0),
    )
    dual = dualize(res)
    assert dual.complex.ranks == (0, 0)
    assert dualize(dual) == res


def test_dualize_needs_field():
    _, res = canonical_resolution("Z_over_Z", 1)
    with pytest.raises(RingError):
        dualize(res)


def test_group_ring_validation_uses_native_and_restricted_checks(zc2):
    # d.d must vanish in group-ring arithmetic, not only after restriction
    t = zc2.basis_element(1)
    bad = TruncatedResolution(
        ModulePresentation(zc2, 1, Matrix(zc2, 1, 1, [zc2.sub(t, zc2.one)])),
        ChainComplex(
            zc2, [1, 1, 1],
            [Matrix(zc2, 1, 1, [zc2.sub(t, zc2.one)]),
             Matrix(zc2, 1, 1, [zc2.sub(t, zc2.one)])],
        ),
        Matrix(zc2, 1, 1, [zc2.one]),
    )
    report = validate_resolution(bad)
    assert not report.ok
