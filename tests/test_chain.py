import random
import tracemalloc

import pytest

from chaincert.chain import (
    ChainComplex,
    ChainMap,
    HomologyError,
    Report,
    all_homology_invariants,
    compose_equivalences,
    dualize_complex,
    dualize_equivalence,
    euler_characteristic,
    homology_invariants,
    identity_chain_map,
    identity_equivalence,
    make_equivalence,
    restrict_complex,
    reverse_equivalence,
    validate_chain_map,
    validate_complex,
    validate_homotopy,
)
from chaincert.matrix import Invariants, Matrix, ShapeError
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField, RingError
from chaincert.verify import ONE, Identity, evaluate

F3 = PrimeField(3)


def two_step(ring, d1_rows):
    d1 = Matrix.from_rows(ring, d1_rows)
    return ChainComplex(ring, [d1.rows, d1.cols], [d1])


def test_validate_complex_passes_and_fails():
    good = ChainComplex(
        ZZ, [1, 1, 1],
        [Matrix.from_rows(ZZ, [[2]]), Matrix.from_rows(ZZ, [[0]])],
    )
    assert validate_complex(good).ok

    bad = ChainComplex(
        ZZ, [1, 1, 1],
        [Matrix.from_rows(ZZ, [[1]]), Matrix.from_rows(ZZ, [[1]])],
    )
    report = validate_complex(bad)
    assert not report.ok
    assert "d1.d2" in report.first_failure.name


def test_validators_report_residuals_on_failure():
    bad = ChainComplex(
        ZZ, [1, 1, 1],
        [Matrix.from_rows(ZZ, [[2]]), Matrix.from_rows(ZZ, [[3]])],
    )
    check = validate_complex(bad).first_failure
    assert check.name == "d1.d2 = 0"
    assert check.detail == "entry (0, 0) is 6, not 0"

    c = two_step(ZZ, [[3]])
    off_square = ChainMap(c, c, [Matrix.identity(ZZ, 1), Matrix.from_rows(ZZ, [[2]])])
    report = validate_chain_map(off_square)
    assert not report.ok
    check = report.first_failure
    assert check.name == "square at degree 1"
    # d.f1 = 3*2 against f0.d = 1*3
    assert check.detail == "entry (0, 0) is 6, not 3"

    f = identity_chain_map(c)
    g = ChainMap(c, c, [Matrix.from_rows(ZZ, [[-2]]), Matrix.from_rows(ZZ, [[-2]])])
    report = validate_homotopy(f, g, [Matrix.from_rows(ZZ, [[2]])])
    assert not report.ok
    # degree 0: f = 1 against g + d s = -2 + 3*2; degree 1: 1 against -2 + 2*3
    assert [ch.detail for ch in report.checks] == [
        "entry (0, 0) is 1, not 4",
        "entry (0, 0) is 1, not 4",
    ]
    assert validate_homotopy(f, g, [Matrix.from_rows(ZZ, [[1]])]).ok


ZC3 = GroupRing(ZZ, GroupTable.cyclic(3))


@pytest.mark.parametrize(
    "ring,rows,changes,detail",
    [
        (ZZ, [[1, 0, 2], [0, -3, 4]], {(1, 1): 5, (1, 2): 0}, "entry (1, 1) is 5, not -3"),
        (PrimeField(5), [[1, 0, 2], [0, 3, 4]], {(0, 2): 4}, "entry (0, 2) is 4, not 2"),
        (
            ZC3,
            [[(1, 0, 0), (0, 0, 0)], [(0, 2, 0), (0, 0, 1)]],
            {(1, 0): (0, 2, -1), (1, 1): (0, 0, 0)},
            "entry (1, 0) is 2*g1-g2, not 2*g1",
        ),
    ],
    ids=["Z", "F5", "ZC3"],
)
def test_holds_names_the_first_differing_entry(ring, rows, changes, detail):
    rhs = Matrix.from_rows(ring, rows)
    for (r, c), x in changes.items():
        rows[r][c] = x
    lhs = Matrix.from_rows(ring, rows)
    report = evaluate(
        Identity(name, [(2, a, len(rows[0]))], [(2, rhs, len(rows[0]))])
        for name, a in [("same", rhs), ("bumped", lhs)]
    )
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        ("same", True, ""),
        ("bumped", False, detail),
    ]


@pytest.mark.parametrize("ring", [ZZ, PrimeField(5)], ids=["Z", "F5"])
def test_holds_on_a_large_block_pair_differing_in_its_last_row(ring):
    # the side of the benchmark's largest block pairs, compared with the
    # identity by counting; the detail scans rows, then the last one's entries
    entries = list(Matrix.identity(ring, 224).entries)
    entries[-1], entries[-2] = 0, 2
    block = Matrix(ring, 224, 224, entries)
    name = "block pair mutually inverse at degree 7"
    report = evaluate([Identity(name, [(224, block, 224)], [ONE])])
    assert str(report) == (
        "[FAIL] block pair mutually inverse at degree 7: entry (223, 222) is 2, not 0"
    )


def test_holds_names_a_shape_mismatch():
    # the same entry sequence as the identity, in the wrong shape
    report = evaluate([Identity("block pair", [(2, Matrix(ZZ, 1, 4, [1, 0, 0, 1]), 2)], [ONE])])
    assert str(report) == "[FAIL] block pair: shape (1, 4), not (2, 2)"


def test_make_equivalence_round_trips_are_composites():
    c = two_step(F3, [[1, 2]])
    fwd = ChainMap(c, c, [Matrix.identity(F3, 1), Matrix.from_rows(F3, [[1, 0], [1, 2]])])
    bwd = ChainMap(c, c, [Matrix.identity(F3, 1), Matrix.from_rows(F3, [[2, 1], [0, 1]])])
    zeros = [Matrix.zeros(F3, 2, 1)]
    e = make_equivalence(fwd, bwd, zeros, list(zeros))
    assert e.src_homotopy == e.tgt_homotopy == tuple(zeros)
    # validate checks s against bwd.fwd and t against fwd.bwd (which differ
    # here, so a swap would change the details), each against the identity
    ident = identity_chain_map(c)
    expected = Report()
    expected.extend(validate_homotopy(bwd.after(fwd), ident, zeros), "source homotopy: ")
    expected.extend(validate_homotopy(fwd.after(bwd), ident, zeros), "target homotopy: ")
    assert bwd.after(fwd) != fwd.after(bwd)
    assert e.validate().checks[-len(expected.checks):] == expected.checks
    # witness shapes are still checked when the equivalence is made
    with pytest.raises(ShapeError, match="homotopy component 0 must be 2x1"):
        make_equivalence(fwd, ChainMap(c, c, fwd.parts), zeros, [Matrix.zeros(F3, 1, 1)])
    with pytest.raises(ShapeError, match="one homotopy component per degree"):
        make_equivalence(fwd, bwd, [], zeros)
    other = two_step(F3, [[1, 1]])
    with pytest.raises(ShapeError, match="composition mismatch"):
        make_equivalence(fwd, ChainMap(other, c, bwd.parts), zeros, zeros)
    with pytest.raises(ShapeError, match="equal source and target"):
        make_equivalence(fwd, ChainMap(c, other, bwd.parts), zeros, zeros)


def test_identity_chain_map_validates():
    c = two_step(ZZ, [[3]])
    assert validate_chain_map(identity_chain_map(c)).ok


def test_zero_homotopy_between_equal_maps():
    c = two_step(ZZ, [[3]])
    f = identity_chain_map(c)
    assert validate_homotopy(f, f, [Matrix.zeros(ZZ, 1, 1)]).ok


def test_chain_map_shape_check():
    c = two_step(ZZ, [[3]])
    with pytest.raises(ShapeError):
        ChainMap(c, c, [Matrix.identity(ZZ, 2), Matrix.identity(ZZ, 1)])


def test_homology_examples():
    doubling = two_step(ZZ, [[2]])
    assert homology_invariants(doubling, 0) == Invariants(0, (2,))
    assert homology_invariants(doubling, 1) == Invariants(0, ())

    exact = two_step(ZZ, [[1]])
    assert homology_invariants(exact, 0).trivial

    lazy = ChainComplex(ZZ, [2, 3], [Matrix.zeros(ZZ, 2, 3)])
    assert homology_invariants(lazy, 0) == Invariants(2, ())
    assert homology_invariants(lazy, 1) == Invariants(3, ())


@pytest.mark.parametrize("ring", [ZZ, PrimeField(5)], ids=["Z", "F5"])
def test_homology_of_a_huge_declared_top_rank_stores_nothing_of_it(ring):
    """The top placeholder d_{n+1} is a 10^7 x 0 matrix: no row pass."""
    rank = 10**7
    c = ChainComplex(ring, [0, rank], [Matrix(ring, 0, rank, ())])
    tracemalloc.start()
    try:
        invariants = all_homology_invariants(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert invariants == [Invariants(0), Invariants(rank)]
    assert str(invariants[1]) == ("Z" if ring is ZZ else "F_5") + f"^{rank}"
    assert peak < 2**20  # one list per row would be hundreds of megabytes


def test_homology_rejects_bad_complex():
    bad = ChainComplex(
        ZZ, [1, 1, 1],
        [Matrix.from_rows(ZZ, [[1]]), Matrix.from_rows(ZZ, [[1]])],
    )
    with pytest.raises(HomologyError):
        homology_invariants(bad, 1)


def test_homology_degree_range():
    c = two_step(ZZ, [[2]])
    with pytest.raises(ShapeError):
        homology_invariants(c, 2)


def test_restrict_scalars_complex():
    ring = GroupRing(ZZ, GroupTable.cyclic(2))
    t = ring.basis_element(1)
    c = ChainComplex(ring, [1, 1], [Matrix(ring, 1, 1, [ring.sub(t, ring.one)])])
    r = restrict_complex(c)
    assert r.ranks == (2, 2)
    assert r.d(1).to_rows() == [[-1, 1], [1, -1]]

    zero = ChainComplex(ring, [1, 1], [Matrix.zeros(ring, 1, 1)])
    assert restrict_complex(zero).d(1).is_zero()

    ident = ChainComplex(ring, [1, 1], [Matrix(ring, 1, 1, [ring.one])])
    assert restrict_complex(ident).d(1) == Matrix.identity(ZZ, 2)


def test_group_ring_homology_restricts():
    ring = GroupRing(ZZ, GroupTable.cyclic(2))
    t = ring.basis_element(1)
    c = ChainComplex(ring, [1, 1], [Matrix(ring, 1, 1, [ring.sub(t, ring.one)])])
    # coker(t-1) = Z as an abelian group
    assert homology_invariants(c, 0) == Invariants(1, ())


def test_identity_and_reverse_equivalence():
    c = two_step(ZZ, [[2]])
    e = identity_equivalence(c)
    assert e.validate().ok
    r = reverse_equivalence(e)
    assert r.validate().ok
    assert r.fwd == e.bwd and r.bwd == e.fwd


def test_compose_with_identity_is_same():
    c = two_step(ZZ, [[2]])
    e = identity_equivalence(c)
    composed = compose_equivalences(e, e)
    assert composed.validate().ok
    assert composed.fwd == e.fwd
    assert composed.src_homotopy == e.src_homotopy


def test_compose_equivalence_with_its_reverse():
    from chaincert.resolution import canonical_resolution
    from chaincert.stabilize import build_ladder, expansion_equivalence

    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    t, s = build_ladder(res, res)
    e = expansion_equivalence(res, s, 0)
    round_trip = compose_equivalences(e, reverse_equivalence(e))
    assert round_trip.validate().ok


def test_compose_random_expansions_over_f3():
    from chaincert.resolution import ModulePresentation, generate_resolution
    from chaincert.stabilize import build_ladder, expansion_equivalence

    rng = random.Random(5)
    pres = ModulePresentation(F3, 1, Matrix(F3, 1, 0, ()))
    for _ in range(5):
        res_p = generate_resolution(pres, n=3, max_rank=4, seed=rng.randrange(1000))
        res_q = generate_resolution(pres, n=3, max_rank=4, seed=rng.randrange(1000))
        t, s = build_ladder(res_p, res_q)
        e0 = expansion_equivalence(res_p, s, 0)
        e1 = expansion_equivalence(res_p, s, 1)
        composed = compose_equivalences(e0, e1)
        assert composed.validate().ok


def test_euler_characteristic():
    c = ChainComplex(
        ZZ, [2, 3, 1],
        [Matrix.zeros(ZZ, 2, 3), Matrix.zeros(ZZ, 3, 1)],
    )
    assert euler_characteristic(c) == 2 - 3 + 1


def test_dualize_complex_involution():
    rng = random.Random(9)
    d1 = Matrix(F3, 2, 3, [rng.randrange(3) for _ in range(6)])
    d2 = Matrix.zeros(F3, 3, 1)
    c = ChainComplex(F3, [2, 3, 1], [d1, d2])
    assert dualize_complex(dualize_complex(c)) == c
    with pytest.raises(RingError):
        dualize_complex(two_step(ZZ, [[1]]))


def test_dualize_equivalence_validates():
    from chaincert.resolution import ModulePresentation, generate_resolution
    from chaincert.stabilize import total_equivalence

    pres = ModulePresentation(F3, 1, Matrix(F3, 1, 0, ()))
    res_p = generate_resolution(pres, n=2, max_rank=3, seed=1)
    res_q = generate_resolution(pres, n=2, max_rank=3, seed=2)
    cert = total_equivalence(res_p, res_q)
    dual = dualize_equivalence(cert)
    assert dual.validate().ok
    assert dual.source == dualize_complex(cert.source)
    assert dual.target == dualize_complex(cert.target)


def test_homotopic_complexes_share_homology():
    from chaincert.resolution import ModulePresentation, generate_resolution
    from chaincert.stabilize import total_equivalence

    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[4]]))
    res_p = generate_resolution(pres, n=2, max_rank=4, seed=21)
    res_q = generate_resolution(pres, n=2, max_rank=4, seed=22)
    cert = total_equivalence(res_p, res_q)
    for i in range(3):
        assert homology_invariants(cert.source, i) == homology_invariants(cert.target, i)
