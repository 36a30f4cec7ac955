import dataclasses
import hashlib
import random
import re

import pytest

from chaincert import chain, cli, io, resolution
from chaincert.chain import (
    ChainComplex,
    euler_characteristic,
    homology_invariants,
    identity_chain_map,
    validate_complex,
)
from chaincert.cli import main
from chaincert.matrix import Matrix, block, hstack, rank_field, restrict_scalars, solve, vstack
from chaincert.resolution import (
    ModulePresentation,
    TruncatedResolution,
    canonical_resolution,
    generate_resolution,
    pad_top,
)
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField
from chaincert import stabilize
from chaincert.chain import compose_equivalences, identity_equivalence, reverse_equivalence
from chaincert.stabilize import (
    InputMismatchError,
    LiftError,
    StabilizeError,
    build_ladder,
    build_ladder_maps,
    chain_isomorphism,
    expansion_equivalence,
    intermediate_complex,
    inverse_pair,
    ladder_ranks,
    schanuel_check,
    stabilized_complex,
    total_equivalence,
    verify_certificate,
)

from conftest import f2c4_resolution, random_resolution_pair, relabel, ring_int, s3_resolution
from test_golden import GOLDEN

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# rank recursion


def test_ladder_ranks_spot_value():
    t, s = ladder_ranks([1, 1, 1], [2, 1, 1])
    assert t == [1, 3, 3]
    assert s == [2, 2, 4]
    chi_first = 1 - 1 + (1 + s[2])
    chi_second = 2 - 1 + (1 + t[2])
    assert chi_first == chi_second == 5


def test_ladder_ranks_recursion_property():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 6)
        p = [rng.randint(0, 5) for _ in range(n + 1)]
        q = [rng.randint(0, 5) for _ in range(n + 1)]
        t, s = ladder_ranks(p, q)
        assert t[0] == p[0] and s[0] == q[0]
        for i in range(1, n + 1):
            assert t[i] == s[i - 1] + p[i]
            assert s[i] == t[i - 1] + q[i]
        chi_p = sum((-1) ** i * r for i, r in enumerate(p)) + (-1) ** n * s[n]
        chi_q = sum((-1) ** i * r for i, r in enumerate(q)) + (-1) ** n * t[n]
        assert chi_p == chi_q


def test_symmetric_pair_has_equal_towers():
    _, res = canonical_resolution("Z_over_Z[C_2]", 3)
    t, s = build_ladder(res, res)
    assert t == s


# ---------------------------------------------------------------------------
# tower blocks: construction never forms them; they are the tests' oracle
# of the lifts (the lifting systems solved at tower size)


def tower_incl(c, added, i):
    """The inclusion of the degree-i term of ``c`` into its tower module,
    the term followed by the opposite tower's module of degree i-1, of rank
    ``added[i - 1]`` (P_i -> T_i for the first input with ``added`` = s,
    Q_i -> S_i for the second with ``added`` = t)."""
    size = c.ranks[i] + (added[i - 1] if i else 0)
    return Matrix.identity(c.ring, size).submatrix(range(size), range(c.ranks[i]))


def tower_step(c, added, i):
    """The tower boundary [[incl_{i-1} d_i, 0], [0, 1]]: T_i -> T_{i-1} (+)
    S_{i-1} for the first input, S_i -> S_{i-1} (+) T_{i-1} for the second."""
    lifted = tower_incl(c, added, i - 1) * c.d(i)
    a = added[i - 1]
    return block(
        [
            [lifted, Matrix.zeros(c.ring, lifted.rows, a)],
            [Matrix.zeros(c.ring, a, c.ranks[i]), Matrix.identity(c.ring, a)],
        ]
    )


def test_ladder_block_structure():
    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    res_p = generate_resolution(pres, n=2, max_rank=3, seed=1)
    res_q = generate_resolution(pres, n=2, max_rank=3, seed=2)
    t, s = build_ladder(res_p, res_q)
    left, right = res_p.complex, res_q.complex

    assert tower_incl(left, s, 0) == Matrix.identity(ZZ, res_p.complex.ranks[0])
    assert tower_incl(right, t, 0) == Matrix.identity(ZZ, res_q.complex.ranks[0])

    for i in (1, 2):
        p_i = res_p.complex.ranks[i]
        step = tower_step(left, s, i)
        assert step.shape == (t[i - 1] + s[i - 1], t[i])
        lifted = tower_incl(left, s, i - 1) * res_p.complex.d(i)
        for r in range(step.rows):
            for c in range(step.cols):
                if c < p_i:
                    expected = lifted.entry(r, c) if r < lifted.rows else 0
                elif r < lifted.rows:
                    expected = 0
                else:
                    expected = 1 if (r - lifted.rows) == (c - p_i) else 0
                assert step.entry(r, c) == expected


def test_build_ladder_rejects_mismatches():
    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    a = generate_resolution(pres, n=2, max_rank=3, seed=1)
    b = generate_resolution(pres, n=3, max_rank=3, seed=1)
    with pytest.raises(InputMismatchError):
        build_ladder(a, b)
    other = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[3]]))
    c = generate_resolution(other, n=2, max_rank=3, seed=1)
    with pytest.raises(InputMismatchError):
        build_ladder(a, c)


@pytest.mark.parametrize("side", ["left", "right"])
def test_build_ladder_rejects_an_input_that_is_not_a_complex(side):
    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    good = generate_resolution(pres, n=3, max_rank=3, seed=1)
    one, zero = Matrix.from_rows(ZZ, [[1]]), Matrix.from_rows(ZZ, [[0]])
    # d1.d2 = 0 but d2.d3 = 1
    bad = TruncatedResolution(
        pres, ChainComplex(ZZ, [1, 1, 1, 1], [zero, one, one]), Matrix.identity(ZZ, 1)
    )
    pair = (bad, good) if side == "left" else (good, bad)
    with pytest.raises(StabilizeError) as err:
        build_ladder(*pair)
    assert type(err.value) is StabilizeError
    assert str(err.value) == f"{side} input is not a complex at degree 2: d2.d3 = 0 fails"


def _boundary_bumped(res, i, e):
    """``res`` with one added to entry ``e`` (row-major) of d_{i+1}."""
    c = res.complex
    d = c.diffs[i]
    entries = list(d.entries)
    entries[e] = d.ring.add(entries[e], d.ring.one)
    diffs = list(c.diffs)
    diffs[i] = Matrix(d.ring, d.rows, d.cols, entries)
    return dataclasses.replace(res, complex=ChainComplex(c.ring, c.ranks, diffs))


def _generated_pair(ring, relations, seeds):
    pres = ModulePresentation(ring, relations.rows, relations)
    return tuple(generate_resolution(pres, n=4, max_rank=5, seed=seed) for seed in seeds)


def _padded_pair(res):
    return res, pad_top(res, 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _generated_pair(ZZ, Matrix.from_rows(ZZ, [[0], [6]]), (3, 4)),  # Z + Z/6
        lambda: _generated_pair(F5, Matrix.zeros(F5, 2, 0), (7, 8)),
        lambda: _generated_pair(F2, Matrix.zeros(F2, 2, 0), (7, 8)),
        lambda: _padded_pair(canonical_resolution("Z_over_Z[C_3]", 4)[1]),
        lambda: _padded_pair(s3_resolution()),
        lambda: _padded_pair(f2c4_resolution(4)),
    ],
    ids=["Z", "F5", "F2", "Z[C3]", "Z[S3]", "F2[C4]"],
)
def test_the_lifts_alone_refuse_every_input_that_is_not_a_complex(make):
    # build_ladder_maps runs no d.d pass: the forward lift at degree i
    # needs the T_{i-2} rows of f_{i-1}[:, P_{i-1}] d^P_i to vanish, and
    # those rows are d^P_{i-1} d^P_i, so the forward lifts check d.d on the
    # first input and the backward lifts on the second. Every single-entry
    # bump of an input boundary that breaks d.d raises LiftError
    left, right = make()
    build_ladder_maps(left, right)
    broken = 0
    for side, res in enumerate((left, right)):
        for i, d in enumerate(res.complex.diffs):
            for e in range(d.rows * d.cols):
                bad = _boundary_bumped(res, i, e)
                if validate_complex(bad.complex).ok:
                    continue
                broken += 1
                with pytest.raises(LiftError):
                    build_ladder_maps(*((bad, right) if side == 0 else (left, bad)))
    assert broken


# ---------------------------------------------------------------------------
# stabilized and intermediate complexes


def test_stabilized_complex_zero_stabilizer_is_input():
    ring = ZZ
    pres = ModulePresentation(ring, 0, Matrix.zeros(ring, 0, 0))
    zero_res = TruncatedResolution(
        pres,
        ChainComplex(ring, [0, 0], [Matrix.zeros(ring, 0, 0)]),
        Matrix.zeros(ring, 0, 0),
    )
    t, s = build_ladder(zero_res, zero_res)
    assert s == (0, 0)
    assert stabilized_complex(zero_res, s[1]) == zero_res.complex


def test_stabilized_complex_c2():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    t, s = build_ladder(res, res)
    stab = stabilized_complex(res, s[2])
    # top rank 1 + s_2 where s_2 = t_1 + q_2 = (s_0 + p_1) + q_2 = 3
    assert s[2] == 3
    assert stab.ranks == (1, 1, 4)
    assert validate_complex(stab).ok


def test_intermediate_ranks_c2_pair():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    t, s = build_ladder(res, res)
    # recursion oracle: t = (1,2,3), s = (1,2,3)
    assert (intermediate_complex(res, s, 0).ranks) == (1, 1, 4)
    assert (intermediate_complex(res, s, 1).ranks) == (2, 2, 4)
    assert (intermediate_complex(res, s, 2).ranks) == (2, 4, 6)


def test_intermediate_endpoints():
    pres = ModulePresentation(F3, 1, Matrix(F3, 1, 0, ()))
    res_p = generate_resolution(pres, n=3, max_rank=4, seed=5)
    res_q = generate_resolution(pres, n=3, max_rank=4, seed=6)
    t, s = build_ladder(res_p, res_q)
    n = 3
    assert intermediate_complex(res_p, s, 0) == stabilized_complex(res_p, s[n])
    assert intermediate_complex(res_q, t, 0) == stabilized_complex(res_q, t[n])
    full = intermediate_complex(res_p, s, n)
    assert full.ranks == tuple(a + b for a, b in zip(t, s))
    for res, added in ((res_p, s), (res_q, t)):
        for r in range(n + 1):
            assert validate_complex(intermediate_complex(res, added, r)).ok


# ---------------------------------------------------------------------------
# expansion equivalences


def test_expansion_equivalence_c2():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    t, s = build_ladder(res, res)
    e = expansion_equivalence(res, s, 0)
    assert e.validate().ok
    assert e.bwd.after(e.fwd) == identity_chain_map(e.source)


def test_expansion_rank_bookkeeping():
    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[6]]))
    res_p = generate_resolution(pres, n=3, max_rank=4, seed=3)
    res_q = generate_resolution(pres, n=3, max_rank=4, seed=4)
    t, s = build_ladder(res_p, res_q)
    for r in range(3):
        e = expansion_equivalence(res_p, s, r)
        grow = s[r]
        for i in range(4):
            expected = e.source.ranks[i] + (grow if i in (r, r + 1) else 0)
            assert e.target.ranks[i] == expected
        assert e.validate().ok


def test_expansion_zero_adjoined_is_identity_like():
    ring = ZZ
    pres = ModulePresentation(ring, 0, Matrix.zeros(ring, 0, 0))
    zero_res = TruncatedResolution(
        pres,
        ChainComplex(ring, [0, 0], [Matrix.zeros(ring, 0, 0)]),
        Matrix.zeros(ring, 0, 0),
    )
    t, s = build_ladder(zero_res, zero_res)
    e = expansion_equivalence(zero_res, s, 0)
    assert e.source == e.target
    assert e.validate().ok


# ---------------------------------------------------------------------------
# the block pair


def test_inverse_pair_spot_values():
    h, k = inverse_pair(Matrix.from_rows(ZZ, [[2]]), Matrix.from_rows(ZZ, [[3]]))
    assert h.to_rows() == [[2, -5], [1, -3]]
    assert k.to_rows() == [[3, -5], [1, -2]]
    assert (h * k) == Matrix.identity(ZZ, 2)
    assert (k * h) == Matrix.identity(ZZ, 2)


def test_inverse_pair_zero_maps_swap():
    h, k = inverse_pair(Matrix.zeros(ZZ, 1, 1), Matrix.zeros(ZZ, 1, 1))
    assert h.to_rows() == [[0, 1], [1, 0]]
    assert k.to_rows() == [[0, 1], [1, 0]]


def test_inverse_pair_random_rectangular():
    rng = random.Random(7)
    for ring in (ZZ, F3):
        for _ in range(40):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            if ring is ZZ:
                f = Matrix(ring, b, a, [rng.randint(-9, 9) for _ in range(a * b)])
                g = Matrix(ring, a, b, [rng.randint(-9, 9) for _ in range(a * b)])
            else:
                f = Matrix(ring, b, a, [rng.randrange(3) for _ in range(a * b)])
                g = Matrix(ring, a, b, [rng.randrange(3) for _ in range(a * b)])
            h, k = inverse_pair(f, g)
            assert h * k == Matrix.identity(ring, a + b)
            assert k * h == Matrix.identity(ring, a + b)


def _random_element(ring, rng):
    if isinstance(ring, GroupRing):
        return tuple(_random_element(ring.base, rng) for _ in range(ring.group.order))
    return rng.randrange(ring.p) if isinstance(ring, PrimeField) else rng.randint(-4, 4)


@pytest.mark.parametrize(
    "ring",
    [ZZ, F5, GroupRing(ZZ, GroupTable.symmetric(3)), GroupRing(F2, GroupTable.cyclic(4))],
    ids=["Z", "F5", "Z[S3]", "F2[C4]"],
)
def test_inverse_pair_equals_the_literal_blocks(ring):
    # the corners are formed from -f and -g; they must equal 1 - f g and
    # 1 - g f written out with Matrix arithmetic, for empty f too
    rng = random.Random(23)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 3), (3, 2), (4, 4)]
    for b, a in shapes * 3:
        f = Matrix(ring, b, a, [_random_element(ring, rng) for _ in range(a * b)])
        g = Matrix(ring, a, b, [_random_element(ring, rng) for _ in range(a * b)])
        one_a, one_b = Matrix.identity(ring, a), Matrix.identity(ring, b)
        h, k = inverse_pair(f, g)
        assert h == block([[f, one_b - f * g], [one_a, -g]])
        assert k == block([[g, one_a - g * f], [one_b, -f]])


# ---------------------------------------------------------------------------
# the one-product block pair check: h k = 1 forces k h = 1 over every
# supported ring, so verify_certificate forms only h k


def _padded_certificate(res):
    return total_equivalence(res, pad_top(res, 1))


def _zc3_certificate():
    return _padded_certificate(canonical_resolution("Z_over_Z[C_3]", 3)[1])


ONE_PRODUCT_CERTIFICATES = [
    pytest.param(
        lambda: total_equivalence(*random_resolution_pair(ZZ, 3, 4, random.Random(12))),
        id="Z",
    ),
    pytest.param(
        lambda: total_equivalence(*random_resolution_pair(F5, 3, 4, random.Random(12))),
        id="F5",
    ),
    pytest.param(_zc3_certificate, id="ZC3"),
    pytest.param(lambda: _padded_certificate(f2c4_resolution(3)), id="F2C4"),
    pytest.param(lambda: _padded_certificate(s3_resolution()), id="ZS3"),
]


def _random_entry(ring, rng):
    if isinstance(ring, GroupRing):
        return tuple(_random_entry(ring.base, rng) for _ in range(ring.group.order))
    if isinstance(ring, PrimeField):
        return rng.randrange(ring.p)
    return rng.randint(-2, 2)


def _random_square(ring, size, rng):
    return Matrix(ring, size, size, [_random_entry(ring, rng) for _ in range(size * size)])


def _bumped(m, rng):
    """``m`` with one seeded entry increased by 1."""
    entries = list(m.entries)
    at = rng.randrange(len(entries))
    entries[at] = m.ring.add(entries[at], m.ring.one)
    return Matrix(m.ring, m.rows, m.cols, entries)


def _elementary_pair(ring, size, rng):
    """A product u of elementary matrices 1 + c e_ab (a != b) and its
    inverse, built from the factors 1 - c e_ab in reverse order."""
    u = v = Matrix.identity(ring, size)
    for _ in range(3):
        a, b = rng.sample(range(size), 2)
        c = _random_entry(ring, rng)
        fwd = list(Matrix.identity(ring, size).entries)
        bwd = list(fwd)
        fwd[a * size + b], bwd[a * size + b] = c, ring.neg(c)
        u = u * Matrix(ring, size, size, fwd)
        v = Matrix(ring, size, size, bwd) * v
    return u, v


def _block_pair_verdicts(cert, i, h, k):
    """verify_certificate's verdict on degree i with (h, k) stored there,
    and whether every other check still passes."""
    cert = dataclasses.replace(
        cert,
        iso_fwd=cert.iso_fwd[:i] + (h,) + cert.iso_fwd[i + 1 :],
        iso_bwd=cert.iso_bwd[:i] + (k,) + cert.iso_bwd[i + 1 :],
    )
    name = f"block pair mutually inverse at degree {i}"
    checks = verify_certificate(cert).checks
    verdict = next(c.ok for c in checks if c.name == name)
    return verdict, all(c.ok for c in checks if c.name != name)


def _mutually_inverse(h, k):
    """The two-sided oracle: both products, as the check formed them before."""
    one = Matrix.identity(h.ring, h.rows)
    return h * k == one and k * h == one


@pytest.mark.parametrize("side", ["iso_fwd", "iso_bwd"])
@pytest.mark.parametrize("build", ONE_PRODUCT_CERTIFICATES)
def test_block_pair_check_fails_exactly_the_bumped_degree(build, side):
    cert = build()
    assert verify_certificate(cert).ok
    rng = random.Random(f"bump {side}")
    degrees = [i for i, h in enumerate(cert.iso_fwd) if h.rows]
    for i in rng.sample(degrees, min(3, len(degrees))):
        blocks = list(getattr(cert, side))
        blocks[i] = _bumped(blocks[i], rng)
        report = verify_certificate(dataclasses.replace(cert, **{side: tuple(blocks)}))
        failed = [check.name for check in report.checks if not check.ok]
        assert failed == [f"block pair mutually inverse at degree {i}"]


@pytest.mark.parametrize("build", ONE_PRODUCT_CERTIFICATES)
def test_block_pair_check_agrees_with_two_sided_oracle(build):
    cert = build()
    ring = cert.source.ring
    rng = random.Random(f"oracle {ring}")
    verdicts = []
    for i, (h, k) in enumerate(zip(cert.iso_fwd, cert.iso_bwd)):
        size = h.rows
        if size < 2:
            continue
        u, v = _elementary_pair(ring, size, rng)
        r = _random_square(ring, size, rng)
        singular = Matrix(ring, size, size, r.entries[:size] * size)  # equal rows
        candidates = [
            (h, k),
            (k, h),
            (h * u, v * k),
            (u, v),
            (_bumped(h, rng), k),
            (h, _bumped(k, rng)),
            (h, h),
            (r, _random_square(ring, size, rng)),
            (h, r),
            (singular, k),
            (Matrix.zeros(ring, size, size), Matrix.identity(ring, size)),
        ]
        for a, b in candidates:
            verdict, rest_ok = _block_pair_verdicts(cert, i, a, b)
            assert rest_ok
            assert verdict == _mutually_inverse(a, b)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_block_pair_check_refuses_misshapen_pairs():
    cert = _zc3_certificate()
    i = len(cert.iso_fwd) - 1
    h, k = cert.iso_fwd[i], cert.iso_bwd[i]
    ring, size = h.ring, h.rows
    taller = vstack(k, Matrix.zeros(ring, 1, size))  # h * taller cannot be formed
    wider = hstack(k, Matrix.zeros(ring, size, 1))
    # wider * [h; one row of h] = k h = 1: only the shape check refuses it
    for a, b in [(h, taller), (h, wider), (taller, h), (wider, vstack(h, h.submatrix([0], range(size))))]:
        assert _block_pair_verdicts(cert, i, a, b) == (False, True)


def test_block_pair_check_forms_one_product_per_degree(monkeypatch):
    cert = _zc3_certificate()
    products = []
    mul = Matrix.__mul__

    def recording(a, b):
        products.append((id(a), id(b)))
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", recording)
    assert verify_certificate(cert).ok
    blocks = {id(m) for m in cert.iso_fwd + cert.iso_bwd}
    assert [pair for pair in products if blocks.intersection(pair)] == [
        (id(h), id(k)) for h, k in zip(cert.iso_fwd, cert.iso_bwd)
    ]


# ---------------------------------------------------------------------------
# ladder maps and the middle isomorphism


def test_ladder_maps_identity_pair():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    t, s = build_ladder(res, res)
    h, k = build_ladder_maps(res, res)  # internal verification runs
    n = 2
    iso = chain_isomorphism(h, k, intermediate_complex(res, s, n), intermediate_complex(res, t, n))
    assert iso.validate().ok
    assert iso.bwd.after(iso.fwd) == identity_chain_map(iso.source)
    assert iso.fwd.after(iso.bwd) == identity_chain_map(iso.target)


def test_lift_failure_names_degree():
    # first input is not exact at degree 0 (image 4Z instead of 2Z)
    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    bad = TruncatedResolution(
        pres,
        ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[4]])]),
        Matrix.identity(ZZ, 1),
    )
    good = TruncatedResolution(
        pres,
        ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[2]])]),
        Matrix.identity(ZZ, 1),
    )
    with pytest.raises(LiftError) as err:
        build_ladder_maps(bad, good)
    assert err.value.degree == 1


@pytest.mark.parametrize(
    "ring", [ZZ, F3, GroupRing(ZZ, GroupTable.cyclic(2))], ids=["Z", "F3", "Z[C2]"]
)
def test_block_lift_matches_the_full_system_on_random_data(ring):
    # random boundaries and random blocks f, c, g of h_1 = [[f, c], [1, -g]],
    # not from any resolution: the block solve must return the full-size
    # solve's solution, and raise LiftError exactly when that system has none
    rng = random.Random(11)

    def rand(rows, cols):
        return Matrix(ring, rows, cols, [ring_int(ring, rng.randint(-3, 3)) for _ in range(rows * cols)])

    outcomes = set()
    for _ in range(80):
        p = [rng.randint(0, 3) for _ in range(3)]
        q = [rng.randint(0, 3) for _ in range(3)]
        left = ChainComplex(ring, p, [rand(p[0], p[1]), rand(p[1], p[2])])
        right = ChainComplex(ring, q, [rand(q[0], q[1]), rand(q[1], q[2])])
        t, s = ladder_ranks(p, q)
        f, c, g = rand(s[1], t[1]), rand(s[1], s[1]), rand(t[1], s[1])
        cleared = rng.random() < 0.5
        if cleared:  # the T_0 rows inside S_1, which every solvable system has zero
            f, c = (_rows_cleared(m, range(q[1], s[1])) for m in (f, c))
        h = block([[f, c], [Matrix.identity(ring, t[1]), -g]])
        expected = solve(tower_step(right, t, 2), h * tower_step(left, s, 2))
        try:
            got = stabilize._lift(f, c, -g, left.d(2), right.d(2), 2, "forward")
        except LiftError as err:
            assert (err.degree, err.direction) == (2, "forward")
            got = None
        assert (got is None) == (expected is None)
        assert got is None or got == expected
        outcomes.add((cleared, got is None))
    assert outcomes == {(False, True), (True, True), (True, False), (False, False)}


def _rows_cleared(m, rows):
    """``m`` with the given rows set to zero."""
    entries = m.to_rows()
    for r in rows:
        entries[r] = [m.ring.zero] * m.cols
    return Matrix.from_rows(m.ring, entries, m.cols)


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3"])
def test_block_lift_checks_the_product_part_of_the_between_band(ring):
    # the corner's T_0 rows vanish but f's do not, so only the product
    # f[:, P_1] d_2 decides whether the right-hand side's T_0 band is zero;
    # the block lift must agree with the full-size system
    rng = random.Random(29)

    def rand(rows, cols):
        return Matrix(ring, rows, cols, [ring_int(ring, rng.randint(-3, 3)) for _ in range(rows * cols)])

    outcomes = set()
    for _ in range(80):
        p = [rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)]
        q = [rng.randint(0, 3) for _ in range(3)]
        d2 = rand(p[1], p[2]) if rng.random() < 0.7 else Matrix.zeros(ring, p[1], p[2])
        left = ChainComplex(ring, p, [rand(p[0], p[1]), d2])
        right = ChainComplex(ring, q, [rand(q[0], q[1]), rand(q[1], q[2])])
        t, s = ladder_ranks(p, q)
        f, g = rand(s[1], t[1]), rand(t[1], s[1])
        c = _rows_cleared(rand(s[1], s[1]), range(q[1], s[1]))
        h = block([[f, c], [Matrix.identity(ring, t[1]), -g]])
        expected = solve(tower_step(right, t, 2), h * tower_step(left, s, 2))
        try:
            got = stabilize._lift(f, c, -g, left.d(2), right.d(2), 2, "forward")
        except LiftError:
            got = None
        assert got == expected
        outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "call,message",
    [(2, "forward lift square fails at degree 1"), (5, "backward lift square fails at degree 2")],
)
def test_lift_square_check_rejects_a_wrong_solution(monkeypatch, call, message):
    # solves run in the order: base forward, base backward, then forward
    # and backward at each degree; only the chosen one goes wrong
    real = stabilize.solve
    calls = []

    def wrong_once(a, b):
        x = real(a, b)
        calls.append(a)
        if len(calls) - 1 != call:
            return x
        # bump X[j, 0] for a nonzero column j of A: A X moves by that column
        j = next(j for j in range(a.cols) if any(a.entry(r, j) for r in range(a.rows)))
        rows = x.to_rows()
        rows[j][0] += 1
        return Matrix.from_rows(a.ring, rows)

    monkeypatch.setattr(stabilize, "solve", wrong_once)
    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    res_p = generate_resolution(pres, n=3, max_rank=3, seed=1)
    res_q = generate_resolution(pres, n=3, max_rank=3, seed=2)
    with pytest.raises(StabilizeError) as err:
        total_equivalence(res_p, res_q)
    assert not isinstance(err.value, LiftError)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the full pipeline


def test_total_equivalence_trivial_pair():
    _, res = canonical_resolution("Z_over_Z", 1)
    cert = total_equivalence(res, res)
    assert verify_certificate(cert).ok
    assert cert.source == cert.target
    assert schanuel_check(cert).ok


def test_total_equivalence_length_zero():
    # single-degree input: no expansions, the block isomorphism alone;
    # degree 0 carries the stabilizer, so its homology is module + other side
    pres = ModulePresentation(ZZ, 1, Matrix(ZZ, 1, 0, ()))
    res = TruncatedResolution(
        pres, ChainComplex(ZZ, [1], []), Matrix.identity(ZZ, 1)
    )
    cert = total_equivalence(res, res)
    assert cert.source.ranks == (2,)
    assert verify_certificate(cert).ok
    assert schanuel_check(cert).ok
    round_trip = tuple(g * f for g, f in zip(cert.bwd, cert.fwd))
    assert round_trip == identity_chain_map(cert.source).parts


def test_total_equivalence_c2_padded():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    cert = total_equivalence(res, pad_top(res, 1))
    assert verify_certificate(cert).ok
    assert schanuel_check(cert).ok
    for i in range(3):
        assert homology_invariants(cert.source, i) == homology_invariants(
            cert.target, i
        )


def stage_loop_equivalence(res_p, res_q):
    """The reference construction that ``total_equivalence`` reads off in
    closed form: expand the first stabilized complex stage by stage, cross
    over through the block isomorphisms and unwind the second side's
    expansions in reverse, validating and composing all 2n+1 stages."""
    t, s = build_ladder(res_p, res_q)
    n = res_p.length
    acc = identity_equivalence(intermediate_complex(res_p, s, 0))
    assert acc.source == stabilized_complex(res_p, s[n])
    stages = [expansion_equivalence(res_p, s, r) for r in range(n)]
    h, k = build_ladder_maps(res_p, res_q)
    stages.append(
        chain_isomorphism(h, k, intermediate_complex(res_p, s, n), intermediate_complex(res_q, t, n))
    )
    stages += [
        reverse_equivalence(expansion_equivalence(res_q, t, r)) for r in range(n - 1, -1, -1)
    ]
    for stage in stages:
        assert stage.validate().ok
        acc = compose_equivalences(acc, stage)
    assert acc.target == stabilized_complex(res_q, t[n])
    return acc


def _truncated(res, n):
    return TruncatedResolution(
        res.presentation,
        ChainComplex(res.ring, res.complex.ranks[: n + 1], res.complex.diffs[:n]),
        res.augmentation,
    )


def _seeded_pairs(ring, seed, presentation=None):
    rng = random.Random(seed)
    for n in range(1, 7):
        if presentation is None:
            res_p, res_q = random_resolution_pair(ring, n, max_rank=4, rng=rng)
        else:
            res_p = generate_resolution(presentation, n=n, max_rank=4, seed=rng.randrange(2**30))
            res_q = generate_resolution(presentation, n=n, max_rank=4, seed=rng.randrange(2**30))
        yield res_p, res_q
        yield res_p, pad_top(res_q, 2)


def _group_ring_pairs(build, lengths):
    for n in lengths:
        res = build(n)
        yield res, res
        yield res, pad_top(res, n % 3 + 1)
        yield pad_top(res, 1), pad_top(res, 2)


ORACLE_CASES = [
    pytest.param(lambda: _seeded_pairs(F2, 1), id="F2"),
    pytest.param(lambda: _seeded_pairs(PrimeField(5), 2), id="F5"),
    pytest.param(lambda: _seeded_pairs(ZZ, 3), id="Z"),
    pytest.param(
        lambda: _seeded_pairs(ZZ, 4, ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0]))),
        id="Z-torsion6",
    ),
    pytest.param(
        lambda: _group_ring_pairs(lambda n: canonical_resolution("Z_over_Z[C_2]", n)[1], range(1, 7)),
        id="ZC2",
    ),
    pytest.param(
        lambda: _group_ring_pairs(lambda n: canonical_resolution("Z_over_Z[C_6]", n)[1], range(1, 7)),
        id="ZC6",
    ),
    pytest.param(lambda: _group_ring_pairs(f2c4_resolution, range(1, 7)), id="F2C4"),
    pytest.param(lambda: _group_ring_pairs(lambda n: _truncated(s3_resolution(), n), (1, 2)), id="ZS3"),
    pytest.param(
        lambda: _group_ring_pairs(
            lambda n: _truncated(relabel(s3_resolution(), [3, 0, 5, 1, 4, 2]), n), (1, 2)
        ),
        id="ZS3-relabelled",
    ),
]


@pytest.mark.parametrize("pairs", ORACLE_CASES)
def test_total_equivalence_matches_the_stage_loop(pairs):
    count = 0
    for res_p, res_q in pairs():
        cert = total_equivalence(res_p, res_q)
        oracle = stage_loop_equivalence(res_p, res_q)
        assert (cert.source, cert.target) == (oracle.source, oracle.target)
        assert cert.fwd == oracle.fwd.parts
        assert cert.bwd == oracle.bwd.parts
        assert cert.src_homotopy == oracle.src_homotopy
        assert cert.tgt_homotopy == oracle.tgt_homotopy
        count += 1
    assert count >= 6


GOLDEN_PAIRS = [pytest.param(lambda build=case.values[0]: [build()], id=case.id) for case in GOLDEN]


def full_size_lifts(res_p, res_q, h, k, i):
    """The degree-i lifting systems solved against the whole tower steps:
    the oracle for the block solve in ``build_ladder_maps``."""
    t, s = ladder_ranks(res_p.complex.ranks, res_q.complex.ranks)
    step_p, step_q = tower_step(res_p.complex, s, i), tower_step(res_q.complex, t, i)
    return solve(step_q, h[i - 1] * step_p), solve(step_p, k[i - 1] * step_q)


@pytest.mark.parametrize("pairs", ORACLE_CASES + GOLDEN_PAIRS)
def test_block_lifts_match_the_full_size_solve(pairs):
    for res_p, res_q in pairs():
        t, s = build_ladder(res_p, res_q)
        h, k = build_ladder_maps(res_p, res_q)
        for i in range(1, res_p.length + 1):
            fwd, bwd = full_size_lifts(res_p, res_q, h, k, i)
            # f_i and g_i are the top-left blocks of h_i and k_i
            assert h[i].submatrix(range(s[i]), range(t[i])) == fwd
            assert k[i].submatrix(range(t[i]), range(s[i])) == bwd


@pytest.mark.parametrize("pairs", GOLDEN_PAIRS)
def test_block_pairs_are_written_and_never_read(monkeypatch, pairs):
    # every lift is solved from the previous degree's blocks: no h_i or k_i
    # that build_ladder_maps returns is an operand of a product, a
    # submatrix or a solve while it runs
    operands = []
    mul, submatrix, real_solve = Matrix.__mul__, Matrix.submatrix, stabilize.solve

    def recording(real):
        def call(a, b, *rest):
            operands.extend((a, b))
            return real(a, b, *rest)

        return call

    monkeypatch.setattr(Matrix, "__mul__", recording(mul))
    monkeypatch.setattr(Matrix, "submatrix", recording(submatrix))
    monkeypatch.setattr(stabilize, "solve", recording(real_solve))
    for res_p, res_q in pairs():
        h, k = build_ladder_maps(res_p, res_q)
        assert operands
        assert not [m for m in h + k if any(m is op for op in operands)]


@pytest.mark.parametrize("pairs", ORACLE_CASES + GOLDEN_PAIRS)
def test_fully_expanded_stage_matches_the_tower_steps(pairs):
    # the expansion chain and the tower steps are two independent layouts
    # of the same fully expanded complex: T_i (+) S_i on the left
    for res_p, res_q in pairs():
        t, s = build_ladder(res_p, res_q)
        n = res_p.length
        for res, added in ((res_p, s), (res_q, t)):
            full = intermediate_complex(res, added, n)
            for i in range(1, n + 1):
                step = tower_step(res.complex, added, i)
                assert full.d(i) == hstack(step, Matrix.zeros(res.ring, step.rows, added[i]))


def test_total_equivalence_builds_no_stage(monkeypatch):
    def unused(*args):
        raise AssertionError("construction built an expansion stage")

    # set on the stabilize module, where construction would look them up
    for name in (
        "intermediate_complex",
        "expansion_equivalence",
        "chain_isomorphism",
        "compose_equivalences",
        "reverse_equivalence",
        "identity_equivalence",
    ):
        monkeypatch.setattr(stabilize, name, unused, raising=False)
    _, res = canonical_resolution("Z_over_Z[C_2]", 3)
    assert verify_certificate(total_equivalence(res, pad_top(res, 2))).ok


def test_stabilize_rejects_a_broken_closed_form_block(monkeypatch, tmp_path, capsys):
    real = cli.total_equivalence

    def broken(res_p, res_q):
        # drop the block read off h_2: the target round trip is no longer contracted
        cert = real(res_p, res_q)
        t = list(cert.tgt_homotopy)
        t[1] = Matrix.zeros(t[1].ring, t[1].rows, t[1].cols)
        return dataclasses.replace(cert, tgt_homotopy=tuple(t))

    monkeypatch.setattr(cli, "total_equivalence", broken)
    pres = ModulePresentation(F3, 1, Matrix(F3, 1, 0, ()))
    paths = []
    for name, seed in (("p", 5), ("q", 6)):
        path = str(tmp_path / f"{name}.json")
        io.save(path, io.resolution_to_json(generate_resolution(pres, n=3, max_rank=4, seed=seed)))
        paths.append(path)
    out = tmp_path / "cert.json"
    assert main(["stabilize", *paths, "--out", str(out)]) == 2
    assert not out.exists()
    assert "[FAIL] target homotopy: homotopy identity at degree" in capsys.readouterr().out


def test_total_equivalence_f2_property():
    pres = ModulePresentation(F2, 1, Matrix.from_rows(F2, [[0]]))
    res_p = generate_resolution(pres, n=3, max_rank=5, seed=31)
    res_q = generate_resolution(pres, n=3, max_rank=5, seed=32)
    cert = total_equivalence(res_p, res_q)
    assert verify_certificate(cert).ok
    assert schanuel_check(cert).ok


def test_total_equivalence_euler_characteristics_agree():
    pres = ModulePresentation(ZZ, 2, Matrix.from_rows(ZZ, [[2, 0], [0, 3]]))
    res_p = generate_resolution(pres, n=2, max_rank=5, seed=41)
    res_q = generate_resolution(pres, n=2, max_rank=5, seed=42)
    cert = total_equivalence(res_p, res_q)
    assert euler_characteristic(cert.source) == euler_characteristic(cert.target)


def test_schanuel_rank_nullity_on_field_example():
    # at the top degree the compared dimensions are nullity + stabilizer
    pres = ModulePresentation(F3, 1, Matrix(F3, 1, 0, ()))
    res_p = generate_resolution(pres, n=2, max_rank=4, seed=51)
    res_q = generate_resolution(pres, n=2, max_rank=4, seed=52)
    t, s = build_ladder(res_p, res_q)
    n = 2
    null_p = res_p.complex.ranks[n] - rank_field(res_p.complex.d(n))
    null_q = res_q.complex.ranks[n] - rank_field(res_q.complex.d(n))
    assert null_p + s[n] == null_q + t[n]
    cert = total_equivalence(res_p, res_q)
    top_p = homology_invariants(cert.source, n)
    top_q = homology_invariants(cert.target, n)
    assert top_p.free_rank == null_p + s[n]
    assert top_p == top_q


# ---------------------------------------------------------------------------
# homology comparison over group rings


def _zc6_compare_pair():
    _, res = canonical_resolution("Z_over_Z[C_6]", 6)
    return res, pad_top(res, 2)


def _zs3_compare_pair():
    res = s3_resolution()
    return res, pad_top(res, 1)


# sha256 of everything `compare` prints, recorded before schanuel_check
# restricted each complex only once; the free parts were written then as
# one ``Z`` per summand, so the output is hashed in that rendering
COMPARE_OUTPUT = [
    pytest.param(
        _zc6_compare_pair,
        "6859fba18796f3d061d36bad1cc4f0e9c591cf683548e84e67611d6871c82ff5",
        id="ZC6-n6-pad2",
    ),
    pytest.param(
        _zs3_compare_pair,
        "efec99e089a6996301d70f2f5bcd046d9724d62b7a89f679e7bd14f3c6c18fb6",
        id="ZS3-n2-pad1",
    ),
]


@pytest.mark.parametrize("build,digest", COMPARE_OUTPUT)
def test_compare_output_is_unchanged(build, digest, tmp_path, capsys):
    paths = []
    for name, r in zip("pq", build()):
        path = str(tmp_path / f"{name}.json")
        io.save(path, io.resolution_to_json(r))
        paths.append(path)
    capsys.readouterr()
    assert main(["compare", *paths]) == 0
    out = capsys.readouterr().out
    assert "homology comparison:" in out
    assert "Z + Z" not in out
    one_z_per_summand = re.sub(r"Z\^(\d+)", lambda m: " + ".join(["Z"] * int(m[1])), out)
    assert hashlib.sha256(one_z_per_summand.encode()).hexdigest() == digest


def _f5_dim1_pair():
    f5 = PrimeField(5)
    pres = ModulePresentation(f5, 1, Matrix(f5, 1, 0, ()))
    return tuple(generate_resolution(pres, n=3, max_rank=4, seed=s) for s in (1, 2))


def _f2c4_compare_pair():
    res = f2c4_resolution(3)
    return res, pad_top(res, 1)


@pytest.mark.parametrize(
    "pair,free",
    [
        pytest.param(_f5_dim1_pair, "F_5", id="F5-dim1"),
        pytest.param(_f2c4_compare_pair, "F_2", id="F2C4-n3-pad1"),
    ],
)
def test_compare_prints_field_dimensions_as_powers_of_the_field(pair, free, tmp_path, capsys):
    paths = []
    for name, r in zip("pq", pair()):
        path = str(tmp_path / f"{name}.json")
        io.save(path, io.resolution_document(r))
        paths.append(path)
    capsys.readouterr()
    assert main(["compare", *paths]) == 0
    out = capsys.readouterr().out
    assert f"degree 0 equals the presented module: {free} vs module {free}\n" in out
    assert re.search(rf"homology match at degree \d+: {free}\^\d+ vs {free}\^\d+\n", out)
    assert "Z" not in out.split("homology comparison:")[1]


def test_schanuel_check_restricts_each_boundary_once(monkeypatch):
    cert = total_equivalence(*_zc6_compare_pair())
    calls = []

    def counting(a):
        calls.append(a)
        return restrict_scalars(a)

    monkeypatch.setattr(chain, "_restrict_matrix", counting)
    monkeypatch.setattr(resolution, "restrict_scalars", counting)
    report = schanuel_check(cert)
    assert report.ok
    # one per boundary of each complex, plus the presentation's relations
    assert len(calls) == len(cert.source.diffs) + len(cert.target.diffs) + 1 == 13


def test_validate_resolution_restricts_each_boundary_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return restrict_scalars(a)

    monkeypatch.setattr(chain, "_restrict_matrix", counting)
    monkeypatch.setattr(resolution, "restrict_scalars", counting)
    for res in _zc6_compare_pair():
        del calls[:]
        assert resolution.validate_resolution(res).ok
        # one per boundary, plus the augmentation and the relations
        assert len(calls) == len(res.complex.diffs) + 2 == 8
