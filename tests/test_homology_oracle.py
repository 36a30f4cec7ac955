"""Homology and resolution validation against the kernel-basis oracle.

``homology_invariants``, ``all_homology_invariants`` and
``validate_resolution`` read everything off one Smith (over a field: rank)
pass per boundary. The oracle here is the route they replaced: a kernel
basis of d_i, the image of d_{i+1} written in it by ``solve``, and the
cokernel of that; and at degree 0, ``solve`` against the relations and the
kernel of [aug | rel]. The two must agree on every complex and on every
resolution whose factoring and surjectivity checks pass. Where either of
those fails, the file is invalid already and "exact at degree 0" is
reported as skipped.
"""

import random

import pytest

from chaincert.chain import (
    ChainComplex,
    HomologyError,
    Report,
    all_homology_invariants,
    homology_invariants,
    restrict_complex,
    validate_complex,
)
from chaincert.matrix import Matrix, cokernel_invariants, hstack, kernel_basis, restrict_scalars, solve
from chaincert.resolution import (
    ModulePresentation,
    TruncatedResolution,
    canonical_resolution,
    generate_resolution,
    pad_top,
    validate_resolution,
)
from chaincert.rings import ZZ, GroupRing, PrimeField

from conftest import f2c4_resolution, random_presentation, s3_resolution

F2 = PrimeField(2)
F5 = PrimeField(5)
FACTORS = "augmentation kills the first boundary"
ONTO = "augmentation surjective onto the module"
EXACT_0 = "exact at degree 0"


def oracle_homology(c: ChainComplex, i: int):
    if isinstance(c.ring, GroupRing):
        c = restrict_complex(c)
    written = solve(kernel_basis(c.d(i)), c.d(i + 1))
    if written is None:
        raise HomologyError(f"image at degree {i} does not lie in the kernel")
    return cokernel_invariants(written)


def oracle_validate(res: TruncatedResolution) -> Report:
    """The kernel-basis validation of a chain-oriented resolution."""
    report = Report()
    complex_report = validate_complex(res.complex)
    report.extend(complex_report)
    factored = solve(res.presentation.relations, res.augmentation * res.complex.d(1))
    report.add(
        FACTORS,
        factored is not None,
        "" if factored is not None else "aug.d1 does not factor through the relations",
    )
    aug_b, rel_b, complex_b = res.augmentation, res.presentation.relations, res.complex
    if isinstance(res.ring, GroupRing):
        aug_b, rel_b = restrict_scalars(aug_b), restrict_scalars(rel_b)
        complex_b = restrict_complex(complex_b)
    surj = cokernel_invariants(hstack(aug_b, rel_b))
    report.add(ONTO, surj.trivial, "" if surj.trivial else f"cokernel {surj}")
    if complex_report.ok:
        for i in range(1, res.length):
            inv = oracle_homology(complex_b, i)
            report.add(f"exact at degree {i}", inv.trivial, "" if inv.trivial else f"homology {inv}")
        kernel = kernel_basis(hstack(aug_b, rel_b))
        proj = kernel.submatrix(range(aug_b.cols), range(kernel.cols))
        covered = solve(complex_b.d(1), proj)
        report.add(
            EXACT_0,
            covered is not None,
            "" if covered is not None else "augmentation kernel exceeds the first image",
        )
    else:
        report.add("exactness", False, "skipped: boundaries do not compose to zero")
    return report


def _entries(report: Report):
    return [(check.name, check.ok, check.detail) for check in report.checks]


def assert_validation_matches_oracle(res: TruncatedResolution) -> dict:
    """Same names, verdicts and details as the oracle; only "exact at
    degree 0" differs, and only when factoring or surjectivity fails.
    Returns the oracle's verdicts by name."""
    new, old = _entries(validate_resolution(res)), _entries(oracle_validate(res))
    verdicts = {name: ok for name, ok, _ in old}
    if verdicts[FACTORS] and verdicts[ONTO]:
        assert new == old
    else:
        assert [entry for entry in new if entry[0] != EXACT_0] == [
            entry for entry in old if entry[0] != EXACT_0
        ]
        for name, ok, detail in new:
            if name == EXACT_0:
                assert not ok and detail.startswith("skipped: ")
    return verdicts


def assert_homology_matches_oracle(c: ChainComplex):
    expected = []
    for i in range(c.length + 1):
        try:
            expected.append(oracle_homology(c, i))
        except HomologyError:
            expected.append(None)
            with pytest.raises(HomologyError):
                homology_invariants(c, i)
        else:
            assert homology_invariants(c, i) == expected[-1], (c, i)
    if None in expected:
        with pytest.raises(HomologyError):
            all_homology_invariants(c)
    else:
        assert all_homology_invariants(c) == expected
    return expected


# ---------------------------------------------------------------------------
# inputs


def _random_matrix(ring, rows, cols, rng, scale=1):
    if isinstance(ring, PrimeField):
        return Matrix(ring, rows, cols, [rng.randrange(ring.p) for _ in range(rows * cols)])
    return Matrix(ring, rows, cols, [scale * rng.randint(-3, 3) for _ in range(rows * cols)])


def random_complex(ring, rng, length, max_rank, broken=False):
    """d_{i+1} = (kernel basis of d_i) * C for a random C, so d.d = 0 and
    coker has torsion over Z; ``broken`` draws one boundary at random."""
    ranks = [rng.randint(0, max_rank)]
    diffs = []
    bad = rng.randrange(length) if broken else -1
    for i in range(length):
        cols = rng.randint(0, max_rank)
        scale = rng.choice([1, 1, 2, 3, 6])
        if diffs and i != bad:
            kern = kernel_basis(diffs[-1])
            d = kern * _random_matrix(ring, kern.cols, cols, rng, scale)
        else:
            d = _random_matrix(ring, ranks[-1], cols, rng, scale)
        diffs.append(d)
        ranks.append(cols)
    return ChainComplex(ring, ranks, diffs)


def _bump(ring, x, rng):
    """A different canonical entry: one coefficient moved by one."""
    if isinstance(ring, GroupRing):
        g = rng.randrange(len(x))
        coeffs = list(x)
        coeffs[g] = _bump(ring.base, coeffs[g], rng)
        return tuple(coeffs)
    if isinstance(ring, PrimeField):
        return (x + 1) % ring.p
    return x + rng.choice([-1, 1])


def _bumped(m: Matrix, rng) -> Matrix:
    entries = list(m.entries)
    k = rng.randrange(len(entries))
    entries[k] = _bump(m.ring, entries[k], rng)
    return Matrix(m.ring, m.rows, m.cols, entries)


def mutations(res: TruncatedResolution, rng, count):
    """Resolutions with one entry of the relations, the augmentation, d_1
    or d_2 bumped; none when all of these are empty."""
    diffs = res.complex.diffs
    targets = [
        name
        for name, m in [("relations", res.presentation.relations), ("augmentation", res.augmentation)]
        + [(i, d) for i, d in enumerate(diffs[:2])]
        if m.entries
    ]
    out = []
    for where in (rng.choice(targets) for _ in range(count if targets else 0)):
        pres, aug, new_diffs = res.presentation, res.augmentation, list(diffs)
        if where == "relations":
            pres = ModulePresentation(res.ring, pres.ambient_rank, _bumped(pres.relations, rng))
        elif where == "augmentation":
            aug = _bumped(aug, rng)
        else:
            new_diffs[where] = _bumped(new_diffs[where], rng)
        out.append(
            TruncatedResolution(pres, ChainComplex(res.ring, res.complex.ranks, new_diffs), aug)
        )
    return out


def group_ring_resolutions():
    out = [s3_resolution(), pad_top(s3_resolution(), 2), f2c4_resolution(4)]
    for m, n in [(2, 3), (3, 2), (6, 4)]:
        _, res = canonical_resolution(f"Z_over_Z[C_{m}]", n)
        out += [res, pad_top(res, 1)]
    return out


def generated_resolutions(seed, count):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        ring = [ZZ, F2, F5][k % 3]
        pres = random_presentation(ring, rng)
        out.append(generate_resolution(pres, n=rng.randint(1, 4), max_rank=5, seed=rng.randrange(10**6)))
    return out


# ---------------------------------------------------------------------------
# homology


@pytest.mark.parametrize("ring", [ZZ, F2, F5], ids=str)
def test_homology_matches_oracle_on_random_complexes(ring):
    rng = random.Random(11)
    torsion = broken = 0
    for _ in range(100):
        c = random_complex(ring, rng, rng.randint(1, 4), 5, broken=rng.random() < 0.25)
        found = assert_homology_matches_oracle(c)
        torsion += any(inv is not None and inv.torsion for inv in found)
        broken += None in found
    assert broken > 0
    assert (torsion > 0) == (ring == ZZ)


def test_homology_matches_oracle_on_group_rings():
    for res in group_ring_resolutions():
        found = assert_homology_matches_oracle(res.complex)
        assert None not in found


def test_homology_matches_oracle_on_generated_resolutions():
    for res in generated_resolutions(seed=5, count=30):
        found = assert_homology_matches_oracle(res.complex)
        assert all(inv.trivial for inv in found[1:-1])


# ---------------------------------------------------------------------------
# resolution validation


def test_validation_matches_oracle_on_valid_resolutions():
    for res in group_ring_resolutions() + generated_resolutions(seed=6, count=30):
        assert_validation_matches_oracle(res)
        assert validate_resolution(res).ok


@pytest.mark.parametrize("kind", ["generated", "group ring"])
def test_validation_matches_oracle_on_mutated_resolutions(kind):
    rng = random.Random(12)
    inputs = generated_resolutions(seed=7, count=12) if kind == "generated" else group_ring_resolutions()
    outcomes = set()
    for res in inputs:
        for mutant in mutations(res, rng, 6):
            verdicts = assert_validation_matches_oracle(mutant)
            outcomes.add((verdicts[FACTORS], verdicts[ONTO], verdicts.get(EXACT_0)))
    # degree 0 is decided by invariants where it is not exact, and skipped
    assert (True, True, False) in outcomes
    assert any(not (factors and onto) for factors, onto, _ in outcomes)


def z_mod_2_resolution(aug: int, d1: int) -> TruncatedResolution:
    return TruncatedResolution(
        ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]])),
        ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[d1]])]),
        Matrix.from_rows(ZZ, [[aug]]),
    )


def test_failed_factoring_skips_degree_zero():
    # aug.d1 = 3 is not in 2Z; the oracle also finds 2Z outside 3Z
    res = z_mod_2_resolution(aug=1, d1=3)
    assert_validation_matches_oracle(res)
    checks = {check.name: check for check in validate_resolution(res).checks}
    assert not checks[FACTORS].ok and checks[ONTO].ok
    assert not checks[EXACT_0].ok
    assert checks[EXACT_0].detail == "skipped: the augmentation checks failed"


def test_failed_surjectivity_skips_degree_zero():
    # coker [2 | 2] = Z/2; the oracle still calls degree 0 exact
    res = z_mod_2_resolution(aug=2, d1=1)
    verdicts = assert_validation_matches_oracle(res)
    assert verdicts[EXACT_0]
    checks = {check.name: check for check in validate_resolution(res).checks}
    assert checks[FACTORS].ok and not checks[ONTO].ok
    assert not checks[EXACT_0].ok
    assert checks[EXACT_0].detail == "skipped: the augmentation checks failed"


def test_group_ring_factoring_failure_skips_degree_zero():
    # over Z[S_3] the relations span the augmentation ideal, and
    # aug.d1 = (1, 0) has coefficient sum 1, so it lies outside
    res = s3_resolution()
    ring = res.ring
    d1 = Matrix(ring, 1, 2, [ring.one, ring.zero])
    bad = TruncatedResolution(res.presentation, ChainComplex(ring, [1, 2], [d1]), res.augmentation)
    assert_validation_matches_oracle(bad)
    checks = {check.name: check for check in validate_resolution(bad).checks}
    assert not checks[FACTORS].ok and checks[ONTO].ok
    assert checks[EXACT_0].detail == "skipped: the augmentation checks failed"
