"""Presented modules and truncated resolutions of them.

A module M is always a cokernel presentation: an ambient free module and a
relations matrix. A truncated resolution is a chain complex of free modules
plus an augmentation matrix onto the ambient module; the augmentation onto
M itself is the composite with the quotient by the relations, so equality
of maps into M means equality modulo the column span of the relations.

Exactness is demanded at the interior degrees and at degree 0 (kernel of
the augmentation equals the image of the first boundary); nothing is
demanded at the top degree, which is what makes the complexes truncated.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .chain import (
    ChainComplex,
    Report,
    dualize_complex,
    homology_from_boundaries,
    restrict_complex,
    validate_complex,
)
from .matrix import (
    Invariants,
    Matrix,
    ShapeError,
    cokernel_invariants,
    hstack,
    kernel_basis,
    restrict_scalars,
    solve,  # noqa: F401  unused here; perfbench/test_perfbench.py looks it up
)
from .rings import GroupRing, GroupTable, IntegerRing, PrimeField, Ring, RingError, ZZ


@dataclass(frozen=True)
class ModulePresentation:
    """M = coker(relations), with relations an ambient_rank x k matrix."""

    ring: Ring
    ambient_rank: int
    relations: Matrix

    def __post_init__(self):
        if self.relations.ring != self.ring:
            raise RingError("relations matrix over the wrong ring")
        if self.relations.rows != self.ambient_rank:
            raise ShapeError("relations must have ambient_rank rows")


def presentation_invariants(pres: ModulePresentation) -> Invariants:
    """Base-ring invariants of the presented module (restriction of scalars
    for group rings)."""
    rel = pres.relations
    if isinstance(pres.ring, GroupRing):
        rel = restrict_scalars(rel)
    return cokernel_invariants(rel)


class TruncatedResolution:
    """A length-n truncated resolution of the presented module.

    ``cochain=True`` marks the transposed orientation produced by
    :func:`dualize`; such a value stores the same presentation and
    augmentation data verbatim so that dualizing is an exact involution.
    """

    __slots__ = ("presentation", "complex", "augmentation", "cochain")

    def __init__(
        self,
        presentation: ModulePresentation,
        complex: ChainComplex,
        augmentation: Matrix,
        cochain: bool = False,
    ):
        if complex.ring != presentation.ring:
            raise RingError("complex over the wrong ring")
        if augmentation.ring != presentation.ring:
            raise RingError("augmentation over the wrong ring")
        if cochain and not isinstance(presentation.ring, PrimeField):
            raise RingError(
                "cochain orientation is available over prime fields only"
            )
        aug_cols = complex.ranks[-1] if cochain else complex.ranks[0]
        if augmentation.shape != (presentation.ambient_rank, aug_cols):
            raise ShapeError(
                f"augmentation must be {presentation.ambient_rank}x{aug_cols}"
            )
        self.presentation = presentation
        self.complex = complex
        self.augmentation = augmentation
        self.cochain = cochain

    @property
    def ring(self) -> Ring:
        return self.presentation.ring

    @property
    def length(self) -> int:
        return self.complex.length

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedResolution)
            and self.presentation == other.presentation
            and self.complex == other.complex
            and self.augmentation == other.augmentation
            and self.cochain == other.cochain
        )


def _base_view(res: TruncatedResolution) -> tuple[Matrix, Matrix, ChainComplex]:
    """(augmentation, relations, complex) over the base ring."""
    aug, rel = res.augmentation, res.presentation.relations
    if isinstance(res.ring, GroupRing):
        return restrict_scalars(aug), restrict_scalars(rel), restrict_complex(res.complex)
    return aug, rel, res.complex


def validate_resolution(res: TruncatedResolution) -> Report:
    """Machine-check every resolution condition; each identity is a named
    pass/fail entry in the report."""
    if res.cochain:
        report = Report()
        report.add("orientation", True, "cochain input validated through its dual")
        report.extend(validate_resolution(dualize(res)), "dual: ")
        return report

    report = Report()
    n = res.length
    complex_report = validate_complex(res.complex)
    report.extend(complex_report)

    # Every degree-0 identity is an invariant comparison over the base
    # ring: a surjection between isomorphic finitely generated modules over
    # Z or F_p is an isomorphism (they are Hopfian), also after restriction.
    aug_b, rel_b, complex_b = _base_view(res)
    module = cokernel_invariants(rel_b)
    d1_b = complex_b.d(1)
    # a zero factor makes aug.d1 zero, and zero columns leave coker rel as it is
    factored = (
        aug_b.is_zero()
        or d1_b.is_zero()
        or cokernel_invariants(hstack(rel_b, aug_b * d1_b)) == module
    )
    report.add(
        "augmentation kills the first boundary",
        factored,
        "" if factored else "aug.d1 does not factor through the relations",
    )

    surj = cokernel_invariants(hstack(aug_b, rel_b))
    report.add(
        "augmentation surjective onto the module",
        surj.trivial,
        "" if surj.trivial else f"cokernel {surj}",
    )

    if complex_report.ok:
        homology = homology_from_boundaries(complex_b)
        for i in range(1, n):
            inv = homology[i]
            report.add(
                f"exact at degree {i}",
                inv.trivial,
                "" if inv.trivial else f"homology {inv}",
            )
        # given both checks above, H_0 = coker d_1 maps onto the module
        if not (factored and surj.trivial):
            report.add("exact at degree 0", False, "skipped: the augmentation checks failed")
        else:
            covered = homology[0] == module
            report.add(
                "exact at degree 0",
                covered,
                "" if covered else "augmentation kernel exceeds the first image",
            )
    else:
        report.add("exactness", False, "skipped: boundaries do not compose to zero")
    return report


# ---------------------------------------------------------------------------
# generation


def _random_matrix(ring: Ring, rows: int, cols: int, rng: random.Random) -> Matrix:
    """Uniform residues over F_p, entries in [-2, 2] over Z, row-major."""
    size = rows * cols
    if isinstance(ring, PrimeField):
        p = ring.p
        entries = [rng.randrange(p) for _ in range(size)]
    else:
        entries = [rng.randint(-2, 2) for _ in range(size)]
    return Matrix(ring, rows, cols, entries)


def _pad_with_redundant_columns(
    m: Matrix, max_rank: int, rng: random.Random
) -> Matrix:
    """Adjoin random combinations of the existing columns (image unchanged)
    and shuffle the column order. The columns are shuffled as rows of the
    transpose, one slice each: a random order has no runs of consecutive
    columns to copy together."""
    extra = rng.randint(0, max(0, max_rank - m.cols))
    if extra:
        coeffs = _random_matrix(m.ring, m.cols, extra, rng)
        m = hstack(m, m * coeffs)
    perm = list(range(m.cols))
    rng.shuffle(perm)
    return m.transpose().submatrix(perm, range(m.rows)).transpose()


def generate_resolution(
    presentation: ModulePresentation,
    n: int,
    max_rank: int,
    seed: int = 0,
) -> TruncatedResolution:
    """Random valid truncated resolution of the presented module over Z or
    a prime field. Deterministic for a fixed seed. Padding with redundant
    generators is what makes independently generated resolutions of the
    same module genuinely different."""
    ring = presentation.ring
    if not isinstance(ring, (IntegerRing, PrimeField)):
        raise RingError("random generation needs Z or a prime field")
    if n < 1:
        raise ShapeError("resolution length must be at least 1")
    rng = random.Random(seed)
    m = presentation.ambient_rank
    rel = presentation.relations

    pad0 = rng.randint(0, max(0, max_rank - m))
    if pad0:
        if rel.cols:
            pad_cols = rel * _random_matrix(ring, rel.cols, pad0, rng)
        else:
            pad_cols = Matrix.zeros(ring, m, pad0)
        augmentation = hstack(Matrix.identity(ring, m), pad_cols)
    else:
        augmentation = Matrix.identity(ring, m)
    p0 = augmentation.cols

    d1 = kernel_basis(hstack(augmentation, rel)).top_rows(p0)
    diffs = [_pad_with_redundant_columns(d1, max_rank, rng)]
    for _ in range(2, n + 1):
        kern = kernel_basis(diffs[-1])
        diffs.append(_pad_with_redundant_columns(kern, max_rank, rng))

    ranks = [p0] + [d.cols for d in diffs]
    complex_ = ChainComplex(ring, ranks, diffs)
    return TruncatedResolution(presentation, complex_, augmentation)


def _pad_top_complex(c: ChainComplex, extra: int) -> ChainComplex:
    """``c`` with ``extra`` zero columns adjoined to its top boundary: a
    free summand of that rank added to the top term, mapped by zero. At
    length 0 only the rank rises."""
    n = c.length
    ranks = list(c.ranks)
    ranks[n] += extra
    diffs = list(c.diffs)
    if n >= 1:
        top = c.d(n)
        diffs[n - 1] = hstack(top, Matrix.zeros(c.ring, top.rows, extra))
    return ChainComplex(c.ring, ranks, diffs)


def pad_top(res: TruncatedResolution, extra: int) -> TruncatedResolution:
    """Adjoin ``extra`` zero columns to the top boundary: a redundant top
    summand mapped by zero. Exactness is untouched since nothing is
    demanded at the top degree."""
    if res.cochain:
        raise ShapeError("pad_top applies to chain-oriented resolutions")
    if res.length < 1:
        raise ShapeError("nothing to pad in a length-0 resolution")
    return TruncatedResolution(
        res.presentation, _pad_top_complex(res.complex, extra), res.augmentation
    )


# ---------------------------------------------------------------------------
# canonical examples


_CYCLIC_NAME = re.compile(r"Z_over_Z\[C_(\d+)\]$")


def canonical_resolution(
    name: str, n: int
) -> tuple[ModulePresentation, TruncatedResolution]:
    """Built-in examples: "Z_over_Z" (Z resolving itself) and
    "Z_over_Z[C_m]" (m <= 12), the periodic resolution of Z over the
    integral group ring of the cyclic group of order m, alternating
    t-1 and the norm element 1+t+...+t^(m-1)."""
    if n < 1:
        raise ShapeError("canonical resolutions need length >= 1")
    if name == "Z_over_Z":
        pres = ModulePresentation(ZZ, 1, Matrix(ZZ, 1, 0, ()))
        ranks = [1] + [0] * n
        diffs = [Matrix.zeros(ZZ, ranks[i - 1], ranks[i]) for i in range(1, n + 1)]
        res = TruncatedResolution(
            pres, ChainComplex(ZZ, ranks, diffs), Matrix.identity(ZZ, 1)
        )
        return pres, res
    match = _CYCLIC_NAME.match(name)
    if not match:
        raise ValueError(f"unknown canonical resolution {name!r}")
    m = int(match.group(1))
    if not 2 <= m <= 12:
        raise ValueError("cyclic order must be between 2 and 12")
    ring = GroupRing(ZZ, GroupTable.cyclic(m))
    t = ring.basis_element(1)
    t_minus_1 = ring.sub(t, ring.one)
    norm = tuple(1 for _ in range(m))
    pres = ModulePresentation(ring, 1, Matrix(ring, 1, 1, [t_minus_1]))
    diffs = [
        Matrix(ring, 1, 1, [t_minus_1 if i % 2 == 1 else norm])
        for i in range(1, n + 1)
    ]
    res = TruncatedResolution(
        pres,
        ChainComplex(ring, [1] * (n + 1), diffs),
        Matrix(ring, 1, 1, [ring.one]),
    )
    return pres, res


# ---------------------------------------------------------------------------
# duality (field coefficients only)


def dualize(res: TruncatedResolution) -> TruncatedResolution:
    """Transpose all boundaries and reverse the grading, exchanging the
    chain and cochain orientations. Over a field this carries a truncated
    resolution to a truncated resolution of the dual module (the module is
    the kernel of the map out of the reversed top). An exact involution:
    presentation and augmentation data are carried verbatim."""
    if not isinstance(res.ring, PrimeField):
        raise RingError("dualize is available over prime fields only")
    return TruncatedResolution(
        res.presentation,
        dualize_complex(res.complex),
        res.augmentation,
        cochain=not res.cochain,
    )
