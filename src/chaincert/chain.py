"""Chain complexes, chain maps, chain homotopies, and verified homotopy
equivalences, together with the composition calculus that strings
equivalences end to end.

Grading is 0..n with boundaries d_i : degree i -> degree i-1. The homotopy
convention is unsigned: a homotopy s between chain maps F and G satisfies

    F_i - G_i = d_{i+1} s_i + s_{i-1} d_i

with s_{-1} = 0 and s_n = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .matrix import (
    Invariants,
    Matrix,
    cokernel_invariants,
    restrict_scalars as _restrict_matrix,
    solve,  # noqa: F401  unused here; perfbench/test_perfbench.py looks it up
)
from .rings import GroupRing, PrimeField, Ring, RingError
from .matrix import ShapeError
from .verify import (  # noqa: F401  Check and the validators are re-exported
    Check,
    Report,
    equivalence_identities,
    evaluate,
    validate_chain_map,
    validate_complex,
    validate_homotopy,
)


@dataclass(frozen=True, slots=True, repr=False)
class ChainComplex:
    """Finite chain complex of free modules, held as ranks plus boundary
    matrices. d_i d_{i+1} = 0 is a validation, not a construction, check."""

    ring: Ring
    ranks: tuple[int, ...]
    diffs: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", ranks := tuple(self.ranks))
        object.__setattr__(self, "diffs", diffs := tuple(self.diffs))
        if not ranks:
            raise ShapeError("a complex needs at least degree 0")
        if len(diffs) != len(ranks) - 1:
            raise ShapeError("need one boundary per adjacent degree pair")
        for i, d in enumerate(diffs, start=1):
            if d.ring != self.ring:
                raise RingError(f"boundary {i} has the wrong ring")
            if d.shape != (ranks[i - 1], ranks[i]):
                raise ShapeError(
                    f"boundary {i} must be {ranks[i-1]}x{ranks[i]}, got {d.shape}"
                )

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def d(self, i: int) -> Matrix:
        """Boundary at degree i, with zero maps just outside the range."""
        n = self.length
        if 1 <= i <= n:
            return self.diffs[i - 1]
        if i == 0:
            return Matrix.zeros(self.ring, 0, self.ranks[0])
        if i == n + 1:
            return Matrix.zeros(self.ring, self.ranks[n], 0)
        raise ShapeError(f"no boundary at degree {i}")

    def __repr__(self):
        return f"ChainComplex({self.ring}, ranks={list(self.ranks)})"


@dataclass(frozen=True, slots=True, repr=False)
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    parts: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", parts := tuple(self.parts))
        source, target = self.source, self.target
        if source.length != target.length:
            raise ShapeError("chain map needs equal-length complexes")
        if len(parts) != source.length + 1:
            raise ShapeError("need one component per degree")
        for i, f in enumerate(parts):
            if f.shape != (target.ranks[i], source.ranks[i]):
                raise ShapeError(
                    f"component {i} must be {target.ranks[i]}x{source.ranks[i]}"
                )
            if f.ring != source.ring:
                raise RingError("chain map component over the wrong ring")

    def __getitem__(self, i: int) -> Matrix:
        return self.parts[i]

    def after(self, other: "ChainMap") -> "ChainMap":
        """Composite self . other (apply other first)."""
        if other.target != self.source:
            raise ShapeError("composition mismatch")
        return ChainMap(
            other.source,
            self.target,
            [f * g for f, g in zip(self.parts, other.parts)],
        )


def identity_chain_map(c: ChainComplex) -> ChainMap:
    return ChainMap(c, c, [Matrix.identity(c.ring, r) for r in c.ranks])


@dataclass(frozen=True)
class HomotopyEquivalence:
    """A chain homotopy equivalence with all witnesses explicit: forward
    and backward maps plus the components of the two homotopies contracting
    the round trips to the identities."""

    fwd: ChainMap
    bwd: ChainMap
    src_homotopy: tuple[Matrix, ...]  # bwd.fwd vs identity on the source
    tgt_homotopy: tuple[Matrix, ...]  # fwd.bwd vs identity on the target

    @property
    def source(self) -> ChainComplex:
        return self.fwd.source

    @property
    def target(self) -> ChainComplex:
        return self.fwd.target

    def validate(self) -> Report:
        """Both chain maps and both homotopies (``verify.equivalence_identities``)."""
        return evaluate(equivalence_identities(self))


def _homotopy_parts(c: ChainComplex, parts) -> tuple[Matrix, ...]:
    parts = tuple(parts)
    if len(parts) != c.length:
        raise ShapeError("need one homotopy component per degree below the top")
    for i, s in enumerate(parts):
        if s.shape != (c.ranks[i + 1], c.ranks[i]):
            raise ShapeError(
                f"homotopy component {i} must be {c.ranks[i+1]}x{c.ranks[i]}"
            )
    return parts


def make_equivalence(fwd: ChainMap, bwd: ChainMap, s_parts, t_parts) -> HomotopyEquivalence:
    """Package witnesses: s contracts bwd.fwd on the source, t contracts
    fwd.bwd on the target. Only composability and shapes are checked here;
    ``HomotopyEquivalence.validate`` checks the identities."""
    if fwd.target != bwd.source:
        raise ShapeError("composition mismatch")
    if bwd.target != fwd.source:
        raise ShapeError("homotopy needs maps with equal source and target")
    return HomotopyEquivalence(
        fwd=fwd,
        bwd=bwd,
        src_homotopy=_homotopy_parts(fwd.source, s_parts),
        tgt_homotopy=_homotopy_parts(fwd.target, t_parts),
    )


def zero_homotopy(c: ChainComplex) -> list[Matrix]:
    """One zero map C_i -> C_{i+1} per degree below the top."""
    return [Matrix.zeros(c.ring, c.ranks[i + 1], c.ranks[i]) for i in range(c.length)]


def identity_equivalence(c: ChainComplex) -> HomotopyEquivalence:
    ident = identity_chain_map(c)
    return make_equivalence(ident, ident, zero_homotopy(c), zero_homotopy(c))


def reverse_equivalence(e: HomotopyEquivalence) -> HomotopyEquivalence:
    return make_equivalence(e.bwd, e.fwd, e.tgt_homotopy, e.src_homotopy)


def compose_equivalences(
    e1: HomotopyEquivalence, e2: HomotopyEquivalence
) -> HomotopyEquivalence:
    """Equivalence for the composite passage source(e1) -> target(e2).

    The composite homotopies are s1 + G1 s2 F1 and t2 + F2 t1 G2 degreewise,
    which satisfy the homotopy identities by a direct calculation; the
    validators confirm this on every produced instance.
    """
    if e1.target != e2.source:
        raise ShapeError("compose_equivalences: middle complex mismatch")
    fwd = e2.fwd.after(e1.fwd)
    bwd = e1.bwd.after(e2.bwd)
    n = e1.source.length
    s_parts = [
        e1.src_homotopy[i] + e1.bwd[i + 1] * e2.src_homotopy[i] * e1.fwd[i]
        for i in range(n)
    ]
    t_parts = [
        e2.tgt_homotopy[i] + e2.fwd[i + 1] * e1.tgt_homotopy[i] * e2.bwd[i]
        for i in range(n)
    ]
    return make_equivalence(fwd, bwd, s_parts, t_parts)


# ---------------------------------------------------------------------------
# duality (field coefficients)


def dualize_complex(c: ChainComplex) -> ChainComplex:
    """Reverse the grading and transpose every boundary; over a field this
    is the linear-dual complex. An involution."""
    if not isinstance(c.ring, PrimeField):
        raise RingError("complex duality is available over prime fields only")
    n = c.length
    ranks = [c.ranks[n - j] for j in range(n + 1)]
    diffs = [c.d(n - j + 1).transpose() for j in range(1, n + 1)]
    return ChainComplex(c.ring, ranks, diffs)


def dualize_equivalence(e: HomotopyEquivalence) -> HomotopyEquivalence:
    """The dual of an equivalence: an equivalence between the dual
    complexes, with every witness transposed and re-graded. Validity of the
    input witnesses carries over by transposing each identity."""
    src = dualize_complex(e.source)
    tgt = dualize_complex(e.target)
    n = e.source.length
    fwd = ChainMap(src, tgt, [e.bwd[n - j].transpose() for j in range(n + 1)])
    bwd = ChainMap(tgt, src, [e.fwd[n - j].transpose() for j in range(n + 1)])
    s_parts = [e.src_homotopy[n - j - 1].transpose() for j in range(n)]
    t_parts = [e.tgt_homotopy[n - j - 1].transpose() for j in range(n)]
    return make_equivalence(fwd, bwd, s_parts, t_parts)


# ---------------------------------------------------------------------------
# homology


def restrict_complex(c: ChainComplex) -> ChainComplex:
    """Restriction of scalars of a group-ring complex to its base ring."""
    if not isinstance(c.ring, GroupRing):
        raise RingError("restrict_complex needs a group-ring complex")
    order = c.ring.group.order
    base = c.ring.base
    return ChainComplex(
        base,
        [r * order for r in c.ranks],
        [_restrict_matrix(d) for d in c.diffs],
    )


class HomologyError(ValueError):
    """The homology of an invalid complex was requested (d.d != 0)."""


def _require_cycles(c: ChainComplex, i: int):
    if not (c.d(i) * c.d(i + 1)).is_zero():
        raise HomologyError(f"image at degree {i} does not lie in the kernel")


def _homology_at(c: ChainComplex, i: int, below: Invariants, above: Invariants) -> Invariants:
    """H_i from the cokernel invariants of d_i (below) and d_{i+1} (above),
    given d_i d_{i+1} = 0. H_i is the kernel of coker d_{i+1} -> im d_i,
    and im d_i is free of rank rk d_i, so H_i is coker d_{i+1} with rk d_i
    fewer free summands."""
    rank_below = c.d(i).rows - below.free_rank
    return replace(above, free_rank=above.free_rank - rank_below)


def homology_from_boundaries(c: ChainComplex) -> list[Invariants]:
    """H_0..H_n of a complex over Z or a prime field whose boundaries are
    known to compose to zero, from one Smith (over a field: rank) pass per
    boundary. H_i = Z^(n_i - rk d_i - rk d_{i+1}) + torsion(coker d_{i+1})
    (Munkres, Elements of Algebraic Topology, section 11; Kaczynski,
    Mischaikow and Mrozek, Computational Homology, chapter 3)."""
    cokernels = [cokernel_invariants(c.d(j)) for j in range(c.length + 2)]
    return [
        _homology_at(c, i, cokernels[i], cokernels[i + 1]) for i in range(c.length + 1)
    ]


def homology_invariants(c: ChainComplex, i: int) -> Invariants:
    """Invariants of ker d_i / im d_{i+1}; ``HomologyError`` when
    d_i d_{i+1} != 0. Group-ring complexes are restricted to their base
    ring first, so the answer is a base-ring invariant (free rank + torsion
    over Z, dimension over a field)."""
    if not 0 <= i <= c.length:
        raise ShapeError(f"degree {i} out of range 0..{c.length}")
    if isinstance(c.ring, GroupRing):
        c = restrict_complex(c)
    _require_cycles(c, i)
    return _homology_at(c, i, cokernel_invariants(c.d(i)), cokernel_invariants(c.d(i + 1)))


def all_homology_invariants(c: ChainComplex) -> list[Invariants]:
    """``homology_invariants`` at every degree, one pass per boundary."""
    if isinstance(c.ring, GroupRing):
        c = restrict_complex(c)
    for i in range(1, c.length):
        _require_cycles(c, i)
    return homology_from_boundaries(c)


def euler_characteristic(c: ChainComplex) -> int:
    return sum((-1) ** i * r for i, r in enumerate(c.ranks))
