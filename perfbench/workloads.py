"""Seeded input pairs for the three benchmark workloads.

Every workload function takes the run seed and returns a list of
``Pair`` objects, two resolutions of one presented module each, in the
order the closed loop visits them. The same seed always yields the same pairs. They import
``chaincert`` when called, so they use whichever copy of the package is in
``sys.modules`` at that moment.

fp-tower   F_5, free module dim:3, n = 8, generate_resolution(max_rank=20).
z-torsion  Z, module Z + Z/6 (relations 2x1 [6, 0]), n = 8, max_rank 10.
group-ring Z[C_6] and F_2[C_4] periodic resolutions (n = 6) and the
           nonabelian Z[S_3] length-2 resolution, each against pad_top(., k).

The two random workloads generate CANDIDATES pairs from the seed and keep
the ones whose tower size is closest to a fixed reference size, so every
seed loads about the same amount of work; the seed still chooses every
matrix. The group-ring workload relabels each group's elements by a
seeded permutation (the identity moves too) and draws k from the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Random pairs generated per run; the closest to the reference size are kept.
CANDIDATES = 48

# Reference tower sizes sum_i (t_i + s_i)^2; certificate size tracks them
# closely. Over 200 generated pairs (seed 1) the fp-tower sizes had median
# 193,000 and the z-torsion sizes 50,000. fp-tower takes about the 20th
# percentile (certificates of about 1.35 MB, about 3 s to construct) so that
# a run holds enough jobs for a steady median; z-torsion takes the median.
FP_TOWER_SIZE = 150_000
Z_TORSION_SIZE = 50_000

FP_TOWER_PAIRS = 6
Z_TORSION_PAIRS = 6


@dataclass(frozen=True)
class Pair:
    name: str
    first: object  # chaincert.TruncatedResolution
    second: object


def tower_size(first, second) -> int:
    from chaincert.stabilize import ladder_ranks

    t, s = ladder_ranks(first.complex.ranks, second.complex.ranks)
    return sum((a + b) ** 2 for a, b in zip(t, s))


def random_pairs(presentation, n: int, max_rank: int, seed: int, count: int,
                 reference_size: int, label: str) -> list[Pair]:
    """``count`` pairs of generate_resolution outputs, chosen out of
    CANDIDATES seeded pairs as those closest to ``reference_size``."""
    from chaincert.resolution import generate_resolution

    rng = random.Random(seed)
    candidates = []
    for index in range(CANDIDATES):
        seeds = (rng.randrange(2**30), rng.randrange(2**30))
        first = generate_resolution(presentation, n=n, max_rank=max_rank, seed=seeds[0])
        second = generate_resolution(presentation, n=n, max_rank=max_rank, seed=seeds[1])
        distance = abs(tower_size(first, second) - reference_size)
        candidates.append((distance, index, seeds, first, second))
    candidates.sort(key=lambda c: (c[0], c[1]))
    return [
        Pair(f"{label}-{seeds[0]}-{seeds[1]}", first, second)
        for _, _, seeds, first, second in candidates[:count]
    ]


def fp_tower(seed: int) -> list[Pair]:
    from chaincert.matrix import Matrix
    from chaincert.resolution import ModulePresentation
    from chaincert.rings import PrimeField

    f5 = PrimeField(5)
    presentation = ModulePresentation(f5, 3, Matrix(f5, 3, 0, ()))
    return random_pairs(presentation, 8, 20, seed, FP_TOWER_PAIRS, FP_TOWER_SIZE, "fp")


def z_torsion(seed: int) -> list[Pair]:
    from chaincert.matrix import Matrix
    from chaincert.resolution import ModulePresentation
    from chaincert.rings import ZZ

    presentation = ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0]))
    return random_pairs(presentation, 8, 10, seed, Z_TORSION_PAIRS, Z_TORSION_SIZE, "z")


# ---------------------------------------------------------------------------
# group rings


def s3_resolution():
    """Length-2 free resolution of Z over Z[S_3] from the presentation
    <s, t | s^3, t^2, (st)^2>: d1 = [s-1, t-1] and d2 from the Fox
    derivatives of the three relators."""
    from chaincert.chain import ChainComplex
    from chaincert.matrix import Matrix
    from chaincert.resolution import ModulePresentation, TruncatedResolution
    from chaincert.rings import ZZ, GroupRing, GroupTable

    table = GroupTable.symmetric(3)
    ring = GroupRing(ZZ, table)
    index = {p: i for i, p in enumerate(sorted(itertools.permutations(range(3))))}
    s_i, t_i = index[(1, 2, 0)], index[(1, 0, 2)]
    one = ring.one
    s, t = ring.basis_element(s_i), ring.basis_element(t_i)
    s2 = ring.basis_element(table.mult[s_i][s_i])
    st = ring.basis_element(table.mult[s_i][t_i])
    s_m1, t_m1 = ring.sub(s, one), ring.sub(t, one)

    d1 = Matrix(ring, 1, 2, [s_m1, t_m1])
    d2 = Matrix(
        ring, 2, 3,
        [
            ring.add(ring.add(one, s), s2), ring.zero, ring.add(s2, t),
            ring.zero, ring.add(one, t), ring.add(one, st),
        ],
    )
    presentation = ModulePresentation(ring, 1, Matrix(ring, 1, 2, [s_m1, t_m1]))
    return TruncatedResolution(
        presentation, ChainComplex(ring, [1, 2, 3], [d1, d2]), Matrix(ring, 1, 1, [one])
    )


def f2c4_resolution(n: int):
    """The periodic resolution of F_2 over F_2[C_4]: t - 1 and the norm
    element alternate as 1 x 1 boundaries."""
    from chaincert.chain import ChainComplex
    from chaincert.matrix import Matrix
    from chaincert.resolution import ModulePresentation, TruncatedResolution
    from chaincert.rings import GroupRing, GroupTable, PrimeField

    ring = GroupRing(PrimeField(2), GroupTable.cyclic(4))
    t_m1 = ring.sub(ring.basis_element(1), ring.one)
    norm = (1, 1, 1, 1)
    presentation = ModulePresentation(ring, 1, Matrix(ring, 1, 1, [t_m1]))
    diffs = [Matrix(ring, 1, 1, [t_m1 if i % 2 else norm]) for i in range(1, n + 1)]
    return TruncatedResolution(
        presentation,
        ChainComplex(ring, [1] * (n + 1), diffs),
        Matrix(ring, 1, 1, [ring.one]),
    )


def relabel(res, perm: list[int]):
    """The same resolution over a relabelled copy of its group: element g
    becomes perm[g] in the Cayley table and in every coefficient vector."""
    from chaincert.chain import ChainComplex
    from chaincert.matrix import Matrix
    from chaincert.resolution import ModulePresentation, TruncatedResolution
    from chaincert.rings import GroupRing, GroupTable

    old = res.ring
    order = old.group.order
    mult = [[0] * order for _ in range(order)]
    for g in range(order):
        for h in range(order):
            mult[perm[g]][perm[h]] = perm[old.group.mult[g][h]]
    table = GroupTable(order, tuple(tuple(row) for row in mult), perm[old.group.identity])
    table.validate()
    ring = GroupRing(old.base, table)

    def move_entry(x):
        coeffs = [None] * order
        for g, c in enumerate(x):
            coeffs[perm[g]] = c
        return tuple(coeffs)

    def move(m):
        rows = [[move_entry(x) for x in row] for row in m.to_rows()]
        return Matrix.from_rows(ring, rows, cols=m.cols)

    presentation = ModulePresentation(
        ring, res.presentation.ambient_rank, move(res.presentation.relations)
    )
    complex_ = ChainComplex(ring, res.complex.ranks, [move(d) for d in res.complex.diffs])
    return TruncatedResolution(presentation, complex_, move(res.augmentation))


GROUP_RING_LENGTH = 6
GROUP_RING_PADS = (1, 2, 3)


def group_ring(seed: int) -> list[Pair]:
    """Nine pairs: each kind against pad_top(., k) for every k in
    GROUP_RING_PADS, in a seeded order, kinds interleaved so that any
    prefix of the loop sees them in equal measure."""
    from chaincert.resolution import canonical_resolution, pad_top

    rng = random.Random(seed)
    kinds = [
        ("zc6", lambda: canonical_resolution("Z_over_Z[C_6]", GROUP_RING_LENGTH)[1]),
        ("zs3", s3_resolution),
        ("f2c4", lambda: f2c4_resolution(GROUP_RING_LENGTH)),
    ]
    columns = []
    for label, make in kinds:
        pads = list(GROUP_RING_PADS)
        rng.shuffle(pads)
        column = []
        for k in pads:
            base = make()
            perm = list(range(base.ring.group.order))
            rng.shuffle(perm)
            res = relabel(base, perm)
            column.append(Pair(f"{label}-k{k}-{''.join(map(str, perm))}", res, pad_top(res, k)))
        columns.append(column)
    return [pair for row in zip(*columns) for pair in row]


WORKLOADS = {
    "fp-tower": fp_tower,
    "z-torsion": z_torsion,
    "group-ring": group_ring,
}
