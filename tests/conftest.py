import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from chaincert import io
from chaincert.matrix import Matrix
from chaincert.resolution import ModulePresentation, generate_resolution
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

SRC = os.path.dirname(os.path.dirname(io.__file__))
CLI_TIMEOUT = 60  # seconds for one command line: a hang fails its test, not the run


def run_cli(args, env=os.environ, **kwargs) -> subprocess.CompletedProcess:
    """The command line ``chaincert args`` as a new process, ``python -m
    chaincert.cli``, in the environment ``env`` with the package's source
    directory first on ``PYTHONPATH``; ``kwargs`` go to ``subprocess.run``."""
    path = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "chaincert.cli", *args],
        env={**env, "PYTHONPATH": path},
        timeout=CLI_TIMEOUT,
        **kwargs,
    )


@pytest.fixture(scope="session")
def zc2():
    return GroupRing(ZZ, GroupTable.cyclic(2))


@pytest.fixture(scope="session")
def f2c2():
    return GroupRing(F2, GroupTable.cyclic(2))


def ring_int(ring, n: int):
    """The image of the integer ``n`` in ``ring``, in canonical form."""
    if isinstance(ring, GroupRing):
        at = ring.group.identity
        return tuple(ring_int(ring.base, n if g == at else 0) for g in range(ring.group.order))
    return n % ring.p if isinstance(ring, PrimeField) else n


def is_canonical(ring, x) -> bool:
    """``x`` is an element of ``ring`` in its canonical form."""
    if isinstance(ring, GroupRing):
        return (
            isinstance(x, tuple)
            and len(x) == ring.group.order
            and all(is_canonical(ring.base, c) for c in x)
        )
    return isinstance(x, int) and (not isinstance(ring, PrimeField) or 0 <= x < ring.p)


def random_presentation(ring, rng):
    """Small random module presentation over Z or a prime field."""
    if isinstance(ring, PrimeField):
        ambient = rng.randint(0, 2)
        return ModulePresentation(ring, ambient, Matrix(ring, ambient, 0, ()))
    ambient = rng.randint(1, 2)
    cols = []
    for i in range(ambient):
        if rng.random() < 0.6:
            m = rng.choice([2, 3, 4, 6])
            col = [0] * ambient
            col[i] = m
            cols.append(col)
    entries = [cols[j][i] for i in range(ambient) for j in range(len(cols))]
    return ModulePresentation(ring, ambient, Matrix(ring, ambient, len(cols), entries))


def random_resolution_pair(ring, n, max_rank, rng):
    pres = random_presentation(ring, rng)
    res_p = generate_resolution(pres, n=n, max_rank=max_rank, seed=rng.randrange(2**30))
    res_q = generate_resolution(pres, n=n, max_rank=max_rank, seed=rng.randrange(2**30))
    return res_p, res_q


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def invariant_factors_by_minors(a: Matrix):
    """Independent oracle: the product of the first k invariant factors is
    the gcd of all k x k minors."""
    rows = a.to_rows()
    out = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(a.rows), k):
            for csel in itertools.combinations(range(a.cols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def s3_resolution():
    """Length-2 free resolution of Z over Z[S3], from the standard
    two-generator three-relator presentation of the group; validated by the
    test suite before use."""
    from chaincert.chain import ChainComplex
    from chaincert.resolution import TruncatedResolution

    table = GroupTable.symmetric(3)
    ring = GroupRing(ZZ, table)
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    s_i = idx[(1, 2, 0)]
    t_i = idx[(1, 0, 2)]

    def g(i):
        return ring.basis_element(i)

    one = ring.one
    s, t = g(s_i), g(t_i)
    s2 = g(table.mult[s_i][s_i])
    st = g(table.mult[s_i][t_i])
    s_m1 = ring.sub(s, one)
    t_m1 = ring.sub(t, one)

    rel = Matrix(ring, 1, 2, [s_m1, t_m1])
    d1 = Matrix(ring, 1, 2, [s_m1, t_m1])
    d2 = Matrix(
        ring, 2, 3,
        [
            ring.add(ring.add(one, s), s2), ring.zero, ring.add(s2, t),
            ring.zero, ring.add(one, t), ring.add(one, st),
        ],
    )
    pres = ModulePresentation(ring, 1, rel)
    return TruncatedResolution(
        pres, ChainComplex(ring, [1, 2, 3], [d1, d2]), Matrix(ring, 1, 1, [one])
    )


def f2c4_resolution(n):
    """The periodic resolution of F_2 over F_2[C_4]: t - 1 and the norm
    element alternate as 1 x 1 boundaries; a characteristic-2 group ring."""
    from chaincert.chain import ChainComplex
    from chaincert.resolution import TruncatedResolution

    ring = GroupRing(F2, GroupTable.cyclic(4))
    t_m1 = ring.sub(ring.basis_element(1), ring.one)
    norm = (1, 1, 1, 1)
    pres = ModulePresentation(ring, 1, Matrix(ring, 1, 1, [t_m1]))
    diffs = [Matrix(ring, 1, 1, [t_m1 if i % 2 else norm]) for i in range(1, n + 1)]
    return TruncatedResolution(
        pres, ChainComplex(ring, [1] * (n + 1), diffs), Matrix(ring, 1, 1, [ring.one])
    )


def relabel_table(table, perm):
    """The Cayley table with element g renamed perm[g]."""
    order = table.order
    mult = [[0] * order for _ in range(order)]
    for g in range(order):
        for h in range(order):
            mult[perm[g]][perm[h]] = perm[table.mult[g][h]]
    new = GroupTable(order, tuple(map(tuple, mult)), perm[table.identity])
    new.validate()
    return new


def relabel(res, perm):
    """The same resolution over a relabelled copy of its group: element g
    becomes perm[g] in the Cayley table and in every coefficient vector."""
    from chaincert.chain import ChainComplex
    from chaincert.resolution import TruncatedResolution

    ring = GroupRing(res.ring.base, relabel_table(res.ring.group, perm))

    def move(m):
        entries = []
        for x in m.entries:
            coeffs = [None] * len(x)
            for g, c in enumerate(x):
                coeffs[perm[g]] = c
            entries.append(tuple(coeffs))
        return Matrix(ring, m.rows, m.cols, entries)

    pres = ModulePresentation(
        ring, res.presentation.ambient_rank, move(res.presentation.relations)
    )
    return TruncatedResolution(
        pres,
        ChainComplex(ring, res.complex.ranks, [move(d) for d in res.complex.diffs]),
        move(res.augmentation),
    )


@pytest.fixture(scope="session")
def acceptance_certificates():
    """The 200 randomized certificates shared by several acceptance
    criteria: (ring label, pair, certificate) triples."""
    from chaincert.stabilize import total_equivalence

    rng = random.Random(20260810)
    rings = [F2, F5, ZZ]
    out = []
    for case in range(200):
        ring = rings[case % 3]
        n = rng.randint(1, 4)
        res_p, res_q = random_resolution_pair(ring, n, max_rank=5, rng=rng)
        cert = total_equivalence(res_p, res_q)
        out.append((str(ring), (res_p, res_q), cert))
    return out
