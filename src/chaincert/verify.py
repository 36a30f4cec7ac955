"""Everything ``chaincert check`` proves, and the one evaluator that proves it.

An identity is a record (``Identity``): the name its check prints and two
sides, each a sum of terms. A term is a path (n_0, M_1, n_1, ..., M_k, n_k)
through ranks, the product M_1 ... M_k of stored matrices with each M_j of
shape (n_{j-1}, n_j); ``ONE``, the empty product, is the identity. Shapes
are checked before any product is formed, and no identity matrix is formed.
This module imports ``matrix`` and nothing that constructs or solves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

from .matrix import Matrix, _all_zero, _buffer, _is_identity, _one_plus


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        mark = "ok  " if self.ok else "FAIL"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class Report:
    """Outcome of a validation run: one named check per verified identity."""

    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(Check(name, ok, detail))

    def extend(self, other: "Report", prefix: str = ""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.ok, c.detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> Check | None:
        return next((c for c in self.checks if not c.ok), None)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


ONE = ()  # the empty product: the identity


@dataclass(frozen=True)
class Identity:
    """The check ``name``: the terms of ``lhs`` and those of ``rhs`` have
    equal sums."""

    name: str
    lhs: list  # of terms
    rhs: list


def evaluate(items) -> Report:
    """One check per item, in order: an ``Identity`` evaluated, a ``Check``
    (a fact about ranks, or nothing to compare) as it is."""
    return Report([item if isinstance(item, Check) else _evaluate(item) for item in items])


def _evaluate(identity: Identity) -> Check:
    """A misshapen factor fails the check by naming its shape. Otherwise
    both sides are formed and compared: 1 + X adds one on the diagonal of
    X, and X = 1 is decided by counting (``_is_identity``)."""
    paths = [path for path in (*identity.lhs, *identity.rhs) if path]
    for path in paths:
        for j in range(1, len(path), 2):
            if path[j].shape != (want := (path[j - 1], path[j + 1])):
                return Check(identity.name, False, f"shape {path[j].shape}, not {want}")
    lhs, rhs = _side(identity.lhs), _side(identity.rhs)
    a, b = (rhs, lhs) if isinstance(lhs, int) else (lhs, rhs)
    if isinstance(b, int):  # a is a matrix: each record has a product
        same = _is_identity(a) if b else _all_zero(a)
    else:
        same = a == b
    if same:
        return Check(identity.name, True)
    rows, cols, ring = paths[0][0], paths[0][-1], paths[0][1].ring

    def row(side, r):  # a side of no product is 0 or 1, of the identity's shape
        if not isinstance(side, int):
            return side.entries[r * cols : (r + 1) * cols]
        entries = _buffer(ring, cols)
        if side:
            entries[r] = ring.one
        return entries if isinstance(entries, bytearray) else tuple(entries)

    r = next(r for r in range(rows) if row(lhs, r) != row(rhs, r))
    x, y = row(lhs, r), row(rhs, r)
    c = next(c for c in range(cols) if x[c] != y[c])
    detail = f"entry ({r}, {c}) is {ring.render(x[c])}, not {ring.render(y[c])}"
    return Check(identity.name, False, detail)


def _side(terms) -> Matrix | int:
    """The sum of ``terms``: a matrix, or 0 or 1 when no term is a product."""
    products = [reduce(operator.mul, path[1::2]) for path in terms if path]
    if not products:
        return int(ONE in terms)
    total = reduce(operator.add, products)
    return _one_plus(total) if ONE in terms else total


def complex_identities(c, prefix: str = "") -> list:
    """d_i d_{i+1} = 0 for each pair of adjacent boundaries."""
    r = c.ranks
    return [
        Identity(f"{prefix}d{i}.d{i+1} = 0", [(r[i - 1], c.d(i), r[i], c.d(i + 1), r[i + 1])], [])
        for i in range(1, c.length)
    ] or [Check(prefix + "d.d = 0", True, "no adjacent boundary pairs")]


def chain_map_identities(a, b, parts, prefix: str = "") -> list:
    """d_i f_i = f_{i-1} d_i at each degree i >= 1, for the map from complex
    a to complex b with components f_i = ``parts[i]``."""
    p, q = a.ranks, b.ranks
    return [
        Identity(
            f"{prefix}square at degree {i}",
            [(q[i - 1], b.d(i), q[i], parts[i], p[i])],
            [(q[i - 1], parts[i - 1], p[i - 1], a.d(i), p[i])],
        )
        for i in range(1, a.length + 1)
    ] or [Check(prefix + "squares", True, "single degree, nothing to commute")]


def homotopy_identities(a, b, f_terms, g_terms, parts, prefix: str = "") -> list:
    """F_i = G_i + d_{i+1} s_i + s_{i-1} d_i at each degree i, for maps F and
    G from complex a to complex b given by their terms per degree, and the
    components s_i: a_i -> b_{i+1} in ``parts`` (s_{-1} = s_n = 0)."""
    n, p, q = a.length, a.ranks, b.ranks
    records = []
    for i in range(n + 1):
        up = [(q[i], b.d(i + 1), q[i + 1], parts[i], p[i])] if i < n else []
        down = [(q[i], parts[i - 1], p[i - 1], a.d(i), p[i])] if i else []
        rhs = [*g_terms[i], *up, *down]
        records.append(Identity(f"{prefix}homotopy identity at degree {i}", f_terms[i], rhs))
    return records


def equivalence_identities(e) -> list:
    """Both chain maps, then the homotopies contracting the round trips
    bwd.fwd and fwd.bwd to the identities, a round trip one product. ``e``
    is a certificate or a ``HomotopyEquivalence``: both have ``source``,
    ``target``, ``fwd[i]``, ``bwd[i]`` and the two homotopies."""
    records = [
        *chain_map_identities(e.source, e.target, e.fwd, "forward map: "),
        *chain_map_identities(e.target, e.source, e.bwd, "backward map: "),
    ]
    for side, a, b, f, g, parts in (
        ("source", e.source, e.target, e.fwd, e.bwd, e.src_homotopy),
        ("target", e.target, e.source, e.bwd, e.fwd, e.tgt_homotopy),
    ):
        p, q = a.ranks, b.ranks
        round_trip = [[(p[i], g[i], q[i], f[i], p[i])] for i in range(len(p))]
        ones = [[ONE]] * len(p)
        records += homotopy_identities(a, a, round_trip, ones, parts, f"{side} homotopy: ")
    return records


def validate_complex(c) -> Report:
    return evaluate(complex_identities(c))


def validate_chain_map(f) -> Report:
    return evaluate(chain_map_identities(f.source, f.target, f.parts))


def validate_homotopy(f, g, parts) -> Report:
    """Check f - g = d s + s d degreewise, where ``parts`` holds the
    components s_i from degree i to i+1 for i = 0..n-1 (the top component
    is zero and not stored)."""
    p, q = f.source.ranks, f.target.ranks
    f_terms, g_terms = ([[(q[i], m[i], p[i])] for i in range(len(p))] for m in (f, g))
    return evaluate(homotopy_identities(f.source, f.target, f_terms, g_terms, parts))


def ladder_ranks(p_ranks, q_ranks) -> tuple[list[int], list[int]]:
    """Tower ranks from the defining recursion t_0 = p_0, s_0 = q_0,
    t_i = p_i + s_{i-1}, s_i = q_i + t_{i-1}."""
    if len(p_ranks) != len(q_ranks):
        raise ValueError("rank vectors must have equal length")
    t, s = [p_ranks[0]], [q_ranks[0]]
    for i in range(1, len(p_ranks)):
        t.append(p_ranks[i] + s[i - 1])
        s.append(q_ranks[i] + t[i - 1])
    return t, s


def _tower_ranks_fit(cert) -> bool:
    """The stored tower ranks follow the recursion from the complexes'
    ranks, the top terms taken without their stabilizers. Every stored list
    has one entry per degree, a homotopy one per degree below the top."""
    n, t, s = cert.source.length, cert.t_ranks, cert.s_ranks
    per_degree = (cert.target.ranks, t, s, cert.fwd, cert.bwd, cert.iso_fwd, cert.iso_bwd)
    homotopies = (cert.src_homotopy, cert.tgt_homotopy)
    if {len(x) for x in per_degree} != {n + 1} or {len(x) for x in homotopies} != {n}:
        return False
    p, q = list(cert.source.ranks), list(cert.target.ranks)
    p[n], q[n] = p[n] - s[n], q[n] - t[n]
    return min(p[n], q[n]) >= 0 and ladder_ranks(p, q) == (list(t), list(s))


def verify_certificate(cert) -> Report:
    """Re-run every identity from the raw matrices: d.d = 0 on both
    complexes, both chain maps and both homotopies, the tower rank
    recursion and the mutual inverseness of every block pair. ``check``
    runs this, and ``stabilize`` runs it before it writes a certificate.

    A block pair is checked by the one product h k = 1 of square h and k.
    That forces k h = 1, since M_n(R) is Dedekind-finite for every
    supported ring R. Over Z and F_p, det(h) det(k) = 1 makes det(h) a
    unit, so h has a two-sided inverse, which is k. M_n(F_p[G]) is a
    finite-dimensional F_p-algebra and M_n(Z[G]) lies in the
    finite-dimensional Q-algebra M_n(Q[G]); there h k = 1 makes x -> k x
    injective, hence bijective, so k c = 1 for some c, and
    h = h (k c) = (h k) c = c. The group-ring cases need the Cayley table
    to be a group, which ``GroupTable.validate`` checks (Light's
    associativity test) for every table read from a file.

    The rank recursion comes first, with the count of every stored list;
    when it holds, no rank of either complex exceeds t_i + s_i, the side of
    a stored block pair, so no identity forms a matrix larger than the
    stored ones, and every identity finds its components. When it fails,
    the identities are skipped."""
    if not _tower_ranks_fit(cert):
        return evaluate([
            Check("tower rank recursion", False),
            Check("matrix identities", False, "skipped: tower ranks do not fit the complexes"),
        ])
    h, k = cert.iso_fwd, cert.iso_bwd
    return evaluate([
        *complex_identities(cert.source, "first complex: "),
        *complex_identities(cert.target, "second complex: "),
        *equivalence_identities(cert),
        Check("tower rank recursion", True),
        *(
            Identity(f"block pair mutually inverse at degree {i}", [(e, h[i], e, k[i], e)], [ONE])
            for i, e in enumerate(map(operator.add, cert.t_ranks, cert.s_ranks))
        ),
    ])
