"""Construction, not assertion, of the homotopy equivalence between the
projectively stabilized complexes of two truncated resolutions of one
presented module.

Given resolutions with terms P_i and Q_i, two interleaved towers of free
modules are built by the rank recursion

    t_0 = p_0,  s_0 = q_0,  t_i = p_i + s_{i-1},  s_i = q_i + t_{i-1},

the first complex is stabilized by the top module of the s-tower and the
second by the top of the t-tower. A chain of elementary expansions carries
each stabilized complex to a fully expanded middle complex, and the two
middle complexes are chain isomorphic through an inductively lifted family
of 2 x 2 block isomorphisms. The expansions only include, project and
negate blocks, so ``total_equivalence`` reads the composite equivalence
(forward/backward maps plus both contracting homotopies) straight off the
block isomorphisms. The expansion chain itself stays as the reference
construction the closed form is tested against: every stage is one
elementary expansion (``_expand``: a free summand adjoined in two adjacent
degrees, mapped by the identity), and ``intermediate_complex``,
``expansion_equivalence`` and ``chain_isomorphism`` package its stages.

Each tower step is [[incl d_i, 0], [0, 1]], so only the input boundaries
carry content. Construction never forms a step at tower size: it checks
d.d = 0 on the two inputs and derives the tower ranks (``build_ladder``),
and solves every lift, and checks its square, against an input boundary
from the previous degree's blocks (``build_ladder_maps``). A function of
one side's tower takes its resolution and the other tower's ranks (s for
the first input, t for the second). ``verify_certificate`` checks every
identity of the result.

Summand order convention: the degree-i tower module splits as (own term,
previous stabilizer), i.e. T_i = P_i (+) S_{i-1} and S_i = Q_i (+) T_{i-1},
and this order is used consistently in every block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (
    ChainComplex,
    ChainMap,
    HomotopyEquivalence,
    Report,
    all_homology_invariants,
    make_equivalence,
    validate_complex,
    zero_homotopy,
)
from .matrix import Matrix, ShapeError, _buffer, _one_plus, _zero_entries, hstack, solve
from .resolution import (
    ModulePresentation,
    TruncatedResolution,
    _pad_top_complex,
    presentation_invariants,
)
from .verify import ladder_ranks, verify_certificate  # noqa: F401  re-exported


class StabilizeError(ValueError):
    """Inputs do not satisfy the construction's hypotheses."""


class InputMismatchError(StabilizeError):
    """The two resolutions cannot be paired at all (different ring, length,
    or presented module); a data problem, not a mathematical failure."""


class LiftError(StabilizeError):
    """A lifting system had no solution; the offending degree is recorded.

    This signals a defective input (a non-exact resolution or two
    resolutions of different modules): for valid inputs every lift exists.
    """

    def __init__(self, degree: int, direction: str):
        self.degree = degree
        self.direction = direction
        super().__init__(
            f"no {direction} lift at degree {degree}: "
            "input resolutions are not exact resolutions of the same module"
        )


def _check_pair(res_p: TruncatedResolution, res_q: TruncatedResolution):
    if res_p.ring != res_q.ring:
        raise InputMismatchError("ring mismatch between the two resolutions")
    if res_p.length != res_q.length:
        raise InputMismatchError(
            f"length mismatch: {res_p.length} vs {res_q.length}"
        )
    if res_p.presentation != res_q.presentation:
        raise InputMismatchError("the resolutions present different modules")
    if res_p.cochain or res_q.cochain:
        raise InputMismatchError("stabilization runs on chain-oriented resolutions")


def build_ladder(
    res_p: TruncatedResolution, res_q: TruncatedResolution
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tower ranks (t, s) of a compatible pair; deterministic.

    Both inputs must be complexes. Two padded tower steps compose to
    [[incl_{i-1} d_i d_{i+1}], [0]], which is zero exactly when
    d_i d_{i+1} is, so d.d = 0 is checked on the inputs themselves; a
    failure raises StabilizeError naming the side and the degree."""
    _check_pair(res_p, res_q)
    for side, res in (("left", res_p), ("right", res_q)):
        for i, check in enumerate(validate_complex(res.complex).checks, 1):
            if not check.ok:
                raise StabilizeError(
                    f"{side} input is not a complex at degree {i}: "
                    f"{check.name} fails"
                )
    t, s = ladder_ranks(res_p.complex.ranks, res_q.complex.ranks)
    return tuple(t), tuple(s)


def stabilized_complex(res: TruncatedResolution, extra: int) -> ChainComplex:
    """The input complex with a free module of rank ``extra`` (s_n for the
    first input, t_n for the second) adjoined to the top term by zero."""
    return _pad_top_complex(res.complex, extra)


def _select(ring, size: int, positions) -> Matrix:
    """The columns of the size x size identity at ``positions``: the
    inclusion of those basis vectors."""
    return Matrix.identity(ring, size).submatrix(range(size), positions)


def _expand(c: ChainComplex, r: int, a: int, at: int):
    """The elementary expansion of ``c`` at degree r: a free summand of
    rank a adjoined in degrees r and r+1, mapped by the identity from
    degree r+1 to degree r. In degree r it follows the old basis; in
    degree r+1 it starts at position ``at``.

    With J_i including the old basis and N_i the new summand, the boundaries
    become J_{i-1} d_i J_i^T, plus N_r N_{r+1}^T at i = r+1. Returns that
    complex, the J_i and t_r = -N_{r+1} N_r^T: fwd = J, bwd = J^T, s = 0
    and t = t_r are an equivalence, as J^T J = 1 and 1 - J J^T = d t + t d."""
    ring = c.ring
    spot = list(c.ranks)
    spot[r + 1] = at
    grow = [a if i in (r, r + 1) else 0 for i in range(c.length + 1)]
    ranks = [m + g for m, g in zip(c.ranks, grow)]
    incl = [
        _select(ring, m, [*range(p), *range(p + g, m)]) for m, p, g in zip(ranks, spot, grow)
    ]
    new_r, new_up = (_select(ring, ranks[i], range(spot[i], spot[i] + a)) for i in (r, r + 1))
    diffs = [incl[i - 1] * c.d(i) * incl[i].transpose() for i in range(1, c.length + 1)]
    diffs[r] = diffs[r] + new_r * new_up.transpose()
    return ChainComplex(ring, ranks, diffs), incl, -(new_up * new_r.transpose())


def intermediate_complex(res: TruncatedResolution, added, r: int) -> ChainComplex:
    """Stage r of the expansion chain: the stabilized complex expanded
    (``_expand``) at degrees 0..r-1 in turn, the degree-k summand being the
    opposite tower's module of degree k, of rank ``added[k]``. So degrees
    below r are fully expanded tower pairs, degree r is the bare tower
    module, degrees above carry the untouched resolution terms (the top
    keeps its stabilizer summand last). Stage 0 is the stabilized complex;
    stage n is the fully expanded one."""
    n = res.length
    if not 0 <= r <= n:
        raise ShapeError(f"stage {r} out of range 0..{n}")
    c = stabilized_complex(res, added[n])
    for k in range(r):
        c = _expand(c, k, added[k], res.complex.ranks[k + 1])[0]
    return c


def expansion_equivalence(res: TruncatedResolution, added, r: int) -> HomotopyEquivalence:
    """The elementary expansion from stage r to stage r+1, as ``_expand``
    builds it: the forward map includes the old basis, the backward map
    projects onto it, and the projection-then-inclusion round trip is
    contracted by the homotopy that negates the new summand, placed from
    degree r to degree r+1; the other round trip is the identity on the
    nose."""
    n = res.length
    if not 0 <= r <= n - 1:
        raise ShapeError(f"expansion stage {r} out of range 0..{n - 1}")
    lower = intermediate_complex(res, added, r)
    upper, incl, t_r = _expand(lower, r, added[r], res.complex.ranks[r + 1])
    fwd = ChainMap(lower, upper, incl)
    bwd = ChainMap(upper, lower, [j.transpose() for j in incl])
    t_parts = zero_homotopy(upper)
    t_parts[r] = t_r
    return make_equivalence(fwd, bwd, zero_homotopy(lower), t_parts)


# ---------------------------------------------------------------------------
# the inductive chain isomorphism between the fully expanded complexes


def _assemble(f: Matrix, corner: Matrix, neg: Matrix) -> Matrix:
    """[[f, corner], [1, neg]], written once, row by row."""
    ring, (s, t) = f.ring, f.shape
    fe, ce, ne, unit = f.entries, corner.entries, neg.entries, _buffer(ring, 2 * t + 1)
    unit[t] = ring.one
    entries = _buffer(ring)
    for r in range(s):
        entries += fe[r * t : (r + 1) * t]
        entries += ce[r * s : (r + 1) * s]
    for r in range(t):
        entries += unit[t - r : 2 * t - r]  # the unit row e_r
        entries += ne[r * s : (r + 1) * s]
    return Matrix(ring, s + t, t + s, entries)


def _blocks(f: Matrix, g: Matrix):
    """The blocks (f, 1 - f g, -g) of h and (g, 1 - g f, -f) of k."""
    neg_f, neg_g = -f, -g
    return (f, _one_plus(neg_f * g), neg_g), (g, _one_plus(neg_g * f), neg_f)


def inverse_pair(f: Matrix, g: Matrix) -> tuple[Matrix, Matrix]:
    """The 2 x 2 block pair built from any opposite pair of maps
    f: A -> B, g: B -> A:

        h = [[f, 1 - f g], [1, -g]]      k = [[g, 1 - g f], [1, -f]]

    h k = k h = 1 identically, for every f and g of compatible shapes.
    The corner 1 - f g is (-f) g plus one on the diagonal, 1 - g f is
    (-g) f (``_blocks``). ``verify_certificate`` checks only h k = 1 (it
    says why that suffices). Maps over different rings, or not of
    opposite shapes, fail in those products (RingError, ShapeError).
    """
    return tuple(_assemble(*blocks) for blocks in _blocks(f, g))


def _lift(
    f: Matrix, corner: Matrix, neg_g: Matrix, d_from: Matrix, d_to: Matrix,
    degree: int, direction: str,
) -> Matrix:
    """Solve step_to(i) X = h step_from(i) by blocks, at input size.

    Named for the forward lift (the backward one swaps P and Q, t and s):
    h = h_{i-1} = [[f, corner], [1, neg_g]], d_from = d^P_i, d_to = d^Q_i.
    As step^P_i = [[incl d^P_i, 0], [0, 1]], the right-hand side is
    B = [[f[:, P_{i-1}] d^P_i, corner], [incl d^P_i, neg_g]]. Its rows
    split as S_{i-1} (+) T_{i-1} = Q_{i-1} (+) T_{i-2} (+) T_{i-1}, and
    step^Q_i is [[d^Q_i, 0], [0, 0], [0, 1]] in that split. So the top
    rows of X solve d^Q_i Y = B[Q_{i-1}], the T_{i-2} rows of B must be
    zero (the product's and the corner's rows from q_{i-1} on), and the
    bottom t_{i-1} rows of X are those of B. Only the top band is built."""
    ring, own, pw, cw = f.ring, d_to.rows, d_from.cols, corner.cols
    pe = (f.submatrix(range(f.rows), range(d_from.rows)) * d_from).entries
    ce, de, ne, band = corner.entries, d_from.entries, neg_g.entries, _buffer(ring)
    if not (_zero_entries(ring, pe[own * pw :]) and _zero_entries(ring, ce[own * cw :])):
        raise LiftError(degree, direction)
    for r in range(own):
        band += pe[r * pw : (r + 1) * pw]
        band += ce[r * cw : (r + 1) * cw]
    top = Matrix(ring, own, pw + cw, band)  # a copy: band is reused below
    x = solve(d_to, top)
    if x is None:
        raise LiftError(degree, direction)
    if d_to * x != top:
        raise StabilizeError(f"{direction} lift square fails at degree {degree}")
    band[:], zeros = x.entries, _buffer(ring, pw)  # f_i = [x; bottom band]
    for r in range(f.cols):
        band += de[r * pw : (r + 1) * pw] if r < d_from.rows else zeros
        band += ne[r * cw : (r + 1) * cw]
    return Matrix(ring, x.rows + f.cols, pw + cw, band)


def build_ladder_maps(
    res_p: TruncatedResolution, res_q: TruncatedResolution
) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Solve the lifting systems degree by degree and assemble the mutually
    inverse block isomorphisms (iso_fwd, iso_bwd): h_i = iso_fwd[i] maps
    T_i (+) S_i to S_i (+) T_i, and k_i = iso_bwd[i] maps back. The forward
    lift f_i: T_i -> S_i is the top-left s_i x t_i block of h_i, the
    backward lift g_i that of k_i.

    The base lifts land in the presented module, so equality there is
    equality modulo the relations: the relations columns are adjoined as
    free unknowns. Above the base, the forward lift f_i solves
    step^Q_i f_i = h_{i-1} step^P_i and the backward lift g_i solves
    step^P_i g_i = k_{i-1} step^Q_i. Both are block-triangular with an
    identity block, so each is solved against an input boundary from the
    previous degree's blocks (``_lift``; h and k are only written), and
    its square is checked at that size. An unsolvable system raises
    LiftError with its degree and direction; a solution that fails its
    square raises StabilizeError.
    """
    _check_pair(res_p, res_q)
    base_lifts = []  # f_0, then g_0
    for a, b, direction in ((res_p, res_q, "forward"), (res_q, res_p, "backward")):
        lifted = solve(hstack(b.augmentation, res_p.presentation.relations), a.augmentation)
        if lifted is None:
            raise LiftError(0, direction)
        base_lifts.append(lifted.submatrix(range(b.complex.ranks[0]), range(lifted.cols)))
    blocks = [_blocks(*base_lifts)]  # per degree, the blocks of h_i and of k_i
    dp, dq = res_p.complex.d, res_q.complex.d
    for i in range(1, res_p.length + 1):
        fwd, bwd = blocks[-1]
        fi = _lift(*fwd, dp(i), dq(i), i, "forward")
        blocks.append(_blocks(fi, _lift(*bwd, dq(i), dp(i), i, "backward")))
    return tuple(_assemble(*h) for h, _ in blocks), tuple(_assemble(*k) for _, k in blocks)


def chain_isomorphism(
    iso_fwd, iso_bwd, expanded_left: ChainComplex, expanded_right: ChainComplex
) -> HomotopyEquivalence:
    """The block isomorphisms (``build_ladder_maps``) as a homotopy
    equivalence between the fully expanded complexes; both round trips
    are identities on the nose."""
    fwd = ChainMap(expanded_left, expanded_right, iso_fwd)
    bwd = ChainMap(expanded_right, expanded_left, iso_bwd)
    return make_equivalence(fwd, bwd, zero_homotopy(expanded_left), zero_homotopy(expanded_right))


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Everything a third party needs to re-check the result, as one flat
    record: the two stabilized complexes, the components of both chain
    maps and both homotopies, named as in a ``HomotopyEquivalence`` (so
    ``dualize_equivalence`` takes a certificate too), the tower ranks and
    the per-degree block isomorphism pair. Nothing in it is trusted, not
    even a shape: ``verify_certificate`` re-checks every identity from
    these fields."""

    presentation: ModulePresentation
    source: ChainComplex
    target: ChainComplex
    fwd: tuple[Matrix, ...]
    bwd: tuple[Matrix, ...]
    src_homotopy: tuple[Matrix, ...]
    tgt_homotopy: tuple[Matrix, ...]
    t_ranks: tuple[int, ...]
    s_ranks: tuple[int, ...]
    iso_fwd: tuple[Matrix, ...]
    iso_bwd: tuple[Matrix, ...]


def total_equivalence(
    res_p: TruncatedResolution, res_q: TruncatedResolution
) -> EquivalenceCertificate:
    """Build the equivalence between the two stabilized complexes.

    It is the composite of the left expansions (inclusions, contracted by
    -1 blocks), the block isomorphisms h_i = iso_fwd[i], k_i = iso_bwd[i]
    and the right expansions undone (projections), read off in closed
    form. Let L_i be the place of the stabilized complex's degree-i term in
    T_i (+) S_i: P_i, and at the top also S_n. Let R_i be the place of the
    other one in S_i (+) T_i: Q_i, and at the top also T_n. Then

        fwd_i = h_i[R_i, L_i]          bwd_i = k_i[L_i, R_i]
        s_i = -k_{i+1}[L_{i+1}, P_i]   t_i = -h_{i+1}[R_{i+1}, Q_i]

    where P_i sits inside S_{i+1} = Q_{i+1} (+) P_i (+) S_{i-1} and Q_i
    inside T_{i+1}. Only the inputs and the lifts are checked here
    (``build_ladder``, ``build_ladder_maps``); the equivalence identities
    are checked by ``verify_certificate``, which the command line runs
    before it writes a certificate."""
    t, s = build_ladder(res_p, res_q)
    h, k = build_ladder_maps(res_p, res_q)
    n = res_p.length
    p, q = res_p.complex.ranks, res_q.complex.ranks
    left = [range(p[i]) for i in range(n)] + [[*range(p[n]), *range(t[n], t[n] + s[n])]]
    right = [range(q[i]) for i in range(n)] + [[*range(q[n]), *range(s[n], s[n] + t[n])]]

    return EquivalenceCertificate(
        presentation=res_p.presentation,
        source=stabilized_complex(res_p, s[n]),
        target=stabilized_complex(res_q, t[n]),
        fwd=tuple(h[i].submatrix(right[i], left[i]) for i in range(n + 1)),
        bwd=tuple(k[i].submatrix(left[i], right[i]) for i in range(n + 1)),
        src_homotopy=tuple(
            -k[i + 1].submatrix(left[i + 1], range(q[i + 1], q[i + 1] + p[i])) for i in range(n)
        ),
        tgt_homotopy=tuple(
            -h[i + 1].submatrix(right[i + 1], range(p[i + 1], p[i + 1] + q[i])) for i in range(n)
        ),
        t_ranks=t,
        s_ranks=s,
        iso_fwd=h,
        iso_bwd=k,
    )


def schanuel_check(cert: EquivalenceCertificate) -> Report:
    """Homology-level comparison of the two stabilized complexes: equal
    invariants in every degree, trivial strictly between 0 and the top,
    and degree-0 invariants equal to those of the presented module.
    Group-ring homology is compared after restriction of scalars, done
    once per complex."""
    report = Report()
    n = cert.source.length
    module_inv = presentation_invariants(cert.presentation)
    src_invs = all_homology_invariants(cert.source)
    tgt_invs = all_homology_invariants(cert.target)
    for i, (inv_src, inv_tgt) in enumerate(zip(src_invs, tgt_invs)):
        report.add(
            f"homology match at degree {i}",
            inv_src == inv_tgt,
            f"{inv_src} vs {inv_tgt}",
        )
        # at n = 0 the stabilizer sits in degree 0 itself, so the top rule
        # (bare equality) applies there instead of the module comparison
        if i == 0 and n >= 1:
            report.add(
                "degree 0 equals the presented module",
                inv_src == module_inv,
                f"{inv_src} vs module {module_inv}",
            )
        elif 0 < i < n:
            report.add(
                f"trivial at degree {i}",
                inv_src.trivial,
                "" if inv_src.trivial else str(inv_src),
            )
    return report
