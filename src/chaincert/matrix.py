"""Dense exact matrices over the supported rings, and the decision
procedures built on them: Smith/Hermite normal forms over Z, linear system
solving over every supported ring, kernel bases, and cokernel invariants.

Convention: a map between free right modules R^a -> R^b is a b x a matrix
acting on coordinate columns by left multiplication, so a composition g.f
is the product G*F. A map out of a direct sum A (+) B is the horizontal
block [F | G]; a direct sum of maps is the diagonal block.

Matrices with zero rows or columns are first-class citizens; they carry
maps to and from the zero module.

Invariant: every entry is in its ring's canonical form (``rings``): an
``int`` over Z, a residue in ``[0, p)`` over F_p, a tuple of canonical
base coefficients over a group ring. Products, sums and the parsers all
produce canonical entries, so equality of matrices is equality of entry
sequences, a zero matrix is one whose entries all equal ``ring.zero``
(``Matrix.is_zero``) and an identity is recognized by counting; the
arithmetic below relies on it.

Storage: over F_p with p <= 13 (``PrimeField.byte_lanes``) the entries
are one ``bytes`` object, one byte per residue. The constructor keeps a
``bytes`` argument as it is and copies a ``bytearray``, unchecked: those
come from the kernels and from ``_buffer``, which its users (here and in
``stabilize``) fill with reduced residues only. Any other sequence,
a list or a tuple say, is converted, and an entry outside [0, p) is a
``ValueError`` that names the ring, since a lane holding p or more would
make sums carry into the next lane. Over every other ring they are a
tuple. Indexing, slicing, counting, equality and hashing read both
alike. A sum over such a field adds the two entry sequences as byte
lanes of one Python int, ``int.from_bytes(..., "little")``: the lanes
hold at most 2(p-1) <= 24 and never carry, and one ``bytes.translate``
reduces them mod p. Negation is one ``translate`` too.

Products are formed in the entries' own ring: by ``_kernels.matmul_int``
over Z, ``matmul_mod`` over F_p (in byte lanes for p <= 13, returning
``bytes``) and ``matmul_group`` over a group ring, which convolves
coefficient tuples over the Cayley table. Restriction of scalars to the
base ring (``restrict_scalars``) serves only solving and the homology and
module invariants. Both read each entry through a table of its ring,
which derives each distinct element once (``GroupRing``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain
from math import gcd

from . import _kernels
from .rings import GroupRing, IntegerRing, PrimeField, Ring, RingError


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class Matrix:
    __slots__ = ("ring", "rows", "cols", "_e")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if isinstance(ring, PrimeField) and ring.byte_lanes:
            if isinstance(entries, int):  # bytes(n) would be n zero bytes
                raise TypeError("entries must be a sequence, not an int")
            converted = not isinstance(entries, (bytes, bytearray))
            try:
                entries = bytes(entries)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"entries over {ring} must be residues in [0, {ring.p}): {exc}"
                ) from exc
            if converted and entries.translate(_kernels.residue_table(ring.p)) != entries:
                raise ValueError(f"entries over {ring} must be residues in [0, {ring.p})")
        else:
            entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def from_rows(cls, ring: Ring, rows_nested, cols: int | None = None) -> "Matrix":
        rows_nested = [list(r) for r in rows_nested]
        nrows = len(rows_nested)
        if nrows == 0:
            if cols is None:
                raise ShapeError("cols is required for a matrix with no rows")
            return cls(ring, 0, cols, ())
        ncols = len(rows_nested[0])
        if cols is not None and cols != ncols:
            raise ShapeError("cols disagrees with row length")
        if any(len(r) != ncols for r in rows_nested):
            raise ShapeError("ragged rows")
        return cls(ring, nrows, ncols, [x for r in rows_nested for x in r])

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        entries = _buffer(ring, n * n)
        entries[:: n + 1] = [ring.one] * n
        return cls(ring, n, n, entries)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols, _buffer(ring, rows * cols))

    @property
    def entries(self) -> bytes | tuple:
        """All entries in row-major order: ``bytes`` over F_p with p <= 13,
        else a tuple."""
        return self._e

    def entry(self, i: int, j: int):
        return self._e[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self._e[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list]:
        return [self.row_list(i) for i in range(self.rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        """Every entry is zero (canonical entries); true for empty matrices."""
        return _zero_entries(self.ring, self._e)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self._e))

    def _check_same_ring(self, other: "Matrix"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingError(f"ring mismatch: {self.ring} vs {other.ring}")

    def _check_same_shape(self, other: "Matrix", verb: str):
        self._check_same_ring(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"cannot {verb} {self.shape} and {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "add")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        ring, a, b = self.ring, self._e, other._e
        if isinstance(ring, PrimeField) and ring.byte_lanes:
            total = int.from_bytes(a, "little") + int.from_bytes(b, "little")
            entries = total.to_bytes(len(a), "little").translate(_kernels.residue_table(ring.p))
        else:
            entries = _coefficientwise(ring, operator.add, a, b)
        return Matrix(ring, self.rows, self.cols, entries)

    def __neg__(self) -> "Matrix":
        ring, a = self.ring, self._e
        if isinstance(ring, PrimeField) and ring.byte_lanes:
            entries = a.translate(_kernels.negation_table(ring.p))
        else:
            entries = _coefficientwise(ring, operator.neg, a)
        return Matrix(ring, self.rows, self.cols, entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "subtract")
        return self + -other

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_same_ring(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        if self.is_zero() or other.is_zero():
            return Matrix.zeros(self.ring, self.rows, other.cols)
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        return _mat_mul(self, other)

    def submatrix(self, rows, cols) -> "Matrix":
        """The entries at the given row and column indices, in that order.

        ``rows`` and ``cols`` are sized sequences of in-range indices, in
        any order, repeats allowed. ``cols`` is split once into maximal
        runs of consecutive indices, and each row is copied as one slice
        per run.
        """
        e, width, cols = self._e, self.cols, list(cols)
        runs = []
        start = 0
        for t in range(1, len(cols) + 1):
            if t == len(cols) or cols[t] != cols[t - 1] + 1:
                runs.append((cols[start], cols[t - 1] + 1))
                start = t
        entries = _buffer(self.ring)
        for i in rows:
            base = i * width
            for lo, hi in runs:
                entries += e[base + lo : base + hi]
        return Matrix(self.ring, len(rows), len(cols), entries)

    def transpose(self) -> "Matrix":
        e, cols = self._e, self.cols
        entries = _buffer(self.ring)
        for j in range(cols):
            entries.extend(e[j::cols])
        return Matrix(self.ring, cols, self.rows, entries)

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.render(x) for x in self.row_list(i))
            for i in range(self.rows)
        )
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, [{body}])"


def _buffer(ring: Ring, count: int = 0):
    """A mutable buffer of ``count`` zero entries that the constructor
    takes without converting entry by entry: a ``bytearray`` over a field
    with byte lanes, else a list."""
    if isinstance(ring, PrimeField) and ring.byte_lanes:
        return bytearray(count)
    return [ring.zero] * count


def _coefficientwise(ring: Ring, op, *operands):
    """``op`` mapped over the operands' entries in step, reduced mod p over
    F_p; over a group ring, over their flattened base coefficients, regrouped."""
    if isinstance(ring, GroupRing):
        flat = _coefficientwise(ring.base, op, *map(chain.from_iterable, operands))
        return zip(*[flat] * ring.group.order)  # consecutive runs of |G|
    flat = map(op, *operands)
    return map(ring.p.__rmod__, flat) if isinstance(ring, PrimeField) else flat


def _zero_entries(ring: Ring, e) -> bool:
    """Every entry of ``e``, canonical entries over ``ring``, is zero: bytes
    by one compare, ints by ``any``, group-ring tuples by counting."""
    if isinstance(ring, GroupRing):
        return e.count(ring.zero) == len(e)
    return e == bytes(len(e)) if isinstance(e, bytes) else not any(e)


def _is_identity(a: Matrix) -> bool:
    """A square identity matrix (canonical entries)."""
    n = a.rows
    if n != a.cols:
        return False
    e = a._e
    return e[:: n + 1].count(a.ring.one) == n and e.count(a.ring.zero) == n * n - n


def _one_plus(m: Matrix) -> Matrix:
    """1 + m for a square m: one added to each diagonal entry."""
    entries = _buffer(m.ring)
    entries += m.entries
    add, one = m.ring.add, m.ring.one
    entries[:: m.rows + 1] = [add(x, one) for x in entries[:: m.rows + 1]]
    return Matrix(m.ring, m.rows, m.cols, entries)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ring = a.ring
    m, n, k = a.rows, a.cols, b.cols
    if isinstance(ring, IntegerRing):
        flat = _kernels.matmul_int(a._e, b._e, m, n, k)
        return Matrix(ring, m, k, flat)
    if isinstance(ring, PrimeField):
        flat = _kernels.matmul_mod(a._e, b._e, m, n, k, ring.p)
        return Matrix(ring, m, k, flat)
    if isinstance(ring, GroupRing):
        p = ring.base.p if isinstance(ring.base, PrimeField) else 0
        flat = _kernels.matmul_group(
            a._e, b._e, m, n, k, ring.group.mult, ring.zero, p, ring.supports
        )
        return Matrix(ring, m, k, flat)
    raise RingError(f"unsupported ring {ring}")


def hstack(*mats: Matrix) -> Matrix:
    """Side by side: ``block([mats])``."""
    return block([mats])


def vstack(*mats: Matrix) -> Matrix:
    """One above the other: ``block([[m] for m in mats])``."""
    return block([[mat] for mat in mats])


def block(grid) -> Matrix:
    """Assemble a 2D arrangement of matrices with consistent edge sizes.

    Every matrix in a block row has the row's height, every block row has
    the first row's total width, and all share the first matrix's ring;
    otherwise ``ShapeError`` or ``RingError``. The entries are copied once,
    block row by block row.
    """
    grid = [list(row) for row in grid]
    if not grid or not grid[0]:
        raise ShapeError("block needs a nonempty grid")
    ring = grid[0][0].ring
    width = sum(mat.cols for mat in grid[0])
    entries = _buffer(ring)
    rows = 0
    for row in grid:
        if not row:
            raise ShapeError("block needs a nonempty block row")
        height = row[0].rows
        for mat in row:
            if mat.rows != height:
                raise ShapeError("block row height mismatch")
            if mat.ring != ring:
                raise RingError("block ring mismatch")
        if sum(mat.cols for mat in row) != width:
            raise ShapeError("block width mismatch")
        parts = [(mat._e, mat.cols) for mat in row]
        for i in range(height):
            for e, w in parts:
                entries += e[i * w : (i + 1) * w]
        rows += height
    return Matrix(ring, rows, width, entries)


# ---------------------------------------------------------------------------
# restriction of scalars for group rings


def restrict_scalars(a: Matrix) -> Matrix:
    """Replace every group-ring entry by its left-multiplication block over
    the base ring; the result is the same additive map with ranks multiplied
    by the group order. The blocks come from ``ring.representations``."""
    ring = a.ring
    if not isinstance(ring, GroupRing):
        raise RingError("restrict_scalars needs a group-ring matrix")
    n, e, cols = ring.group.order, a.entries, a.cols
    block_of = ring.representations.__getitem__
    entries = _buffer(ring.base)
    for i in range(a.rows):
        reps = list(map(block_of, e[i * cols : (i + 1) * cols]))
        for bi in range(n):
            for rep in reps:
                entries.extend(rep[bi])
    return Matrix(ring.base, a.rows * n, cols * n, entries)


def _expand_columns(b: Matrix) -> Matrix:
    """Unfold each group-ring coordinate into its coefficient vector,
    turning an m x k group-ring matrix into an (m|G|) x k base matrix."""
    ring = b.ring
    n, e, cols = ring.group.order, b.entries, b.cols
    entries = _buffer(ring.base)
    for i in range(b.rows):
        row = e[i * cols : (i + 1) * cols]
        for g in range(n):
            entries.extend([c[g] for c in row])
    return Matrix(ring.base, b.rows * n, cols, entries)


def _fold_columns(y: Matrix, ring: GroupRing, rows: int) -> Matrix:
    n = ring.group.order
    if y.rows != rows * n:
        raise ShapeError("folded row count mismatch")
    e, cols = y.entries, y.cols
    entries = []
    for i in range(rows):
        band = e[i * n * cols : (i + 1) * n * cols]
        entries += zip(*[band[g * cols : (g + 1) * cols] for g in range(n)])
    return Matrix(ring, rows, cols, entries)


# ---------------------------------------------------------------------------
# integer normal forms


@dataclass(frozen=True)
class HermiteNormalForm:
    h: Matrix
    u: Matrix  # unimodular, u * a = h


def _require_int_ring(a: Matrix, what: str):
    if not isinstance(a.ring, IntegerRing):
        raise RingError(f"{what} is defined over Z only")


def _clear_column(rows: list[list[int]], k: int, c: int, u: list[list[int]] | None = None):
    """Remainder elimination on column c from row k down (Cohen, A Course
    in Computational Algebraic Number Theory, section 2.4.4): the smallest
    nonzero entry by absolute value is swapped into row k as the pivot, and
    each row below subtracts the pivot row times its floor quotient by the
    pivot; while a remainder is left, the smallest one becomes the pivot.
    Every re-pivot lowers the pivot's absolute value, so this ends with
    column c nonzero at most at row k. The rows from k down must be zero
    left of c. ``u``, when given, gets the same row operations."""
    pivots = [(abs(row[c]), i) for i, row in enumerate(rows[k:], k) if row[c]]
    while pivots:
        _, i = min(pivots)
        rows[k], rows[i] = rows[i], rows[k]
        if u is not None:
            u[k], u[i] = u[i], u[k]
        top = rows[k][c:]
        for i in range(k + 1, len(rows)):
            row = rows[i]
            q = row[c] // top[0]
            if q:
                row[c:] = [x - q * y for x, y in zip(row[c:], top)]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        pivots = [(abs(row[c]), i) for i, row in enumerate(rows[k + 1 :], k + 1) if row[c]]


def _hermite(h: list[list[int]], n: int) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Row Hermite form of the rows h, each of length n, formed in place:
    returns (h, u, pivots) with u * (h as given) = h, u unimodular, and
    pivots the pivot column of each nonzero row of h."""
    m = len(h)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        _clear_column(h, r, c, u)
        if not h[r][c]:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        pivots.append(c)
    return h, u, pivots


def hnf(a: Matrix) -> HermiteNormalForm:
    """Row Hermite normal form over Z: u*a = h with u unimodular, pivots
    positive, entries above each pivot reduced into [0, pivot). Columns
    are cleared by remainder elimination, as in ``snf``."""
    _require_int_ring(a, "hnf")
    h, u, _ = _hermite(a.to_rows(), a.cols)
    return HermiteNormalForm(
        h=Matrix.from_rows(a.ring, h, cols=a.cols),
        u=Matrix.from_rows(a.ring, u, cols=a.rows),
    )


def _column_echelon(a: Matrix) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Column echelon form A*V = E over Z, read off the row Hermite form
    U*A^T = H of the transpose: returns (h, u, pivot_rows), H and U as
    nested-row lists, so row j of h is column j of E and row j of u is
    column j of V. For j < len(pivot_rows), column j of E leads at row
    pivot_rows[j] (strictly increasing); the remaining columns are zero."""
    e, cols = a.entries, a.cols
    return _hermite([list(e[j::cols]) for j in range(cols)], a.rows)


def snf(a: Matrix) -> list[int]:
    """The diagonal of the Smith normal form over Z, without its
    transforms: min(rows, cols) entries, nonnegative, each dividing the
    next, zeros trailing. The nonzero entries are the invariant factors of
    ``a``; their count is its rank.

    Step k swaps the column of the smallest nonzero entry of d[k:, k:]
    into column k and clears it (``_clear_column``). Then row k is reduced
    modulo the pivot: a column operation that changes only row k, as
    column k is now zero elsewhere (rows above k are zero from column k
    on). A remainder left in row k, smaller than the pivot, is swapped
    into column k and the step repeats, so each step ends.
    """
    _require_int_ring(a, "snf")
    m, n = a.rows, a.cols
    d = a.to_rows()
    rank = 0
    for k in range(min(m, n)):
        nonzero = [(abs(x), j) for row in d[k:] for j, x in enumerate(row[k:], k) if x]
        if not nonzero:
            break
        _, j = min(nonzero)
        while True:  # column j to column k, clear column k, then row k
            for row in d[k:]:
                row[k], row[j] = row[j], row[k]
            _clear_column(d, k, k)
            row = d[k]
            row[k + 1 :] = [x % row[k] for x in row[k + 1 :]]
            rest = [(abs(x), j) for j, x in enumerate(row[k + 1 :], k + 1) if x]
            if not rest:
                break
            _, j = min(rest)
        rank = k + 1

    # diag(a, b) is equivalent to diag(gcd, lcm), so gcd/lcm swaps put the
    # nonzero diagonal into a divisibility chain
    diag = [abs(d[k][k]) for k in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag + [0] * (min(m, n) - rank)


# ---------------------------------------------------------------------------
# solving, kernels, cokernels


def _solve_int(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve A X = B over Z through the column echelon form A V = E.

    Forward substitution runs over whole rows of B. At pivot j, the floor
    quotients of the residual's row r = pivot_rows[j] by the pivot form
    row j of Y, and the residual's rows from r down are updated on every
    column at once, only where E's column j is nonzero. That leaves the
    remainders in row r, which no later pivot touches (their rows lie
    below), so a column not divisible at some pivot keeps a nonzero
    residual. B is in the column lattice of A exactly when the residual
    ends at zero, and then X = V[:, :rank] Y is one product."""
    h, u, pivot_rows = _column_echelon(a)
    rank = len(pivot_rows)
    resid = b.to_rows()
    y = []
    for j, r in enumerate(pivot_rows):
        column = h[j]
        q = [x // column[r] for x in resid[r]]
        y += q
        if any(q):
            for i in range(r, b.rows):
                c = column[i]
                if c:
                    resid[i] = [x - c * t for x, t in zip(resid[i], q)]
    if any([any(row) for row in resid]):
        return None
    basis = Matrix(a.ring, rank, a.cols, [x for row in u[:rank] for x in row]).transpose()
    return basis * Matrix(a.ring, rank, b.cols, y)


def _solve_field(a: Matrix, b: Matrix) -> Matrix | None:
    p = a.ring.p
    aug = hstack(a, b)
    flat, pivots = _kernels.rref_mod(aug._e, aug.rows, aug.cols, p)
    n = a.cols
    if any(c >= n for c in pivots):
        return None
    k, width = b.cols, aug.cols
    x = _buffer(a.ring, n * k)
    for r, c in enumerate(pivots):
        x[c * k : (c + 1) * k] = flat[r * width + n : (r + 1) * width]
    return Matrix(a.ring, n, k, x)


def _solve_group_ring(a: Matrix, b: Matrix) -> Matrix | None:
    base_a = restrict_scalars(a)
    base_b = _expand_columns(b)
    y = solve(base_a, base_b)
    if y is None:
        return None
    return _fold_columns(y, a.ring, a.cols)


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of A*X = B, or None when none exists.

    Over a prime field this is Gaussian elimination; over Z, a column
    Hermite form (solvable iff B lies in the column lattice of A), with
    one substitution pass over all columns of B (``_solve_int``); over a
    group ring the system is rewritten through the regular representation
    into a base-ring system and folded back.
    """
    if a.ring != b.ring:
        raise RingError("solve: ring mismatch")
    if a.rows != b.rows:
        raise ShapeError("solve: row mismatch")
    ring = a.ring
    if isinstance(ring, IntegerRing):
        return _solve_int(a, b)
    if isinstance(ring, PrimeField):
        return _solve_field(a, b)
    if isinstance(ring, GroupRing):
        return _solve_group_ring(a, b)
    raise RingError(f"unsupported ring {ring}")


def kernel_basis(a: Matrix) -> Matrix:
    """Basis of {x : A*x = 0} as matrix columns; over Z this is a lattice
    basis (the kernel of an integer matrix is free)."""
    ring, n = a.ring, a.cols
    if isinstance(ring, IntegerRing):
        _, u, pivot_rows = _column_echelon(a)
        cols = u[len(pivot_rows) :]
        return Matrix(ring, n, len(cols), [col[i] for i in range(n) for col in cols])
    if not isinstance(ring, PrimeField):
        raise RingError("kernel_basis is defined over Z and prime fields only")
    p = ring.p
    flat, pivots = _kernels.rref_mod(a._e, a.rows, n, p)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    k = len(free)
    entries = _buffer(ring, n * k)
    for t, j in enumerate(free):
        entries[j * k + t] = 1
        for r, c in enumerate(pivots):
            entries[c * k + t] = -flat[r * n + j] % p
    return Matrix(ring, n, k, entries)


@dataclass(frozen=True)
class Invariants:
    """Isomorphism invariants of a finitely generated module: free rank
    (dimension, over a field) plus invariant factors > 1 (over Z).

    ``characteristic`` is 0 over Z and p over F_p. It only names the free
    part when printed and takes no part in equality."""

    free_rank: int
    torsion: tuple[int, ...] = ()
    characteristic: int = field(default=0, compare=False)

    @property
    def trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        """``0``, or the free part (``Z`` or ``F_p``, as ``Z^r`` or
        ``F_p^r`` when r > 1) and one ``Z/t`` per invariant factor, joined
        by `` + ``."""
        r, p = self.free_rank, self.characteristic
        free = f"F_{p}" if p else "Z"
        parts = ([] if r == 0 else [free if r == 1 else f"{free}^{r}"]) + [
            f"Z/{t}" for t in self.torsion
        ]
        return " + ".join(parts) if parts else "0"


def rank_field(a: Matrix) -> int:
    if not isinstance(a.ring, PrimeField):
        raise RingError("rank_field needs a prime-field matrix")
    _, pivots = _kernels.rref_mod(a._e, a.rows, a.cols, a.ring.p)
    return len(pivots)


def cokernel_invariants(a: Matrix) -> Invariants:
    """Invariants of coker(A) = R^rows / im(A). Over Z: free rank and
    invariant factors from the Smith form; over a field: dimension.
    Group-ring callers restrict scalars first.

    A matrix with no rows or no columns has the free cokernel R^rows; it
    is answered without a pass over its rows, whatever rank it declares."""
    ring = a.ring
    if isinstance(ring, IntegerRing):
        nonzero = [d for d in snf(a) if d] if a.rows and a.cols else []
        return Invariants(
            free_rank=a.rows - len(nonzero),
            torsion=tuple(d for d in nonzero if d > 1),
        )
    if isinstance(ring, PrimeField):
        rank = rank_field(a) if a.rows and a.cols else 0
        return Invariants(free_rank=a.rows - rank, characteristic=ring.p)
    raise RingError("cokernel_invariants over Z and prime fields; restrict scalars first")
