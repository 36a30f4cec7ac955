"""The hot numeric kernels, in exact pure Python.

All functions take flat row-major entry sequences (lists, tuples or
bytes; the kernels only index and slice them) and return new flat lists,
except ``matmul_mod`` and ``rref_mod`` for p <= 13, which return
``bytes``:

    matmul_int(a, b, m, n, k)       exact integer matrix product
    matmul_mod(a, b, m, n, k, p)    matrix product over F_p
    matmul_group(a, b, m, n, k, mult, zero, p, supports)
                                    matrix product over Z[G] or F_p[G],
                                    entries coefficient tuples
    rref_mod(a, m, n, p)            reduced row echelon form over F_p,
                                    entries canonical residues in [0, p)

The pipeline's tower-size matrices are mostly zeros, so every kernel does
work only where entries are nonzero: the products skip zero factors and
write only the outputs some pair reaches, and elimination updates only
the rows with a nonzero entry in the pivot column.

Byte lanes. Over F_p with (p-1)^2 <= 255 (p <= 13) a residue fits in a
byte and so does the product of two, so a row of k residues packs into
one Python int, ``int.from_bytes(row, "little")``, one byte lane per
column. ``matmul_mod`` adds x * packed_row into a row accumulator for
each nonzero x = a[i,t]; every lane then grows by at most (p-1)^2 and
never carries into the next one while it stays at most 255. One lane
budget keeps it there: an accumulator, empty or just reduced, holds at
most p-1 per lane, so it takes at most (255 - (p-1)) // (p-1)^2 terms
before it is reduced (``to_bytes`` and one ``bytes.translate`` through
``times_table(p, 1)``). That is 254 terms at p = 2, 15 at p = 5 and 1 at
p = 13. For p > 13 a product is ``matmul_int``'s, reduced mod p.
``rref_mod`` keeps each row as ``bytes``:
the pivot row is scaled by one ``translate`` through a table of v / f,
and a row with entry f in the pivot column becomes row + (p - f) * packed
pivot row, reduced by one ``translate``; its lanes reach at most
(p-1) + (p-1)^2 <= 156. Sums and negation of ``Matrix`` use the same
lanes and tables (``matrix``).
"""

from functools import lru_cache
from itertools import compress

# Recorded by the benchmark harness (perfbench/run.py) with every result.
IMPLEMENTATION = "pure"


def _nonzero_rows(b, n, k):
    """Each row of the n x k matrix ``b`` as the list of its nonzero
    (column, entry) pairs, found at C speed with ``itertools.compress``."""
    cols = range(k)
    return [[(j, b[r + j]) for j in compress(cols, b[r : r + k])] for r in range(0, n * k, k)]


def _product_rows(a, b, m, n, k):
    """The rows of the (m x n) @ (n x k) product that are not zero by
    sparsity, as (row index, unreduced integer row) pairs.

    Zero entries of ``a`` and ``b`` are skipped (``_nonzero_rows``); the
    pipeline's block matrices are mostly zeros.
    """
    if not (m and n and k):
        return
    brows = _nonzero_rows(b, n, k)
    inner = range(n)
    for i in range(m):
        arow = a[i * n : (i + 1) * n]
        row = None
        for t in compress(inner, arow):
            brow = brows[t]
            if brow:
                if row is None:
                    row = [0] * k
                x = arow[t]
                for j, y in brow:
                    row[j] += x * y
        if row is not None:
            yield i, row


def matmul_int(a, b, m, n, k):
    """(m x n) @ (n x k) over arbitrary-precision integers."""
    out = [0] * (m * k)
    for i, row in _product_rows(a, b, m, n, k):
        out[i * k : (i + 1) * k] = row
    return out


@lru_cache(maxsize=None)
def times_table(p, f):
    """The ``bytes.translate`` table of byte v -> v * f mod p: reduction
    at f = 1, negation at f = p - 1, division by g at f = g^(p-2)."""
    return bytes(v * f % p for v in range(256))


def matmul_mod(a, b, m, n, k, p):
    """(m x n) @ (n x k) with entries reduced into [0, p).

    For p <= 13 the entries must be canonical residues, and the product is
    formed in byte lanes (module docstring) and returned as ``bytes``: b's
    rows are packed once, and each output row is one accumulator, reduced
    whenever the lane budget runs out and once at the end. Otherwise it
    is ``matmul_int``'s product with its nonzero entries reduced mod p.
    """
    if (p - 1) ** 2 <= 255:  # a product fits in a byte lane: PrimeField.byte_lanes
        return _matmul_lanes(a, b, m, n, k, p)
    out = matmul_int(a, b, m, n, k)
    for j in compress(range(m * k), out):
        out[j] %= p
    return out


def _matmul_lanes(a, b, m, n, k, p):
    """The byte-lane product: at most ``terms`` terms into a row
    accumulator between reductions (module docstring)."""
    if not k:
        return b""
    table = times_table(p, 1)
    terms = (255 - (p - 1)) // (p - 1) ** 2
    packed = [int.from_bytes(b[r : r + k], "little") for r in range(0, n * k, k)]
    zero_row = bytes(k)
    inner = range(n)
    rows = []
    for i in range(m):
        arow = a[i * n : (i + 1) * n]
        acc, budget = 0, terms
        for t in compress(inner, arow):
            brow = packed[t]
            if brow:
                if not budget:
                    acc = int.from_bytes(acc.to_bytes(k, "little").translate(table), "little")
                    budget = terms
                acc += arow[t] * brow
                budget -= 1
        rows.append(acc.to_bytes(k, "little").translate(table) if acc else zero_row)
    return b"".join(rows)


def matmul_group(a, b, m, n, k, mult, zero, p, supports):
    """(m x n) @ (n x k) over a group ring base[G].

    Entries are coefficient tuples in the element order of the Cayley table
    ``mult``; ``zero`` is the zero tuple and ``p`` the characteristic of
    the base ring (0 over Z). Both factors are read through ``supports``,
    the ring's table ``GroupRing.supports`` of each entry's nonzero
    (element, coefficient) pairs. Every pair of nonzero entries a[i,t],
    b[t,j] is convolved over the table, the left factor's element on the
    left: acc[mult[g][h]] += x_g * y_h. Each output entry accumulates in
    Python ints and is reduced mod p once; outputs no pair reaches are
    ``zero``.
    """
    out = [zero] * (m * k)
    if not (m and n and k):
        return out
    sa = list(map(supports.__getitem__, a))
    brows = _nonzero_rows(list(map(supports.__getitem__, b)), n, k)
    order = len(zero)
    inner = range(n)
    for i in range(m):
        arow = sa[i * n : (i + 1) * n]
        accs = {}
        for t in compress(inner, arow):
            xs = arow[t]
            for j, ys in brows[t]:
                acc = accs.get(j)
                if acc is None:
                    acc = accs[j] = [0] * order
                for g, x in xs:
                    prod = mult[g]
                    for h, y in ys:
                        acc[prod[h]] += x * y
        for j, acc in accs.items():
            out[i * k + j] = tuple([v % p for v in acc] if p else acc)
    return out


def rref_mod(a, m, n, p):
    """Reduced row echelon form over F_p.

    The entries must be canonical residues in [0, p), as every F_p
    ``Matrix`` holds them: a pivot is any entry that is not 0. Returns
    (entries, pivots) where pivots lists the pivot column of each nonzero
    row, in order; the entries are ``bytes`` for p <= 13, eliminated in
    byte lanes (module docstring), and a list otherwise, where clearing a
    pivot column updates a row only on the pivot row's nonzero columns.
    """
    if (p - 1) ** 2 <= 255:  # PrimeField.byte_lanes
        return _rref_lanes(a, m, n, p)
    rows = [list(a[i * n : (i + 1) * n]) for i in range(m)]
    cols = range(n)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        prow = rows[r] = [(x * inv) % p for x in rows[r]]
        support = [(j, prow[j]) for j in compress(cols, prow)]
        for i in range(m):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for j, y in support:
                    row[j] = (row[j] - f * y) % p
        pivots.append(c)
        r += 1
    flat = [x for row in rows for x in row]
    return flat, pivots


def _rref_lanes(a, m, n, p):
    """``rref_mod`` in byte lanes, one ``bytes`` per row; a row whose entry
    in the pivot column is 0 is not touched."""
    table = times_table(p, 1)
    from_bytes = int.from_bytes
    rows = [bytes(a[i * n : (i + 1) * n]) for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for pivot in range(r, m):
            if rows[pivot][c]:
                break
        else:
            continue
        prow = rows[pivot].translate(times_table(p, pow(rows[pivot][c], p - 2, p)))
        rows[pivot] = rows[r]
        rows[r] = prow
        packed = from_bytes(prow, "little")
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row = from_bytes(row, "little") + (p - f) * packed
                rows[i] = row.to_bytes(n, "little").translate(table)
        pivots.append(c)
        r += 1
    return b"".join(rows), pivots
