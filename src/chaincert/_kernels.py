"""The hot numeric kernels, in exact pure Python.

All functions take flat row-major entry sequences (lists or tuples; the
kernels only index and slice them) and return new flat lists:

    matmul_int(a, b, m, n, k)       exact integer matrix product
    matmul_mod(a, b, m, n, k, p)    matrix product over F_p
    matmul_group(a, b, m, n, k, mult, zero, p)
                                    matrix product over Z[G] or F_p[G],
                                    entries coefficient tuples
    rref_mod(a, m, n, p)            reduced row echelon form over F_p,
                                    entries canonical residues in [0, p)

The pipeline's tower-size matrices are mostly zeros, so every kernel does
work only where entries are nonzero: the products skip zero factors and
write only the outputs some pair reaches, and elimination updates a row
only on the pivot row's nonzero columns.
"""

from itertools import compress

# Recorded by the benchmark harness (perfbench/run.py) with every result.
IMPLEMENTATION = "pure"


def _product_rows(a, b, m, n, k):
    """The rows of the (m x n) @ (n x k) product that are not zero by
    sparsity, as (row index, unreduced integer row) pairs.

    Zero entries of ``a`` and ``b`` are skipped at C speed with
    ``itertools.compress``; the pipeline's block matrices are mostly zeros.
    """
    if not (m and n and k):
        return
    cols = range(k)
    brows = []
    for r in range(0, n * k, k):
        brow = b[r : r + k]
        brows.append([(j, brow[j]) for j in compress(cols, brow)])
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


def matmul_mod(a, b, m, n, k, p):
    """(m x n) @ (n x k) with entries reduced into [0, p).

    Each output row accumulates in Python ints; only its nonzero
    accumulators are reduced and written, the other outputs stay 0.
    """
    out = [0] * (m * k)
    cols = range(k)
    for i, row in _product_rows(a, b, m, n, k):
        base = i * k
        for j in compress(cols, row):
            out[base + j] = row[j] % p
    return out


def matmul_group(a, b, m, n, k, mult, zero, p):
    """(m x n) @ (n x k) over a group ring base[G].

    Entries are coefficient tuples in the element order of the Cayley table
    ``mult``; ``zero`` is the zero tuple and ``p`` the characteristic of
    the base ring (0 over Z). Every pair of nonzero entries a[i,t], b[t,j]
    is convolved over the table, the left factor's element on the left:
    acc[mult[g][h]] += x_g * y_h. Each output entry accumulates in Python
    ints and is reduced mod p once; outputs no pair reaches are ``zero``.
    """
    out = [zero] * (m * k)
    if not (m and n and k):
        return out
    # each distinct entry as its nonzero (element, coefficient) pairs
    support = {x: [(g, c) for g, c in enumerate(x) if c] for x in {*a, *b}}
    sa = [support[x] for x in a]
    sb = [support[x] for x in b]
    order = len(zero)
    cols = range(k)
    brows = []
    for r in range(0, n * k, k):
        brow = sb[r : r + k]
        brows.append([(j, brow[j]) for j in compress(cols, brow)])
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
    row, in order. Clearing a pivot column touches each other row only on
    the pivot row's nonzero columns.
    """
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
