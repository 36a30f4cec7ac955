"""The hot numeric kernels, in exact pure Python.

All functions take flat row-major entry lists:

    matmul_int(a, b, m, n, k)       exact integer matrix product
    matmul_mod(a, b, m, n, k, p)    matrix product over F_p
    rref_mod(a, m, n, p)            reduced row echelon form over F_p
"""

# Recorded by the benchmark harness (perfbench/run.py) with every result.
IMPLEMENTATION = "pure"


def matmul_int(a, b, m, n, k):
    """(m x n) @ (n x k) over arbitrary-precision integers."""
    out = [0] * (m * k)
    if n == 0 or m == 0 or k == 0:
        return out
    brows = [b[r * k : (r + 1) * k] for r in range(n)]
    for i in range(m):
        row = [0] * k
        arow = a[i * n : (i + 1) * n]
        for x, brow in zip(arow, brows):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        row[j] += x * y
        out[i * k : (i + 1) * k] = row
    return out


def matmul_mod(a, b, m, n, k, p):
    """(m x n) @ (n x k) with entries reduced into [0, p)."""
    out = [0] * (m * k)
    if n == 0 or m == 0 or k == 0:
        return out
    brows = [b[r * k : (r + 1) * k] for r in range(n)]
    for i in range(m):
        row = [0] * k
        arow = a[i * n : (i + 1) * n]
        for x, brow in zip(arow, brows):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        row[j] = (row[j] + x * y) % p
        out[i * k : (i + 1) * k] = row
    return out


def rref_mod(a, m, n, p):
    """Reduced row echelon form over F_p.

    Returns (entries, pivots) where pivots lists the pivot column of each
    nonzero row, in order.
    """
    rows = [list(a[i * n : (i + 1) * n]) for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    flat = [x for row in rows for x in row]
    return flat, pivots
