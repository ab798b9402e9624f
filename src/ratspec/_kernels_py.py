"""Pure-Python hot kernels: exact RREF and matrix multiply over the integers.

Both kernels take and return Python ints. A ratspec.ratmat.Mat is a tuple of
integer numerators over one common denominator, so a product is the product
of the numerators over the product of the denominators, and a row reduction
needs the numerators only (the reduced echelon form ignores row scaling).
RREF eliminates fraction-free, keeping every row primitive, and returns its
result over one common denominator. The kernels are the only implementation;
ratspec.kernels re-exports them and the test suite checks them against plain
textbook rational elimination.
"""

from math import gcd, lcm
from operator import mul

BACKEND = "python"


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(rows, cols, data):
    """Reduced row echelon form of a rows x cols integer matrix.

    data is row-major; returns (num, den, pivot_columns): the RREF is num/den,
    row-major, zero rows at the bottom, den > 0 and gcd(den, *num) == 1.
    """
    mat = [_primitive(list(data[i * cols:(i + 1) * cols])) for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = -1
        for i in range(r, rows):
            if mat[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        piv_row = mat[r]
        p = piv_row[c]
        for i in range(r + 1, rows):
            e = mat[i][c]
            if e:
                mat[i] = _primitive([x * p - y * e for x, y in zip(mat[i], piv_row)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    # eliminate above pivots
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        piv_row = mat[k]
        p = piv_row[c]
        for i in range(k):
            e = mat[i][c]
            if e:
                mat[i] = _primitive([x * p - y * e for x, y in zip(mat[i], piv_row)])
    # row k is primitive, so its entries over its pivot are in lowest terms
    # exactly when over |pivot|: the lcm of the pivots is the least common
    # denominator
    den = lcm(*(mat[k][c] for k, c in enumerate(pivots)))
    out = [0] * (rows * cols)
    for k, c in enumerate(pivots):
        f = den // mat[k][c]
        out[k * cols:(k + 1) * cols] = [x * f for x in mat[k]]
    return out, den, tuple(pivots)


def matmul(m, k, n, a, b):
    """Product of an m x k and a k x n integer matrix, both row-major."""
    bcols = [b[j::n] for j in range(n)]
    out = [0] * (m * n)
    for i in range(m):
        arow = a[i * k:(i + 1) * k]
        if any(arow):
            out[i * n:(i + 1) * n] = [sum(map(mul, arow, col)) for col in bcols]
    return out
