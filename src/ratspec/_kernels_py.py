"""Pure-Python hot kernels: exact RREF and matrix multiply over Fractions.

Both kernels scale their input to integer matrices (per-row for RREF, whole
matrix for multiply) and do the O(n^3) work in arbitrary-precision integer
arithmetic, which avoids the per-operation gcd cost of Fraction arithmetic.
They are the only kernel implementation; ratspec.kernels re-exports them and
the test suite checks them against plain textbook rational elimination.
"""

from fractions import Fraction
from math import gcd

BACKEND = "python"

_ZERO = Fraction(0)


def _int_rows(rows, cols, data):
    # per-row denominator clearing; RREF is invariant under row scaling
    mat = []
    for i in range(rows):
        off = i * cols
        den = 1
        for j in range(cols):
            d = data[off + j].denominator
            den = den // gcd(den, d) * d
        mat.append([(data[off + j].numerator * (den // data[off + j].denominator))
                    for j in range(cols)])
    return mat


def _reduce_content(row, cols):
    g = 0
    for j in range(cols):
        v = row[j]
        if v:
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for j in range(cols):
            row[j] //= g


def rref(rows, cols, data):
    """Reduced row echelon form of a rows x cols Fraction matrix.

    data is row-major; returns (rref_data, pivot_columns) with rref_data the
    same shape (zero rows at the bottom).
    """
    mat = _int_rows(rows, cols, data)
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
            row = mat[i]
            e = row[c]
            if e:
                for j in range(c, cols):
                    row[j] = row[j] * p - piv_row[j] * e
                _reduce_content(row, cols)
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
            row = mat[i]
            e = row[c]
            if e:
                for j in range(cols):
                    row[j] = row[j] * p - piv_row[j] * e
                _reduce_content(row, cols)
    out = [_ZERO] * (rows * cols)
    for k, c in enumerate(pivots):
        row = mat[k]
        p = row[c]
        off = k * cols
        for j in range(c, cols):
            if row[j]:
                out[off + j] = Fraction(row[j], p)
    return out, tuple(pivots)


def matmul(m, k, n, a, b):
    """Product of an m x k and a k x n Fraction matrix, both row-major."""
    da = 1
    for x in a:
        d = x.denominator
        da = da // gcd(da, d) * d
    db = 1
    for x in b:
        d = x.denominator
        db = db // gcd(db, d) * d
    ai = [x.numerator * (da // x.denominator) for x in a]
    bi = [x.numerator * (db // x.denominator) for x in b]
    den = da * db
    out = [_ZERO] * (m * n)
    for i in range(m):
        arow_off = i * k
        acc = [0] * n
        for t in range(k):
            v = ai[arow_off + t]
            if v:
                boff = t * n
                for j in range(n):
                    acc[j] += v * bi[boff + j]
        ooff = i * n
        for j in range(n):
            s = acc[j]
            if s:
                out[ooff + j] = Fraction(s, den)
    return out
