"""Pure-Python hot kernels: exact RREF and matrix multiply over the integers.

Both kernels take and return Python ints. A ratspec.ratmat.Mat is a tuple of
integer numerators over one common denominator, so a product is the product
of the numerators over the product of the denominators, and a row reduction
needs the numerators only (the reduced echelon form ignores row scaling).

RREF eliminates fraction-free (Bareiss 1968), keeping every row primitive,
and returns its result over one common denominator. When the forward pass
finds a pivot in every column, the reduced form is the identity over zero
rows; the RREF is unique, so it is returned as such (den 1, pivots
0..cols-1) with no back-substitution. That is every image and kernel of an
invertible operator.

matmul packs each row of the right operand into one Python int by Kronecker
substitution (Kronecker 1882; Harvey 2009): entry j sits in slot j, w bits
wide, with w = bitlen(k * max|a| * max|b|) + 1. A product row is then one
C-level sum of k big-int products, and every entry of it satisfies
|c_ij| <= k * max|a| * max|b| < 2^(w-1). Partial sums may borrow across slot
boundaries, but the exact total is the signed sum of c_ij * 2^(wj); adding
2^(w-1) to every slot makes each slot hold c_ij + 2^(w-1), in [0, 2^w), which
mask and shift read back.

When top = k * max|a| * max|b| < 2^63, every entry of the product fits a
signed 64-bit lane, and the slots are 64 bits wide and filled in C: each row
of b is array('q', row) as bytes read by int.from_bytes, whose lanes hold the
entries in two's complement; (U ^ H) - H, with H setting bit 63 of every
lane, turns them into the signed sum. A product row x comes back as
((x + H) ^ H).to_bytes(8n), the lanes again in two's complement, and one
memoryview cast to 'q' reads every row. array and memoryview use the host's
byte order, so the bytes are read and written in sys.byteorder. So the
Python-level work of a product falls from O(kn + mn) steps to O(k + m);
wider entries keep the shift-and-mask slots. Replaying every product of
the benchmark's first two seed-11 rounds (Python 3.11, 2 vCPUs), 72%
(verify_wide), 95% (report_auto) and 96% (verify_corpus) of the matmul time
was in this range, and the replay took 77 -> 64, 19 -> 14 and 50 -> 46 ms.

Packing costs about one Python step per entry of
the right operand and saves one per entry of the result, so a product with
fewer than PACK_MIN rows or columns keeps the plain dot-product loop:
replaying the products of the benchmark's first two seed-11 rounds through
both routes (Python 3.11, 2 vCPUs), packing ran 0.5-0.8x as fast as the
loop at min(m, n) <= 4, 0.91x at 5, 0.98-0.99x at 6, and 1.16-1.5x from
7 up.

The kernels are the only implementation; ratspec.kernels re-exports them
and the test suite checks them against plain textbook rational elimination
and multiplication.
"""

import sys
from array import array
from math import gcd, lcm
from operator import mul

BACKEND = "python"

#: the fewest rows and columns a product needs to run on packed rows
PACK_MIN = 6


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
    out = [0] * (rows * cols)
    if r == cols:
        # full column rank: the unique RREF is the identity over zero rows
        out[:cols * cols:cols + 1] = [1] * cols
        return out, 1, tuple(pivots)
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
    for k, c in enumerate(pivots):
        f = den // mat[k][c]
        out[k * cols:(k + 1) * cols] = [x * f for x in mat[k]]
    return out, den, tuple(pivots)


def matmul(m, k, n, a, b):
    """Product of an m x k and a k x n integer matrix, both row-major."""
    if m < PACK_MIN or n < PACK_MIN:
        return _matmul_dots(m, k, n, a, b)
    return _matmul_packed(m, k, n, a, b)


def _matmul_dots(m, k, n, a, b):
    bcols = [b[j::n] for j in range(n)]
    out = [0] * (m * n)
    for i in range(m):
        arow = a[i * k:(i + 1) * k]
        if any(arow):
            out[i * n:(i + 1) * n] = [sum(map(mul, arow, col)) for col in bcols]
    return out


def _matmul_packed(m, k, n, a, b):
    top = k * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not top:
        return [0] * (m * n)
    if top < 1 << 63:
        return _matmul_lanes(m, k, n, a, b)
    return _matmul_slots(m, k, n, a, b, top.bit_length() + 1)


def _matmul_lanes(m, k, n, a, b):
    """The packed product in 64-bit lanes; every |c_ij| must be below 2^63."""
    order = sys.byteorder
    high = ((1 << 64 * n) - 1) // ((1 << 64) - 1) << 63  # bit 63 of each lane
    size = 8 * n
    lanes = array("q", b).tobytes()
    packed = [(int.from_bytes(lanes[t * size:(t + 1) * size], order) ^ high) - high
              for t in range(k)]
    rows = [((sum(map(mul, a[i * k:(i + 1) * k], packed)) + high) ^ high)
            .to_bytes(size, order) for i in range(m)]
    return memoryview(b"".join(rows)).cast("q").tolist()


def _matmul_slots(m, k, n, a, b, w):
    """The packed product in w-bit slots; every |c_ij| must be below 2^(w-1)."""
    packed = []
    for t in range(k):
        acc = 0
        for x in reversed(b[t * n:(t + 1) * n]):
            acc = (acc << w) + x
        packed.append(acc)
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    shifts = range(0, w * n, w)
    bias = sum([half << s for s in shifts])
    out = [0] * (m * n)
    for i in range(m):
        arow = a[i * k:(i + 1) * k]
        if any(arow):
            x = sum(map(mul, arow, packed)) + bias
            out[i * n:(i + 1) * n] = [((x >> s) & mask) - half for s in shifts]
    return out
