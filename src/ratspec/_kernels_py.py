"""Pure-Python hot kernels: exact RREF and matrix multiply over the integers.

Both kernels take and return Python ints. A ratspec.ratmat.Mat is a tuple of
integer numerators over one common denominator, so a product is the product
of the numerators over the product of the denominators, and a row reduction
needs the numerators only (the reduced echelon form ignores row scaling).

RREF eliminates fraction-free (Bareiss 1968), keeping every row primitive,
and returns its result over one common denominator. Clearing the entry e
of a row against the pivot p takes the row times p/g minus the pivot row
times e/g, g = gcd(p, e): the smallest multipliers that clear it. Each row
is made primitive after, so the rows are those that p and e themselves
give, from smaller operands. When the forward pass
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

Packing costs about one Python step per entry of the right operand and
saves one per entry of the result, so a product with fewer than PACK_MIN
rows or columns keeps the plain dot-product loop. Replaying every product
of two seed-11 rounds of each benchmark workload through _matmul_dots and
_matmul_packed (Python 3.11, 2 vCPUs, best of 9, three runs), packing ran
this fast relative to the loop on verify_corpus: 0.46-0.49x at
min(m, n) = 1, 0.56-0.57x at 2, 0.68-0.71x at 3, 0.83-0.87x at 4,
0.95-1.08x at 5, 0.98-1.10x at 6 and 1.41-1.46x from 7 up (1.56-1.86x on
verify_wide and 1.62-1.70x on report_auto). The routes break even at 5 and 6.

matmul takes two optional memos, memo_a and memo_b: dicts in which it keeps
what it derives from a alone and from b alone, so that an operand met again
is not scanned or packed again. A memo holds only such operand-only facts,
never one that depends on the partner: an operand's largest absolute entry
(which, with the partner's, picks the lanes or the slots and the slot
width) and, once the operand has been the right operand of a lane product,
its rows as 64-bit lanes (which depend on b and n alone; only the lane
route reads them). The slot packing depends on the width w, so on the
partner, and is not kept. Without memos everything is computed afresh, on
the same route. ratspec.ratmat gives each Mat one memo, made on its first
product, and the power products of charpoly pass one for each of their two
repeated right operands. Over the first three seed-11 rounds of the
benchmark's verify_wide, 1014 of the 1830 largest-entry reads and 342 of
the 725 lane products found their answer or their packing in a memo
(verify_corpus: 1138 of 1980 and 467 of 955), and verify_wide ran 0.91x
as long in process (tools/ab_inprocess.py, Python 3.11, 2 vCPUs), with the
shortcuts of Mat products.

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

# the keys of an operand memo: its largest absolute entry, and its rows as
# 64-bit lanes (as the right operand of _matmul_lanes)
_MAX_ABS, _LANES = "max_abs", "lanes"


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
                g = gcd(p, e)
                pg, eg = p // g, e // g
                mat[i] = _primitive([x * pg - y * eg for x, y in zip(mat[i], piv_row)])
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
                g = gcd(p, e)
                pg, eg = p // g, e // g
                mat[i] = _primitive([x * pg - y * eg for x, y in zip(mat[i], piv_row)])
    # row k is primitive, so its entries over its pivot are in lowest terms
    # exactly when over |pivot|: the lcm of the pivots is the least common
    # denominator
    den = lcm(*(mat[k][c] for k, c in enumerate(pivots)))
    for k, c in enumerate(pivots):
        f = den // mat[k][c]
        out[k * cols:(k + 1) * cols] = [x * f for x in mat[k]]
    return out, den, tuple(pivots)


def matmul(m, k, n, a, b, memo_a=None, memo_b=None):
    """Product of an m x k and a k x n integer matrix, both row-major.

    memo_a and memo_b, when given, are dicts that keep what this module
    derives from a alone and from b alone (module docstring); None computes
    it afresh.
    """
    if m < PACK_MIN or n < PACK_MIN:
        return _matmul_dots(m, k, n, a, b)
    return _matmul_packed(m, k, n, a, b, memo_a, memo_b)


def _matmul_dots(m, k, n, a, b):
    bcols = [b[j::n] for j in range(n)]
    out = [0] * (m * n)
    for i in range(m):
        arow = a[i * k:(i + 1) * k]
        if any(arow):
            out[i * n:(i + 1) * n] = [sum(map(mul, arow, col)) for col in bcols]
    return out


def _max_abs(data, memo):
    """max |x| over data (0 when empty), kept in memo when one is given."""
    if memo is None:
        return max(map(abs, data), default=0)
    top = memo.get(_MAX_ABS)
    if top is None:
        top = memo[_MAX_ABS] = max(map(abs, data), default=0)
    return top


def _matmul_packed(m, k, n, a, b, memo_a=None, memo_b=None):
    top = k * _max_abs(a, memo_a) * _max_abs(b, memo_b)
    if not top:
        return [0] * (m * n)
    if top < 1 << 63:
        return _matmul_lanes(m, k, n, a, b, memo_b)
    return _matmul_slots(m, k, n, a, b, top.bit_length() + 1)


def _matmul_lanes(m, k, n, a, b, memo_b=None):
    """The packed product in 64-bit lanes; every |c_ij| must be below 2^63.

    The rows of b as lanes are kept in memo_b when one is given."""
    order = sys.byteorder
    high = ((1 << 64 * n) - 1) // ((1 << 64) - 1) << 63  # bit 63 of each lane
    size = 8 * n
    packed = None if memo_b is None else memo_b.get(_LANES)
    if packed is None:
        lanes = array("q", b).tobytes()
        packed = [(int.from_bytes(lanes[t * size:(t + 1) * size], order) ^ high) - high
                  for t in range(k)]
        if memo_b is not None:
            memo_b[_LANES] = packed
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
