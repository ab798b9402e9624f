"""The hot kernels against the naive oracle.

The kernels take integer numerators; the oracle gets the same integers as
Fractions and eliminates over Q. matmul has two routes, a dot-product loop
below PACK_MIN rows or columns and Kronecker-packed rows from there up; the
properties draw shapes on both sides of that cut-off, and both routes are
also run on every drawn product, so that neither can drift from the other.
The packed route itself packs in 64-bit lanes when every entry of the result
fits one and in wider shifted slots otherwise; both are run on every product
that fits a lane, and the cut-off between them is pinned at its edges.
The product is run again with a memo for each operand, filled by one product
and read by the next, and each memo is read beside partners on both sides
of the lane cut-off, so that one filled on either route is read on the
other. A Mat product with a zero or an identity operand, which makes no
kernel call, is checked against the kernel and the textbook product.
"""

import random
import sys
from array import array
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_matmul, naive_rref
from ratspec import _kernels_py, kernels
from ratspec._kernels_py import (PACK_MIN, _matmul_dots, _matmul_lanes,
                                 _matmul_packed, _matmul_slots)
from ratspec.ratmat import Mat


def _rand_flat(rng, size, bound=24):
    return [rng.randint(-bound, bound) for _ in range(size)]


def _rref_as_fractions(rows, cols, data):
    num, den, pivots = kernels.rref(rows, cols, data)
    assert all(type(x) is int for x in num) and type(den) is int
    assert den > 0 and gcd(den, *num) == 1
    return [Fraction(x, den) for x in num], pivots


def test_rref_matches_naive_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        rows = rng.randint(0, 7)
        cols = rng.randint(0, 7)
        data = _rand_flat(rng, rows * cols)
        got, pivots = _rref_as_fractions(rows, cols, data)
        want, want_pivots = naive_rref(rows, cols, [Fraction(x) for x in data])
        assert pivots == want_pivots
        assert got == want


def test_rref_low_rank_inputs():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        base = _rand_flat(rng, cols, 6)
        # every row a multiple of one vector: rank <= 1
        data = []
        for _ in range(rows):
            c = rng.randint(-3, 3)
            data.extend(c * x for x in base)
        got, pivots = _rref_as_fractions(rows, cols, data)
        want, want_pivots = naive_rref(rows, cols, [Fraction(x) for x in data])
        assert (got, pivots) == (want, want_pivots)
        assert len(pivots) <= 1


def test_matmul_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(60):
        m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = _rand_flat(rng, m * k)
        b = _rand_flat(rng, k * n)
        got = kernels.matmul(m, k, n, a, b)
        assert all(type(x) is int for x in got)
        assert got == naive_matmul(m, k, n, [Fraction(x) for x in a],
                                   [Fraction(x) for x in b])


def test_selected_backend_is_exposed():
    assert kernels.BACKEND == "python"
    assert (kernels.rref, kernels.matmul) == (_kernels_py.rref, _kernels_py.matmul)


def _as_fractions(data):
    return [Fraction(x) for x in data]


@st.composite
def products(draw, max_dim=14):
    """(m, k, n, a, b): signed entries up to 2^60, zero rows, empty sides."""
    m, k, n = (draw(st.integers(0, max_dim)) for _ in range(3))
    bits = draw(st.sampled_from((0, 1, 5, 24, 60)))
    entry = st.integers(-(1 << bits), 1 << bits)
    a = draw(st.lists(entry, min_size=m * k, max_size=m * k))
    b = draw(st.lists(entry, min_size=k * n, max_size=k * n))
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
        a[i * k:(i + 1) * k] = [0] * k
    return m, k, n, a, b


def _assert_memos_reused(m, k, n, a, b, other_a, other_b):
    """Each operand's memo read beside two partners, taking turns from
    either one first, every product equal to the dot-product loop's: a memo
    filled on one route of the packed product is read on the other."""
    for lefts in ((a, other_a, a), (other_a, a, other_a)):
        memo_b = {}
        for left in lefts:
            assert (kernels.matmul(m, k, n, left, b, None, memo_b)
                    == _matmul_dots(m, k, n, left, b))
    for rights in ((b, other_b, b), (other_b, b, other_b)):
        memo_a = {}
        for right in rights:
            assert (kernels.matmul(m, k, n, a, right, memo_a, None)
                    == _matmul_dots(m, k, n, a, right))


@given(products())
def test_matmul_property_on_both_routes(product):
    m, k, n, a, b = product
    want = naive_matmul(m, k, n, _as_fractions(a), _as_fractions(b))
    got = kernels.matmul(m, k, n, a, b)
    assert all(type(x) is int for x in got)
    assert got == want
    assert _matmul_dots(*product) == _matmul_packed(*product) == got
    # memos filled by the first product and read by the second
    memo_a, memo_b = {}, {}
    for _ in range(2):
        assert kernels.matmul(m, k, n, a, b, memo_a, memo_b) == want
        assert _matmul_packed(m, k, n, a, b, memo_a, memo_b) == want
    # partners 2^40 times wider: from 24-bit entries up, the product leaves
    # the 64-bit lanes
    _assert_memos_reused(m, k, n, a, b, [x << 40 for x in a], [x << 40 for x in b])


@pytest.mark.parametrize("m, n", [(1, 1), (PACK_MIN - 1, PACK_MIN + 3),
                                  (PACK_MIN, PACK_MIN), (14, 14)])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("bits", [0, 7, 60])
def test_matmul_at_the_slot_bound(m, k, n, bits):
    # every entry of a is +-2^bits and of b is +-2^(bits + 1), with one sign
    # per row of a and per column of b, so every c_ij is +-k*max|a|*max|b|,
    # a power of two: the largest value a packed slot holds
    rng = random.Random(m * 1000 + k * 100 + bits)
    row_sign = [rng.choice((-1, 1)) for _ in range(m)]
    col_sign = [rng.choice((-1, 1)) for _ in range(n)]
    a = [row_sign[i] << bits for i in range(m) for _ in range(k)]
    b = [col_sign[j] << (bits + 1) for _ in range(k) for j in range(n)]
    top = k << (2 * bits + 1)
    want = [row_sign[i] * col_sign[j] * top for i in range(m) for j in range(n)]
    assert top & (top - 1) == 0
    assert kernels.matmul(m, k, n, a, b) == want
    assert _matmul_dots(m, k, n, a, b) == _matmul_packed(m, k, n, a, b) == want


@pytest.mark.parametrize("m, k, n", [(0, 0, 0), (0, 3, PACK_MIN), (PACK_MIN, 0, PACK_MIN),
                                     (PACK_MIN, 3, 0), (PACK_MIN + 1, 4, PACK_MIN + 2)])
def test_matmul_zero_and_empty_operands(m, k, n, monkeypatch):
    zeros = [0] * (m * n)
    assert kernels.matmul(m, k, n, [0] * (m * k), [5] * (k * n)) == zeros
    assert kernels.matmul(m, k, n, [5] * (m * k), [0] * (k * n)) == zeros
    assert _matmul_packed(m, k, n, [0] * (m * k), [0] * (k * n)) == zeros
    assert _matmul_packed(m, k, n, [0] * (m * k), [5] * (k * n), {}, {}) == zeros
    # a Mat product with a zero or an identity operand makes no kernel call;
    # its partner has den 6, and each product is the one of the memo-free
    # kernel over the product of the denominators, and the textbook one
    rng = random.Random(m * 100 + k * 10 + n)
    left = Mat.from_ints(m, k, _rand_flat(rng, m * k), 6)
    right = Mat.from_ints(k, n, _rand_flat(rng, k * n), 6)
    assert {left.den, right.den} == {6} or 0 in (m, k, n)
    cases = [(Mat.zero(m, k), right), (left, Mat.zero(k, n)),
             (Mat.identity(m), left), (left, Mat.identity(k)),
             (Mat.identity(k), right), (right, Mat.identity(n))]
    for x, y in cases:
        want = Mat.from_ints(x.rows, y.cols,
                             kernels.matmul(x.rows, x.cols, y.cols, x.num, y.num),
                             x.den * y.den)
        assert want.data == tuple(naive_matmul(x.rows, x.cols, y.cols, x.data, y.data))
        monkeypatch.setattr(kernels, "matmul", None)
        got = x @ y
        monkeypatch.undo()
        assert got == want and got.den == want.den


def _top(k, a, b):
    """k max|a| max|b|, the bound on every entry of the product."""
    return k * max(map(abs, a), default=0) * max(map(abs, b), default=0)


@st.composite
def lane_products(draw, max_dim=14):
    """(m, k, n, a, b) whose every product entry fits a signed 64-bit lane."""
    m, n = (draw(st.integers(0, max_dim)) for _ in range(2))
    k = draw(st.integers(1, max_dim))
    bits = draw(st.sampled_from((0, 1, 5, 24, 29)))
    entry = st.integers(-(1 << bits), 1 << bits)
    a = draw(st.lists(entry, min_size=m * k, max_size=m * k))
    b = draw(st.lists(entry, min_size=k * n, max_size=k * n))
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
        a[i * k:(i + 1) * k] = [0] * k
    return m, k, n, a, b


@given(lane_products())
def test_lanes_match_the_slots_and_the_textbook_product(product):
    m, k, n, a, b = product
    top = _top(k, a, b)
    assert top < 1 << 63
    want = naive_matmul(m, k, n, _as_fractions(a), _as_fractions(b))
    got = _matmul_lanes(*product)
    assert all(type(x) is int for x in got)
    assert got == want
    assert _matmul_slots(*product, top.bit_length() + 1) == want
    # b's lanes are packed into the memo once and read from it after: a
    # zero b beside the filled memo still gives the product with b
    memo_b = {}
    assert _matmul_lanes(*product, memo_b) == want
    assert _matmul_lanes(m, k, n, a, [0] * (k * n), memo_b) == want


def _signed_product(m, k, n, a_entry, b_entry, seed):
    """Entries +-a_entry and +-b_entry with one sign per row of a and per
    column of b, so that every c_ij is +-k a_entry b_entry."""
    rng = random.Random(seed)
    row_sign = [rng.choice((-1, 1)) for _ in range(m)]
    col_sign = [rng.choice((-1, 1)) for _ in range(n)]
    a = [row_sign[i] * a_entry for i in range(m) for _ in range(k)]
    b = [col_sign[j] * b_entry for _ in range(k) for j in range(n)]
    c = k * a_entry * b_entry
    return a, b, [row_sign[i] * col_sign[j] * c for i in range(m) for j in range(n)]


def _recording_lanes(monkeypatch):
    calls = []

    def recorded(*args):
        calls.append(args[:3])
        return _matmul_lanes(*args)

    monkeypatch.setattr(_kernels_py, "_matmul_lanes", recorded)
    return calls


@pytest.mark.parametrize("m, n", [(PACK_MIN, PACK_MIN), (PACK_MIN + 2, PACK_MIN + 5)])
@pytest.mark.parametrize("k", [1, 7])
def test_lanes_hold_results_of_absolute_value_two_to_the_63_minus_one(m, k, n,
                                                                     monkeypatch):
    # 2^63 - 1 = 7 * 1317624576693539401: every c_ij is +-(2^63 - 1), the
    # widest value a lane holds, and top is that value
    a, b, want = _signed_product(m, k, n, ((1 << 63) - 1) // k, 1, m + k + n)
    assert _top(k, a, b) == (1 << 63) - 1
    assert {abs(c) for c in want} == {(1 << 63) - 1}
    assert len(set(want)) == 2
    calls = _recording_lanes(monkeypatch)
    assert kernels.matmul(m, k, n, a, b) == want
    assert calls == [(m, k, n)]
    assert _matmul_lanes(m, k, n, a, b) == _matmul_dots(m, k, n, a, b) == want
    # a partner twice as wide takes the product to 2^64 - 2, out of the lanes
    _assert_memos_reused(m, k, n, a, b, [2 * x for x in a], [2 * x for x in b])


@pytest.mark.parametrize("k, a_entry, b_entry", [(1, 1 << 62, 2), (2, 1 << 31, 1 << 31),
                                                 (8, 1 << 30, 1 << 30)])
def test_a_top_of_two_to_the_63_takes_the_wide_route(k, a_entry, b_entry, monkeypatch):
    # every c_ij is +-2^63, one past what a lane holds
    m, n = PACK_MIN, PACK_MIN + 1
    a, b, want = _signed_product(m, k, n, a_entry, b_entry, k)
    assert _top(k, a, b) == 1 << 63
    calls = _recording_lanes(monkeypatch)
    assert kernels.matmul(m, k, n, a, b) == want
    assert calls == []
    assert _matmul_slots(m, k, n, a, b, 65) == _matmul_dots(m, k, n, a, b) == want
    # a partner half as wide takes the product to 2^62, into the lanes
    _assert_memos_reused(m, k, n, a, b, [x // 2 for x in a], [x // 2 for x in b])


class _OtherOrderArray(array):
    """An array whose tobytes lays items out in the byte order opposite to
    the host's, as the host of that order would."""

    def tobytes(self):
        swapped = array(self.typecode, self)
        swapped.byteswap()
        return swapped.tobytes()


def _other_order_view(data):
    """memoryview(data), whose cast reads items in the opposite byte order."""
    def cast(typecode):
        items = array(typecode)
        items.frombytes(data)
        items.byteswap()
        return items
    return SimpleNamespace(cast=cast)


@given(lane_products())
def test_lanes_follow_the_host_byte_order(product):
    # a host of the other byte order: sys.byteorder names it, and array and
    # memoryview lay 64-bit items out in it
    m, k, n, a, b = product
    want = _matmul_dots(*product)
    other = "big" if sys.byteorder == "little" else "little"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels_py, "sys", SimpleNamespace(byteorder=other))
        mp.setattr(_kernels_py, "array", _OtherOrderArray)
        mp.setattr(_kernels_py, "memoryview", _other_order_view, raising=False)
        got = _matmul_lanes(*product)
    assert got == want


def _invertible(rng, n, bound):
    """A random n x n integer matrix of determinant 1 (unit L times unit U)."""
    low = [[1 if i == j else rng.randint(-bound, bound) if j < i else 0
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else rng.randint(-bound, bound) if j > i else 0
           for j in range(n)] for i in range(n)]
    return naive_matmul(n, n, n, [x for r in low for x in r], [x for r in up for x in r])


@pytest.mark.parametrize("extra", [0, 1, 5])
def test_rref_full_column_rank_is_the_identity_over_zero_rows(extra):
    # an invertible block under random rows, rows shuffled: square when
    # extra == 0, tall otherwise
    rng = random.Random(extra)
    for _ in range(15):
        cols = rng.randint(1, 8)
        rows = cols + extra
        top = [int(x) for x in _invertible(rng, cols, 2 ** rng.randint(1, 40))]
        mat = [top[i * cols:(i + 1) * cols] for i in range(cols)]
        mat += [_rand_flat(rng, cols, 1 << 30) for _ in range(extra)]
        rng.shuffle(mat)
        data = [x for row in mat for x in row]
        num, den, pivots = kernels.rref(rows, cols, data)
        identity = [int(i == j) for i in range(cols) for j in range(cols)]
        assert (num, den, pivots) == (identity + [0] * (extra * cols), 1,
                                      tuple(range(cols)))
        want, want_pivots = naive_rref(rows, cols, _as_fractions(data))
        assert (num, pivots) == (want, want_pivots)


def test_rref_tall_rank_deficient_inputs_reduce_fully():
    # rows > cols but rank < cols: the reduction must not stop at the
    # forward pass
    rng = random.Random(11)
    for _ in range(30):
        cols = rng.randint(2, 7)
        rows = cols + rng.randint(1, 5)
        r = rng.randint(1, cols - 1)
        x = _rand_flat(rng, rows * r, 9)
        y = _rand_flat(rng, r * cols, 9)
        data = [int(v) for v in naive_matmul(rows, r, cols, x, y)]
        got, pivots = _rref_as_fractions(rows, cols, data)
        want, want_pivots = naive_rref(rows, cols, _as_fractions(data))
        assert (got, pivots) == (want, want_pivots)
        assert len(pivots) <= r < cols


@pytest.mark.parametrize("rows, cols", [(0, 0), (1, 0), (4, 0), (0, 3)])
def test_rref_empty_inputs(rows, cols):
    assert kernels.rref(rows, cols, []) == ([], 1, ())
