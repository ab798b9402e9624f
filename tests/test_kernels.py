"""The hot kernels against the naive oracle.

The kernels take integer numerators; the oracle gets the same integers as
Fractions and eliminates over Q.
"""

import random
from fractions import Fraction
from math import gcd

from conftest import naive_matmul, naive_rref
from ratspec import _kernels_py, kernels


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
