"""The hot kernels against the naive oracle."""

import random
from fractions import Fraction

from conftest import naive_matmul, naive_rref
from ratspec import _kernels_py, kernels


def _rand_flat(rng, size, bound=6):
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
            for _ in range(size)]


def test_rref_matches_naive_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        rows = rng.randint(0, 7)
        cols = rng.randint(0, 7)
        data = _rand_flat(rng, rows * cols)
        got, pivots = kernels.rref(rows, cols, data)
        want, want_pivots = naive_rref(rows, cols, data)
        assert pivots == want_pivots
        assert got == want


def test_rref_low_rank_inputs():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        base = _rand_flat(rng, cols)
        # every row a multiple of one vector: rank <= 1
        data = []
        for _ in range(rows):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            data.extend(c * x for x in base)
        got, pivots = kernels.rref(rows, cols, data)
        want, want_pivots = naive_rref(rows, cols, data)
        assert (got, pivots) == (want, want_pivots)
        assert len(pivots) <= 1


def test_matmul_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(60):
        m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = _rand_flat(rng, m * k)
        b = _rand_flat(rng, k * n)
        assert kernels.matmul(m, k, n, a, b) == naive_matmul(m, k, n, a, b)


def test_selected_backend_is_exposed():
    assert kernels.BACKEND == "python"
    assert (kernels.rref, kernels.matmul) == (_kernels_py.rref, _kernels_py.matmul)
