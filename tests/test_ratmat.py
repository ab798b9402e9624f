"""Exact linear algebra core: frozen examples and algebraic properties."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrices, naive_matmul, rationals, square_matrices
from oracles import (FractionMat, charpoly_fraction, intersect_by_kernel,
                     poly_eval_fraction)
from ratspec import kernels
from ratspec.intertwine import MapCache
from ratspec.ratmat import (Mat, Poly, Subspace, block, charpoly, image,
                            inverse, kernel, map_subspace, poly_eval_mat,
                            preimage, quotient_dim, rank, rref, solve)

J3 = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def span(ambient, *vecs):
    return Subspace.from_vectors(ambient, vecs)


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class TestRank:
    def test_identity(self):
        assert rank(Mat.identity(4)) == 4

    def test_zero(self):
        assert rank(Mat.zero(3, 5)) == 0

    def test_dependent_rows(self):
        # second row is twice the first: hand reduction leaves one pivot
        assert rank(Mat.from_rows([[1, 2], [2, 4]])) == 1

    @given(matrices(4, 4), matrices(4, 4))
    def test_rank_of_product_bounded(self, M, N):
        if M.cols != N.rows:
            N = N.transpose() if N.cols == M.cols else Mat.zero(M.cols, N.cols)
        assert rank(M @ N) <= min(rank(M), rank(N))


class TestKernelImage:
    def test_kernel_identity(self):
        assert kernel(Mat.identity(3)) == Subspace.zero(3)

    def test_kernel_zero(self):
        assert kernel(Mat.zero(2, 2)) == Subspace.full(2)

    def test_kernel_j3(self):
        # J3 x = (x2, x3, 0) = 0 forces x2 = x3 = 0
        assert kernel(J3) == span(3, E1)

    def test_image_identity(self):
        assert image(Mat.identity(5)) == Subspace.full(5)

    def test_image_j3(self):
        # columns of J3 are 0, e1, e2
        assert image(J3) == span(3, E1, E2)

    def test_image_rank_one_outer(self):
        u = [2, Fraction(1, 3), -1]
        v = [1, 4, 0, 5]
        M = Mat.from_rows([[ui * vj for vj in v] for ui in u])
        assert image(M) == span(3, u)

    @given(matrices(5, 5))
    def test_rank_nullity(self, M):
        assert kernel(M).dim + rank(M) == M.cols

    @given(matrices(4, 4))
    def test_image_dim_is_rank(self, M):
        assert image(M).dim == rank(M)


class TestSubspaceLattice:
    @given(matrices(4, 5))
    def test_annihilator_cuts_out_the_subspace(self, M):
        # K's rows are independent, orthogonal to W, and leave exactly W
        W = image(M.transpose())
        K = W.annihilator()
        assert (K.rows, K.cols) == (W.ambient_dim - W.dim, W.ambient_dim)
        assert rank(K) == K.rows
        assert kernel(K) == W

    def test_annihilator_of_the_extremes(self):
        assert Subspace.zero(3).annihilator() == Mat.identity(3)
        assert Subspace.full(3).annihilator() == Mat.zero(0, 3)

    def test_sum_with_zero(self):
        U = span(3, E1, (1, 1, 0))
        assert U.sum(Subspace.zero(3)) == U

    def test_sum_axes(self):
        assert span(3, E1).sum(span(3, E2)) == span(3, E1, E2)

    def test_sum_diagonals_fill_plane(self):
        # stacked basis has rank 2
        assert span(2, (1, 1)).sum(span(2, (1, -1))) == Subspace.full(2)

    def test_intersect_with_full(self):
        U = span(3, E1, E3)
        assert U.intersect(Subspace.full(3)) == U

    def test_intersect_axes_trivial(self):
        assert span(3, E1).intersect(span(3, E2)) == Subspace.zero(3)

    def test_intersect_planes(self):
        # membership system solves to the shared axis
        got = span(3, E1, E2).intersect(span(3, E2, E3))
        assert got == span(3, E2)

    def test_contains_full_anything(self):
        assert Subspace.full(4).contains(span(4, (1, 2, 3, 4)))

    def test_contains_zero_cases(self):
        assert Subspace.zero(2).contains(Subspace.zero(2))
        assert not Subspace.zero(2).contains(span(2, E1[:2]))

    def test_contains_an_equal_subspace_with_no_product(self, monkeypatch):
        calls = []
        real = kernels.matmul
        monkeypatch.setattr(kernels, "matmul",
                            lambda *args: calls.append(args) or real(*args))
        U = span(3, E1, (1, 1, 1))
        assert U.contains(span(3, (1, 1, 1), (2, 1, 1))) and calls == []
        assert not U.contains(span(3, E2)) and len(calls) == 1

    def test_contains_combination(self):
        assert span(3, E1, E2).contains(span(3, (1, 1, 0)))
        assert not span(3, E1, E2).contains(span(3, (1, 1, 1)))

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            span(2, (1, 0)).sum(span(3, E1))
        with pytest.raises(ValueError):
            span(2, (1, 0)).intersect(span(3, E1))

    @given(matrices(4, 4), matrices(4, 4))
    def test_grassmann_identity(self, M, N):
        if N.rows != M.rows:
            N = Mat.zero(M.rows, N.cols)
        U, W = image(M), image(N)
        s, i = U.sum(W), U.intersect(W)
        assert s.dim + i.dim == U.dim + W.dim
        assert s.contains(U) and s.contains(W)
        assert U.contains(i) and W.contains(i)

    @given(st.data())
    def test_intersect_is_one_reduction_matching_the_kernel_route(self, data):
        # half the draws put a piece of U into W, so that U cap W is nonzero
        n = data.draw(st.integers(1, 5))
        M = data.draw(matrices(n, 5, min_rows=n))
        U, W = image(M), image(data.draw(matrices(n, 5, min_rows=n)))
        if data.draw(st.booleans()):
            K = data.draw(matrices(M.cols, 3, min_rows=M.cols))
            W = W.sum(image(M @ K))
        calls = []
        real = kernels.rref

        def counted(*args):
            calls.append(args[:2])
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "rref", counted)
            got = U.intersect(W)
        assert got == intersect_by_kernel(U, W)
        assert got.dim + U.sum(W).dim == U.dim + W.dim
        # a zero or whole-space side needs no reduction
        assert len(calls) == (0 if {U.dim, W.dim} & {0, n} else 1)

    @given(st.data())
    def test_maps_into_agrees_with_the_mapped_subspace(self, data):
        # W contains M(U), lacks one of its directions, or is unrelated
        M = data.draw(matrices(4, 4))
        U = image(data.draw(matrices(M.cols, 4, min_rows=M.cols)))
        mapped = map_subspace(M, U)
        extra = image(data.draw(matrices(M.rows, 2, min_rows=M.rows)))
        W = data.draw(st.sampled_from((
            mapped.sum(extra),
            Subspace.from_vectors(M.rows, mapped.basis[1:]).sum(extra),
            extra)))
        # the quotient maps' cache reads M(U) <= W off the rows U M^T
        assert MapCache().maps_into(M, U, W) == W.contains(mapped)

    @given(st.data())
    def test_contains_agrees_with_rank(self, data):
        # oracle for the pivot-coordinate test: W <= U iff U + W adds no
        # dimension; image(M @ K) is always inside U = image(M)
        n = data.draw(st.integers(1, 4))
        M = data.draw(matrices(n, 4, min_rows=n))
        K = data.draw(matrices(M.cols, 4, min_rows=M.cols))
        N = data.draw(matrices(n, 4, min_rows=n))
        U = image(M)
        for W in (image(M @ K), image(N), Subspace.zero(n), Subspace.full(n)):
            assert U.contains(W) == (U.sum(W).dim == U.dim)
            for v in list(W.basis) + N.transpose().to_rows():
                assert U.contains_vector(v) == (U.sum(span(n, v)).dim == U.dim)

    @given(matrices(4, 4))
    def test_canonical_representation_unique(self, M):
        U = image(M)
        # re-spanning by sums of basis vectors reproduces the same basis
        mixed = [tuple(a + b for a, b in zip(U.basis[i], U.basis[(i + 1) % U.dim]))
                 for i in range(U.dim)]
        if mixed:
            assert Subspace.from_vectors(U.ambient_dim, mixed + list(U.basis)) == U


class TestQuotientAndPreimage:
    def test_quotient_dim_equal(self):
        U = span(3, E1, E2)
        assert quotient_dim(U, U) == 0

    def test_quotient_dim_full_over_zero(self):
        assert quotient_dim(Subspace.full(3), Subspace.zero(3)) == 3

    def test_quotient_dim_plane_over_line(self):
        assert quotient_dim(span(3, E1, E2), span(3, E1)) == 1

    def test_quotient_dim_rejects_non_nested(self):
        with pytest.raises(ValueError):
            quotient_dim(span(3, E1), span(3, E2))

    def test_preimage_of_full(self):
        M = Mat.from_rows([[1, 2], [3, 4], [0, 0]])
        assert preimage(M, Subspace.full(3)) == Subspace.full(2)

    def test_preimage_under_identity(self):
        W = span(3, (1, 2, 3))
        assert preimage(Mat.identity(3), W) == W

    def test_preimage_j3_line(self):
        # J3 x = (x2, x3, 0) lies in span{e1} iff x3 = 0
        assert preimage(J3, span(3, E1)) == span(3, E1, E2)

    @given(matrices(4, 4))
    def test_preimage_contains_kernel(self, M):
        W = image(M)
        assert preimage(M, Subspace.zero(M.rows)) == kernel(M)
        assert preimage(M, W) == Subspace.full(M.cols)

    @given(matrices(4, 4))
    def test_map_subspace_lands_in_image(self, M):
        full = Subspace.full(M.cols)
        assert map_subspace(M, full) == image(M)

    @given(st.data())
    def test_map_subspace_agrees_with_applying_each_vector(self, data):
        M = data.draw(matrices(4, 4))
        U = image(data.draw(matrices(M.cols, 4, min_rows=M.cols)))
        expected = Subspace.from_vectors(M.rows, [M.apply(v) for v in U.basis])
        assert map_subspace(M, U) == expected

    @given(st.data())
    def test_apply_matches_naive_product(self, data):
        M = data.draw(matrices(4, 4))
        v = data.draw(st.lists(rationals, min_size=M.cols, max_size=M.cols))
        assert list(M.apply(v)) == naive_matmul(M.rows, M.cols, 1, M.data, v)


class TestCharpoly:
    def test_identity_2x2(self):
        assert charpoly(Mat.identity(2)) == Poly([1, -2, 1])  # (x-1)^2

    def test_nilpotent(self):
        assert charpoly(J3) == Poly([0, 0, 0, 1])

    def test_swap_matrix(self):
        # det(x I - [[0,1],[1,0]]) = x^2 - 1 by the 2x2 determinant
        assert charpoly(Mat.from_rows([[0, 1], [1, 0]])) == Poly([-1, 0, 1])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            charpoly(Mat.zero(2, 3))

    @given(square_matrices(4))
    def test_cayley_hamilton(self, M):
        assert poly_eval_mat(charpoly(M), M).is_zero()

    def test_cayley_hamilton_dim_6(self):
        import random
        rng = random.Random(17)
        for _ in range(3):
            M = Mat(6, 6, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(36)])
            assert poly_eval_mat(charpoly(M), M).is_zero()

    def test_matches_fraction_oracle(self):
        # the integer recurrence on D*M against Faddeev-LeVerrier over
        # Fraction, on matrices with non-integer entries at dims 0..8
        import random
        rng = random.Random(41)
        for n in range(9):
            for _ in range(4):
                M = Mat(n, n, [Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                               for _ in range(n * n)])
                assert charpoly(M) == charpoly_fraction(M)

    @pytest.mark.parametrize("n", range(14))
    @settings(max_examples=6)
    @given(st.data())
    def test_matches_faddeev_leverrier(self, n, data):
        # every n = 0..13, so every m = ceil(sqrt(n)) with m^2 > n too, where
        # the last giant step covers fewer than m powers
        entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        M = Mat(n, n, data.draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        assert charpoly(M) == charpoly_fraction(M)

    def test_power_traces_are_traces_of_powers(self):
        import random
        from ratspec.ratmat import _power_traces
        rng = random.Random(12)
        for n in range(14):
            M = Mat.from_ints(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
            assert _power_traces(n, M.num) == [
                sum((M ** k).entry(i, i) for i in range(n)) for k in range(n + 1)]

    def test_inexact_division_raises(self, monkeypatch):
        # k e_k from Newton's identities is divisible by k for an integer
        # matrix; a faulty kernel product breaks that at k = 2 on the
        # identity (S^2 = I + J, so p_1 = 3, p_2 = 6 and 2 e_2 = 3 * 3 - 6),
        # and the check must catch it
        real = kernels.matmul
        monkeypatch.setattr(kernels, "matmul",
                            lambda *args: [x + 1 for x in real(*args)])
        with pytest.raises(ArithmeticError,
                           match="Newton's identities: 2 e_2 is not divisible by 2"):
            charpoly(Mat.identity(3))


# numerators and denominators of up to about 400 bits
wide_rationals = st.builds(Fraction,
                           st.integers(min_value=-(1 << 400), max_value=1 << 400),
                           st.integers(min_value=1, max_value=1 << 400))


class TestPolyCall:
    @given(st.lists(wide_rationals, max_size=13), wide_rationals)
    def test_matches_fraction_horner(self, coeffs, x):
        p = Poly(coeffs)
        for at in (x, -x, 0):
            value = p(at)
            assert type(value) is Fraction
            assert value == poly_eval_fraction(p, at)

    @given(wide_rationals, wide_rationals)
    def test_zero_and_constant_polynomials(self, c, x):
        assert Poly([])(x) == 0 and Poly([0, 0])(x) == 0
        assert Poly([c])(x) == c

    def test_int_and_string_coefficients(self):
        # 3/2 + 3/2 x - 3/2 x^2 + x^3 at x = -1/3, by hand: 3/2 - 1/2 - 1/6 - 1/27
        q = Poly(["3/2", "3/2", "-3/2", 1])
        assert q(Fraction(-1, 3)) == Fraction(43, 54)
        assert q(2) == poly_eval_fraction(q, 2) == Fraction(13, 2)


class TestPolyEval:
    def test_constant_poly(self):
        assert poly_eval_mat(Poly([1]), J3) == Mat.identity(3)

    def test_linear_poly(self):
        assert poly_eval_mat(Poly([0, 1]), J3) == J3

    def test_annihilating_poly(self):
        M = Mat.from_rows([[0, 1], [1, 0]])
        # x^2 - 1 kills the swap matrix (hand check: M^2 = I)
        assert poly_eval_mat(Poly([-1, 0, 1]), M).is_zero()

    def test_poly_arithmetic(self):
        p = Poly([1, 1])        # 1 + x
        q = Poly([-1, 1])       # -1 + x
        assert p * q == Poly([-1, 0, 1])
        assert p + q == Poly([0, 2])
        assert Poly([0, 0, 2, 4]).monic() == Poly([0, 0, Fraction(1, 2), 1])
        assert Poly([0, 0, 3, 1]).strip_zero_roots() == (Poly([3, 1]), 2)

    def test_horner_makes_deg_q_minus_one_products(self, monkeypatch):
        # Horner starts from lead*M, so x^d costs d - 1 products
        import random
        rng = random.Random(5)
        M = Mat(3, 3, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(9)])
        cubic = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(3)] + [Fraction(2)])
        products = []
        real_matmul = Mat.__matmul__

        def counting_matmul(self, other):
            products.append(1)
            return real_matmul(self, other)

        for q in (Poly([]), Poly([5]), Poly([0, 1]), Poly([0, 0, 0, 1]), cubic):
            # the oracle: sum of c_i M^i, powers by repeated products
            expected, power = Mat.zero(3, 3), Mat.identity(3)
            for c in q.coeffs:
                expected = expected + power.scaled(c)
                power = power @ M
            products.clear()
            monkeypatch.setattr(Mat, "__matmul__", counting_matmul)
            got = poly_eval_mat(q, M)
            monkeypatch.undo()
            assert got == expected
            assert len(products) == max(q.degree - 1, 0)

    @given(square_matrices(3), st.lists(rationals, min_size=0, max_size=4))
    def test_poly_eval_matches_scalar_on_diagonal(self, M, coeffs):
        # evaluate on a diagonal matrix: entrywise scalar Horner
        q = Poly(coeffs)
        n = M.rows
        diag = Mat(n, n, [M.entry(i, i) if i == j else Fraction(0)
                          for i in range(n) for j in range(n)])
        got = poly_eval_mat(q, diag)
        for i in range(n):
            assert got.entry(i, i) == q(diag.entry(i, i))


class TestNoKernelCall:
    """Questions with an empty side or nothing to decide skip the kernels."""

    @pytest.fixture
    def matmuls(self, monkeypatch):
        calls = []
        real = kernels.matmul

        def spy(*args):
            calls.append(args[:3])
            return real(*args)

        monkeypatch.setattr(kernels, "matmul", spy)
        return calls

    @pytest.mark.parametrize("m,k,n", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)])
    def test_empty_products_are_zero_over_den_1(self, matmuls, m, k, n):
        left = Mat(m, k, [Fraction(i + 1, 3) for i in range(m * k)])
        right = Mat(k, n, [Fraction(-i, 5) for i in range(k * n)])
        got = left @ right
        assert matmuls == []
        assert got == Mat.zero(m, n) and got.den == 1
        assert (FractionMat.of(left) @ FractionMat.of(right)).entries == got.data

    def test_containments_with_nothing_to_decide(self, matmuls):
        plane = span(3, E1, E2)
        assert plane.contains_rows(Mat.zero(0, 3))
        assert Subspace.full(3).contains(plane)
        assert Subspace.full(3).contains_vector([Fraction(1, 2), 7, -1])
        assert Subspace.zero(3).contains(Subspace.zero(3))
        assert matmuls == []
        assert not plane.contains_vector(E3) and matmuls == [(1, 2, 3)]

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0)])
    def test_empty_row_reductions(self, monkeypatch, m, n):
        # a matrix with no rows or no columns is its own reduced form, with
        # no pivots, as the kernel would return it
        reductions = []
        real = kernels.rref
        monkeypatch.setattr(kernels, "rref",
                            lambda *args: reductions.append(args) or real(*args))
        M = Mat.zero(m, n)
        assert rref(M) == (M, ()) and rank(M) == 0
        assert image(M.transpose()) == Subspace.zero(n)
        assert reductions == []
        assert real(m, n, []) == (list(M.num), M.den, ())


class TestBlockMatrix:
    def test_blocks_over_different_denominators(self):
        halves = Mat.from_rows([[Fraction(1, 2), 1], [0, Fraction(-3, 4)]])
        thirds = Mat.from_rows([[Fraction(2, 3)], [5]])
        ints = Mat.from_rows([[4, 6]])
        zero = Mat.zero(1, 1)
        got = block([[halves, thirds], [ints, zero]])
        rows = [halves.row(0) + thirds.row(0), halves.row(1) + thirds.row(1),
                ints.row(0) + zero.row(0)]
        assert got == Mat.from_rows(rows)
        assert got.den == 12

    def test_matrix_beside_the_identity(self):
        # [M | I], the block that inverse reduces
        M = Mat.from_rows([[Fraction(1, 6), 2, 0], [Fraction(-5, 4), 1, 3],
                           [0, Fraction(7, 10), Fraction(1, 3)]])
        got = block([[M, Mat.identity(3)]])
        assert got == Mat.from_rows([list(M.row(i)) + [int(i == j) for j in range(3)]
                                     for i in range(3)])
        assert got.den == 60
        assert (got.rows, got.cols) == (3, 6)

    def test_matrix_beside_a_column(self):
        # [M | b], the block that solve reduces, with b over its own
        # denominator, and the empty system
        M = Mat.from_rows([[Fraction(1, 2), 3], [Fraction(2, 9), -1]])
        b = Mat.from_rows([[Fraction(5, 7)], [Fraction(-1, 3)]])
        got = block([[M, b]])
        assert got == Mat.from_rows([list(M.row(i)) + list(b.row(i)) for i in range(2)])
        assert got.den == 126
        empty = block([[Mat.zero(0, 3), Mat.zero(0, 1)]])
        assert (empty.rows, empty.cols, empty.num, empty.den) == (0, 4, (), 1)


class TestSolveInverse:
    @given(matrices(4, 4))
    def test_solve_consistent_system(self, M):
        x = [Fraction(i + 1, 2) for i in range(M.cols)]
        b = M.apply(x)
        got = solve(M, list(b))
        assert got is not None
        assert M.apply(got) == b

    def test_solve_inconsistent(self):
        M = Mat.from_rows([[1, 0], [1, 0]])
        assert solve(M, [Fraction(0), Fraction(1)]) is None

    def test_inverse_roundtrip(self):
        M = Mat.from_rows([[2, 1], [1, 1]])
        Mi = inverse(M)
        assert Mi is not None and M @ Mi == Mat.identity(2)

    def test_inverse_singular(self):
        assert inverse(Mat.from_rows([[1, 2], [2, 4]])) is None


class TestMatBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Mat(2, 2, [Fraction(0)] * 3)
        with pytest.raises(ValueError):
            Mat.identity(2) @ Mat.identity(3)

    def test_immutable(self):
        M = Mat.identity(2)
        with pytest.raises(AttributeError):
            M.rows = 3

    def test_pow_and_shift(self):
        assert J3 ** 3 == Mat.zero(3, 3)
        assert J3 ** 0 == Mat.identity(3)
        shifted = Mat.identity(3).shifted(1)
        assert shifted.is_zero()

    @given(square_matrices(4), st.integers(0, 6))
    def test_pow_is_the_repeated_product_with_no_identity_factor(self, M, k):
        expected = Mat.identity(M.rows)
        for _ in range(k):
            expected = expected @ M
        calls = []
        real = kernels.matmul

        def counted(*args):
            calls.append(args[:3])
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "matmul", counted)
            got = M ** k
        assert got == expected
        # one squaring per bit above the lowest, one product per further set
        # bit: M ** 0 is the identity and M ** 1 is M, with no product
        squarings = k.bit_length() - 1 if k else 0
        assert len(calls) == (squarings + bin(k).count("1") - 1 if k else 0)

    def test_rref_idempotent(self):
        M = Mat.from_rows([[2, 4, 1], [1, 2, 0], [0, 0, 1]])
        R, piv = rref(M)
        R2, piv2 = rref(R)
        assert (R, piv) == (R2, piv2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Mat.identity(2) ** -1

    def test_apply_length_mismatch(self):
        with pytest.raises(ValueError):
            Mat.identity(2).apply([Fraction(1)])

    def test_membership_length_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.full(3).contains_vector([1, 2])

    def test_zero_poly_conventions(self):
        z = Poly([])
        assert z.degree == -1
        assert z.strip_zero_roots() == (z, 0)
        assert z(Fraction(5)) == 0
        assert Poly([0, 0]) == z

    def test_poly_add_shorter_first(self):
        assert Poly([1]) + Poly([0, 0, 1]) == Poly([1, 0, 1])

    def test_misc_guards(self):
        with pytest.raises(ValueError):
            Mat.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            Mat.zero(2, 3) ** 2
        with pytest.raises(ValueError):
            Mat.zero(2, 3).shifted(1)
        with pytest.raises(ValueError):
            Mat.identity(2) + Mat.identity(3)
        with pytest.raises(ValueError):
            inverse(Mat.zero(2, 3))
        with pytest.raises(ValueError):
            solve(Mat.identity(2), [Fraction(1)])
        with pytest.raises(ValueError):
            map_subspace(Mat.identity(2), Subspace.full(3))
        with pytest.raises(ValueError):
            preimage(Mat.identity(2), Subspace.full(3))
        with pytest.raises(ValueError):
            Subspace.from_vectors(2, [(1, 0, 0)])
        with pytest.raises(AttributeError):
            Subspace.full(2).basis = ()
        with pytest.raises(AttributeError):
            Poly([1]).coeffs = ()

    def test_negation_and_hash_and_repr(self):
        M = Mat.from_rows([[1, -2], [0, Fraction(1, 3)]])
        assert -(-M) == M
        assert hash(M) == hash(Mat.from_rows([[1, -2], [0, Fraction(1, 3)]]))
        assert "2x2" in repr(M) and "1/3" in repr(M)
        U = Subspace.from_vectors(3, [(1, 0, 0)])
        assert hash(U) == hash(Subspace.from_vectors(3, [(2, 0, 0)]))
        assert "dim 1 of Q^3" in repr(U)


def _canonical(M):
    """(num, den) in lowest terms: int numerators, den > 0, gcd(den, *num) == 1."""
    return (len(M.num) == M.rows * M.cols and all(type(x) is int for x in M.num)
            and type(M.den) is int and M.den > 0 and gcd(M.den, *M.num) == 1)


class TestIntegerRepresentation:
    @given(st.data())
    def test_operations_match_the_fraction_reference(self, data):
        # every operation agrees with entrywise Fractions and stays canonical
        A = data.draw(matrices(4, 4, min_rows=0, min_cols=0))
        B = data.draw(st.one_of(matrices(A.rows, A.cols, A.rows, A.cols),
                                st.just(Mat(A.rows, A.cols, A.data)),
                                st.just(A.scaled(2).scaled(Fraction(1, 2)))))
        K = data.draw(matrices(A.cols, 4, min_rows=A.cols, min_cols=0))
        S = data.draw(square_matrices(4))
        s, lam = data.draw(rationals), data.draw(rationals)
        cols = data.draw(st.lists(st.integers(0, A.cols - 1), max_size=5)
                         if A.cols else st.just([]))
        fa, fb, fk, fs = (FractionMat.of(M) for M in (A, B, K, S))
        for got, want in ((A + B, fa + fb), (A - B, fa - fb), (A @ K, fa @ fk),
                          (A.transpose(), fa.transpose()), (A.scaled(s), fa.scaled(s)),
                          (A.columns(cols), fa.columns(cols)),
                          (S.shifted(lam), fs.shifted(lam)), (-A, fa.scaled(-1))):
            assert FractionMat.of(got) == want
            assert _canonical(got)
        assert (A == B) == (fa == fb)
        assert (A == B) <= (hash(A) == hash(B))

    @given(matrices(4, 5, min_rows=0))
    def test_echelon_bases_are_canonical_with_their_pivots(self, M):
        for U in (image(M), kernel(M)):
            B = U.basis_matrix()
            assert _canonical(B) and B.rows == U.dim
            # each pivot is the first nonzero of its row, 1 there, 0 above and below
            assert U.pivots == tuple(next(j for j in range(B.cols) if B.entry(i, j))
                                     for i in range(B.rows))
            assert all(B.entry(i, p) == (i == r) for r, p in enumerate(U.pivots)
                       for i in range(B.rows))
