"""Invariant sequences, degrees, regularities, rational eigenvalues."""

import json
import random
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rationals, square_matrices
from oracles import (c_n, c_n_via_complement, coprime, cp_n,
                     cp_n_via_intersection, eigenvalue_multiplicity,
                     fredholm_index, k_n, k_n_via_sums,
                     poly_eval_fraction, rational_eigenvalues_by_divisors,
                     rational_eigenvalues_uncertified, sigma_R_membership)
from ratspec import invariants
from ratspec.cli import main, write_triple_document
from ratspec.genlab import random_unimodular
from ratspec.intertwine import OperatorTriple
from ratspec.invariants import (_P61, PowerChain, _coprime_mod, _derivative,
                                _exact_quotient, _gcd, _mod, _primary_degree,
                                _squarefree_part, hyper_kernel_dim,
                                profile, rational_eigenvalues,
                                regularity_membership, sigma_memberships)
from ratspec.ratmat import (Mat, Poly, block, charpoly, image, inverse,
                            kernel, poly_eval_mat, rank)
from test_drazin import jordan_block
from test_intertwine import _companion

J3 = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
J2_PLUS_1 = Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 1]])  # diag(J_2, 1)
TWO_PLUS_J2 = Mat.from_rows([[2, 0, 0], [0, 0, 1], [0, 0, 0]])  # diag(2, J_2)
INVERTIBLE = Mat.from_rows([[1, 1], [0, 2]])


def non_members(flags):
    """The i in 1..19 with flags[i - 1] false."""
    return [i for i, f in enumerate(flags, 1) if not f]


def random_square(rng, n, bound=4):
    return Mat(n, n, [Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                      for _ in range(n * n)])


class TestSequences:
    def test_invertible_all_zero(self):
        for n in range(4):
            assert c_n(INVERTIBLE, n) == 0
            assert cp_n(INVERTIBLE, n) == 0
            assert k_n(INVERTIBLE, n) == 0

    def test_j3_c_sequence(self):
        # ranks of J3 powers are 2, 1, 0
        assert [c_n(J3, n) for n in range(4)] == [1, 1, 1, 0]

    def test_j3_cp_sequence(self):
        # N(J3) = span{e1} stays inside R(J3^n) for n <= 2
        assert [cp_n(J3, n) for n in range(4)] == [1, 1, 1, 0]

    def test_j3_k_sequence(self):
        # R(J3^2) cap N(J3) = span{e1}, R(J3^3) cap N(J3) = 0
        assert [k_n(J3, n) for n in range(4)] == [0, 0, 1, 0]

    def test_diag_j2_1_c_sequence(self):
        # powers of diag(J_2, 1) have ranks 2, 1, 1
        assert [c_n(J2_PLUS_1, n) for n in range(3)] == [1, 1, 0]

    def test_zero_matrix_cp(self):
        Z = Mat.zero(3, 3)
        assert cp_n(Z, 0) == 3
        assert cp_n(Z, 1) == 0

    def test_j2_plus_invertible_k_sequence(self):
        # hand chains: R(T) cap N(T) = span{e1}, R(T^2) cap N(T) = 0
        assert [k_n(J2_PLUS_1, n) for n in range(4)] == [0, 1, 0, 0]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            c_n(Mat.zero(2, 3), 0)

    @given(square_matrices(4))
    def test_monotone_decreasing(self, M):
        p = profile(M)
        for a, b in zip(p.c_seq, p.c_seq[1:]):
            assert a >= b
        for a, b in zip(p.cp_seq, p.cp_seq[1:]):
            assert a >= b

    @given(square_matrices(4))
    def test_two_forms_agree(self, M):
        p = profile(M)
        for n in range(M.rows + 1):
            assert c_n(M, n) == c_n_via_complement(M, n) == p.c_seq[n]
            assert cp_n(M, n) == cp_n_via_intersection(M, n) == p.cp_seq[n]
            assert k_n(M, n) == k_n_via_sums(M, n) == p.k_seq[n]
        # the chain stops at the stabilization index but answers past it
        chain = PowerChain(M)
        for n in range(M.rows + 3):
            assert chain.image(n) == image(M ** n)
            assert chain.kernel(n) == kernel(M ** n)
        assert chain.stable == p.asc


class TestRangePlusKernel:
    @given(square_matrices(4))
    def test_memoised_sums_are_the_sums(self, M):
        chain = PowerChain(M)
        for n in range(M.rows + 3):
            got = chain.range_plus_kernel(n)
            assert got == image(M).sum(kernel(M ** n))
            assert chain.range_plus_kernel(n) is got


class TestProfile:
    def test_identity_profile(self):
        p = profile(Mat.identity(3))
        assert p.c_seq == (0, 0, 0, 0)
        assert p.cp_seq == (0, 0, 0, 0)
        assert p.asc == p.dsc == p.dis == 0
        assert (p.hyper_range_dim, p.hyper_kernel_dim) == (3, 0)

    def test_j3_profile(self):
        p = profile(J3)
        assert p.asc == p.dsc == 3
        assert p.dis == 3
        assert (p.c_total, p.cp_total, p.k_total) == (3, 3, 1)
        assert (p.hyper_range_dim, p.hyper_kernel_dim) == (0, 3)

    def test_two_plus_j2_profile(self):
        p = profile(TWO_PLUS_J2)
        assert p.asc == p.dsc == 2

    def test_essential_degrees_vanish(self):
        for M in (J3, INVERTIBLE, Mat.zero(2, 2)):
            p = profile(M)
            assert p.asc_e == p.dsc_e == p.dis_e == 0

    @given(square_matrices(4))
    def test_ascent_equals_descent(self, M):
        p = profile(M)
        assert p.asc == p.dsc
        assert p.dis <= max(p.asc, p.dsc)

    @given(square_matrices(4))
    def test_totals_and_hyper_spaces(self, M):
        p = profile(M)
        assert p.c_total == sum(p.c_seq)
        assert p.cp_total == sum(p.cp_seq)
        # the hyper-spaces row-reduced afresh, where profile counts ranks
        hyper_range = image(M ** M.rows)
        assert p.hyper_range_dim == hyper_range.dim
        assert p.hyper_kernel_dim == kernel(M ** M.rows).dim
        assert p.c_total == M.rows - hyper_range.dim
        ker = kernel(M)
        assert p.k_total == ker.dim - ker.intersect(hyper_range).dim

    @given(square_matrices(4))
    def test_sequences_vanish_from_dim_on(self, M):
        p = profile(M)
        assert p.c_seq[-1] == p.cp_seq[-1] == p.k_seq[-1] == 0
        assert c_n(M, M.rows + 2) == 0
        assert k_n(M, M.rows + 1) == 0


class TestRegularities:
    def test_invertible_in_all(self):
        assert all(regularity_membership(INVERTIBLE))

    def test_j3_memberships(self):
        assert non_members(regularity_membership(J3)) == [1, 6, 11]

    def test_semi_regular_from_k(self):
        # J2 + invertible block: k(T) = 1, so not semi-regular
        assert not regularity_membership(J2_PLUS_1)[10]
        # invertible + nilpotent shift with k = 0: surjectivity fails only
        p = profile(TWO_PLUS_J2)
        assert regularity_membership(TWO_PLUS_J2)[10] == (p.k_total == 0)

    def test_chain_form_matches_matrix_form(self):
        # Jordan blocks J_k(mu) and random squares: the chain's stable index
        # gives the same memberships as the Mat form and as a fresh rank test
        from ratspec.ratmat import rank
        rng = random.Random(17)
        samples = [Mat.from_rows([[mu if i == j else int(j == i + 1)
                                   for j in range(k)] for i in range(k)])
                   for k in range(1, 5) for mu in (0, 2, Fraction(1, 2))]
        samples += [random_square(rng, rng.randint(1, 5)) for _ in range(20)]
        samples.append(Mat.zero(0, 0))
        for M in samples:
            rc = regularity_membership(PowerChain(M))
            assert rc == regularity_membership(M)
            invertible = rank(M) == M.rows
            assert non_members(rc) == ([] if invertible else [1, 6, 11])

    @given(square_matrices(4))
    def test_lattice_relations(self, M):
        f = regularity_membership(M)
        r = {i + 1: f[i] for i in range(19)}
        assert not r[1] or r[2]                      # R1 <= R2
        assert r[2] == (r[3] and r[4])               # R2 = R3 cap R4
        assert not r[6] or r[7]                      # R6 <= R7
        assert r[7] == (r[8] and r[9])               # R7 = R8 cap R9
        assert not r[11] or r[12]                    # R11 <= R12
        assert r[12] == (r[13] and r[14])            # R12 = R13 cap R14
        assert not r[5] or r[13]
        assert not r[10] or r[13]

    @given(square_matrices(4))
    @example(J3)
    @example(J2_PLUS_1)
    @example(TWO_PLUS_J2)
    @example(INVERTIBLE)
    @example(Mat.zero(2, 2))
    def test_surjective_injective_semantics(self, M):
        from ratspec.ratmat import rank
        rc = regularity_membership(M)
        assert rc[0] == (rank(M) == M.rows)
        assert rc[5] == (kernel(M).dim == 0)
        # the one invertibility verdict agrees with the totals c, c', k in
        # their complement, intersection and sum forms
        top = range(M.rows + 1)
        assert rc[0] == (sum(c_n_via_complement(M, n) for n in top) == 0)
        assert rc[5] == (sum(cp_n_via_intersection(M, n) for n in top) == 0)
        assert rc[10] == (sum(k_n_via_sums(M, n) for n in top) == 0)


class TestSigma:
    def test_non_eigenvalue_outside_every_sigma(self):
        flags = sigma_memberships(PowerChain(J3.shifted(7)))
        assert not any(flags)

    def test_chain_form_matches_oracle(self):
        # sigma_memberships reads the chain of T - lam; the oracle shifts T
        # and sums the totals c, c', k in their complement, intersection
        # and sum forms
        rng = random.Random(23)
        for _ in range(15):
            M = random_square(rng, rng.randint(1, 4), bound=2)
            eigs = dict(rational_eigenvalues(M))
            for lam in [*eigs, Fraction(3, 7)]:
                flags = sigma_memberships(PowerChain(M.shifted(lam)))
                assert flags == tuple(sigma_R_membership(M, lam, i)
                                      for i in range(1, 20))
                assert any(flags) == (lam in eigs)

    def test_j3_zero_in_sigma_r1(self):
        assert sigma_R_membership(J3, 0, 1)

    def test_identity_one_in_sigma_r6(self):
        assert sigma_R_membership(Mat.identity(2), 1, 6)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            sigma_R_membership(J3, 0, 25)


class TestFredholm:
    def test_examples(self):
        assert fredholm_index(Mat.identity(3)) == 0
        assert fredholm_index(J3) == 0
        assert fredholm_index(Mat.zero(4, 4)) == 0

    @given(square_matrices(5))
    def test_always_zero(self, M):
        assert fredholm_index(M) == 0


class TestRationalEigenvalues:
    def test_identity(self):
        assert rational_eigenvalues(Mat.identity(3)) == [(Fraction(1), 3)]

    def test_nilpotent(self):
        assert rational_eigenvalues(J3) == [(Fraction(0), 3)]

    def test_diagonal_fractions(self):
        M = Mat.from_rows([[2, 0], [0, Fraction(1, 3)]])
        assert rational_eigenvalues(M) == [(Fraction(1, 3), 1), (Fraction(2), 1)]

    def test_irrational_spectrum_empty(self):
        # x^2 - 2 has no rational roots
        M = Mat.from_rows([[0, 2], [1, 0]])
        assert rational_eigenvalues(M) == []

    def test_mixed(self):
        M = Mat.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 5]])
        assert rational_eigenvalues(M) == [(Fraction(5), 1)]

    def test_multiplicities_from_triangular(self):
        rng = random.Random(5)
        diag = [Fraction(1), Fraction(1), Fraction(-2), Fraction(1, 2)]
        rows = [[diag[i] if i == j else
                 (Fraction(rng.randint(-3, 3)) if j > i else Fraction(0))
                 for j in range(4)] for i in range(4)]
        eigs = dict(rational_eigenvalues(Mat.from_rows(rows)))
        assert eigs == {Fraction(1): 2, Fraction(-2): 1, Fraction(1, 2): 1}

    @given(square_matrices(4))
    def test_multiplicity_equals_cp_total(self, M):
        # algebraic multiplicity of lam = sum of c'_n(T - lam)
        for lam, mult in rational_eigenvalues(M):
            shifted = M.shifted(lam)
            assert profile(shifted).cp_total == mult
            assert eigenvalue_multiplicity(M, lam) == mult

    @given(square_matrices(4))
    def test_total_multiplicity_bounded(self, M):
        assert sum(m for _, m in rational_eigenvalues(M)) <= M.rows

    def test_empty_matrix(self):
        assert rational_eigenvalues(Mat.zero(0, 0)) == []

    def test_large_entries_take_factorization_path(self):
        # Gershgorin and Cauchy bounds both exceed 2^16, so the candidates
        # are lifted through several Newton-Hensel steps
        M = Mat.from_rows([[100000, 0], [0, 1]])
        assert rational_eigenvalues(M) == [(Fraction(1), 1), (Fraction(100000), 1)]
        M = Mat.from_rows([[Fraction(99991, 3), 1], [0, 7]])
        assert rational_eigenvalues(M) == [(Fraction(7), 1), (Fraction(99991, 3), 1)]

    def test_prime_where_only_the_roots_are_simple(self, monkeypatch):
        # g = (x^2 + 1)(x^2 + 3x + 1)(x - 2): at 2 the root 1 is double, so 2
        # is rejected; at 3, g = (x^2 + 1)^2 (x - 2) is not squarefree, but
        # its one root 2 is simple, so the search stops there. The root
        # certificate evaluates g mod 3, 5, 7, ... too, so each call is told
        # by what it evaluates: g' mod p tests the roots mod p, and g itself
        # is evaluated at the lifting moduli 3^2, 3^4
        calls = []
        real = invariants._eval_mod
        monkeypatch.setattr(invariants, "_eval_mod",
                            lambda f, x, q: calls.append((tuple(f), q)) or real(f, x, q))
        p = Poly([1, 0, 1]) * Poly([1, 3, 1]) * Poly([-2, 1])
        assert rational_eigenvalues(p) == [(Fraction(2), 1)]
        g = list(p.num)
        dg = _derivative(g)
        assert sorted({q for f, q in calls if f == tuple(_mod(dg, q))}) == [2, 3]
        assert sorted({q for f, q in calls if f == tuple(g)}) == [9, 81]

    def test_roots_colliding_mod_two(self):
        p = Poly([-1, 1]) * Poly([-3, 1])
        assert rational_eigenvalues(p) == [(Fraction(1), 1), (Fraction(3), 1)]

    def test_polynomial_form_matches_matrix_form(self):
        rng = random.Random(12)
        for _ in range(20):
            M = random_square(rng, rng.randint(0, 5), bound=3)
            assert rational_eigenvalues(charpoly(M)) == rational_eigenvalues(M)

    def test_non_monic_polynomial_rejected(self):
        with pytest.raises(ValueError, match="monic"):
            rational_eigenvalues(Poly([1, 2]))

    def test_inexact_squarefree_division_raises(self, monkeypatch):
        # a remainder sequence cut short leaves gcd = f', which does not
        # divide f; the exact division must say so. (x - 2)^2 (x - 3) is not
        # squarefree, so the mod-p certificate fails and the PRS runs
        from ratspec import invariants
        monkeypatch.setattr(invariants, "_pseudo_remainder", lambda a, b: [])
        with pytest.raises(ArithmeticError, match="does not divide"):
            rational_eigenvalues(Poly([-12, 16, -7, 1]))


_planted_roots = st.lists(
    st.tuples(st.integers(-10 ** 30, 10 ** 30) | st.integers(-9, 9),
              st.integers(1, 6), st.integers(1, 4)),
    max_size=4)


def _poly_with_roots(planted, quadratic, zeros):
    """The monic polynomial x^zeros * q * prod (x - num/den)^mult."""
    p = Poly([0] * zeros + [1])
    for num, den, mult in planted:
        for _ in range(mult):
            p = p * Poly([Fraction(-num, den), 1])
    return (p * quadratic).monic()


class TestPlantedRoots:
    """Polynomials built from known roots: the search returns exactly them."""

    @given(_planted_roots,
           st.sampled_from([Poly([1]), Poly([1, 0, 1]), Poly([-2, 0, 1]),
                            Poly([7, 3, 5]), Poly([-10 ** 21 - 1, 0, 1])]),
           st.integers(0, 2))
    def test_planted_roots_recovered(self, planted, quadratic, zeros):
        want = {Fraction(0): zeros} if zeros else {}
        for num, den, mult in planted:
            lam = Fraction(num, den)
            want[lam] = want.get(lam, 0) + mult
        got = rational_eigenvalues(_poly_with_roots(planted, quadratic, zeros))
        assert got == sorted(want.items())

    @given(st.lists(st.tuples(st.integers(-10 ** 12, 10 ** 12) | st.integers(-9, 9),
                              st.integers(1, 4)), max_size=4),
           st.sampled_from([Poly([1, 0, 1]), Poly([-2, 0, 1]), Poly([3, 1, 1])]),
           st.integers(1, 3))
    def test_squarefree_part_keeps_each_factor_once(self, planted, quadratic,
                                                    qmult):
        f = _poly_with_roots([(r, 1, mult) for r, mult in planted],
                             quadratic, 0)
        for _ in range(qmult - 1):
            f = f * quadratic
        g = _poly_with_roots([(r, 1, 1) for r in {r for r, _ in planted}],
                             quadratic, 0)
        assert _squarefree_part([int(c) for c in f.coeffs]) == \
            [int(c) for c in g.coeffs]

    def test_huge_repeated_roots(self):
        big = 10 ** 20 + 39
        planted = [(big, 1, 4), (-big, 7, 3), (3, 2, 2), (1, 1, 1)]
        p = _poly_with_roots(planted, Poly([3, 1, 1]), 0)
        assert rational_eigenvalues(p) == [
            (Fraction(-big, 7), 3), (Fraction(1), 1), (Fraction(3, 2), 2),
            (Fraction(big), 4)]


def _recorded_scaling(monkeypatch):
    """The monic integer polynomials f that rational_eigenvalues searches."""
    searched = []
    real = invariants._integer_root_candidates
    monkeypatch.setattr(invariants, "_integer_root_candidates",
                        lambda f: searched.append(list(f)) or real(f))
    return searched


def _scaled_by_fractions(p, f):
    """Whether f = D^n p(x / D) on Fractions, D read off the x^(n-1)
    coefficients as f_(n-1) / p_(n-1), which must be nonzero."""
    cs, n = p.coeffs, p.degree
    D = Fraction(f[n - 1]) / cs[n - 1]
    return (D > 0 and D.denominator == 1 and len(f) == n + 1
            and all(f[i] == c * D ** (n - i) for i, c in enumerate(cs)))


class TestIntegerScaling:
    """The monic integer f = D^n p(x / D) that the root search runs on, D
    built from the highest coefficient down, against Fractions."""

    def test_d_growing_partway_through_the_scan(self, monkeypatch):
        # p = (x - 1)(x^2 - 1/4) = x^3 - x^2 - x/4 + 1/4: D is still 1 after
        # the x^2 coefficient and grows to 4 at the x coefficient, so the
        # quotient kept for x^2 is formed again with the final D
        p = Poly([Fraction(1, 4), Fraction(-1, 4), -1, 1])
        searched = _recorded_scaling(monkeypatch)
        got = rational_eigenvalues(p)
        assert searched == [[16, -4, -4, 1]] and _scaled_by_fractions(p, searched[0])
        assert got == rational_eigenvalues_by_divisors(_companion(p)) == [
            (Fraction(-1, 2), 1), (Fraction(1, 2), 1), (Fraction(1), 1)]

    @given(_planted_roots, st.lists(st.builds(Fraction, st.integers(-9, 9),
                                              st.sampled_from([1, 2, 3, 4, 8, 9, 25])),
                                    min_size=1, max_size=4))
    def test_scaling_matches_fractions(self, planted, rest):
        # planted roots times a monic factor whose lower coefficients have
        # denominators that make D grow at different places in the scan
        p = _poly_with_roots(planted, Poly(rest + [1]), 0)
        assume(p.num[0] and p.num[-2])
        with pytest.MonkeyPatch.context() as mp:
            searched = _recorded_scaling(mp)
            got = rational_eigenvalues(p)
        assert len(searched) == 1 and _scaled_by_fractions(p, searched[0])
        assert got == rational_eigenvalues_uncertified(p)
        roots = dict(got)
        assert all(poly_eval_fraction(p, lam) == 0 for lam in roots)
        assert all(roots.get(Fraction(num, den), 0) >= mult
                   for num, den, mult in planted)


def _prs_squarefree_part(f):
    # f / gcd(f, f') by the primitive PRS alone
    return _exact_quotient(f, _gcd(f, _derivative(f)))


class TestModPCertificate:
    """The mod-p squarefree certificate against the PRS, its oracle."""

    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 3)), max_size=4),
           st.sampled_from([Poly([1]), Poly([1, 0, 1]), Poly([-2, 0, 1]),
                            Poly([3, 1, 1])]),
           st.integers(1, 2))
    @example([(2, 1), (3, 1)], Poly([1]), 1)
    @example([(2, 2), (3, 1)], Poly([1]), 1)
    def test_certificate_agrees_with_the_prs(self, planted, quadratic, qmult):
        # every factor of the discriminant here is a small root difference
        # or resultant, so p = 2^61 - 1 divides it only when it is 0: the
        # certificate holds exactly when the PRS finds f squarefree
        f = _poly_with_roots([(r, 1, mult) for r, mult in planted], quadratic, 0)
        for _ in range(qmult - 1):
            f = f * quadratic
        f = list(f.num)
        assume(len(f) > 1)
        squarefree = len(_gcd(f, _derivative(f))) == 1
        assert _coprime_mod(f, _derivative(f), _P61) == squarefree
        assert _squarefree_part(f) == _prs_squarefree_part(f)

    def test_a_discriminant_divisible_by_p_falls_back_to_the_prs(self, monkeypatch):
        # x^2 - p is squarefree, but x^2 mod p is not: the certificate says
        # nothing and the PRS answers
        from ratspec import invariants
        f = [-_P61, 0, 1]
        assert not _coprime_mod(f, _derivative(f), _P61)
        calls = []
        real = invariants._gcd
        monkeypatch.setattr(invariants, "_gcd", lambda a, b: calls.append(a) or real(a, b))
        assert _squarefree_part(f) == f and len(calls) == 1

    def test_a_certified_polynomial_runs_no_prs(self, monkeypatch):
        from ratspec import invariants
        monkeypatch.setattr(invariants, "_gcd", None)
        assert _squarefree_part([-6, 11, -6, 1]) == [-6, 11, -6, 1]


#: 2 * 3 * 5 * ... * 97, so that f(0) = k * _PRIMORIAL has the root 0 mod
#: every prime below 100: the certificate must skip them all
_PRIMORIAL = prod(p for p in range(2, 100) if all(p % d for d in range(2, p)))


class TestRootlessCertificate:
    """A prime p not dividing f(0) at which f has no root mod p proves that
    f has no integer root; the search without it is the oracle."""

    @staticmethod
    def _recorded(p):
        # rational_eigenvalues(p) and what the certificate said on the way
        said = []
        real = invariants._rootless_prime
        with mock.patch.object(invariants, "_rootless_prime",
                               lambda f: said.append(real(f)) or said[-1]):
            return rational_eigenvalues(p), said

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6) | st.integers(-9, 9), max_size=6),
           _planted_roots, st.integers(0, 2), st.booleans())
    @example([1, 0], [], 0, False)  # x^2 + 1, certified at 3
    @example([-2, 0], [], 0, True)  # x^2 - 2 * primorial: 2..97 all skipped
    @example([0, 1], [(3, 2, 2)], 0, True)  # (x - 3/2)^2 (x^2 + x + primorial)
    def test_certificate_agrees_with_the_search(self, low, planted, zeros, smooth):
        q = Poly(low + [1])
        if smooth:
            q = Poly.from_ints([(q.num[0] or 1) * _PRIMORIAL, *q.num[1:]], 1)
        p = _poly_with_roots(planted, q, zeros)
        got, said = self._recorded(p)
        assert got == rational_eigenvalues_uncertified(p)
        # one certificate per search; it never speaks for a rational root
        assert len(said) == (p.strip_zero_roots()[0].degree > 0)
        if any(lam for lam, _ in got):
            assert said == [None]

    def test_first_rootless_prime(self):
        # x^2 + 1 has the root 1 mod 2 and none mod 3; x^2 + 30 skips 2, 3
        # and 5, which divide 30, and -30 is no square mod 7
        assert invariants._rootless_prime([1, 0, 1]) == 3
        assert invariants._rootless_prime([30, 0, 1]) == 7

    def test_a_root_mod_every_prime_runs_the_search(self):
        # (x^2 - 2)(x^2 - 3)(x^2 - 6) has a root mod every prime, as one of
        # 2, 3 and 6 is a square mod p, and no rational root
        p = Poly([-2, 0, 1]) * Poly([-3, 0, 1]) * Poly([-6, 0, 1])
        assert invariants._rootless_prime(list(p.num)) is None
        got, said = self._recorded(p)
        assert got == [] and said == [None]

    def test_zero_constant_term_is_never_certified(self):
        # every prime divides f(0) = 0; the scan must not run forever
        assert invariants._rootless_prime([0, 1, 0, 1]) is None


def _block_diagonal(*blocks):
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            rows[at + i][at:at + b.rows] = b.row(i)
        at += b.rows
    return Mat.from_rows(rows)


def _companion(p):
    """A matrix with the monic characteristic polynomial p."""
    d = p.degree
    c = p.coeffs
    return Mat.from_rows([[1 if j == i - 1 else 0 for j in range(d - 1)] + [-c[i]]
                          for i in range(d)])


class TestLinearDecision:
    """A linear q = s(x - r) decided in integers: a Horner pass, then exact
    division by the primitive bx - a; the PRS (_primary_degree) and
    dim - rank q(T)^dim are its oracles."""

    @given(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
           st.integers(1, 4),
           st.sampled_from([Poly([1]), Poly([1, 0, 1]), Poly([-1, 1]),
                            Poly([0, 1]), Poly([2, -3, 1]),
                            Poly([Fraction(-3, 2), 1])]),
           st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
           st.sampled_from([Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)]))
    @example(Fraction(0), 2, Poly([0, 1]), Fraction(0), Fraction(1))  # root 0
    @example(Fraction(3, 2), 4, Poly([Fraction(-3, 2), 1]), Fraction(0),
             Fraction(2))  # 2x - 3, root 3/2 of multiplicity 5
    @example(Fraction(5, 3), 1, Poly([1]), Fraction(0), Fraction(2))  # 2x - 2*5/3
    def test_planted_multiplicity(self, root, mult, rest, offset, scale):
        # T = J_mult(root) + companion(rest), probed at root + offset
        T = _block_diagonal(jordan_block(root, mult), _companion(rest))
        p = charpoly(T)
        lam = root + offset
        q = Poly([-scale * lam, scale])
        m = hyper_kernel_dim(p, q)
        assert m == _primary_degree(p.num, q.num)
        assert m == T.rows - rank(poly_eval_mat(q, T) ** T.rows)
        assert m == (0 if offset else mult) + _roots_with_multiplicity(rest).count(lam)

    def test_a_fractional_root_of_numerators_over_a_denominator(self):
        # (x - 2/3)^3 (x + 1) is held as integer numerators over 27
        p = Poly([Fraction(-2, 3), 1]) * Poly([Fraction(-2, 3), 1]) \
            * Poly([Fraction(-2, 3), 1]) * Poly([1, 1])
        assert p.den == 27
        assert hyper_kernel_dim(p, Poly([-2, 3])) == 3
        assert hyper_kernel_dim(p, Poly([-4, 6])) == 3
        assert hyper_kernel_dim(p, Poly([2, -3])) == 3
        assert hyper_kernel_dim(p, Poly([1, 1])) == 1
        assert hyper_kernel_dim(p, Poly([0, 1])) == 0

    def test_a_linear_q_makes_no_prs_call(self, monkeypatch):
        from ratspec import invariants
        monkeypatch.setattr(invariants, "_gcd", None)
        p = charpoly(_block_diagonal(jordan_block(Fraction(1, 2), 3),
                                     jordan_block(0, 2)))
        assert [hyper_kernel_dim(p, q) for q in
                (Poly([-1, 2]), Poly([0, 5]), Poly([1, 1]))] == [3, 2, 0]


def _roots_with_multiplicity(p):
    # the rational roots of the monic p, each repeated by its multiplicity
    return [r for r, m in rational_eigenvalues(p) for _ in range(m)]


_small_int_squares = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)
    .map(lambda d: Mat.from_ints(n, n, d)))

# p = scale * q * prod (x - r): small integer roots, which small integer
# matrices often have, times a quadratic without rational roots
_probe_polys = st.builds(
    lambda roots, q, scale: _poly_with_roots(
        [(r, 1, 1) for r in roots], q, 0) * Poly([scale]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.sampled_from([Poly([1]), Poly([1, 0, 1]), Poly([-2, 0, 1]),
                     Poly([1, 1, 1]), Poly([-1, -1, 1])]),
    st.sampled_from([Fraction(1), Fraction(-3, 2)]))


class TestCoprimeDecidesInvertibility:
    """p(T) is invertible iff gcd(charpoly(T), p) = 1; the rank is the oracle."""

    @given(_small_int_squares, _probe_polys)
    @example(Mat.from_rows([[0, -1], [1, 0]]), Poly([1, 0, 1]))
    @example(Mat.from_rows([[0, -1], [1, 0]]), Poly([-1, 0, 1]))
    @example(Mat.from_rows([[1, 1], [1, 0]]), Poly([-1, -1, 1]))
    @example(Mat.from_rows([[2, 0], [0, 3]]), Poly([-2, 1]))
    @example(Mat.from_rows([[2, 0], [0, 3]]), Poly([Fraction(1, 2)]))
    def test_coprime_iff_full_rank(self, T, p):
        full = rank(poly_eval_mat(p, T)) == T.rows
        assert coprime(charpoly(T), p) == full

    def test_zero_and_constant_polynomials(self):
        x, zero = Poly([0, 1]), Poly([])
        assert coprime(Poly([1]), zero) and coprime(zero, Poly([-2]))
        assert not coprime(x, zero) and not coprime(zero, zero)
        assert coprime(Poly([Fraction(2, 3)]), x)
        assert not coprime(Poly([0, 0, Fraction(1, 2)]), Poly([0, 3]))

    @given(st.lists(rationals, max_size=4), rationals,
           rationals.filter(bool), st.booleans())
    @example([], Fraction(1), Fraction(2), False)
    @example([1], Fraction(3), Fraction(-1, 2), True)
    def test_linear_q_agrees_with_the_prs(self, coeffs, lam, a, root):
        # q = a(x - lam), with lam a root of p when root is set: one
        # evaluation at -q_0/q_1 against the gcd of the PRS
        p = Poly(coeffs) * (Poly([-lam, 1]) if root else Poly([1]))
        q = Poly([-a * lam, a])
        A, B = p.num, q.num
        assert coprime(p, q) == (bool(A) and len(_gcd(A, B)) == 1)

    @given(square_matrices(4))
    def test_invertible_chain_equals_the_row_reduced_one(self, M):
        assume(charpoly(M)(0) != 0)
        fast, oracle = PowerChain(M, hyper_kernel_dim=0), PowerChain(M)
        assert fast.stable == oracle.stable == 0
        for n in range(M.rows + 3):
            assert fast.image(n) == oracle.image(n)
            assert fast.kernel(n) == oracle.kernel(n)
            assert fast.range_plus_kernel(n) == oracle.range_plus_kernel(n)
        assert fast.stable_power() == oracle.stable_power()
        assert profile(fast) == profile(oracle)
        assert sigma_memberships(fast) == sigma_memberships(oracle)


def _conjugated_blocks(blocks, seed=5):
    """U diag(blocks) U^-1 with a fixed unimodular U, so no level is sparse."""
    J = Mat.identity(0)
    for K in blocks:
        J = block([[J, Mat.zero(J.rows, K.cols)], [Mat.zero(K.rows, J.cols), K]])
    U = random_unimodular(random.Random(seed), J.rows, 1)
    return U @ J @ inverse(U)


# J_3(2) + J_1(2) + J_2(-1): the drops at 2 are 2, 1, 1 and at -1 are 1, 1
MIXED = _conjugated_blocks([jordan_block(2, 3), jordan_block(2, 1),
                            jordan_block(-1, 2)])
# with J_3(1/2) appended, the triple A = I, B = C = that operator probes a
# single Jordan block of size 3 at 1/2
SINGLE_J3 = _conjugated_blocks([jordan_block(2, 3), jordan_block(2, 1),
                                jordan_block(-1, 2), jordan_block(Fraction(1, 2), 3)])
# J_2(3) + J_2(3) + J_1(1): the last drop at 3 is 2, so a floor one too high
# shows in the rank of the level the chain stops at
TWO_J2 = _conjugated_blocks([jordan_block(3, 2), jordan_block(3, 2),
                             jordan_block(1, 1)])
CASES = [(MIXED, 2, 4), (MIXED, -1, 2), (SINGLE_J3, Fraction(1, 2), 3),
         (SINGLE_J3, 2, 4), (TWO_J2, 3, 4)]
_READS = ("rank", "image", "kernel", "range_plus_kernel")


def _read(chain, name, n):
    return chain.stable_power() if name == "stable_power" else getattr(chain, name)(n)


def _read_all(chain):
    return [_read(chain, name, n) for name in _READS
            for n in range(chain.T.rows + 2)] + [chain.stable_power()]


class TestPredictedLevels:
    """PowerChain(T, m) against the row-reduced PowerChain(T).

    With m = dim N(T^s) the chain stops at rank dim - m (Fitting) and writes
    down the unit drops that Weyr's rule gives; its other levels are formed
    on first read. The row-reduced chain is the oracle of every level.
    """

    def test_multiplicities_are_the_jordan_sizes(self):
        for M, lam, m in CASES:
            assert hyper_kernel_dim(charpoly(M), Poly([-lam, 1])) == m

    @given(st.permutations([(name, n) for name in _READS for n in range(11)]
                           + [("stable_power", None)]))
    @settings(max_examples=15)
    def test_levels_read_in_any_order_equal_the_oracle(self, reads):
        t = OperatorTriple(Mat.identity(9), SINGLE_J3, SINGLE_J3)
        for lam in (2, -1, Fraction(1, 2)):
            q = Poly([-lam, 1])
            chain, oracle = t.chain("ba", q), PowerChain(t.ba.shifted(lam))
            assert chain.stable == oracle.stable
            for name, n in reads:
                assert _read(chain, name, n) == _read(oracle, name, n)

    @given(_small_int_squares, st.integers(-2, 2))
    @example(J3, 0)
    @example(jordan_block(1, 4), 1)
    def test_every_chain_with_m_equals_the_row_reduced_one(self, M, r):
        op = M.shifted(r)
        chain = PowerChain(op, hyper_kernel_dim(charpoly(M), Poly([-r, 1])))
        assert _read_all(chain) == _read_all(PowerChain(op))

    def test_a_report_forms_no_power_past_the_last_computed_level(
            self, tmp_path, monkeypatch, capsys):
        # the drops at 2 are 2, 1, 1: T and T^2 are row-reduced, T^3 is
        # predicted; at -1 and 1/2 the first drop is 1, so only T is
        # row-reduced. The report's profiles equal the row-reduced ones
        t = OperatorTriple(Mat.identity(9), SINGLE_J3, SINGLE_J3)
        shifted = {lam: SINGLE_J3.shifted(lam) for lam in (2, -1, Fraction(1, 2))}
        path = tmp_path / "single_j3.json"
        write_triple_document(t, str(path))
        products = []
        real = Mat.__matmul__
        monkeypatch.setattr(Mat, "__matmul__",
                            lambda a, b: products.append(b) or real(a, b))
        assert main(["report", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(Mat, "__matmul__", real)
        powers = {lam: sum(b == op for b in products) for lam, op in shifted.items()}
        assert powers == {2: 1, -1: 0, Fraction(1, 2): 0}
        rows = {Fraction(p["lambda"]): p["rows"] for p in doc["probes"]}
        for lam, op in shifted.items():
            oracle = profile(PowerChain(op))
            assert [r["c"] for r in rows[lam]] == [
                [c, c] for c in oracle.c_seq[:len(rows[lam])]]
            assert [r["k"] for r in rows[lam]] == [
                [k, k] for k in oracle.k_seq[:len(rows[lam])]]

    def test_a_wrong_multiplicity_raises(self):
        # one too many: the chain predicts a rank below the true floor, and
        # the level that should have it does not. One too few: on TWO_J2,
        # whose last drop is 2, the level the chain stops at has rank 1, not
        # 2. A last drop of 1 hides one too few: the stopping level then has
        # the predicted rank, and only T^(s+1), which no chain with m forms,
        # would show it
        for M, lam, m in CASES:
            op = M.shifted(lam)
            assert _read_all(PowerChain(op, m)) == _read_all(PowerChain(op))
            with pytest.raises(ArithmeticError, match="predicted|floor"):
                _read_all(PowerChain(op, m + 1))
        op = TWO_J2.shifted(3)
        with pytest.raises(ArithmeticError, match="dimension 1, predicted 2"):
            _read_all(PowerChain(op, 3))
