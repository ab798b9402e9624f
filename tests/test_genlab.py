"""Generator templates: conformance, determinism, adversarial instances."""

import random
from fractions import Fraction

import pytest

from oracles import solve_aba_eq_aca_by_kronecker
from ratspec import genlab, kernels
from ratspec.genlab import (GenSpec, _solve_aba_eq_aca, conjugate,
                            default_idempotent, direct_sum, generate,
                            paper_example, random_matrix, random_unimodular,
                            rational_spectrum_instance)
from ratspec.intertwine import verify_sequence_equalities
from ratspec.invariants import profile, rational_eigenvalues
from ratspec.ratmat import Mat, charpoly, rank

CONFORMING = ("paper_ex1", "paper_ex2", "c_equals_b", "aba_eq_aca",
              "conjugated", "direct_sum")


class TestGenSpec:
    def test_rejects_unknown_template(self):
        with pytest.raises(ValueError):
            GenSpec(template="mystery")

    def test_rejects_trivial_idempotent_dim(self):
        with pytest.raises(ValueError):
            GenSpec(template="paper_ex1", block_dim=1)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            GenSpec(template="c_equals_b", entry_bound=0)

    def test_hard_dimension_cap(self):
        with pytest.raises(ValueError):
            GenSpec(template="c_equals_b", block_dim=25)
        with pytest.raises(ValueError):
            GenSpec(template="c_equals_b", block_dim=3, dim_y=30)
        GenSpec(template="c_equals_b", block_dim=24)  # at the cap is fine


class TestPaperExample:
    def test_block_shapes(self):
        t = paper_example(1, default_idempotent(2))
        assert t.dim_x == t.dim_y == 6
        t = paper_example(1, default_idempotent(3))
        assert t.dim_x == 9

    def test_postconditions_both_examples(self):
        for which in (1, 2):
            t = paper_example(which, default_idempotent(2))
            assert t.condition_holds
            assert t.aba != t.aca
            assert t.B @ t.A @ t.B != t.B @ t.B

    def test_examples_differ(self):
        t1 = paper_example(1, default_idempotent(2))
        t2 = paper_example(2, default_idempotent(2))
        assert t1.C != t2.C
        assert t1.A == t2.A and t1.B == t2.B

    def test_arbitrary_idempotents(self):
        # non-diagonal and rank-2 idempotents
        candidates = [
            Mat.from_rows([[1, 1], [0, 0]]),
            Mat.from_rows([[0, 0], [1, 1]]),
            Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
            Mat.from_rows([[Fraction(1, 2), Fraction(1, 2)],
                           [Fraction(1, 2), Fraction(1, 2)]]),
        ]
        for P in candidates:
            assert (P @ P) == P
            for which in (1, 2):
                t = paper_example(which, P)
                assert t.condition_holds and t.aba != t.aca

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            paper_example(1, Mat.from_rows([[1, 1], [1, 1]]))

    def test_rejects_trivial_idempotents(self):
        with pytest.raises(ValueError):
            paper_example(1, Mat.zero(2, 2))
        with pytest.raises(ValueError):
            paper_example(2, Mat.identity(2))

    def test_rejects_bad_which(self):
        with pytest.raises(ValueError):
            paper_example(3, default_idempotent(2))


class TestGenerate:
    @pytest.mark.parametrize("template", CONFORMING)
    def test_conforming_templates(self, template):
        for seed in range(4):
            t = generate(GenSpec(template=template, block_dim=3, seed=seed))
            assert t.condition_holds

    def test_deterministic_by_seed(self):
        a = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=7))
        b = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=7))
        c = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=8))
        assert (a.A, a.B, a.C) == (b.A, b.B, b.C)
        assert (a.A, a.B, a.C) != (c.A, c.B, c.C)

    def test_rectangular_dims(self):
        t = generate(GenSpec(template="c_equals_b", block_dim=3, seed=1, dim_y=5))
        assert (t.dim_x, t.dim_y) == (3, 5)

    def test_aba_eq_aca_generically_nontrivial(self):
        hits = 0
        for seed in range(8):
            t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=seed))
            assert t.aba == t.aca
            if t.B != t.C:
                hits += 1
        assert hits >= 6  # C = B only when the solution space degenerates

    def test_nonconforming_fails_condition(self):
        for seed in range(5):
            t = generate(GenSpec(template="nonconforming", block_dim=3, seed=seed))
            assert not t.condition_holds


# (dim_y, dim_x, rank of A): A = 0, invertible, rank-deficient square, both
# rectangular shapes rank-deficient and of full rank, and 1x1
SOLVER_SHAPES = [(3, 2, 0), (3, 3, 3), (4, 4, 2), (5, 3, 2), (2, 4, 1),
                 (4, 2, 2), (2, 4, 2), (1, 1, 0), (1, 1, 1)]


class TestSolveAbaEqAca:
    """The rank-one span sampler against the Kronecker-system oracle."""

    @pytest.mark.parametrize("dy,dx,r", SOLVER_SHAPES)
    def test_matches_kronecker_oracle(self, dy, dx, r):
        rng = random.Random(100 * dy + 10 * dx + r)
        for _ in range(3):
            # rank r by construction, entries in Z/3, B's denominators up to 3
            D = Mat(dy, dx, [Fraction(i + 1, 3) if i == j < r else Fraction(0)
                             for i in range(dy) for j in range(dx)])
            A = random_unimodular(rng, dy, 2) @ D @ random_unimodular(rng, dx, 2)
            assert rank(A) == r
            B = random_matrix(rng, dx, dy, 3)
            seed = rng.randrange(1 << 30)
            ours, theirs = random.Random(seed), random.Random(seed)
            C = _solve_aba_eq_aca(ours, A, B, 2)
            assert C == solve_aba_eq_aca_by_kronecker(theirs, A, B, 2)
            assert ours.getstate() == theirs.getstate()
            assert A @ C @ A == A @ B @ A


class TestDimensionCap:
    """Every template that samples ABA = ACA generates at block_dim 24."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(rng, A, B, bound):
            calls.append(A.rows * A.cols)
            return _solve_aba_eq_aca(rng, A, B, bound)

        monkeypatch.setattr(genlab, "_solve_aba_eq_aca", counted)
        return calls

    @pytest.mark.parametrize("template,seed,solved", [("aba_eq_aca", 3, 24 * 24),
                                                      ("conjugated", 5, 24 * 24),
                                                      ("direct_sum", 3, 12 * 12)])
    def test_generates_at_the_cap(self, solves, template, seed, solved):
        t = generate(GenSpec(template=template, block_dim=24, seed=seed,
                             entry_bound=2))
        assert (t.dim_x, t.dim_y) == (24, 24)
        assert t.condition_holds
        assert solves == [solved]

    def test_rational_spectrum_at_the_cap(self, solves):
        # Y is X padded by 1 or 2, so X stops at 22; seed 5 pads by 2
        t = generate(GenSpec(template="rational_spectrum", block_dim=22, seed=5,
                             entry_bound=2))
        assert (t.dim_x, t.dim_y) == (22, 24)
        assert t.condition_holds
        assert solves == [22 * t.dim_y]

    def test_no_operand_has_kronecker_shape(self, monkeypatch):
        shapes = []
        real = kernels.rref

        def spy(rows, cols, data):
            shapes.append((rows, cols))
            return real(rows, cols, data)

        monkeypatch.setattr(kernels, "rref", spy)
        t = generate(GenSpec(template="aba_eq_aca", block_dim=24, seed=3,
                             entry_bound=2))
        assert t.B != t.C
        assert shapes and all(rows != 24 * 24 for rows, _ in shapes)


class TestConjugation:
    def test_unimodular_is_invertible(self):
        rng = random.Random(2)
        for n in (1, 3, 5):
            U = random_unimodular(rng, n, 2)
            assert rank(U) == n

    def test_condition_invariant(self):
        rng = random.Random(4)
        base = generate(GenSpec(template="aba_eq_aca", block_dim=3, seed=3))
        U = random_unimodular(rng, base.dim_x, 1)
        V = random_unimodular(rng, base.dim_y, 1)
        t = conjugate(base, U, V)
        assert t.condition_holds

    def test_invariant_sequences_preserved(self):
        # similarity preserves every c_n, c'_n, k_n of BA - lam and AC - lam
        rng = random.Random(9)
        base = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=11))
        t = conjugate(base, random_unimodular(rng, base.dim_x, 1),
                      random_unimodular(rng, base.dim_y, 1))
        for lam in (Fraction(1), Fraction(1, 2)):
            pb = profile(base.ba.shifted(lam))
            pt = profile(t.ba.shifted(lam))
            assert (pb.c_seq, pb.cp_seq, pb.k_seq) == (pt.c_seq, pt.cp_seq, pt.k_seq)
            pb = profile(base.ac.shifted(lam))
            pt = profile(t.ac.shifted(lam))
            assert (pb.c_seq, pb.cp_seq, pb.k_seq) == (pt.c_seq, pt.cp_seq, pt.k_seq)

    def test_rejects_singular_conjugators(self):
        base = generate(GenSpec(template="c_equals_b", block_dim=2, seed=0))
        with pytest.raises(ValueError):
            conjugate(base, Mat.zero(2, 2), Mat.identity(2))


class TestDirectSum:
    def test_spectrum_is_union(self):
        t1 = generate(GenSpec(template="c_equals_b", block_dim=2, seed=1))
        t2 = generate(GenSpec(template="aba_eq_aca", block_dim=3, seed=2))
        t = direct_sum(t1, t2)
        assert t.condition_holds
        assert charpoly(t.ba) == charpoly(t1.ba) * charpoly(t2.ba)
        assert charpoly(t.ac) == charpoly(t1.ac) * charpoly(t2.ac)


class TestRationalSpectrum:
    def test_full_rational_splitting(self):
        for seed in range(6):
            t = generate(GenSpec(template="rational_spectrum", block_dim=3,
                                 seed=seed))
            assert t.condition_holds
            for M in (t.ac, t.ba):
                eigs = rational_eigenvalues(M)
                assert sum(m for _, m in eigs) == M.rows  # splits over Q

    def test_planted_eigenvalues_show_up(self):
        t = generate(GenSpec(template="rational_spectrum", block_dim=4, seed=3))
        ba_eigs = {lam for lam, _ in rational_eigenvalues(t.ba)}
        ac_eigs = {lam for lam, _ in rational_eigenvalues(t.ac)}
        assert (ba_eigs - {Fraction(0)}) == (ac_eigs - {Fraction(0)})

    def test_is_a_template_of_generate(self):
        # generate dispatches rational_spectrum to rational_spectrum_instance,
        # which ignores the template its spec names
        for n, seed, bound in ((1, 0, 5), (3, 4, 5), (5, 2, 2), (8, 1, 3)):
            got = generate(GenSpec(template="rational_spectrum", block_dim=n,
                                   seed=seed, entry_bound=bound))
            want = rational_spectrum_instance(GenSpec(template="c_equals_b",
                                                      block_dim=n, seed=seed,
                                                      entry_bound=bound))
            assert (got.A, got.B, got.C) == (want.A, want.B, want.C)

    def test_sequence_equalities_hold(self):
        t = generate(GenSpec(template="rational_spectrum", block_dim=3, seed=9))
        for lam, _ in rational_eigenvalues(t.ac):
            if lam != 0:
                assert verify_sequence_equalities(t, lam).all_equal
