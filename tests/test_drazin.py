"""Drazin inverse: frozen cases, an independent oracle, and the transfer."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ratspec import kernels
from ratspec.drazin import (_nilpotent_of_degree, drazin_inverse,
                            nilpotency_index, proof_identities, transfer)
from ratspec.genlab import (GenSpec, default_idempotent, generate,
                            paper_example, random_unimodular)
from ratspec.intertwine import ConditionNotSatisfied, OperatorTriple
from ratspec.invariants import PowerChain
from ratspec.ratmat import Mat, inverse, kernel, rref

J3 = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def mp_inverse(M: Mat) -> Mat:
    """Moore-Penrose inverse over Q via full-rank factorization.

    M = F G with F the pivot columns of M and G the nonzero RREF rows; then
    M^+ = G^T (G G^T)^-1 (F^T F)^-1 F^T (the Gram matrices are invertible
    over Q because the factors have full rank).
    """
    R, pivots = rref(M)
    r = len(pivots)
    if r == 0:
        return Mat.zero(M.cols, M.rows)
    F = Mat(M.rows, r, [M.entry(i, p) for i in range(M.rows) for p in pivots])
    G = Mat(r, M.cols, [R.entry(i, j) for i in range(r) for j in range(M.cols)])
    ggt = inverse(G @ G.transpose())
    ftf = inverse(F.transpose() @ F)
    assert ggt is not None and ftf is not None
    return G.transpose() @ ggt @ ftf @ F.transpose()


def drazin_oracle(T: Mat) -> Mat:
    """Independent Drazin inverse: T^D = T^l X T^l with X a {1}-inverse of
    T^(2l+1) and l = dim (always at least the index)."""
    n = T.rows
    return (T ** n) @ mp_inverse(T ** (2 * n + 1)) @ (T ** n)


def random_square(rng, n, bound=3):
    return Mat(n, n, [Fraction(rng.randint(-bound, bound), rng.randint(1, 2))
                      for _ in range(n * n)])


class TestMpInverse:
    def test_penrose_identities(self):
        rng = random.Random(11)
        for _ in range(10):
            M = random_square(rng, rng.randint(1, 4))
            X = mp_inverse(M)
            assert M @ X @ M == M
            assert X @ M @ X == X


def nilpotency_oracle(M: Mat) -> int | None:
    """Smallest k >= 1 with M^k = 0 by multiplying out M, M^2, ..., M^dim."""
    if M.rows == 0:
        return 0
    power = Mat.identity(M.rows)
    for k in range(1, M.rows + 1):
        power = power @ M
        if power.is_zero():
            return k
    return None


def jordan_block(lam, n: int) -> Mat:
    return Mat(n, n, [Fraction(lam) if i == j else Fraction(int(j == i + 1))
                      for i in range(n) for j in range(n)])


class TestNilpotencyIndex:
    def test_cases(self):
        assert nilpotency_index(J3) == 3
        assert nilpotency_index(Mat.zero(2, 2)) == 1
        assert nilpotency_index(Mat.identity(2)) is None
        assert nilpotency_index(Mat.zero(0, 0)) == 0

    def test_matches_power_oracle(self):
        cases = [Mat.zero(0, 0), Mat.zero(1, 1), Mat.zero(3, 3),
                 Mat.identity(1), Mat.identity(3)]
        cases += [jordan_block(lam, n) for lam in (0, 1, -2) for n in (1, 2, 4)]
        rng = random.Random(29)
        nilpotent = []
        for _ in range(12):
            # P N P^-1 with N strictly upper triangular: nilpotent, any index
            n = rng.randint(1, 5)
            N = Mat(n, n, [Fraction(rng.randint(-2, 2) if j > i else 0)
                           for i in range(n) for j in range(n)])
            P = random_square(rng, n)
            if inverse(P) is not None:
                nilpotent.append(P @ N @ inverse(P))
            cases.append(random_square(rng, n))
        for M in cases + nilpotent:
            assert nilpotency_index(M) == nilpotency_oracle(M), M
        assert all(nilpotency_oracle(M) is not None for M in nilpotent)
        assert max(nilpotency_oracle(M) for M in nilpotent) >= 3


class TestNilpotencyDegree:
    def test_power_test_agrees_with_the_index(self):
        # _nilpotent_of_degree(M, d) says M^(d-1) != 0 and M^d = 0, with
        # d <= 1 meaning M = 0 (index 0 or 1)
        cases = [Mat.zero(0, 0), Mat.zero(1, 1), Mat.zero(3, 3),
                 Mat.identity(2), jordan_block(2, 3), jordan_block(-1, 1)]
        cases += [jordan_block(0, k) for k in range(1, 6)]
        for M in cases:
            ni = nilpotency_index(M)
            for d in range(5):
                expected = ni is not None and max(ni, 1) == max(d, 1)
                assert _nilpotent_of_degree(M, d) == expected, (M, d)


def _kernel_calls(monkeypatch, f, *args):
    """(f(*args), {kernel: number of calls made by f})."""
    calls = {"rref": 0, "matmul": 0}
    for name in calls:
        real = getattr(kernels, name)

        def counted(*kargs, name=name, real=real):
            calls[name] += 1
            return real(*kargs)

        monkeypatch.setattr(kernels, name, counted)
    result = f(*args)
    monkeypatch.undo()
    return result, calls


class TestNilpotencyByProducts:
    """Nilpotency is decided by multiplying powers out, with no row reduction."""

    def test_nilpotent_inputs_take_index_minus_one_products(self, monkeypatch):
        rng = random.Random(5)
        n = 6
        # N strictly upper triangular with a nonzero superdiagonal: index n
        N = Mat.from_ints(n, n, [(1 if j == i + 1 else rng.randint(-2, 2))
                                 if j > i else 0
                                 for i in range(n) for j in range(n)])
        P = random_unimodular(rng, n, 2)
        cases = [(J3, 3), (P @ N @ inverse(P), n), (jordan_block(0, 24), 24),
                 (Mat.zero(4, 4), 1)]
        for M, index in cases:
            assert nilpotency_oracle(M) == index
            for f, args, want in ((nilpotency_index, (M,), index),
                                  (_nilpotent_of_degree, (M, index), True)):
                got, calls = _kernel_calls(monkeypatch, f, *args)
                assert got == want
                assert calls["rref"] == 0 and calls["matmul"] <= index - 1, f

    def test_a_non_nilpotent_input_stops_at_its_dimension(self, monkeypatch):
        M = random_unimodular(random.Random(8), 24, 2)
        assert nilpotency_oracle(M) is None
        for f, args, want in ((nilpotency_index, (M,), None),
                              (_nilpotent_of_degree, (M, 24), False)):
            got, calls = _kernel_calls(monkeypatch, f, *args)
            assert got is want
            assert calls["rref"] == 0 and calls["matmul"] <= 24, f


class TestDrazinInverse:
    def test_invertible(self):
        T = Mat.from_rows([[2, 1], [1, 1]])
        res = drazin_inverse(T)
        assert res.index == 0
        assert res.inverse == inverse(T)
        assert res.nilpotent_part.is_zero()
        assert res.core_part == T

    def test_nilpotent(self):
        res = drazin_inverse(J3)
        assert res.index == 3
        assert res.inverse.is_zero()
        assert res.core_part.is_zero()
        assert res.nilpotent_part == J3

    def test_mixed_block(self):
        # diag(2, J_2): core inverts the 2, nilpotent part is the J_2 block
        T = Mat.from_rows([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
        res = drazin_inverse(T)
        assert res.index == 2
        assert res.inverse == Mat.from_rows(
            [[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_defining_identities_random(self):
        rng = random.Random(23)
        for _ in range(12):
            T = random_square(rng, rng.randint(1, 5))
            res = drazin_inverse(T)
            S = res.inverse
            assert T @ S == S @ T
            assert S @ T @ S == S
            resid = T @ T @ S - T
            if res.index <= 1:
                assert resid.is_zero()
            else:
                assert (resid ** res.index).is_zero()
                assert not (resid ** (res.index - 1)).is_zero()

    def test_core_nilpotent_split(self):
        rng = random.Random(3)
        for _ in range(8):
            T = random_square(rng, rng.randint(1, 4))
            res = drazin_inverse(T)
            assert res.core_part + res.nilpotent_part == T
            assert res.core_part @ res.nilpotent_part == \
                res.nilpotent_part @ res.core_part
            assert (res.core_part @ res.nilpotent_part).is_zero()
            # the core is Drazin invertible with index <= 1
            assert drazin_inverse(res.core_part).index <= 1
            ni = nilpotency_index(res.nilpotent_part)
            assert ni is not None and ni <= max(res.index, 1)
            # the core part is T on R(T^d), which the columns of T^d span,
            # and zero on N(T^d)
            P = T ** res.index
            assert res.core_part @ P == T @ P
            assert (res.core_part @ kernel(P).basis_matrix().transpose()).is_zero()

    def test_matches_independent_oracle(self):
        rng = random.Random(41)
        for _ in range(10):
            T = random_square(rng, rng.randint(1, 4), bound=2)
            assert drazin_inverse(T).inverse == drazin_oracle(T)

    def test_index_equals_ascent(self):
        from ratspec.invariants import profile
        rng = random.Random(8)
        for _ in range(8):
            T = random_square(rng, rng.randint(1, 4))
            assert drazin_inverse(T).index == profile(T).asc

    def test_power_compatibility(self):
        rng = random.Random(19)
        for _ in range(6):
            T = random_square(rng, rng.randint(1, 4), bound=2)
            S = drazin_inverse(T).inverse
            for k in (1, 2, 3):
                assert drazin_inverse(T ** k).inverse == S ** k

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            drazin_inverse(Mat.zero(2, 3))


def with_index(rng, core_dim, nil_dim):
    """P diag(K, J) P^-1 with K invertible and J one nilpotent Jordan block
    of size nil_dim, so that the index is nil_dim and the core has rank
    core_dim."""
    n = core_dim + nil_dim
    while True:
        K = random_square(rng, core_dim, bound=2)
        P = random_square(rng, n, bound=2)
        Pi = inverse(P)
        if Pi is not None and (core_dim == 0 or inverse(K) is not None):
            break
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(core_dim):
        for j in range(core_dim):
            rows[i][j] = K.entry(i, j)
    for i in range(core_dim, n - 1):
        rows[i][i + 1] = Fraction(1)
    return P @ Mat.from_rows(rows) @ Pi


class TestCoreBlock:
    @pytest.mark.parametrize("core_dim,nil_dim", [
        (0, 0), (3, 0), (2, 1), (3, 2), (1, 3), (0, 1), (0, 3), (2, 3)])
    def test_matches_independent_oracle(self, core_dim, nil_dim):
        # index 0..3, the nilpotent T with an empty core (r = 0) and the 0x0
        # matrix among them
        rng = random.Random(7 * core_dim + nil_dim)
        for _ in range(3):
            T = with_index(rng, core_dim, nil_dim)
            res = drazin_inverse(T)
            assert res.index == nil_dim
            assert res.inverse == drazin_oracle(T)
            assert res.projection == T @ res.inverse
            assert res.core_part == T @ T @ res.inverse

    def test_only_the_core_block_is_inverted(self, monkeypatch):
        # one r x r inverse at index >= 1, with r = rank T^d; T itself at
        # index 0; no kernel of T^d is formed
        from ratspec import drazin, invariants
        shapes, kernels = [], []
        real_inverse, real_kernel = drazin.inverse, invariants.kernel

        def recorded_inverse(M):
            shapes.append((M.rows, M.cols))
            return real_inverse(M)

        def recorded_kernel(M):
            kernels.append(M)
            return real_kernel(M)

        monkeypatch.setattr(drazin, "inverse", recorded_inverse)
        monkeypatch.setattr(invariants, "kernel", recorded_kernel)
        rng = random.Random(3)
        for core_dim, nil_dim in ((3, 0), (2, 2), (0, 2)):
            shapes.clear()
            drazin_inverse(with_index(rng, core_dim, nil_dim))
            assert shapes == [(core_dim, core_dim)]
        assert kernels == []


def drazin_by_rref_rows(T: Mat) -> Mat:
    """S = U (W T U)^-1 W with W the nonzero rows of rref(T^d), d = asc(T)."""
    chain = PowerChain(T)
    d = chain.stable
    if d == 0:
        return inverse(T)
    U = chain.image(d).basis_matrix().transpose()
    R, pivots = rref(chain.stable_power())
    W = R.submatrix(range(len(pivots)), range(T.cols))
    return U @ inverse(W @ T @ U) @ W


class TestRowsOfThePower:
    """W is taken from the rows of T^d, with no row reduction of T^d."""

    def test_matches_the_row_reduced_rows(self):
        rng = random.Random(17)
        cases = [with_index(rng, c, n) for c, n in ((2, 1), (3, 2), (1, 3), (0, 2))]
        cases += [random_square(rng, rng.randint(1, 5)) for _ in range(10)]
        for T in cases:
            assert drazin_inverse(T).inverse == drazin_by_rref_rows(T)

    def test_transfer_matches_the_row_reduced_rows_of_ba(self):
        triples = [paper_example(w, default_idempotent(2)) for w in (1, 2)]
        triples += [generate(GenSpec(template=which, block_dim=4, seed=5))
                    for which in ("aba_eq_aca", "c_equals_b", "rational_spectrum")]
        for t in triples:
            cand = transfer(t).candidate
            assert cand == drazin_inverse(t.ba).inverse == drazin_by_rref_rows(t.ba)
            assert transfer(t).s_ac.inverse == drazin_by_rref_rows(t.ac)

    def test_no_row_reduction_past_the_power_chain(self, monkeypatch):
        rng = random.Random(4)
        for core_dim, nil_dim in ((3, 0), (2, 2), (0, 2), (1, 3)):
            T = with_index(rng, core_dim, nil_dim)
            _, chain_calls = _kernel_calls(monkeypatch, PowerChain, T)
            _, calls = _kernel_calls(monkeypatch, drazin_inverse, T)
            # the one further reduction inverts the core block, which is
            # empty when the core is
            assert calls["rref"] == chain_calls["rref"] + (core_dim > 0)


class TestTransfer:
    def test_invertible_classical_case(self):
        # C = B with BA invertible: S = (AC)^-1 and T = (BA)^-1
        A = Mat.from_rows([[1, 0], [0, 1], [1, 1]])
        B = Mat.from_rows([[1, 0, 0], [0, 1, 0]])
        t = OperatorTriple(A, B, B)
        rep = transfer(t)
        assert rep.verified and rep.matches_direct
        assert rep.s_ac.index <= 1
        assert rep.candidate == inverse(t.ba) == drazin_inverse(t.ba).inverse

    def test_paper_examples(self):
        for which in (1, 2):
            t = paper_example(which, default_idempotent(2))
            rep = transfer(t)
            assert rep.verified
            assert rep.matches_direct
            assert rep.candidate == drazin_inverse(t.ba).inverse

    def test_generated_mixed_spectrum(self):
        t = generate(GenSpec(template="rational_spectrum", block_dim=4, seed=13))
        rep = transfer(t)
        assert rep.verified and rep.matches_direct
        assert rep.candidate == drazin_inverse(t.ba).inverse

    def test_matches_direct_fails_on_a_perturbed_candidate(self, monkeypatch):
        # a wrong S for AC gives a wrong candidate; matches_direct, read off
        # the identities, still says whether it is the direct inverse of BA
        from ratspec import drazin
        real = drazin.drazin_inverse
        perturbations = (lambda S: S.scaled(2),
                         lambda S: S + Mat.identity(S.rows))
        triples = [paper_example(w, default_idempotent(2)) for w in (1, 2)]
        triples.append(generate(GenSpec(template="rational_spectrum",
                                        block_dim=3, seed=1)))
        for perturb in perturbations:
            def perturbed(T, perturb=perturb):
                res = real(T)
                return dataclasses.replace(res, inverse=perturb(res.inverse))

            monkeypatch.setattr(drazin, "drazin_inverse", perturbed)
            for t in triples:
                rep = transfer(t)
                assert not rep.matches_direct
                assert rep.candidate != real(t.ba).inverse

    def test_reverse_direction(self):
        # (A^T, C^T, B^T) also satisfies the condition and swaps the roles of
        # AC and BA, so the mirrored construction A S'^2 C with S' a Drazin
        # inverse of BA must yield the Drazin inverse of AC
        for seed in (1, 5, 13):
            t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=seed))
            mirrored = OperatorTriple(t.A.transpose(), t.C.transpose(),
                                      t.B.transpose())
            assert mirrored.condition_holds
            s_ba = drazin_inverse(t.ba).inverse
            cand = t.A @ (s_ba @ s_ba) @ t.C
            assert cand == drazin_inverse(t.ac).inverse

    def test_residual_index_matches_power_oracle(self):
        triples = [paper_example(w, default_idempotent(2)) for w in (1, 2)]
        triples += [generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=s))
                    for s in (1, 5, 13)]
        for t in triples:
            rep = transfer(t)
            resid = t.ba @ t.ba @ rep.candidate - t.ba
            assert rep.residual_index == nilpotency_oracle(resid)
            assert rep.residual_nilpotent

    def test_requires_condition(self):
        bad = generate(GenSpec(template="nonconforming", block_dim=3, seed=7))
        with pytest.raises(ConditionNotSatisfied):
            transfer(bad)


class TestProofIdentities:
    def test_invertible_all_trivial(self):
        A = Mat.identity(2)
        B = Mat.from_rows([[2, 0], [1, 1]])
        t = OperatorTriple(A, B, B)
        rep = proof_identities(t, transfer(t))
        assert rep.commutation and rep.residual_is_bpa and rep.cycle
        assert rep.pac_matches and rep.pac_nilpotent
        assert rep.index == 0

    def test_paper_examples(self):
        for which in (1, 2):
            t = paper_example(which, default_idempotent(2))
            rep = proof_identities(t, transfer(t))
            assert rep.commutation and rep.residual_is_bpa
            assert rep.cycle and rep.pac_matches and rep.pac_nilpotent

    def test_generated(self):
        for seed in (2, 9):
            t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=seed))
            rep = proof_identities(t, transfer(t))
            assert rep.commutation and rep.residual_is_bpa
            assert rep.cycle and rep.pac_matches and rep.pac_nilpotent

    def test_requires_condition(self):
        bad = generate(GenSpec(template="nonconforming", block_dim=3, seed=11))
        good = generate(GenSpec(template="aba_eq_aca", block_dim=3, seed=11))
        with pytest.raises(ConditionNotSatisfied):
            proof_identities(bad, transfer(good))

    def test_shared_products_give_the_written_out_flags(self):
        # with a wrong S the identities can fail; every flag must still be
        # the one of the products written out in full. The Drazin result
        # carries AC S and (AC)^2 S with its S, so a wrong one carries them
        # for the wrong S
        rng = random.Random(5)
        for which in (1, 2):
            t = paper_example(which, default_idempotent(2))
            tr = transfer(t)
            for S in (tr.s_ac.inverse, random_square(rng, t.dim_y)):
                wrong = dataclasses.replace(
                    tr, s_ac=dataclasses.replace(tr.s_ac, inverse=S,
                                                 projection=t.ac @ S,
                                                 core_part=t.ac @ t.ac @ S))
                rep = proof_identities(t, wrong)
                ac, A, B, C = t.ac, t.A, t.B, t.C
                pa = (ac @ S).shifted(1) @ A
                assert rep.commutation == (ac @ S == S @ ac)
                assert rep.cycle == (pa @ B @ pa @ B @ pa == pa @ B @ pa @ C @ pa
                                     == pa @ C @ pa @ B @ pa == pa @ C @ pa @ C @ pa)
                assert rep.pac_matches == (pa @ C == ac @ ac @ S - ac)

    def test_transfer_flags_are_the_written_out_ones(self):
        for which in (1, 2):
            t = paper_example(which, default_idempotent(2))
            tr = transfer(t)
            cand, ba = tr.candidate, t.ba
            assert tr.commutes == (cand @ ba == ba @ cand)
            assert tr.inner == (cand @ ba @ cand == cand)
            assert tr.residual_index == nilpotency_index(ba @ ba @ cand - ba)

    def test_cycle_shortcut_agrees_with_the_four_words(self):
        # paper_ex1/ex2 have PA.B != PA.C; the hand triple has A(C - B) = 0,
        # so PA.B == PA.C with C != B, and the four words are not formed
        A = Mat.from_rows([[1, 0], [0, 0]])
        B = Mat.from_rows([[1, 2], [3, 4]])
        hand = OperatorTriple(A, B, B + Mat.from_rows([[0, 0], [1, 2]]))
        cases = [paper_example(w, default_idempotent(2)) for w in (1, 2)]
        cases += [hand, generate(GenSpec(template="c_equals_b", block_dim=4,
                                         seed=3))]
        shortcut = []
        for t in cases:
            tr = transfer(t)
            pa = tr.s_ac.projection.shifted(1) @ t.A
            B, C = t.B, t.C
            words = (pa @ B @ pa @ B @ pa, pa @ B @ pa @ C @ pa,
                     pa @ C @ pa @ B @ pa, pa @ C @ pa @ C @ pa)
            assert proof_identities(t, tr).cycle == (len(set(words)) == 1)
            shortcut.append(pa @ B == pa @ C)
        assert shortcut == [False, False, True, True]
        assert hand.C != hand.B and hand.condition_holds

    def test_pac_nilpotent_agrees_with_the_power_test(self):
        triples = [paper_example(w, default_idempotent(2)) for w in (1, 2)]
        triples += [generate(GenSpec(template=which, block_dim=4, seed=seed))
                    for which in ("aba_eq_aca", "c_equals_b", "conjugated",
                                  "rational_spectrum") for seed in (1, 6)]
        indices = []
        for t in triples:
            tr = transfer(t)
            rep = proof_identities(t, tr)
            pac = tr.s_ac.projection.shifted(1) @ t.A @ t.C
            assert rep.pac_nilpotent == _nilpotent_of_degree(pac, rep.index)
            assert rep.pac_matches and rep.pac_nilpotent
            indices.append(rep.index)
        assert max(indices) >= 2

    def test_shared_products_equal_the_ones_formed_afresh(self):
        for w in (1, 2):
            t = paper_example(w, default_idempotent(2))
            tr = transfer(t)
            S = tr.s_ac.inverse
            assert tr.s_ac.st == S @ t.ac == tr.s_ac.projection
            assert tr.cand_ba == tr.candidate @ t.ba

    def test_nilpotency_non_square_rejected(self):
        with pytest.raises(ValueError):
            nilpotency_index(Mat.zero(2, 3))
