"""The intertwining condition and every verifier built on it."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrices
from oracles import (coprime, default_probes_by_two_searches,
                     injective_by_preimage_in_ambient, power_identity,
                     power_traces, residuals_by_four_products)
from ratspec import kernels
from ratspec.cli import INCLUSION_QS
from ratspec.genlab import (TEMPLATES, GenSpec, default_idempotent, generate,
                            paper_example)
from ratspec.intertwine import (ConditionNotSatisfied, MapCache, OperatorTriple,
                                check_condition, default_probes, gamma_map,
                                inclusion_lemma, induced_quotient_map,
                                nonzero_charpoly_match,
                                phi_map, psi_map, scaled,
                                shift_polys, verify_sequence_equalities,
                                verify_theorem)
from ratspec.invariants import PowerChain, profile, sigma_memberships
from ratspec.ratmat import (Mat, Poly, Subspace, block, image, kernel, map_subspace,
                            poly_eval_mat, rank, solve)

P2 = default_idempotent(2)
X_MINUS_1 = Poly([-1, 1])
EX1 = paper_example(1, P2)
EX2 = paper_example(2, P2)


def conforming_samples():
    yield EX1
    yield EX2
    yield generate(GenSpec(template="c_equals_b", block_dim=3, seed=1, dim_y=4))
    yield generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=2))
    yield generate(GenSpec(template="conjugated", block_dim=3, seed=3))
    yield generate(GenSpec(template="direct_sum", block_dim=5, seed=4))


def scale_target_samples():
    """The scale-target documents: dim 24 (rational_spectrum: 22, whose Y
    is wider) at seed 3, entry bound 2."""
    for template in ("c_equals_b", "aba_eq_aca", "conjugated", "direct_sum",
                     "rational_spectrum"):
        dim = 22 if template == "rational_spectrum" else 24
        yield generate(GenSpec(template=template, block_dim=dim, seed=3,
                               entry_bound=2))


def _diag(*entries):
    return Mat.from_rows([[x if i == j else 0 for j in range(len(entries))]
                          for i, x in enumerate(entries)])


def _record_charpolys(monkeypatch):
    """The operators whose charpolys the triple computes from here on."""
    from ratspec import intertwine
    from ratspec.ratmat import charpoly
    built = []

    def recorded(M):
        built.append(M)
        return charpoly(M)

    monkeypatch.setattr(intertwine, "charpoly", recorded)
    return built


def with_e2_raised(p):
    """The monic p with 1 added to e2, the coefficient of x^(n-2): Tr(T) =
    e1 is kept and Tr(T^2) = e1^2 - 2 e2 falls by 2."""
    num = list(p.num)
    num[-3] += p.den
    return Poly.from_ints(num, p.den)


class TestCondition:
    def test_c_equals_b_always_conforms(self):
        rng = random.Random(0)
        for _ in range(5):
            A = Mat(3, 2, [Fraction(rng.randint(-3, 3)) for _ in range(6)])
            B = Mat(2, 3, [Fraction(rng.randint(-3, 3)) for _ in range(6)])
            t = OperatorTriple(A, B, B)
            rep = check_condition(t)
            assert rep.holds and all(m.is_zero() for m in rep.residuals)

    def test_aba_eq_aca_implies_condition(self):
        t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=9))
        assert t.aba == t.aca or check_condition(t).holds
        assert check_condition(t).holds

    def test_paper_examples(self):
        for t in (EX1, EX2):
            assert check_condition(t).holds
            assert t.aba != t.aca
            assert t.B @ t.A @ t.B != t.B @ t.B

    def test_residuals_nonzero_when_violated(self):
        t = generate(GenSpec(template="nonconforming", block_dim=3, seed=1))
        rep = check_condition(t)
        assert not rep.holds
        assert any(not m.is_zero() for m in rep.residuals)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorTriple(Mat.zero(3, 2), Mat.zero(2, 3), Mat.zero(3, 2))
        with pytest.raises(ValueError):
            OperatorTriple(Mat.zero(3, 2), Mat.zero(3, 2), Mat.zero(3, 2))

    def test_repr_shows_dims_and_state(self):
        assert "dim_x=6" in repr(EX1) and "condition=holds" in repr(EX1)
        bad = generate(GenSpec(template="nonconforming", block_dim=3, seed=1))
        assert "condition=fails" in repr(bad)


#: sparse small integers, so that C - B, CA - BA and ACA - ABA often vanish
SPARSE_INTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])


def _int_matrix(data, rows, cols):
    return Mat.from_ints(rows, cols, data.draw(
        st.lists(SPARSE_INTS, min_size=rows * cols, max_size=rows * cols)))


def _count_products(monkeypatch, make):
    """(make(), the number of kernel products it formed)."""
    calls = []
    real = kernels.matmul

    def recorded(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(kernels, "matmul", recorded)
        out = make()
    return out, len(calls)


class TestResiduals:
    """The residuals by distributivity against the four products formed afresh."""

    @settings(max_examples=150)
    @given(st.data())
    def test_match_the_four_product_oracle(self, data):
        dx = data.draw(st.integers(1, 4))
        dy = dx if data.draw(st.booleans()) else data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            # rank-deficient A, through a narrower middle space
            r = data.draw(st.integers(0, min(dx, dy) - 1))
            A = _int_matrix(data, dy, r) @ _int_matrix(data, r, dx)
        else:
            A = _int_matrix(data, dy, dx)
        B = _int_matrix(data, dx, dy)
        C = B + _int_matrix(data, dx, dy)
        t = OperatorTriple(A, B, C)
        assert t.residuals == residuals_by_four_products(A, B, C)
        assert t.condition_holds == all(m.is_zero() for m in t.residuals)
        assert t.ab == A @ B
        assert (t.ba, t.ac, t.ca) == (B @ A, A @ C, C @ A)
        assert (t.aba, t.aca) == (A @ B @ A, A @ C @ A)

    @pytest.mark.parametrize("a, b, c, zero", [
        ((-1, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0), (False, False, True)),
        ((0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 0, 2), (False, True, False)),
        ((0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 0), (False, True, True)),
        ((0, -1, -1, 0), (0, 0, 0, -1), (0, 0, 1, 0), (True, False, False)),
        ((-1, 0, 0, -1), (-1, 0, 0, 0), (-1, 0, -1, 0), (True, False, True)),
        ((-1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), (True, True, False)),
    ])
    def test_partially_vanishing_residuals(self, a, b, c, zero):
        A, B, C = (Mat.from_ints(2, 2, m) for m in (a, b, c))
        t = OperatorTriple(A, B, C)
        assert t.residuals == residuals_by_four_products(A, B, C)
        assert tuple(m.is_zero() for m in t.residuals) == zero

    def test_e_zero_with_d_nonzero(self):
        # A(B - C) = 0 gives ABA = ACA while BA != CA: r1 = ABA D is formed
        # and r2 = -r1, r3 = r1 with no further product
        A = Mat.from_rows([[1, 0], [0, 0]])
        B = Mat.from_rows([[1, 2], [3, 4]])
        C = B + Mat.from_rows([[0, 0], [1, 2]])
        t = OperatorTriple(A, B, C)
        assert t.residuals == residuals_by_four_products(A, B, C)
        assert t.aba == t.aca and t.ba != t.ca and t.condition_holds

    @pytest.mark.parametrize("which", ["c_equals_b", "aba_eq_aca", "paper_ex1",
                                       "paper_ex2", "nonconforming"])
    def test_fixed_cases(self, which):
        t = generate(GenSpec(template=which, block_dim=4, seed=2))
        assert t.residuals == residuals_by_four_products(t.A, t.B, t.C)
        assert t.ab == t.A @ t.B

    @pytest.mark.parametrize("which, products", [("c_equals_b", 2),
                                                 ("aba_eq_aca", 6),
                                                 ("paper_ex1", 8),
                                                 ("nonconforming", 8)])
    def test_constructor_products(self, which, products, monkeypatch):
        # 2 when C == B (ABA = ACA on its first read), 6 when ABA = ACA
        # (E = 0), 8 otherwise
        g = generate(GenSpec(template=which, block_dim=4, seed=2))
        t, calls = _count_products(monkeypatch,
                                   lambda: OperatorTriple(g.A, g.B, g.C))
        assert calls == products
        assert (t.C == t.B) == (which == "c_equals_b")
        assert (t.aba == t.aca) == (which in ("c_equals_b", "aba_eq_aca"))
        # AB is formed on the first read, and is AC itself when C == B
        ab, calls = _count_products(monkeypatch, lambda: t.ab)
        assert ab == g.A @ g.B and calls == (0 if which == "c_equals_b" else 1)
        assert _count_products(monkeypatch, lambda: t.ab) == (ab, 0)

    @pytest.mark.parametrize("which", TEMPLATES)
    def test_aba_and_aca_are_the_products(self, which):
        # formed at construction or, when CA = BA, on the first read
        t = generate(GenSpec(template=which, block_dim=3, seed=0))
        assert t.aba == t.A @ t.ba and t.aca == t.A @ t.ca

    def test_ca_equal_to_ba_forms_aba_on_the_first_read(self, monkeypatch):
        # C == B, and C != B with (C - B)A = 0: ABA = ACA is one product,
        # formed on the first read of either
        A = Mat.from_rows([[1, 0], [0, 0]])
        B = Mat.from_rows([[1, 2], [3, 4]])
        for C, products in ((B, 2), (B + Mat.from_rows([[0, 1], [0, 2]]), 3)):
            t, calls = _count_products(monkeypatch, lambda: OperatorTriple(A, B, C))
            assert calls == products and t.ca == t.ba and t.condition_holds
            aca, calls = _count_products(monkeypatch, lambda: t.aca)
            assert aca == A @ B @ A and calls == 1
            assert _count_products(monkeypatch, lambda: t.aba) == (aca, 0)
            assert t.aba is t.aca

    def test_c_equals_b_shares_the_chains_at_one(self):
        # the chains of CA - 1 and AB - 1 are those at 1, invertible (the
        # generated triple) or singular (the shear, with 1 an eigenvalue),
        # and they are the chains of the real operators
        i3 = Mat.identity(3)
        shear = i3 + Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        for t in (generate(GenSpec(template="c_equals_b", block_dim=3, seed=1,
                                   dim_y=4)),
                  OperatorTriple(i3, shear, shear)):
            ca_ab = (t.chain("ca", X_MINUS_1), t.chain("ab", X_MINUS_1))
            assert all(x is y for x, y in zip(ca_ab, t.chains(1)))
            for chain, T in zip(ca_ab, (t.ca, t.ab)):
                oracle = PowerChain(T.shifted(1))
                assert chain.stable == oracle.stable
                assert profile(chain) == profile(oracle)

    def test_a_second_ca_ab_chains_evaluates_no_charpoly(self, monkeypatch):
        # a second request at a lambda evaluates no charpoly; a second
        # chain of CA - 1 and AB - 1 hands back the same objects, looked up
        # by (T, q) before any decision, so it decides nothing again and
        # evaluates no polynomial of a matrix
        from ratspec import intertwine
        t = generate(GenSpec(template="aba_eq_aca", block_dim=3, seed=1))
        first = (t.chain("ca", X_MINUS_1), t.chain("ab", X_MINUS_1))
        pair = t.chains(1)
        decided, matrices = [], []
        real = intertwine.hyper_kernel_dim
        monkeypatch.setattr(intertwine, "hyper_kernel_dim",
                            lambda p, q: decided.append(q) or real(p, q))
        monkeypatch.setattr(intertwine, "poly_eval_mat",
                            lambda q, T: matrices.append(T))
        assert t.chains(1) is pair and decided == []
        again = (t.chain("ca", X_MINUS_1), t.chain("ab", X_MINUS_1))
        assert all(x is y for x, y in zip(again, first))
        assert decided == [] and matrices == []

    def test_equal_operators_share_one_chain(self):
        # (B - C)A = 0: CA = BA, so CA - 1 shares BA - 1's chain; AB != AC
        A = Mat.from_rows([[1, 0], [0, 0]])
        B = Mat.from_rows([[1, 2], [3, 4]])
        t = OperatorTriple(A, B, B + Mat.from_rows([[0, 1], [0, 2]]))
        (ba, ac) = t.chains(1)
        ca, ab = t.chain("ca", X_MINUS_1), t.chain("ab", X_MINUS_1)
        assert ca is ba and ab is not ac
        assert ab.T == t.ab.shifted(1) and ac.T == t.ac.shifted(1)


class TestScaling:
    def test_scaled_preserves_condition(self):
        for lam in (1, 2, Fraction(-3, 7)):
            s = scaled(EX1, lam)
            assert s.condition_holds

    def test_scaled_rejects_zero(self):
        with pytest.raises(ValueError):
            scaled(EX1, 0)
        with pytest.raises(ValueError):
            EX1.chains(0)

    def test_chains_match_shifted_operator(self):
        # kernels/ranges of (BA - lam)^n equal those of (BA/lam - 1)^n, and
        # the triple's chains at lam are those of BA - lam and AC - lam
        from ratspec.ratmat import image, kernel
        lam = Fraction(2)
        s = scaled(EX1, lam)
        ba, ac = EX1.chains(lam)
        assert (ba.stable, ac.stable) == (PowerChain(EX1.ba.shifted(lam)).stable,
                                          PowerChain(EX1.ac.shifted(lam)).stable)
        for n in range(3):
            lhs = (EX1.ba.shifted(lam)) ** n
            rhs = (s.ba.shifted(1)) ** n
            assert kernel(lhs) == kernel(rhs) == ba.kernel(n)
            assert image(lhs) == image(rhs) == ba.image(n)
            rhs = (s.ac.shifted(1)) ** n
            assert (kernel(rhs), image(rhs)) == (ac.kernel(n), ac.image(n))

    def test_sequences_invariant_under_triple_scaling(self):
        # scaling A by mu moves lambda to lambda/mu with identical sequences
        # on both the BA and the AC side
        mu = Fraction(3, 2)
        lam = Fraction(1)
        s = scaled(EX1, mu)  # A/mu
        left = verify_sequence_equalities(EX1, lam, 4)
        right = verify_sequence_equalities(s, lam / mu, 4)
        for a, b in zip(left.rows, right.rows):
            assert (a.c_ba, a.cp_ba, a.k_ba) == (b.c_ba, b.cp_ba, b.k_ba)
            assert (a.c_ac, a.cp_ac, a.k_ac) == (b.c_ac, b.cp_ac, b.k_ac)


class TestPowerIdentity:
    def test_k_zero_trivial(self):
        assert power_identity(EX1, 0)

    def test_example_small_k(self):
        assert power_identity(EX1, 1)
        assert power_identity(EX2, 1)

    def test_generated_large_k(self):
        t = generate(GenSpec(template="aba_eq_aca", block_dim=3, seed=12))
        assert power_identity(t, 4)

    def test_requires_condition(self):
        bad = generate(GenSpec(template="nonconforming", block_dim=3, seed=2))
        with pytest.raises(ConditionNotSatisfied):
            power_identity(bad, 1)


class TestInclusionLemma:
    def test_constant_poly_trivial(self):
        rep = inclusion_lemma(EX1, Poly([1]))
        assert rep.all_hold

    def test_power_polys_on_examples(self):
        for n in (1, 2, 3, 4):
            Q = Poly([0] * n + [1])  # x^n, so Q(T - I) = (T - I)^n
            assert inclusion_lemma(EX1, Q).all_hold
            assert inclusion_lemma(EX2, Q).all_hold

    @pytest.mark.parametrize("Q", [Poly([0, 1]), Poly([0, 0, 1]), Poly([0, 0, 0, 2]),
                                   Poly([1, 0, 1])])
    def test_subspaces_are_those_of_the_evaluated_polynomial(self, Q, monkeypatch):
        # monomials read the power chains at 1; the inclusions they check
        # must be about the very subspaces R and N of Q(T - I)
        from ratspec import intertwine
        from ratspec.ratmat import kernel
        seen = []
        real = intertwine.MapCache.maps_into

        def recorded(cache, M, U, W):
            seen.append((M, U, W))
            return real(cache, M, U, W)

        monkeypatch.setattr(intertwine.MapCache, "maps_into", recorded)
        # and one where 1 is an eigenvalue with a Jordan block of size 3, so
        # that R and N of (T - I)^k move with k
        i3 = Mat.identity(3)
        shear = i3 + Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        for t in [*conforming_samples(), OperatorTriple(i3, shear, shear)]:
            seen.clear()
            assert inclusion_lemma(t, Q).all_hold
            q = {name: poly_eval_mat(Q, T.shifted(1))
                 for name, T in (("ca", t.ca), ("ab", t.ab), ("ba", t.ba), ("ac", t.ac))}
            assert seen == [(t.aba, image(q["ca"]), image(q["ab"])),
                            (t.aba, kernel(q["ca"]), kernel(q["ab"])),
                            (t.aca, image(q["ba"]), image(q["ac"])),
                            (t.aca, kernel(q["ba"]), kernel(q["ac"]))]

    def test_kernel_only_of_a_singular_evaluation(self, monkeypatch):
        # a full-rank Q(T - I) is read off the charpoly as (whole, 0), so
        # only the singular evaluations are row-reduced, and each distinct
        # operator is evaluated once (CA = BA and AB = AC when C == B); its
        # chain row-reduces the kernel of q(T) = Q(T - I)
        from ratspec import invariants
        from ratspec.ratmat import rank
        calls = []
        real = invariants.kernel

        def recorded(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(invariants, "kernel", recorded)
        singular = full = 0
        i3 = Mat.identity(3)
        shear = i3 + Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        # fresh triples, so that no chain is cached from another test
        triples = [*(OperatorTriple(t.A, t.B, t.C) for t in conforming_samples()),
                   OperatorTriple(i3, shear, shear)]
        for Q in (Poly([0, 1, 1]), Poly([1, 0, 1]), Poly(["3/2", "3/2", "-3/2", 1])):
            for t in triples:
                calls.clear()
                inclusion_lemma(t, Q)
                distinct = list(dict.fromkeys((t.ca, t.ab, t.ba, t.ac)))
                qs = [poly_eval_mat(Q, T.shifted(1)) for T in distinct]
                assert calls == [q for q in qs if rank(q) < q.rows]
                singular += len(calls)
                full += len(qs) - len(calls)
        assert singular and full
        # with A = I all four products of the shear triple are the shear
        shear_t = triples[-1]
        assert {shear_t.ca, shear_t.ab, shear_t.ba, shear_t.ac} == {shear}

    def test_coprime_q_is_not_evaluated(self, monkeypatch):
        # Q(T - I) is invertible iff charpoly(T) and Q(x - 1) are coprime;
        # then inclusion_lemma reads the whole space and 0 off the charpoly,
        # and only a singular one is evaluated, as Q(x - 1) at T, once per
        # distinct operator. The companion triple's Q(T - I) is singular
        from ratspec import intertwine
        evaluated = []
        real = intertwine.poly_eval_mat

        def recorded(q, M):
            evaluated.append((q, M))
            return real(q, M)

        monkeypatch.setattr(intertwine, "poly_eval_mat", recorded)
        Q = INCLUSION_QS[-1]
        shifted_q = Poly([Fraction(-5, 2), Fraction(15, 2), Fraction(-9, 2), 1])
        assert all(Q(x - 1) == shifted_q(x) for x in range(5))
        decided = singular = 0
        triples = [*(OperatorTriple(t.A, t.B, t.C) for t in conforming_samples()),
                   _companion_triple([COMPANION_POLYS[0], COMPANION_POLYS[3]])]
        for t in triples:
            evaluated.clear()
            assert inclusion_lemma(t, Q).all_hold
            operators = {name: getattr(t, name) for name in ("ca", "ab", "ba", "ac")}
            assert evaluated == list(dict.fromkeys(
                (shifted_q, T) for name, T in operators.items()
                if not coprime(t.charpoly(name), shifted_q)))
            decided += len(set(operators.values())) - len(evaluated)
            singular += len(evaluated)
        assert decided and singular

    def test_fallback_when_q_shifted_divides_the_charpoly(self, monkeypatch):
        # T = I + companion(Q) + [2]: T - I is companion(Q) + [1], so
        # Q(x - 1) divides charpoly(T) and Q(T - I) has rank 1; the lemma
        # must evaluate it and check the inclusions on its R and N
        from ratspec import intertwine
        Q = INCLUSION_QS[-1]
        c0, c1, c2 = Q.coeffs[:3]
        T = Mat.identity(4) + Mat.from_rows([[0, 0, -c0, 0], [1, 0, -c1, 0],
                                             [0, 1, -c2, 0], [0, 0, 0, 1]])
        t = OperatorTriple(Mat.identity(4), T, T)
        assert {t.ca, t.ab, t.ba, t.ac} == {T}
        evaluated, seen = [], []
        real_eval, real_into = intertwine.poly_eval_mat, MapCache.maps_into

        def recorded_eval(q, M):
            evaluated.append((q, M))
            return real_eval(q, M)

        def recorded_into(cache, M, U, W):
            seen.append((U, W))
            return real_into(cache, M, U, W)

        monkeypatch.setattr(intertwine, "poly_eval_mat", recorded_eval)
        monkeypatch.setattr(MapCache, "maps_into", recorded_into)
        assert inclusion_lemma(t, Q).all_hold
        shifted_q = Poly([Fraction(-5, 2), Fraction(15, 2), Fraction(-9, 2), 1])
        assert evaluated == [(shifted_q, T)]
        q = real_eval(Q, T.shifted(1))
        assert rank(q) == 1
        assert seen == [(image(q), image(q)), (kernel(q), kernel(q))] * 2

    def test_random_cubic_on_generated(self):
        rng = random.Random(31)
        t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=8))
        for _ in range(3):
            Q = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(3)] + [Fraction(1)])
            assert inclusion_lemma(t, Q).all_hold

    def test_requires_condition(self):
        bad = generate(GenSpec(template="nonconforming", block_dim=3, seed=3))
        with pytest.raises(ConditionNotSatisfied):
            inclusion_lemma(bad, Poly([0, 1]))


class TestCharpolyDecidedChains:
    """Off the spectrum the chains are read off the charpolys alone."""

    def test_no_kernel_call_off_the_spectrum(self, monkeypatch):
        # fresh triples, so that no chain is cached from another test
        triples = [OperatorTriple(t.A, t.B, t.C) for t in conforming_samples()]
        probes = []
        for t in triples:
            pba, pac = t.charpoly("ba"), t.charpoly("ac")
            probes.append(next(lam for lam in map(Fraction, (2, 3, 5, 7, 97))
                               if pba(lam) and pac(lam)))
            t.ab  # formed on the first read, a product of the triple
        calls = []
        for name in ("rref", "matmul"):
            real = getattr(kernels, name)

            def recorded(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(kernels, name, recorded)
        for t, lam in zip(triples, probes):
            chains = list(zip(t.chains(lam), (t.ba, t.ac)))
            if t.charpoly("ca")(1) and t.charpoly("ab")(1):
                chains += [(t.chain("ca", X_MINUS_1), t.ca),
                           (t.chain("ab", X_MINUS_1), t.ab)]
            for chain, T in chains:
                assert chain.stable == 0
                for n in range(T.rows + 2):
                    assert chain.image(n).dim == T.rows
                    assert chain.kernel(n).dim == 0
                    assert chain.range_plus_kernel(n).dim == T.rows
                assert profile(chain).c_total == 0
                assert not any(sigma_memberships(chain))
            assert verify_sequence_equalities(t, lam).all_equal
            assert verify_theorem(t, [lam]).all_equal
        assert calls == []

    def test_ca_ab_charpolys_by_sylvester(self, monkeypatch):
        # one of BA's and AC's is computed and the other read off it, and
        # CA's and AB's are read off those: all four against ratmat.charpoly
        from ratspec.ratmat import charpoly
        built = _record_charpolys(monkeypatch)
        for t in [*conforming_samples(), *scale_target_samples()]:
            u = OperatorTriple(t.A, t.B, t.C)
            built.clear()
            for name in ("ba", "ac", "ca", "ab"):
                assert u.charpoly(name) == charpoly(getattr(u, name))
                assert u.charpoly(name) is u.charpoly(name)
            assert len(built) == 1

    def test_unknown_operator_names_raise(self):
        # only BA, AC, CA and AB are probed; other attributes of the triple,
        # and the products in upper case, are not operator names
        t = OperatorTriple(Mat.identity(2), Mat.identity(2), Mat.identity(2))
        for name in ("", "BA", "aba", "aca", "A", "cb", "residuals"):
            with pytest.raises(ValueError, match="no operator"):
                t.charpoly(name)
            with pytest.raises(ValueError, match="no operator"):
                t.chain(name, X_MINUS_1)
        assert t._charpolys == {}

    def test_an_inconsistent_charpoly_raises(self):
        # dim X = 2 and dim Y = 1, so Sylvester's identity divides x out of
        # charpoly(BA) for AB; a hand-built x^2 + 1 in its place has a
        # nonzero constant term, which must raise rather than be dropped
        from ratspec.intertwine import _times_x_power
        t = OperatorTriple(Mat.from_rows([[1, 2]]), Mat.from_rows([[1], [0]]),
                           Mat.from_rows([[1], [0]]))
        assert t.charpoly("ab") == Poly([-1, 1])  # AB = 1
        with pytest.raises(ArithmeticError, match="does not divide"):
            _times_x_power(Poly([1, 0, 1]), -1)
        u = OperatorTriple(t.A, t.B, t.C)
        u._charpolys["ba"] = Poly([1, 0, 1])
        with pytest.raises(ArithmeticError, match="does not divide"):
            u.charpoly("ab")
        assert _times_x_power(Poly([0, 0, 3, 1]), -2) == Poly([3, 1])
        assert _times_x_power(Poly([3, 1]), 2) == Poly([0, 0, 3, 1])

    def test_chains_without_the_condition(self):
        # the nonzero charpolys of AC and BA need not agree here: with
        # A = B = 1 and C = 2, AB - 1 = BA - 1 = 0 while CA - 1 = AC - 1 = 1
        t = OperatorTriple(Mat.from_rows([[1]]), Mat.from_rows([[1]]),
                           Mat.from_rows([[2]]))
        bad = generate(GenSpec(template="nonconforming", block_dim=3, seed=1))
        assert not (t.condition_holds or bad.condition_holds)
        for u in (t, bad):
            chains = [(u.chain("ca", X_MINUS_1), u.ca.shifted(1)),
                      (u.chain("ab", X_MINUS_1), u.ab.shifted(1))]
            for lam in (1, 2):
                chains += zip(u.chains(lam), (u.ba.shifted(lam), u.ac.shifted(lam)))
            for chain, op in chains:
                oracle = PowerChain(op)
                assert chain.stable == oracle.stable
                assert profile(chain) == profile(oracle)
            if u is t:
                assert [c.stable for c, _ in chains[:2]] == [0, 1]


def _companion(q):
    """The companion matrix of the monic q."""
    d = q.degree
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        if i:
            rows[i][i - 1] = 1
        rows[i][d - 1] = -q.coeffs[i]
    return Mat.from_rows(rows)


# Q(x - 1) for the inclusion lemma's cubic, an irreducible quadratic, a
# Jordan block at 2, x - 2, x - 1/2 and a nilpotent block
COMPANION_POLYS = (Poly(["-5/2", "15/2", "-9/2", 1]), Poly([-2, 0, 1]),
                   Poly([4, -4, 1]), Poly([-2, 1]), Poly(["-1/2", 1]),
                   Poly([0, 0, 1]))


def _companion_triple(polys):
    """A = [I; 0] embeds X in Y, B = C = [J | 1] with J the companion blocks
    of polys: BA = J on X, and AC on the larger Y."""
    J = Mat.identity(0)
    for q in polys:
        K = _companion(q)
        J = block([[J, Mat.zero(J.rows, K.cols)], [Mat.zero(K.rows, J.cols), K]])
    n = J.rows
    A = block([[Mat.identity(n)], [Mat.zero(1, n)]])
    B = block([[J, Mat.from_rows([[1]] * n)]])
    return OperatorTriple(A, B, B)


_accessor_triples = st.one_of(
    st.builds(lambda template, dim, seed: generate(
                  GenSpec(template=template, block_dim=dim, seed=seed,
                          entry_bound=3)),
              st.sampled_from(["c_equals_b", "aba_eq_aca", "conjugated",
                               "rational_spectrum", "paper_ex1", "nonconforming"]),
              st.integers(2, 4), st.integers(0, 10 ** 6)),
    st.builds(lambda dim, dy, seed: generate(
                  GenSpec(template="c_equals_b", block_dim=dim, seed=seed,
                          entry_bound=3, dim_y=dy)),
              st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6)),
    st.lists(st.sampled_from(COMPANION_POLYS), min_size=1, max_size=3)
    .map(_companion_triple))


def _probes(t):
    """(name, q) for the operators T named "ba", "ac", "ca" and "ab", p
    T's charpoly: x - lam at its rational nonzero eigenvalues (and
    2x - 2 lam there) and at non-eigenvalues, Q(x - 1) for the inclusion
    lemma's cubic, and q sharing a factor with p."""
    from ratspec.invariants import rational_eigenvalues
    for name in ("ba", "ac", "ca", "ab"):
        p = t.charpoly(name)
        eigs = {lam for lam, _ in rational_eigenvalues(p) if lam}
        for lam in sorted(eigs | {Fraction(1), Fraction(2), Fraction(1, 2), Fraction(7)}):
            yield name, Poly([-lam, 1])
        yield name, COMPANION_POLYS[0]
        yield name, p.strip_zero_roots()[0] * Poly([3, 1])
        for lam in eigs:
            yield name, Poly([-2 * lam, 2])
            yield name, Poly([-lam, 1]) * Poly([1, 0, 1])


def _assert_same_chain(chain, oracle):
    n = oracle.T.rows
    assert chain.stable == oracle.stable
    for i in range(n + 2):
        assert chain.image(i) == oracle.image(i)
        assert chain.kernel(i) == oracle.kernel(i)
        assert chain.range_plus_kernel(i) == oracle.range_plus_kernel(i)


class TestOneChainAccessor:
    """chain(name, q) against the row-reduced PowerChain(q(T))."""

    @given(_accessor_triples)
    @settings(max_examples=25)
    def test_chain_equals_the_row_reduced_one(self, t):
        for name, q in _probes(t):
            _assert_same_chain(t.chain(name, q),
                               PowerChain(poly_eval_mat(q, getattr(t, name))))

    @given(_accessor_triples)
    @settings(max_examples=25)
    def test_shared_trivial_chain_stands_for_every_invertible_operator(self, t):
        trivial = {}
        for name, q in _probes(t):
            op = poly_eval_mat(q, getattr(t, name))
            if rank(op) < op.rows:
                continue
            chain = t.chain(name, q)
            assert trivial.setdefault(op.rows, chain) is chain
            _assert_same_chain(chain, PowerChain(op))
        assert all(c.T == Mat.identity(n) for n, c in trivial.items())

    def test_singular_cubic_evaluated_once_per_operator(self, monkeypatch):
        # B = C = [companion(Q(x - 1)) + [2] | 1]: CA is BA and AB is AC, so
        # Q(T - I) is evaluated once for each, however often it is asked for;
        # it is singular, of rank 1 on X and 2 on Y
        from ratspec import intertwine
        t = _companion_triple([COMPANION_POLYS[0], COMPANION_POLYS[3]])
        evaluated = []
        real = intertwine.poly_eval_mat
        monkeypatch.setattr(intertwine, "poly_eval_mat",
                            lambda q, T: evaluated.append(T) or real(q, T))
        assert inclusion_lemma(t, INCLUSION_QS[3]).all_hold
        assert inclusion_lemma(t, INCLUSION_QS[3]).all_hold
        assert evaluated == list(dict.fromkeys((t.ca, t.ab, t.ba, t.ac)))
        assert len(evaluated) == 2
        for name, T in (("ba", t.ba), ("ac", t.ac)):
            chain = t.chain(name, COMPANION_POLYS[0])
            _assert_same_chain(chain, PowerChain(real(COMPANION_POLYS[0], T)))
            assert chain.rank(1) == T.rows - 3


class TestQuotientMaps:
    def test_invertible_case_zero_quotients(self):
        # lambda far outside both spectra: all chain quotients vanish
        for t in (EX1,):
            for builder in (gamma_map, psi_map, phi_map):
                qm = builder(t, 0, Fraction(97))
                assert qm.well_defined
                assert qm.source_dim == 0 and qm.target_dim == 0
                assert qm.injective_by_rank() and qm.injective_by_preimage()

    @pytest.mark.parametrize("builder", [gamma_map, psi_map, phi_map])
    def test_well_defined_and_injective_everywhere(self, builder):
        for t in conforming_samples():
            for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)):
                for n in range(max(t.dim_x, t.dim_y) + 1):
                    qm = builder(t, n, lam)
                    assert qm.well_defined
                    inj_rank = qm.injective_by_rank()
                    inj_pre = qm.injective_by_preimage()
                    assert inj_rank == inj_pre
                    assert inj_rank

    def test_gamma_quotient_dims_are_sequence_values(self):
        # dims of the gamma source/target quotients are c_n of BA-1 / AC-1
        t = EX1
        pba = profile(t.ba.shifted(1))
        pac = profile(t.ac.shifted(1))
        for n in range(4):
            qm = gamma_map(t, n, 1)
            assert qm.source_dim == pba.c_seq[n]
            assert qm.target_dim == pac.c_seq[n]

    def test_psi_phi_quotient_dims(self):
        t = EX2
        pba = profile(t.ba.shifted(1))
        pac = profile(t.ac.shifted(1))
        for n in range(4):
            assert psi_map(t, n, 1).source_dim == pba.cp_seq[n]
            assert phi_map(t, n, 1).source_dim == pba.k_seq[n]
            assert psi_map(t, n, 1).target_dim == pac.cp_seq[n]
            assert phi_map(t, n, 1).target_dim == pac.k_seq[n]

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_map(EX1, 0, 0)

    def test_unipotent_product_collapses_chains(self):
        # AC - 1 nilpotent: from n = 2 on every chain quotient is zero-dim,
        # including the degenerate zero-subspace targets
        A = Mat.identity(2)
        B = Mat.from_rows([[1, 1], [0, 1]])
        t = OperatorTriple(A, B, B)
        assert t.condition_holds
        for n in range(4):
            for builder in (gamma_map, psi_map, phi_map):
                qm = builder(t, n, 1)
                assert qm.well_defined
                assert qm.injective_by_rank() and qm.injective_by_preimage()
                if n >= 2:
                    assert qm.source_dim == qm.target_dim == 0

    def test_dimension_one_spaces(self):
        t = OperatorTriple(Mat.from_rows([[2]]), Mat.from_rows([[3]]),
                           Mat.from_rows([[3]]))
        assert t.condition_holds
        assert verify_sequence_equalities(t, 6, 2).all_equal
        qm = gamma_map(t, 0, 6)  # 6 is the lone eigenvalue of BA = AC
        assert qm.well_defined and qm.injective_by_rank()

    def test_non_nested_chains_rejected(self):
        from ratspec.intertwine import induced_quotient_map
        from ratspec.ratmat import Subspace
        line_x = Subspace.from_vectors(2, [(1, 0)])
        line_y = Subspace.from_vectors(2, [(0, 1)])
        with pytest.raises(ValueError):
            induced_quotient_map(line_x, line_y, line_x, line_x, Mat.identity(2))

    def test_ill_defined_map_reported(self):
        # unrelated chains with an arbitrary carrier: the carrier does not
        # respect the filtration, so the induced map does not exist
        from ratspec.intertwine import induced_quotient_map
        from ratspec.ratmat import Subspace, image, kernel
        J3 = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        src_big, src_small = image(J3), image(J3 @ J3)
        tgt_big = Subspace.from_vectors(3, [(0, 0, 1)])
        tgt_small = Subspace.zero(3)
        carrier = Mat.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        qm = induced_quotient_map(src_big, src_small, tgt_big, tgt_small, carrier)
        assert not qm.well_defined
        assert qm.matrix is None
        with pytest.raises(ArithmeticError):
            qm.injective_by_rank()


class TestQuotientMatrix:
    @given(st.data())
    def test_property_columns_match_frame_solve(self, data):
        # nested pairs built so that the carrier respects them: the small
        # and big targets contain the carried small and big sources
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        carrier = data.draw(matrices(n, m, min_rows=n, min_cols=m))
        S = data.draw(matrices(m, 4, min_rows=m))
        K = data.draw(matrices(S.cols, 4, min_rows=S.cols))
        E1 = data.draw(matrices(n, 2, min_rows=n))
        E2 = data.draw(matrices(n, 2, min_rows=n))
        src_big, src_small = image(S), image(S @ K)
        tgt_small = map_subspace(carrier, src_small).sum(image(E1))
        tgt_big = tgt_small.sum(map_subspace(carrier, src_big)).sum(image(E2))
        qm = induced_quotient_map(src_big, src_small, tgt_big, tgt_small, carrier)
        assert qm.well_defined
        assert qm.injective_by_rank() == qm.injective_by_preimage()

        # oracle: representatives are the rows of big at the leading columns
        # small lacks; each carried source representative w is solved against
        # the frame (small basis, then target representatives), its lower
        # coordinates must be the column, and w less the column's combination
        # of target representatives must lie in target_small
        def reps(big, small):
            def lead(v):
                return next(j for j, x in enumerate(v) if x)
            have = {lead(v) for v in small.basis}
            return [v for v in big.basis if lead(v) not in have]

        src, tgt = reps(src_big, src_small), reps(tgt_big, tgt_small)
        frame_rows = list(tgt_small.basis) + tgt
        frame = Mat(len(frame_rows), n, [x for v in frame_rows for x in v]).transpose()
        assert (qm.matrix.rows, qm.matrix.cols) == (len(tgt), len(src))
        for j, v in enumerate(src):
            w = carrier.apply(v)
            coords = solve(frame, w)
            column = [qm.matrix.entry(i, j) for i in range(len(tgt))]
            assert coords is not None and list(coords[tgt_small.dim:]) == column
            rest = [w[k] - sum((c * u[k] for c, u in zip(column, tgt)), Fraction(0))
                    for k in range(n)]
            assert tgt_small.contains_vector(rest)

    @given(st.data())
    def test_well_defined_iff_the_mapped_subspaces_nest(self, data):
        # random carriers and targets, each target pair drawn to contain the
        # carried source or not, so most draws are not well defined
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        carrier = data.draw(matrices(n, m, min_rows=n, min_cols=m))
        S = data.draw(matrices(m, 4, min_rows=m))
        K = data.draw(matrices(S.cols, 4, min_rows=S.cols))
        src_big, src_small = image(S), image(S @ K)
        tgt_small = image(data.draw(matrices(n, 2, min_rows=n)))
        if data.draw(st.booleans()):
            tgt_small = tgt_small.sum(map_subspace(carrier, src_small))
        tgt_big = tgt_small.sum(image(data.draw(matrices(n, 2, min_rows=n))))
        if data.draw(st.booleans()):
            tgt_big = tgt_big.sum(map_subspace(carrier, src_big))
        qm = induced_quotient_map(src_big, src_small, tgt_big, tgt_small, carrier)
        assert qm.well_defined == (
            tgt_small.contains(map_subspace(carrier, src_small))
            and tgt_big.contains(map_subspace(carrier, src_big)))
        assert (qm.matrix is None) == (not qm.well_defined)

    @given(st.data())
    def test_preimage_route_matches_the_ambient_one_and_the_rank(self, data):
        # nested sources; targets drawn to contain the carried sources or
        # not, and the small target sometimes the whole space, so that both
        # well-defined and ill-defined maps and the shortcut cases occur
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        carrier = data.draw(matrices(n, m, min_rows=n, min_cols=m))
        S = data.draw(matrices(m, 4, min_rows=m))
        K = data.draw(matrices(S.cols, 4, min_rows=S.cols))
        src_big, src_small = image(S), image(S @ K)
        tgt_small = image(data.draw(matrices(n, 2, min_rows=n)))
        if data.draw(st.booleans()):
            tgt_small = tgt_small.sum(map_subspace(carrier, src_small))
        if data.draw(st.integers(0, 5)) == 0:
            tgt_small = Subspace.full(n)
        tgt_big = tgt_small.sum(image(data.draw(matrices(n, 2, min_rows=n))))
        if data.draw(st.booleans()):
            tgt_big = tgt_big.sum(map_subspace(carrier, src_big))
        qm = induced_quotient_map(src_big, src_small, tgt_big, tgt_small, carrier)
        by_preimage = qm.injective_by_preimage()
        assert by_preimage == injective_by_preimage_in_ambient(qm)
        if qm.well_defined:
            assert by_preimage == qm.injective_by_rank()

    def test_preimage_route_on_degenerate_sources(self):
        # a zero source, and a source mapped into the whole space
        zero, full = Subspace.zero(2), Subspace.full(2)
        line = Subspace.from_vectors(2, [(1, 1)])
        for big, small, tgt_small in ((zero, zero, zero), (full, line, full),
                                      (full, full, full), (line, zero, full)):
            qm = induced_quotient_map(big, small, full, tgt_small, Mat.identity(2))
            assert qm.injective_by_preimage() == injective_by_preimage_in_ambient(qm)
            assert qm.injective_by_preimage() == (big == small)


class TestMapCache:
    def test_chain_maps_share_the_triples_cache(self, monkeypatch):
        from ratspec import intertwine
        caches = []
        real = intertwine.MapCache.carried

        def recorded(cache, M, V):
            caches.append(cache)
            return real(cache, M, V)

        monkeypatch.setattr(intertwine.MapCache, "carried", recorded)
        t = OperatorTriple(EX1.A, EX1.B, EX1.C)
        for n in range(3):
            for b in (gamma_map, psi_map, phi_map):
                b(t, n, 1).injective_by_preimage()
        assert caches and all(c is t.map_cache for c in caches)

    def test_each_triple_owns_its_cache(self):
        copy = OperatorTriple(EX1.A, EX1.B, EX1.C)
        assert copy.map_cache is not EX1.map_cache
        assert gamma_map(copy, 0, 1) == gamma_map(EX1, 0, 1)
        # a map built without a cache gets a fresh one
        spaces = (Subspace.full(2), Subspace.zero(2))
        first = induced_quotient_map(*spaces, *spaces, Mat.identity(2))
        second = induced_quotient_map(*spaces, *spaces, Mat.identity(2))
        assert first == second

    def test_entries_are_computed_once(self):
        cache = MapCache()
        M = Mat.from_rows([[1, 2], [3, 4]])
        line = Subspace.from_vectors(2, [(1, 0)])
        rows = cache.carried(M, line)
        assert rows == line.basis_matrix() @ M.transpose()
        assert cache.carried(M, Subspace.from_vectors(2, [(2, 0)])) is rows
        full = Subspace.full(2)
        assert cache.carried(M, full) == full.basis_matrix() @ M.transpose()
        assert cache.maps_into(M, line, full)
        assert not cache.maps_into(M, line, line)

    def test_preimage_route_reads_no_cached_rows(self, monkeypatch):
        # production decides injectivity by rank, on the cached carried rows;
        # with every carried row wrong (zero) the rank route sees a zero
        # matrix, while the preimage routes, which form their own products,
        # still see the injective map: the oracle catches a faulty cache
        from ratspec import intertwine
        t = OperatorTriple(EX1.A, EX1.B, EX1.C)
        builders = (gamma_map, psi_map, phi_map)
        for qm in (b(t, n, 1) for n in range(3) for b in builders):
            assert qm.injective_by_rank() == injective_by_preimage_in_ambient(qm)
        monkeypatch.setattr(intertwine.MapCache, "carried",
                            lambda cache, M, V: Mat.zero(V.dim, M.rows))
        t = OperatorTriple(EX1.A, EX1.B, EX1.C)
        maps = [b(t, n, 1) for n in range(3) for b in builders]
        moving = [qm for qm in maps if qm.source_dim]
        assert moving
        for qm in moving:
            assert qm.well_defined and not qm.injective_by_rank()
            assert injective_by_preimage_in_ambient(qm)
            assert qm.injective_by_preimage()


class TestSequenceEqualities:
    def test_outside_spectrum_all_zero(self):
        rep = verify_sequence_equalities(EX1, Fraction(101), 5)
        assert rep.all_equal
        for row in rep.rows:
            assert row.c_ac == row.c_ba == 0

    def test_examples_at_one(self):
        for t in (EX1, EX2):
            rep = verify_sequence_equalities(t, 1, 6)
            assert rep.all_equal
            assert rep.asc_ac == rep.asc_ba
            assert rep.dsc_ac == rep.dsc_ba

    def test_generated_triples_all_probes(self):
        for t in conforming_samples():
            for lam in default_probes(t):
                if lam == 0:
                    continue
                assert verify_sequence_equalities(t, lam).all_equal

    def test_totals_match(self):
        rep = verify_sequence_equalities(EX1, 1, 6)
        assert rep.totals_ac == rep.totals_ba

    def test_negative_control_fails_somewhere(self):
        # some nonconforming triple must witness an inequality
        found = False
        for seed in range(40):
            t = generate(GenSpec(template="nonconforming", block_dim=3, seed=seed))
            probes = [lam for lam in default_probes(t) if lam != 0]
            for lam in probes:
                pac = profile(t.ac.shifted(lam))
                pba = profile(t.ba.shifted(lam))
                if (pac.c_seq != pba.c_seq or pac.cp_seq != pba.cp_seq
                        or pac.k_seq != pba.k_seq):
                    found = True
                    break
            if found:
                break
        assert found, "no nonconforming triple witnessed a sequence inequality"

    def test_rejects_zero_lambda(self):
        with pytest.raises(ValueError):
            verify_sequence_equalities(EX1, 0)


class TestTheorem:
    def test_non_eigenvalue_all_false(self):
        rep = verify_theorem(EX1, [Fraction(113)])
        row = rep.rows[0]
        assert not any(row.in_sigma_ac) and not any(row.in_sigma_ba)

    def test_examples_default_probes(self):
        for t in (EX1, EX2):
            rep = verify_theorem(t)
            assert rep.all_equal
            assert rep.rows  # at least one nonzero probe

    def test_zero_probe_skipped(self):
        rep = verify_theorem(EX1, [Fraction(0), Fraction(1)])
        assert rep.skipped == (Fraction(0),)
        assert len(rep.rows) == 1

    def test_mismatch_reporting_shape(self):
        rep = verify_theorem(EX1, [Fraction(1)])
        assert rep.rows[0].mismatches == ()


class TestCharpolyMatch:
    def test_classical_jacobson_case(self):
        t = generate(GenSpec(template="c_equals_b", block_dim=3, seed=21, dim_y=5))
        assert nonzero_charpoly_match(t)

    def test_examples(self):
        assert nonzero_charpoly_match(EX1)
        assert nonzero_charpoly_match(EX2)

    def test_rectangular_generated(self):
        t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=5, dim_y=5))
        assert nonzero_charpoly_match(t)

    def test_requires_condition(self):
        bad = generate(GenSpec(template="nonconforming", block_dim=3, seed=4))
        with pytest.raises(ConditionNotSatisfied):
            nonzero_charpoly_match(bad)

    def test_without_the_condition_a_power_sum_past_two_differs(self):
        # the control for Tr((AC)^k) = Tr((BA)^k) at k >= 3: without the
        # condition, agreeing first two sums would say nothing
        for dim in (3, 5):
            for seed in range(10):
                t = generate(GenSpec(template="nonconforming", block_dim=dim,
                                     seed=seed))
                assert not t.condition_holds
                ks = range(3, max(t.dim_x, t.dim_y) + 2)
                assert power_traces(t.ac, ks) != power_traces(t.ba, ks)

    def test_a_differing_power_sum_computes_the_other_charpoly(self, monkeypatch):
        # a wrong charpoly(BA) in the triple's place: its Tr(BA^2) is off
        # by 2, so AC's is computed rather than read off it, and the nonzero
        # parts differ
        from ratspec.ratmat import charpoly
        t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=2))
        t._charpolys["ba"] = with_e2_raised(charpoly(t.ba))
        built = _record_charpolys(monkeypatch)
        assert t.charpoly("ac") == charpoly(t.ac)
        assert built == [t.ac]
        assert not nonzero_charpoly_match(t)

    def test_without_the_condition_the_other_charpoly_is_computed(self, monkeypatch):
        # BA and AC have the eigenvalues 2, -1, -1 and -2, 1, 1: the first
        # two power sums agree (0 and 6), the third does not (6 and -6), and
        # the condition fails, so equal first sums must not be trusted
        from ratspec.ratmat import charpoly
        t = OperatorTriple(Mat.identity(3), _diag(2, -1, -1), _diag(-2, 1, 1))
        assert not t.condition_holds
        assert power_traces(t.ba, range(1, 3)) == power_traces(t.ac, range(1, 3))
        assert power_traces(t.ba, range(3, 4)) != power_traces(t.ac, range(3, 4))
        built = _record_charpolys(monkeypatch)
        for name in ("ba", "ac", "ca", "ab"):
            assert t.charpoly(name) == charpoly(getattr(t, name))
        assert built == [t.ba, t.ac]

    def test_ba_charpoly_is_computed_and_ac_read_off(self, monkeypatch):
        # BA's is computed whatever the shapes: with dim X > dim Y, AC's is
        # BA's over x^(dx - dy); at equal dims, AC = AB has denominator 1
        # where BA has 2, and AC's is still read off BA's
        from ratspec.ratmat import charpoly
        e = Mat.from_rows([[1], [0]])
        wide = OperatorTriple(Mat.from_rows([[1, 2]]), e, e)
        drawn = generate(GenSpec(template="aba_eq_aca", block_dim=4, dim_y=3, seed=1))
        half = Mat.from_rows([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
        even = OperatorTriple(Mat.from_rows([[2, 0], [0, 1]]), half, half)
        assert (even.ba.den, even.ac.den) == (2, 1)
        built = _record_charpolys(monkeypatch)
        for t in (wide, drawn, even):
            assert t.condition_holds
            built.clear()
            for name in ("ba", "ac"):
                assert t.charpoly(name) == charpoly(getattr(t, name))
            assert built == [t.ba]
        assert wide.dim_x > wide.dim_y and drawn.dim_x > drawn.dim_y


class TestShiftPolys:
    def test_n1_returns_b_and_c(self):
        bn, cn = shift_polys(EX1, 1)
        assert bn == EX1.B and cn == EX1.C

    def test_n2_binomial_formula(self):
        # B_2 = 2B - B(AB) by expanding the k = 1, 2 terms
        t = generate(GenSpec(template="aba_eq_aca", block_dim=3, seed=6))
        bn, cn = shift_polys(t, 2)
        assert bn == t.B.scaled(2) - t.B @ t.ab
        assert cn == t.C.scaled(2) - t.ca @ t.C

    def test_c_equals_b_forms_c_n_as_b_n(self):
        # (BA)^j B = B(AB)^j, so C_n = B_n: shift_polys returns B_n twice,
        # and it equals C_n from the recurrence C_k = C + (I-CA)C_(k-1)
        t = generate(GenSpec(template="c_equals_b", block_dim=3, seed=1, dim_y=4))
        i_x = Mat.identity(t.dim_x)
        cn = t.C
        for n in range(1, 5):
            bn, got = shift_polys(t, n)
            cn = t.C + (i_x - t.ca) @ cn if n > 1 else cn
            assert got is bn and got == cn

    def test_identities_up_to_4_on_examples(self):
        i_x = Mat.identity(EX1.dim_x)
        i_y = Mat.identity(EX1.dim_y)
        for n in range(1, 5):
            bn, cn = shift_polys(EX1, n)
            assert (i_x - EX1.ba) ** n == i_x - bn @ EX1.A
            assert (i_y - EX1.ac) ** n == i_y - EX1.A @ cn
            assert OperatorTriple(EX1.A, bn, cn).condition_holds

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            shift_polys(EX1, 0)

    def test_one_pass_without_matrix_powers(self, monkeypatch):
        # every n = 1..4 is checked in one call: (I-BA)^n and (I-AC)^n are
        # carried forward, and (A, B_n, C_n) is built once per n >= 2; at
        # n = 1 it is t itself
        t = generate(GenSpec(template="aba_eq_aca", block_dim=3, seed=6))
        powers, triples = [], []
        real_pow, real_init = Mat.__pow__, OperatorTriple.__init__

        def counting_pow(self, k):
            powers.append(k)
            return real_pow(self, k)

        def counting_init(self, A, B, C):
            triples.append((B, C))
            real_init(self, A, B, C)

        monkeypatch.setattr(Mat, "__pow__", counting_pow)
        monkeypatch.setattr(OperatorTriple, "__init__", counting_init)
        bn, cn = shift_polys(t, 4)
        assert powers == []
        assert len(triples) == 3 and triples[-1] == (bn, cn)


_small_entries = st.integers(min_value=-3, max_value=3)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_property_c_equals_b_sequences_agree(dx, dy, data):
    # the classical two-factor case, as a randomized property: C = B always
    # conforms and every invariant sequence of AC-1 and BA-1 must agree
    a = data.draw(st.lists(_small_entries, min_size=dx * dy, max_size=dx * dy))
    b = data.draw(st.lists(_small_entries, min_size=dx * dy, max_size=dx * dy))
    A = Mat(dy, dx, [Fraction(x) for x in a])
    B = Mat(dx, dy, [Fraction(x) for x in b])
    t = OperatorTriple(A, B, B)
    assert t.condition_holds
    assert verify_sequence_equalities(t, 1).all_equal
    assert nonzero_charpoly_match(t)


class TestExampleSpectra:
    def test_frozen_eigenvalues_of_products(self):
        # block structure: upper-left [[0,I],[0,P]] is block triangular with
        # diagonal blocks 0 and P = diag(1,0), the rest contributes zeros,
        # so each product has eigenvalue 0 with multiplicity 5 and 1 once
        expect = [(Fraction(0), 5), (Fraction(1), 1)]
        from ratspec.invariants import rational_eigenvalues
        for t in (EX1, EX2):
            assert rational_eigenvalues(t.ba) == expect
            assert rational_eigenvalues(t.ac) == expect


class TestDefaultProbes:
    def test_contains_one_and_eigenvalues(self):
        from ratspec.invariants import rational_eigenvalues
        probes = set(default_probes(EX1))
        assert Fraction(1) in probes
        for lam, _ in rational_eigenvalues(EX1.ac):
            assert lam in probes

    def test_has_non_eigenvalue_probes(self):
        from ratspec.invariants import rational_eigenvalues
        eigs = {lam for lam, _ in rational_eigenvalues(EX1.ac)}
        eigs |= {lam for lam, _ in rational_eigenvalues(EX1.ba)}
        extras = [p for p in default_probes(EX1) if p not in eigs]
        assert len(extras) >= 2

    @pytest.mark.parametrize("dx,dy", [(2, 3), (3, 5), (3, 2), (5, 3)])
    def test_rectangular_triples_with_one_singular_product(self, dx, dy):
        # AC is dy x dy of rank <= dx and BA is dx x dx of rank <= dy, so on
        # a generic triple only the larger product is singular: 0 is then a
        # root of one charpoly only, and must be a probe either way
        seen = 0
        for seed in range(8):
            t = generate(GenSpec(template="c_equals_b", block_dim=dx, dim_y=dy,
                                 seed=seed, entry_bound=3))
            pba, pac = t.charpoly("ba"), t.charpoly("ac")
            if (pba.coeffs[0] == 0) == (pac.coeffs[0] == 0):
                continue
            probes = default_probes(t)
            assert Fraction(0) in probes
            assert probes == default_probes_by_two_searches(t)
            seen += 1
        assert seen
