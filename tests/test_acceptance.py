"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check below is exact (tolerance 0): equalities of integers, of
matrices over Q, and of polynomials. The corpus fixture builds 200+
conforming triples across all templates with dimensions 2 through 8; the
criteria iterate over it. Each test prints one PASS line (visible with -s).
"""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from oracles import (c_n, c_n_via_complement, coprime, cp_n,
                     cp_n_via_intersection, default_probes_by_two_searches,
                     eigenvalue_multiplicity, injective_by_preimage_in_ambient,
                     k_n, k_n_via_sums, rational_eigenvalues_by_divisors)
from ratspec.cli import INCLUSION_QS, main, write_triple_document
from ratspec.drazin import drazin_inverse, proof_identities, transfer
from ratspec.genlab import GenSpec, generate, paper_example
from ratspec.intertwine import (MapCache, OperatorTriple, check_condition,
                                default_probes, gamma_map,
                                induced_quotient_map, inclusion_lemma,
                                nonzero_charpoly_match, phi_map, psi_map,
                                scaled, shift_polys,
                                verify_sequence_equalities, verify_theorem)
from ratspec.invariants import (PowerChain, hyper_kernel_dim, profile,
                                rational_eigenvalues)
from ratspec.ratmat import Mat, Poly, image, kernel, poly_eval_mat
from test_intertwine import COMPANION_POLYS, _companion_triple


def _corpus_specs():
    """(template, kwargs) table; 200+ conforming triples, dims 2..8.

    Entry bounds shrink with dimension to keep the exact integer growth (and
    with it the whole-suite runtime) at desk scale.
    """
    specs = [("paper_ex1", dict(block_dim=2, seed=0)),
             ("paper_ex2", dict(block_dim=2, seed=0))]
    rect_dims = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
                 (4, 3), (4, 4), (4, 5), (5, 4), (5, 5)]
    for template in ("c_equals_b", "aba_eq_aca"):
        for i, (dx, dy) in enumerate(rect_dims):
            for seed in range(6):
                specs.append((template,
                              dict(block_dim=dx, dim_y=dy, seed=31 * i + seed,
                                   entry_bound=3 if max(dx, dy) <= 4 else 2)))
    for dx in (2, 3, 4, 5):
        for seed in range(10):
            specs.append(("conjugated", dict(block_dim=dx, seed=100 + seed,
                                             entry_bound=2)))
    for dx in (4, 5, 6, 7, 8):
        for seed in range(4):
            specs.append(("direct_sum", dict(block_dim=dx, seed=200 + seed,
                                             entry_bound=2)))
    for seed in range(20):
        specs.append(("rational_spectrum", dict(block_dim=2 + seed % 4,
                                                seed=300 + seed,
                                                entry_bound=2)))
    return specs


def corpus_triples():
    """(template, triple) for every row of the corpus table, in order.

    tools/output_digests.py runs the CLI on these same triples.
    """
    for template, kwargs in _corpus_specs():
        yield template, generate(GenSpec(template=template, **kwargs))


@pytest.fixture(scope="module")
def corpus():
    triples = []
    for template, t in corpus_triples():
        eigs = {lam for lam, _ in rational_eigenvalues(t.ac)}
        eigs |= {lam for lam, _ in rational_eigenvalues(t.ba)}
        probes = [lam for lam in default_probes(t) if lam != 0]
        triples.append((template, t, probes, sorted(e for e in eigs if e != 0)))
    return triples


def test_criterion_1_paper_examples(tmp_path):
    """Both worked examples hold exactly and pass the full CLI battery."""
    P = Mat.from_rows([[1, 0], [0, 0]])
    for which in (1, 2):
        t = paper_example(which, P)
        assert t.dim_x == t.dim_y == 6
        rep = check_condition(t)
        assert rep.holds
        assert all(m.is_zero() for m in rep.residuals)
        assert t.aba != t.aca
        assert t.B @ t.A @ t.B != t.B @ t.B
        path = tmp_path / f"ex{which}.json"
        write_triple_document(t, str(path))
        assert main(["verify", str(path)]) == 0
    print("ACCEPTANCE 1: PASS - worked examples conform, ABA != ACA, "
          "BAB != B^2, cmd_verify exit 0")


def test_criterion_2_lemma_suite(corpus):
    """c_n / c'_n / k_n of AC-lam and BA-lam agree for the whole corpus."""
    assert len(corpus) >= 200
    dims = {max(t.dim_x, t.dim_y) for _, t, _, _ in corpus}
    assert dims >= {2, 3, 4, 5, 6, 7, 8}
    templates = {name for name, _, _, _ in corpus}
    assert {"paper_ex1", "paper_ex2", "c_equals_b", "aba_eq_aca",
            "conjugated", "direct_sum"} <= templates
    checked = 0
    for _, t, probes, _ in corpus:
        top = max(t.dim_x, t.dim_y)
        for lam in probes:
            rep = verify_sequence_equalities(t, lam, top)
            assert rep.all_equal, f"sequence mismatch at lambda={lam} in {t}"
            checked += len(rep.rows)
    print(f"ACCEPTANCE 2: PASS - {len(corpus)} triples, "
          f"{checked} exact sequence rows agree")


def test_criterion_3_map_suite(corpus):
    """Gamma/Psi/Phi well defined and injective; both injectivity routes agree."""
    built = 0
    for _, t, probes, _ in corpus:
        top = max(t.dim_x, t.dim_y)
        for lam in probes:
            for n in range(top + 1):
                for builder in (gamma_map, psi_map, phi_map):
                    qm = builder(t, n, lam)
                    assert qm.well_defined
                    by_rank = qm.injective_by_rank()
                    by_preimage = qm.injective_by_preimage()
                    assert by_rank == by_preimage
                    assert by_rank
                    built += 1
    print(f"ACCEPTANCE 3: PASS - {built} quotient maps well defined and "
          "injective by both routes")


def _cache_free_maps(t, n, lam):
    """Gamma, Psi, Phi at n, each built with a fresh MapCache from sums
    formed afresh, on the subspaces of the triple's chains."""
    ba, ac = t.chains(lam)

    def sums(chain, k):
        return chain.image(1).sum(chain.kernel(k))

    return (
        induced_quotient_map(ba.image(n), ba.image(n + 1),
                             ac.image(n), ac.image(n + 1), t.aca),
        induced_quotient_map(ba.kernel(n + 1), ba.kernel(n),
                             ac.kernel(n + 1), ac.kernel(n), t.aca),
        induced_quotient_map(sums(ba, n + 1), sums(ba, n),
                             sums(ac, n + 1), sums(ac, n), t.aca))


def test_criterion_3_cached_maps_equal_cache_free_ones(corpus):
    """Maps read from the triple's MapCache and the memoised sums equal the
    maps built with nothing shared, matrix and flags, at every n; the
    preimage route also matches its whole-space form."""
    compared = 0
    for _, t, probes, _ in corpus:
        top = max(t.dim_x, t.dim_y)
        for lam in probes:
            for n in range(top + 1):
                cached = [b(t, n, lam) for b in (gamma_map, psi_map, phi_map)]
                fresh = _cache_free_maps(t, n, lam)
                for qm, alone in zip(cached, fresh):
                    assert qm == alone
                    assert qm.injective_by_rank() == alone.injective_by_rank()
                    assert (qm.injective_by_preimage() == alone.injective_by_preimage()
                            == injective_by_preimage_in_ambient(qm))
                    compared += 1
    print(f"ACCEPTANCE 3c: PASS - {compared} cached quotient maps equal the "
          "cache-free ones")


def _fresh_maps(t, n, lam):
    """Gamma, Psi, Phi at n rebuilt from powers of a freshly scaled triple."""
    s = scaled(t, lam)
    sba, sac = s.ba.shifted(1), s.ac.shifted(1)
    rb, ra = image(sba), image(sac)
    return (
        induced_quotient_map(image(sba ** n), image(sba ** (n + 1)),
                             image(sac ** n), image(sac ** (n + 1)), s.aca),
        induced_quotient_map(kernel(sba ** (n + 1)), kernel(sba ** n),
                             kernel(sac ** (n + 1)), kernel(sac ** n), s.aca),
        induced_quotient_map(rb.sum(kernel(sba ** (n + 1))), rb.sum(kernel(sba ** n)),
                             ra.sum(kernel(sac ** (n + 1))), ra.sum(kernel(sac ** n)),
                             s.aca))


def test_criterion_3_shared_chains_skip_nothing(corpus):
    """Chain-built maps equal the scaled triple's up to lam^2; past s they repeat."""
    compared = 0
    for _, t, probes, _ in corpus[::10]:
        top = max(t.dim_x, t.dim_y)
        for lam in probes:
            ba, ac = t.chains(lam)
            stop = max(ba.stable, ac.stable)
            at_stop = [b(t, stop, lam) for b in (gamma_map, psi_map, phi_map)]
            assert all(qm.source_dim == qm.target_dim == 0 for qm in at_stop)
            for n in range(top + 2):
                shared = [b(t, n, lam) for b in (gamma_map, psi_map, phi_map)]
                # the scaled triple's carrier is ACA / lam^2
                assert shared == [
                    dataclasses.replace(fresh,
                                        carrier=fresh.carrier.scaled(lam * lam),
                                        matrix=fresh.matrix.scaled(lam * lam))
                    for fresh in _fresh_maps(t, n, lam)]
                if n > stop:
                    assert shared == at_stop
                compared += 3
    print(f"ACCEPTANCE 3b: PASS - {compared} chain-built quotient maps equal "
          "the freshly built ones")


def test_criterion_3_charpoly_decided_chains_equal_row_reduced_ones(corpus):
    """Every chain the triple hands out equals the row-reduced PowerChain."""
    decided = singular = 0
    x_minus_1 = Poly([-1, 1])
    for _, t, probes, _ in corpus:
        chains = [(t.chain("ca", x_minus_1), t.ca.shifted(1)),
                  (t.chain("ab", x_minus_1), t.ab.shifted(1))]
        for lam in {*probes, Fraction(1), Fraction(2), Fraction(1, 2)}:
            chains += zip(t.chains(lam), (t.ba.shifted(lam), t.ac.shifted(lam)))
        for chain, op in chains:
            oracle = PowerChain(op)
            assert chain.stable == oracle.stable
            for n in range(op.rows + 2):
                assert chain.image(n) == oracle.image(n)
                assert chain.kernel(n) == oracle.kernel(n)
                assert chain.range_plus_kernel(n) == oracle.range_plus_kernel(n)
            assert profile(chain) == profile(oracle)
            if oracle.rank(1) == op.rows:
                decided += 1
            else:
                singular += 1
    assert decided and singular
    print(f"ACCEPTANCE 3d: PASS - {decided} charpoly-decided invertible and "
          f"{singular} singular chains equal the row-reduced ones")


def test_criterion_3_hyper_kernel_dims_equal_the_row_reduced_ones(corpus):
    """hyper_kernel_dim(p, q) = dim - rank q(T)^dim; 0 iff gcd(p, q) = 1.

    T runs over BA, AC, CA and AB of the corpus, the companion triple (with
    the irreducible x^2 - 2 and its square) and the zero-dimension triples;
    q over x, x - 1, x - lam at each rational eigenvalue and Q(x - 1) for
    the inclusion lemma's cubic Q.
    """
    shifted_cubic = Poly([])
    for c in reversed(INCLUSION_QS[3].coeffs):
        shifted_cubic = shifted_cubic * Poly([-1, 1]) + Poly([c])
    quadratic = COMPANION_POLYS[1]
    cases = [(t, [Poly([-lam, 1]) for lam in eigs]) for _, t, _, eigs in corpus]
    cases.append((_companion_triple([quadratic, quadratic, COMPANION_POLYS[3]]),
                  [quadratic, quadratic * quadratic]))
    cases += [(OperatorTriple(Mat.zero(dy, dx), Mat.zero(dx, dy),
                              Mat.zero(dx, dy)), [])
              for dx, dy in ((0, 0), (0, 3), (3, 0))]
    zero = positive = 0
    for t, qs in cases:
        operators = ((getattr(t, name), t.charpoly(name))
                     for name in ("ba", "ac", "ca", "ab"))
        for T, p in dict(operators).items():
            for q in (Poly([0, 1]), Poly([-1, 1]), shifted_cubic, *qs):
                m = hyper_kernel_dim(p, q)
                oracle = PowerChain(poly_eval_mat(q, T))
                assert m == T.rows - oracle.rank(T.rows)
                assert coprime(p, q) == (m == 0)
                zero += m == 0
                positive += m > 0
    assert zero and positive
    print(f"ACCEPTANCE 3e: PASS - {zero} zero and {positive} positive "
          "hyper-kernel dimensions equal the row-reduced ones")


def test_criterion_4_inclusion_subspaces_are_the_evaluated_ones(corpus, monkeypatch):
    """The lemma's R and N of Q(T - I) are those of the evaluated polynomial."""
    seen = []
    real = MapCache.maps_into

    def recorded(cache, M, U, W):
        seen.append((U, W))
        return real(cache, M, U, W)

    monkeypatch.setattr(MapCache, "maps_into", recorded)
    for _, t, _, _ in corpus:
        for q in INCLUSION_QS:
            seen.clear()
            assert inclusion_lemma(t, q).all_hold
            evaluated = [poly_eval_mat(q, T.shifted(1))
                         for T in (t.ca, t.ab, t.ba, t.ac)]
            (r_ca, n_ca), (r_ab, n_ab), (r_ba, n_ba), (r_ac, n_ac) = (
                (image(M), kernel(M)) for M in evaluated)
            assert seen == [(r_ca, r_ab), (n_ca, n_ab), (r_ba, r_ac), (n_ba, n_ac)]
    print(f"ACCEPTANCE 4b: PASS - inclusion subspaces of {len(INCLUSION_QS)} "
          f"polynomials equal the evaluated ones on {len(corpus)} triples")


def test_criterion_4_inclusion_lemma(corpus):
    """All four inclusions for Q in {x, x^2, x^3, random cubic}."""
    rng = random.Random(424242)
    q_fixed = [Poly([0, 1]), Poly([0, 0, 1]), Poly([0, 0, 0, 1])]
    for _, t, _, _ in corpus:
        q_rand = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(3)] + [Fraction(1)])
        for q in q_fixed + [q_rand]:
            assert inclusion_lemma(t, q).all_hold
    print(f"ACCEPTANCE 4: PASS - inclusion lemma holds for 4 polynomials "
          f"on {len(corpus)} triples")


def test_criterion_5_theorem_pointwise(corpus):
    """sigma_{R_i} membership agrees at every rational eigenvalue != 0."""
    rows = 0
    for _, t, _, eigs in corpus:
        if not eigs:
            continue
        rep = verify_theorem(t, eigs)
        for row in rep.rows:
            assert row.equal, (f"sigma mismatch at lambda={row.lam}: "
                               f"indices {row.mismatches}")
            rows += 1
    assert rows > 0
    print(f"ACCEPTANCE 5: PASS - {rows} (lambda, triple) membership rows "
          "agree over all 19 regularities")


def test_criterion_6_charpoly_identity(corpus):
    """Nonzero parts of charpoly(AC) and charpoly(BA) coincide exactly."""
    for _, t, _, _ in corpus:
        assert nonzero_charpoly_match(t)
    print(f"ACCEPTANCE 6: PASS - charpoly nonzero parts match on "
          f"{len(corpus)} triples")


def test_criterion_6_eigenvalues_match_divisor_scan(corpus):
    """The modular root search equals the divisor scan on every AC and BA."""
    found = 0
    for _, t, _, _ in corpus:
        for T, p in ((t.ba, t.charpoly("ba")), (t.ac, t.charpoly("ac"))):
            eigs = rational_eigenvalues_by_divisors(T)
            assert rational_eigenvalues(p) == eigs
            assert rational_eigenvalues(T) == eigs
            found += len(eigs)
    print(f"ACCEPTANCE 6: PASS - rational eigenvalues equal the divisor "
          f"scan's on {2 * len(corpus)} products ({found} distinct roots)")


def test_criterion_6_one_root_search_gives_the_default_probes(corpus):
    """The probes from one charpoly's roots equal those from both charpolys'."""
    singular = 0
    for _, t, _, _ in corpus:
        probes = default_probes(t)
        assert probes == default_probes_by_two_searches(t)
        singular += Fraction(0) in probes
    assert singular
    print(f"ACCEPTANCE 6: PASS - default probes from one root search equal "
          f"the two-search union on {len(corpus)} triples ({singular} with 0)")


def test_criterion_7_shift_polynomials(corpus):
    """(I-BA)^n = I - B_nA, (I-AC)^n = I - AC_n, condition preserved, n <= 4."""
    for _, t, _, _ in corpus:
        i_x = Mat.identity(t.dim_x)
        i_y = Mat.identity(t.dim_y)
        for n in range(1, 5):
            bn, cn = shift_polys(t, n)  # raises if any identity fails
            assert (i_x - t.ba) ** n == i_x - bn @ t.A
            assert (i_y - t.ac) ** n == i_y - t.A @ cn
            assert OperatorTriple(t.A, bn, cn).condition_holds
    print(f"ACCEPTANCE 7: PASS - shift operators exact for n = 1..4 on "
          f"{len(corpus)} triples")


def _binomial_shift(t, n):
    """The paper's B_n and C_n as binomial sums of powers of AB and CA."""
    bn = cn = Mat.zero(t.dim_x, t.dim_y)
    for k in range(1, n + 1):
        coef = Fraction((-1) ** (k - 1) * comb(n, k))
        bn = bn + (t.B @ t.ab ** (k - 1)).scaled(coef)
        cn = cn + (t.ca ** (k - 1) @ t.C).scaled(coef)
    return bn, cn


def test_criterion_7_recurrence_matches_binomial_sums(corpus):
    """B_n and C_n built by their recurrence equal the binomial sums, n <= 4."""
    sample = corpus[::10]
    for _, t, _, _ in sample:
        for n in range(1, 5):
            assert shift_polys(t, n) == _binomial_shift(t, n)
    print(f"ACCEPTANCE 7b: PASS - recurrence equals the binomial sums on "
          f"{len(sample)} triples")


def test_criterion_8_drazin_transfer(corpus):
    """T = BS^2A Drazin-inverts BA and equals the directly computed inverse."""
    for _, t, _, _ in corpus:
        rep = transfer(t)
        assert rep.commutes and rep.inner and rep.residual_nilpotent
        assert rep.matches_direct
        assert rep.candidate == drazin_inverse(t.ba).inverse
        pi = proof_identities(t, rep)
        assert pi.commutation and pi.residual_is_bpa and pi.cycle
        assert pi.pac_matches and pi.pac_nilpotent
    print(f"ACCEPTANCE 8: PASS - Drazin transfer and proof identity chain "
          f"hold on {len(corpus)} triples")


def test_criterion_9_oracle_equivalence():
    """Dual forms agree on 50 random squares; asc = dsc; multiplicities match."""
    rng = random.Random(909090)
    eig_checks = 0
    for i in range(50):
        n = rng.randint(1, 6)
        T = Mat(n, n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(n * n)])
        for m in range(n + 1):
            assert c_n(T, m) == c_n_via_complement(T, m)
            assert cp_n(T, m) == cp_n_via_intersection(T, m)
            assert k_n(T, m) == k_n_via_sums(T, m)
        p = profile(T)
        assert p.asc == p.dsc
        for lam, mult in rational_eigenvalues(T):
            assert eigenvalue_multiplicity(T, lam) == mult
            assert profile(T.shifted(lam)).cp_total == mult
            eig_checks += 1
    print(f"ACCEPTANCE 9: PASS - 50 random matrices, dual forms equal, "
          f"asc = dsc, {eig_checks} multiplicity identities")


def test_criterion_10_negative_control(tmp_path):
    """A nonconforming triple witnesses a sequence inequality; strict verify fails."""
    witness = None
    for seed in range(60):
        t = generate(GenSpec(template="nonconforming", block_dim=3, seed=seed))
        for lam in (lam for lam in default_probes(t) if lam != 0):
            pac = profile(t.ac.shifted(lam))
            pba = profile(t.ba.shifted(lam))
            if (pac.c_seq != pba.c_seq or pac.cp_seq != pba.cp_seq
                    or pac.k_seq != pba.k_seq):
                witness = (t, lam)
                break
        if witness:
            break
    assert witness is not None, "no nonconforming triple broke an equality"
    t, lam = witness
    path = tmp_path / "nonconforming.json"
    write_triple_document(t, str(path))
    assert main(["verify", str(path), "--strict"]) != 0
    print(f"ACCEPTANCE 10: PASS - inequality witnessed at lambda={lam}; "
          "strict verify exits nonzero")
