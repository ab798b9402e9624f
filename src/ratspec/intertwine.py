"""Verifiers for the intertwining condition A(BA)^2 = ABACA = ACABA = (AC)^2A.

Given A: X -> Y and B, C: Y -> X satisfying the condition, the products AC
and BA share their spectral invariant sequences away from 0. This module
checks that mechanically on concrete rational triples: the four power/kernel
inclusion statements, the three quotient maps carried by ACA (between range
chains, kernel chains, and mixed sum chains of BA - lambda and AC - lambda),
the resulting sequence equalities, the pointwise regularity-spectrum
agreement, the nonzero characteristic-polynomial match, and the binomial
shift operators B_n, C_n with (I-BA)^n = I - B_nA and (I-AC)^n = I - AC_n.

Every verifier reads one OperatorTriple, which forms each product of the
triple once: BA, AC, CA, ABA and ACA (only BA and AC when C == B, and ABA =
ACA on its first read), and the condition residuals from them by
distributivity rather than from the four degree-5 products A(BA)^2, ABACA,
ACABA and (AC)^2A. Its power chains
are keyed by operator value, so equal operators (CA - 1 and BA - 1 when
CA = BA, say) share one chain.

Every regularity spectrum lies in the spectrum, the root set of the
characteristic polynomial. So the charpolys of BA and AC, which the probe
search and the charpoly match need anyway, decide which probed operators
are invertible: p(T) is invertible iff gcd(charpoly(T), p) = 1, which for
p = x - lambda is charpoly(T)(lambda) != 0, and CA and AB read theirs off
AC and BA by Sylvester's identity. An invertible operator gets the trivial
chain (stable at 0, range the whole space, kernel 0) with no power and no
row reduction; a singular one is multiplied out and row-reduced. The tests
keep the row-reduced chain of every operator as the oracle.

The condition gives ACA(BA - lambda) = (AC - lambda)ACA at every lambda, so
ACA carries the chains of BA - lambda onto those of AC - lambda as they are.
Neighbouring maps share most of their work: the small spaces of the map at
n are the big ones at n + 1, and the three map families and the inclusion
lemma meet in the same chain subspaces. So every triple owns a MapCache,
which forms the carried rows V ACA^T of each subspace V and decides each
containment ACA(V) <= W once; the chains themselves keep each sum
R(T) + N(T^n). Production decides injectivity by the rank of each map's
matrix. The preimage route forms its own product K ACA V^T, so that it
shares no cached input with the rank route; the tests keep it as an oracle.

The closedness statements of the general theory (R(T-lambda) + N((T-lambda)^n)
closed on one side iff on the other) trivialize here, every subspace of a
finite-dimensional space being closed; the subspaces themselves are still
materialized, as the sum chains of the mixed quotient maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ratspec.invariants import (PowerChain, coprime, profile,
                                rational_eigenvalues, sigma_memberships)
from ratspec.ratmat import (Mat, Poly, Subspace, charpoly, image, kernel,
                            poly_eval_mat, rank, rat)


class ConditionNotSatisfied(ValueError):
    """Raised when an operation requires the intertwining condition."""


class MapCache:
    """The carried rows and containments of the quotient maps, each once.

    Keys are values (a Mat and a Subspace compare structurally), so every
    map that meets the same subspace shares the result:
    - carried(M, V): the rows V M^T, V's basis carried by M;
    - maps_into(M, V, W): M(V) <= W, read off those rows at W's pivots.
    The small spaces of the map at n are the big ones at n + 1, and the
    map families and the inclusion lemma meet in the same subspaces: on the
    first-round documents of ratbench's verify workloads at seed 11, 77% of
    the carried-row lookups and 90% of the containment lookups are hits.
    An OperatorTriple owns one, so it lives exactly as long as the triple.
    """

    __slots__ = ("_carried", "_into")

    def __init__(self):
        self._carried: dict[tuple[Mat, Subspace], Mat] = {}
        self._into: dict[tuple[Mat, Subspace, Subspace], bool] = {}

    def carried(self, M: Mat, V: Subspace) -> Mat:
        key = (M, V)
        rows = self._carried.get(key)
        if rows is None:
            if V.ambient_dim != M.cols:
                raise ValueError("subspace not in the domain of M")
            # the whole space has the identity basis
            rows = M.transpose() if V.dim == V.ambient_dim else (
                V.basis_matrix() @ M.transpose())
            self._carried[key] = rows
        return rows

    def maps_into(self, M: Mat, V: Subspace, W: Subspace) -> bool:
        key = (M, V, W)
        into = self._into.get(key)
        if into is None:
            into = self._into[key] = W.contains_rows(self.carried(M, V))
        return into


class OperatorTriple:
    """(A, B, C) with A: X -> Y and B, C: Y -> X, each product formed once.

    Construction forms BA, AC and CA (BA itself when C == B). The residuals
    of the three chained equalities A(BA)^2 - ABACA, ABACA - ACABA and
    ACABA - (AC)^2A come by distributivity from D = BA - CA and
    E = ACA - ABA:
        r1 = ABA D,  r2 = -r1 - E BA,  r3 = r1 + E D,
    and a product with a zero D or E is not formed. A zero D makes E = -AD
    and all three residuals zero, and ACA = ABA; ABA and ACA are then one
    matrix, formed on the first read of aba or aca. Otherwise construction
    forms ABA and ACA. So a triple costs 2 products when C == B, 3 when
    CA = BA, 6 when ABA = ACA and 8 otherwise. AB is formed on the first
    read of ab (AC itself when C == B). All public attributes are treated
    as immutable.

    The power chains of the triple are keyed by operator value, so equal
    operators share one chain: the chains of CA - 1 and AB - 1 are those of
    BA - 1 and AC - 1 whenever the operators agree, as they do for every
    C == B triple. map_cache is the MapCache that the quotient maps and the
    inclusion lemma of this triple share.
    """

    __slots__ = ("A", "B", "C", "dim_x", "dim_y",
                 "ba", "ac", "ca", "_aba", "_aca", "residuals",
                 "condition_holds", "map_cache", "_ab", "_power_chains",
                 "_chains", "_charpolys")

    def __init__(self, A: Mat, B: Mat, C: Mat):
        if B.rows != C.rows or B.cols != C.cols:
            raise ValueError("B and C must have the same shape")
        if A.rows != B.cols or A.cols != B.rows:
            raise ValueError("A must map X -> Y with B, C: Y -> X")
        self.A = A
        self.B = B
        self.C = C
        self.dim_x = A.cols
        self.dim_y = A.rows
        self.ba = B @ A
        self.ac = A @ C
        if C == B:
            self.ca, self._ab = self.ba, self.ac
        else:
            self.ca, self._ab = C @ A, None
        D = self.ba - self.ca
        if D.is_zero():
            self._aba = self._aca = None
            zero = Mat.zero(self.dim_y, self.dim_x)
            self.residuals = (zero, zero, zero)
        else:
            self._aba, self._aca = A @ self.ba, A @ self.ca
            self.residuals = _residuals(self.ba, self._aba, D,
                                        self._aca - self._aba)
        self.condition_holds = all(m.is_zero() for m in self.residuals)
        self.map_cache = MapCache()
        self._power_chains: dict[Mat, PowerChain] = {}
        self._chains: dict[Fraction, tuple[PowerChain, PowerChain]] = {}
        self._charpolys: tuple[Poly, Poly] | None = None

    @property
    def aba(self) -> Mat:
        """ABA; when CA = BA, formed on the first read of aba or aca."""
        if self._aba is None:
            self._aba = self._aca = self.A @ self.ba
        return self._aba

    @property
    def aca(self) -> Mat:
        """ACA, which is ABA when CA = BA."""
        return self.aba if self._aca is None else self._aca

    @property
    def ab(self) -> Mat:
        """AB, formed on the first read."""
        if self._ab is None:
            self._ab = self.A @ self.B
        return self._ab

    def charpolys(self) -> tuple[Poly, Poly]:
        """The characteristic polynomials of BA and AC.

        Built on the first request and kept on the triple, so the probe
        search, the charpoly match and the invertibility of every probed
        operator share them.
        """
        if self._charpolys is None:
            self._charpolys = (charpoly(self.ba), charpoly(self.ac))
        return self._charpolys

    def ca_ab_charpolys(self) -> tuple[Poly, Poly]:
        """The characteristic polynomials of CA and AB, by Sylvester's identity:
        x^(dy-dx) charpoly(CA) = charpoly(AC) and
        x^(dx-dy) charpoly(AB) = charpoly(BA)."""
        pba, pac = self.charpolys()
        shift = self.dim_x - self.dim_y
        return _times_x_power(pac, shift), _times_x_power(pba, -shift)

    def _chain(self, T: Mat, p: Poly, lam: Fraction) -> PowerChain:
        """The one PowerChain of T - lam on this triple, p the charpoly of T.

        T - lam is invertible iff p(lam) != 0; that is evaluated only when
        the chain is built, so each chain's invertibility is decided once.
        """
        shifted = T.shifted(lam)
        chain = self._power_chains.get(shifted)
        if chain is None:
            chain = self._power_chains[shifted] = PowerChain(shifted, p(lam) != 0)
        return chain

    def chains(self, lam: int | Fraction) -> tuple[PowerChain, PowerChain]:
        """The power chains of BA - lam and AC - lam; lam must be nonzero.

        Built on the first request for each lam and kept on the triple, so
        every verifier at lam shares one pair of chains. T - lam is
        invertible iff charpoly(T)(lam) != 0, and then its chain is the
        trivial one, with no power and no row reduction; the tests compare
        it with the row-reduced PowerChain(T - lam).
        """
        lam = rat(lam)
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        pair = self._chains.get(lam)
        if pair is None:
            pba, pac = self.charpolys()
            pair = self._chains[lam] = (self._chain(self.ba, pba, lam),
                                        self._chain(self.ac, pac, lam))
        return pair

    def ca_ab_chains(self) -> tuple[PowerChain, PowerChain]:
        """The power chains of CA - 1 and AB - 1: those of chains(1) where
        CA = BA or AB = AC.

        By Sylvester's identity (ca_ab_charpolys) CA - 1 is invertible iff
        charpoly(AC)(1) != 0, and AB - 1 iff charpoly(BA)(1) != 0: an
        invertible one gets the trivial chain, and the tests keep the
        row-reduced chain as the oracle.
        """
        pba, pac = self.charpolys()
        return self._chain(self.ca, pac, 1), self._chain(self.ab, pba, 1)

    def __repr__(self) -> str:
        return (f"OperatorTriple(dim_x={self.dim_x}, dim_y={self.dim_y}, "
                f"condition={'holds' if self.condition_holds else 'fails'})")


def _times_x_power(p: Poly, k: int) -> Poly:
    """x^k p; for k < 0, p over x^-k, whose low coefficients Sylvester's
    identity makes zero."""
    return Poly([0] * k + list(p.coeffs)) if k >= 0 else Poly(p.coeffs[-k:])


def _residuals(ba: Mat, aba: Mat, D: Mat, E: Mat) -> tuple[Mat, Mat, Mat]:
    """A(BA)^2 - ABACA, ABACA - ACABA and ACABA - (AC)^2A from a nonzero
    D = BA - CA and E = ACA - ABA, forming no product with a zero E.

    ABACA = ABA(BA - D) and ACABA = (ABA + E)BA, so the first two are ABA D
    and -ABA D - E BA; the third is ACA D = (ABA + E)D.
    """
    r1 = aba @ D
    if E.is_zero():
        return r1, -r1, r1
    return r1, -r1 - E @ ba, r1 + E @ D


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    residuals: tuple[Mat, Mat, Mat]


def check_condition(t: OperatorTriple) -> ConditionReport:
    """Residuals of the three chained equalities; holds iff all are zero."""
    return ConditionReport(holds=t.condition_holds, residuals=t.residuals)


def _require_condition(t: OperatorTriple) -> None:
    if not t.condition_holds:
        raise ConditionNotSatisfied("triple does not satisfy the intertwining condition")


def scaled(t: OperatorTriple, lam: int | Fraction) -> OperatorTriple:
    """The triple (A/lam, B, C), the paper's reduction of lam to 1; lam != 0.

    The condition is preserved (every product is homogeneous of degree 3 in
    A) and the chains of (BA - lam) equal those of (B(A/lam) - 1). The
    verifiers read BA - lam itself (OperatorTriple.chains); tests use this.
    """
    lam = rat(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return OperatorTriple(t.A.scaled(1 / lam), t.B, t.C)


@dataclass(frozen=True)
class InclusionReport:
    """The four inclusion-lemma statements for one polynomial Q."""

    aba_range: bool   # ABA.R(Q(CA-I)) <= R(Q(AB-I))
    aba_kernel: bool  # ABA.N(Q(CA-I)) <= N(Q(AB-I))
    aca_range: bool   # ACA.R(Q(BA-I)) <= R(Q(AC-I))
    aca_kernel: bool  # ACA.N(Q(BA-I)) <= N(Q(AC-I))

    @property
    def all_hold(self) -> bool:
        return self.aba_range and self.aba_kernel and self.aca_range and self.aca_kernel


def inclusion_lemma(t: OperatorTriple, Q: Poly) -> InclusionReport:
    """Check all four subspace inclusions for the polynomial Q.

    For Q = c x^k the ranges and kernels of Q(T - I) are those of
    (T - I)^k, read off the triple's chains at 1 (BA, AC) and its chains of
    CA - 1 and AB - 1. For any other Q, Q(T - I) is invertible iff
    charpoly(T) and Q(x - 1) are coprime, read off the triple's charpolys;
    then its range is the whole space and its kernel 0, with no evaluation.
    Otherwise Q is evaluated once at each distinct shift (twice when
    C == B) and row-reduced; the tests keep that route as the oracle of the
    coprime case. The containments go through the triple's MapCache, so the
    ones on the chains at 1 are decided once with the quotient maps at 1.
    """
    _require_condition(t)
    k = Q.degree
    if k >= 1 and not any(Q.coeffs[:-1]):
        (ba, ac), (ca, ab) = t.chains(1), t.ca_ab_chains()
        spaces = [(c.image(k), c.kernel(k)) for c in (ca, ab, ba, ac)]
    else:
        operators = (t.ca, t.ab, t.ba, t.ac)
        shifted_q = Poly([])
        for c in reversed(Q.coeffs):  # Q(x - 1) by Horner
            shifted_q = shifted_q * Poly([-1, 1]) + Poly([c])
        evaluated: dict[Mat, tuple[Subspace, Subspace]] = {}
        for T, p in zip(operators, (*t.ca_ab_charpolys(), *t.charpolys())):
            if T in evaluated:
                continue
            if coprime(p, shifted_q):
                evaluated[T] = Subspace.full(T.rows), Subspace.zero(T.rows)
            else:
                M = poly_eval_mat(Q, T.shifted(1))
                evaluated[T] = image(M), kernel(M)
        spaces = [evaluated[T] for T in operators]
    (r_ca, n_ca), (r_ab, n_ab), (r_ba, n_ba), (r_ac, n_ac) = spaces
    into = t.map_cache.maps_into
    return InclusionReport(
        aba_range=into(t.aba, r_ca, r_ab),
        aba_kernel=into(t.aba, n_ca, n_ab),
        aca_range=into(t.aca, r_ba, r_ac),
        aca_kernel=into(t.aca, n_ba, n_ac),
    )


@dataclass(frozen=True)
class QuotientMap:
    """A linear map between quotients, materialized in quotient coordinates.

    The carrier acts on representatives: source_big/source_small ->
    target_big/target_small, x + source_small |-> carrier x + target_small.
    matrix holds the action on a representative basis expressed in target
    quotient coordinates (None when the map is not well defined). Injectivity
    is decidable two independent ways: by the rank of matrix, which the
    verifiers use, and by the subspace predicate {x in source_big : carrier
    x in target_small} <= source_small, which the tests compare against it.
    The second forms its own product from source_big and carrier, so that a
    wrong carried row in the MapCache that built matrix cannot sway both.
    """

    source_big: Subspace
    source_small: Subspace
    target_big: Subspace
    target_small: Subspace
    carrier: Mat
    well_defined: bool
    matrix: Mat | None

    @property
    def source_dim(self) -> int:
        return self.source_big.dim - self.source_small.dim

    @property
    def target_dim(self) -> int:
        return self.target_big.dim - self.target_small.dim

    def injective_by_rank(self) -> bool:
        if self.matrix is None:
            raise ArithmeticError("map is not well defined")
        return rank(self.matrix) == self.source_dim

    def injective_by_preimage(self) -> bool:
        """{x in source_big : carrier x in target_small} <= source_small.

        Decided in the coordinates y of source_big (x = y V, V its basis):
        with K the annihilator of target_small, the pulled-back set is the
        kernel of K carrier V^T, and source_small is the span of its basis
        at V's pivots, which is already in reduced echelon form.
        """
        big, small = self.source_big, self.source_small
        K = self.target_small.annihilator()
        if not (big.dim and K.rows):
            # nothing to pull back, or all of source_big lands in the whole
            # space: the predicate says source_small is all of source_big
            return small.dim == big.dim
        pulled = kernel(K @ self.carrier @ big.basis_matrix().transpose())
        at = {p: i for i, p in enumerate(big.pivots)}
        small_coords = Subspace(small.basis_matrix().columns(big.pivots),
                                tuple(at[p] for p in small.pivots))
        return small_coords.contains(pulled)


def _reps(big: Subspace, small: Subspace) -> list[int]:
    """Positions of the rows of big's basis at the pivots that small lacks.

    For nested echelon bases small <= big every pivot of small is a pivot of
    big, and these rows extend small's basis to one of big.
    """
    have = set(small.pivots)
    return [i for i, p in enumerate(big.pivots) if p not in have]


def induced_quotient_map(source_big: Subspace, source_small: Subspace,
                         target_big: Subspace, target_small: Subspace,
                         carrier: Mat, cache: MapCache | None = None) -> QuotientMap:
    """Materialize x + source_small |-> carrier x + target_small.

    Well-definedness = carrier maps source_small into target_small and
    source_big into target_big. Each quotient big/small is represented by the
    rows u_q of big's basis at the pivots q that small lacks. A vector y of
    target_big, less its part y[P] @ S on the small basis S with pivots P,
    holds its u_q-coordinate at q; so for the carried representatives Y the
    quotient matrix is (Y[:, Q] - Y[:, P] @ S[:, Q]) transposed.

    The carried rows and the containments are read from cache, the
    triple's MapCache on the chain maps; a fresh one when none is given.
    """
    cache = MapCache() if cache is None else cache
    if not (source_big.contains(source_small)
            and target_big.contains(target_small)):
        raise ValueError("quotient requires nested subspaces")
    if not (cache.maps_into(carrier, source_small, target_small)
            and cache.maps_into(carrier, source_big, target_big)):
        return QuotientMap(source_big, source_small, target_big, target_small,
                           carrier, well_defined=False, matrix=None)
    carried_big = cache.carried(carrier, source_big)
    src = _reps(source_big, source_small)
    carried = carried_big.submatrix(src, range(carried_big.cols))
    tgt = target_big.pivots
    q = [tgt[i] for i in _reps(target_big, target_small)]
    small = target_small.basis_matrix()
    coords = carried.columns(q) - carried.columns(target_small.pivots) @ small.columns(q)
    return QuotientMap(source_big, source_small, target_big, target_small,
                       carrier, well_defined=True, matrix=coords.transpose())


def gamma_map(t: OperatorTriple, n: int, lam: int | Fraction) -> QuotientMap:
    """Range-chain map R((BA-lam)^n)/R(..^(n+1)) -> same for AC, carried by ACA."""
    _require_condition(t)
    ba, ac = t.chains(lam)
    return induced_quotient_map(ba.image(n), ba.image(n + 1),
                                ac.image(n), ac.image(n + 1), t.aca, t.map_cache)


def psi_map(t: OperatorTriple, n: int, lam: int | Fraction) -> QuotientMap:
    """Kernel-chain map N((BA-lam)^(n+1))/N(..^n) -> same for AC."""
    _require_condition(t)
    ba, ac = t.chains(lam)
    return induced_quotient_map(ba.kernel(n + 1), ba.kernel(n),
                                ac.kernel(n + 1), ac.kernel(n), t.aca, t.map_cache)


def phi_map(t: OperatorTriple, n: int, lam: int | Fraction) -> QuotientMap:
    """Sum-chain map (R+N^(n+1))/(R+N^n) for BA-lam -> same for AC-lam."""
    _require_condition(t)
    ba, ac = t.chains(lam)
    return induced_quotient_map(ba.range_plus_kernel(n + 1), ba.range_plus_kernel(n),
                                ac.range_plus_kernel(n + 1), ac.range_plus_kernel(n),
                                t.aca, t.map_cache)


@dataclass(frozen=True)
class SequenceRow:
    n: int
    c_ac: int
    c_ba: int
    cp_ac: int
    cp_ba: int
    k_ac: int
    k_ba: int

    @property
    def equal(self) -> bool:
        return (self.c_ac == self.c_ba and self.cp_ac == self.cp_ba
                and self.k_ac == self.k_ba)


@dataclass(frozen=True)
class SequenceReport:
    lam: Fraction
    rows: tuple[SequenceRow, ...]
    totals_ac: tuple[int, int, int]  # (c, c', k) of AC - lam
    totals_ba: tuple[int, int, int]
    asc_ac: int
    asc_ba: int
    dsc_ac: int
    dsc_ba: int

    @property
    def all_equal(self) -> bool:
        return (all(r.equal for r in self.rows)
                and self.totals_ac == self.totals_ba
                and self.asc_ac == self.asc_ba and self.dsc_ac == self.dsc_ba)


def verify_sequence_equalities(t: OperatorTriple, lam: int | Fraction,
                               n_max: int | None = None) -> SequenceReport:
    """Compare c_n, c'_n, k_n of AC - lam and BA - lam for n = 0..n_max.

    Sequences are stabilizing, so indices past the matrix dimension are zero;
    also reports the totals c, c', k and ascent/descent on both sides. The
    profiles are read off the shared chains of AC - lam and BA - lam.
    """
    _require_condition(t)
    lam = rat(lam)
    ba, ac = t.chains(lam)
    pac = profile(ac)
    pba = profile(ba)
    if n_max is None:
        n_max = max(t.dim_x, t.dim_y)

    def seq(s: tuple[int, ...], n: int) -> int:
        return s[n] if n < len(s) else 0

    rows = tuple(SequenceRow(n=n,
                             c_ac=seq(pac.c_seq, n), c_ba=seq(pba.c_seq, n),
                             cp_ac=seq(pac.cp_seq, n), cp_ba=seq(pba.cp_seq, n),
                             k_ac=seq(pac.k_seq, n), k_ba=seq(pba.k_seq, n))
                 for n in range(n_max + 1))
    return SequenceReport(
        lam=lam, rows=rows,
        totals_ac=(pac.c_total, pac.cp_total, pac.k_total),
        totals_ba=(pba.c_total, pba.cp_total, pba.k_total),
        asc_ac=pac.asc, asc_ba=pba.asc, dsc_ac=pac.dsc, dsc_ba=pba.dsc,
    )


def default_probes(t: OperatorTriple) -> list[Fraction]:
    """Probe set: rational eigenvalues of AC and BA, 1, and two non-eigenvalues.

    Under the condition the charpolys of AC and BA agree away from 0
    (nonzero_charpoly_match checks it), so only AC's roots are searched,
    and 0 is added when either product is singular. Consumers skip 0 with an
    explicit note, mirroring sigma \\ {0} in the statements.
    """
    pba, pac = t.charpolys()
    eigs = {lam for lam, _ in rational_eigenvalues(pac)}
    if not (pba.coeffs[0] and pac.coeffs[0]):
        eigs.add(Fraction(0))
    probes = set(eigs)
    probes.add(Fraction(1))
    extras = 0
    candidate = (Fraction(p) for p in
                 (2, 3, 5, 7, Fraction(1, 2), Fraction(3, 2), 11, 13, 17, 19, 23))
    for c in candidate:
        if extras == 2:
            break
        if c not in eigs:
            probes.add(c)
            extras += 1
    return sorted(probes)


@dataclass(frozen=True)
class TheoremRow:
    lam: Fraction
    in_sigma_ac: tuple[bool, ...]
    in_sigma_ba: tuple[bool, ...]

    @property
    def equal(self) -> bool:
        return self.in_sigma_ac == self.in_sigma_ba

    @property
    def mismatches(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, (a, b)
                     in enumerate(zip(self.in_sigma_ac, self.in_sigma_ba)) if a != b)


@dataclass(frozen=True)
class TheoremReport:
    rows: tuple[TheoremRow, ...]
    skipped: tuple[Fraction, ...] = field(default_factory=tuple)

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows)


def verify_theorem(t: OperatorTriple,
                   lambdas: list[Fraction] | None = None) -> TheoremReport:
    """Pointwise sigma_{R_i}(AC) vs sigma_{R_i}(BA) agreement at each lam != 0.

    Each row is read off the shared chains of AC - lam and BA - lam. lam = 0
    entries are skipped with a note (the statements all exclude 0).
    """
    _require_condition(t)
    if lambdas is None:
        lambdas = default_probes(t)
    rows = []
    skipped = []
    for lam in lambdas:
        lam = rat(lam)
        if lam == 0:
            skipped.append(lam)
            continue
        ba, ac = t.chains(lam)
        rows.append(TheoremRow(lam=lam,
                               in_sigma_ac=sigma_memberships(ac),
                               in_sigma_ba=sigma_memberships(ba)))
    return TheoremReport(rows=tuple(rows), skipped=tuple(skipped))


def nonzero_charpoly_match(t: OperatorTriple) -> bool:
    """Equal nonzero eigenvalue structure, as an exact polynomial identity.

    The characteristic polynomials of AC and BA, after dividing out all
    powers of the variable, must coincide; this covers irrational and
    complex eigenvalues without extracting any root. Both are monic, and
    dividing out x^k keeps the leading coefficient.
    """
    _require_condition(t)
    pba, pac = (p.strip_zero_roots()[0] for p in t.charpolys())
    return pac == pba


def shift_polys(t: OperatorTriple, n: int) -> tuple[Mat, Mat]:
    """The binomial shift operators (B_n, C_n) for (I-BA)^n and (I-AC)^n.

    B_n = sum_{k=1..n} (-1)^(k-1) C(n,k) B(AB)^(k-1) and C_n mirrors it with
    (CA)^(k-1)C. Both are built from B_1 = B, C_1 = C by the recurrence
    B_k = B + B_(k-1)(I-AB) and C_k = C + (I-CA)C_(k-1), which follows from
    (I-BA)^k = (I - B_(k-1)A)(I-BA); when C == B, C_k is B_k, as
    (BA)^j B = B(AB)^j, and is not formed a second time. Verifies, for
    every k = 1..n in one pass, (I-BA)^k = I - B_kA, (I-AC)^k = I - AC_k and
    that (A, B_k, C_k) again satisfies the intertwining condition before
    returning; at k = 1 that triple is t. A failing identity raises
    ArithmeticError naming it and the first k where it fails.
    """
    _require_condition(t)
    if n < 1:
        raise ValueError("n must be at least 1")
    i_x = Mat.identity(t.dim_x)
    i_y = Mat.identity(t.dim_y)
    i_ab, i_ca = i_y - t.ab, i_x - t.ca
    i_ba, i_ac = i_x - t.ba, i_y - t.ac
    bn, cn = t.B, t.C
    same = t.C == t.B
    pow_ba, pow_ac = i_ba, i_ac
    for k in range(1, n + 1):
        if k > 1:
            bn = t.B + bn @ i_ab
            cn = bn if same else t.C + i_ca @ cn
            pow_ba, pow_ac = pow_ba @ i_ba, pow_ac @ i_ac
        # B_1 = B and C_1 = C, so (A, B_1, C_1) is t itself
        tk = OperatorTriple(t.A, bn, cn) if k > 1 else t
        if pow_ba != i_x - tk.ba:
            raise ArithmeticError(f"(I-BA)^n != I - B_nA at n = {k}")
        if pow_ac != i_y - tk.ac:
            raise ArithmeticError(f"(I-AC)^n != I - AC_n at n = {k}")
        if not tk.condition_holds:
            raise ArithmeticError(
                f"(A, B_n, C_n) lost the intertwining condition at n = {k}")
    return bn, cn
