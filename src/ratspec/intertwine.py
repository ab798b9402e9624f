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
ACABA and (AC)^2A.

Every probed operator is q(T) for T one of BA, AC, CA and AB: q is
x - lambda at each probe, x - 1 or Q(x - 1) in the inclusion lemma, and x
for AC's Drazin inverse. The triple names T "ba", "ac", "ca" or "ab" and
owns its charpoly. Only BA's is computed, and AC's is read off it: with
D = BA - CA and E = ACA - ABA, the condition makes Tr((AC)^k) =
Tr((BA)^k) for every k >= 3:
- ABA D = 0, so (BA)^k D = (BA)^(k-2) B (ABA D) = 0 for k >= 2, and
  Tr((BA)^k CA) = Tr((BA)^(k+1));
- E BA = 0 and (AC)^2 A = A(BA)^2 give (AC)^k A = A(BA)^k for k >= 2, by
  induction, so Tr((AC)^(k+1)) = Tr(A(BA)^k C) = Tr((BA)^k CA).
By Newton's identities x^dx charpoly(AC) = x^dy charpoly(BA) iff the first
two power sums agree too, and then AC's charpoly is read off BA's; CA's and
AB's are read off AC's and BA's by Sylvester's identity. So
OperatorTriple.chain(name, q) gives the power chain with no polynomial
passed in: m = hyper_kernel_dim(charpoly(name), q) is dim N(q(T)^dim), so
q(T) is invertible iff m = 0, the one place that is decided, and otherwise
its chain stops at rank dim - m (invariants.PowerChain). Each distinct
(T, q), compared by value, is looked up before anything is decided, so it
is decided once. Every invertible operator on Q^n has the identity's
chain, kept once per dimension, with no power and no row reduction; a
singular q(T) is evaluated once per distinct (T, q), and equal T share its
chain. The tests keep the row-reduced chain of every operator as the
oracle.

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

What a verifier reads off the chains alone is the same at every lambda
with the same chain pair, and on random triples most probes share one:
every lambda at which BA - lambda and AC - lambda are invertible has the
identity's pair. So the triple keeps such results per chain pair
(OperatorTriple.pair_result): the quotient-map witnesses, the sequence rows
with their totals, ascents and descents, and the sigma rows are built once
per pair, and each lambda adds only its label.

The closedness statements of the general theory (R(T-lambda) + N((T-lambda)^n)
closed on one side iff on the other) trivialize here, every subspace of a
finite-dimensional space being closed; the subspaces themselves are still
materialized, as the sum chains of the mixed quotient maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from ratspec.invariants import (PowerChain, hyper_kernel_dim, profile,
                                rational_eigenvalues, sigma_memberships)
# image stays importable for ratbench's alias self-tests, unused here
from ratspec.ratmat import (Mat, Poly, Subspace, charpoly, first_traces,  # noqa: F401
                            image, kernel, poly_eval_mat, power_sums, rank, rat)


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
    first-round documents of ratbench's verify workloads at seed 11, with
    OperatorTriple.pair_result in place, 165 of 253 carried-row lookups
    (65%) and 617 of 708 containment lookups (87%) are hits.
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

    charpoly(name) gives the characteristic polynomial of BA, AC, CA or
    AB, BA's computed and the rest read off it whenever the condition holds
    and the first two power sums of BA and AC agree, and chain(name, q)
    the power chain of q(T) for that operator T,
    keyed by (T, q) with T compared by value, so equal operators share
    one: CA - 1 and AB - 1 share those of BA - 1 and AC - 1 whenever
    CA = BA and AB = AC, as on every C == B triple. map_cache is the
    MapCache that the quotient maps and the inclusion lemma of this triple
    share, and pair_result keeps what the verifiers read off each chain
    pair.
    Everything is kept on the triple and lives as long as it does.
    """

    __slots__ = ("A", "B", "C", "dim_x", "dim_y",
                 "ba", "ac", "ca", "_aba", "_aca", "residuals",
                 "condition_holds", "map_cache", "_ab", "_power_chains",
                 "_chains", "_charpolys", "_pair_results")

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
        # a dimension for its trivial chain, (T, q) for every decided one
        self._power_chains: dict[int | tuple[Mat, Poly], PowerChain] = {}
        # lambda as (numerator, denominator)
        self._chains: dict[tuple[int, int], tuple[PowerChain, PowerChain]] = {}
        self._charpolys: dict[str, Poly] = {}
        self._pair_results: dict[tuple[PowerChain, PowerChain], dict] = {}

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

    def charpoly(self, name: str) -> Poly:
        """The characteristic polynomial of BA, AC, CA or AB ("ba", "ac",
        "ca" or "ab"), built on the first request and kept on the triple.

        Only BA's is computed (ratmat.charpoly). The condition makes
        Tr((AC)^k) = Tr((BA)^k) for every k >= 3 (module docstring), so when
        it holds and the first two power sums agree, x^dx charpoly(AC) =
        x^dy charpoly(BA) by Newton's identities, and AC's is read off BA's.
        Those two sums cost no product: BA's come off its top coefficients
        (ratmat.power_sums), AC's are its trace and sum t_ij t_ji
        (ratmat.first_traces). Otherwise AC's is computed too. CA's and AB's
        are read off AC's and BA's by Sylvester's identity,
        x^(dy-dx) charpoly(CA) = charpoly(AC) and
        x^(dx-dy) charpoly(AB) = charpoly(BA).
        """
        p = self._charpolys.get(name)
        if p is None:
            if name == "ba":
                p = charpoly(self.ba)
            elif name == "ac":
                pba = self.charpoly("ba")
                if self.condition_holds and power_sums(pba, 2) == first_traces(self.ac):
                    p = _times_x_power(pba, self.dim_y - self.dim_x)
                else:
                    p = charpoly(self.ac)
            elif name in ("ca", "ab"):
                # CA and AB are AC and BA with their factors swapped
                shift = self.dim_x - self.dim_y
                p = _times_x_power(self.charpoly(name[::-1]),
                                   shift if name == "ca" else -shift)
            else:
                raise ValueError(f"no operator {name!r}: expected 'ba', 'ac', "
                                 "'ca' or 'ab'")
            self._charpolys[name] = p
        return p

    def chain(self, name: str, q: Poly) -> PowerChain:
        """The PowerChain of q(T) for T the operator name ("ba", "ac", "ca"
        or "ab") of this triple.

        Each distinct (T, q), compared by value, is looked up before
        anything is decided, and decided once, by hyper_kernel_dim on T's
        charpoly(name). Every invertible q(T) (hyper_kernel_dim 0) shares
        the trivial chain of its dimension; a singular one is evaluated and
        given its hyper_kernel_dim.
        """
        p = self.charpoly(name)
        T = getattr(self, name)
        key = (T, q)
        chain = self._power_chains.get(key)
        if chain is None:
            m = hyper_kernel_dim(p, q)
            if m:
                chain = PowerChain(poly_eval_mat(q, T), m)
            elif (chain := self._power_chains.get(T.rows)) is None:
                chain = self._power_chains[T.rows] = PowerChain(Mat.identity(T.rows), 0)
            self._power_chains[key] = chain
        return chain

    def chains(self, lam: int | Fraction) -> tuple[PowerChain, PowerChain]:
        """The power chains of BA - lam and AC - lam; lam must be nonzero.

        Built on the first request for each lam, as chain(name, x - lam),
        and kept on the triple, so every verifier at lam shares one pair.
        """
        lam = rat(lam)
        a, b = lam.numerator, lam.denominator
        if a == 0:
            raise ValueError("lambda must be nonzero")
        pair = self._chains.get((a, b))
        if pair is None:
            q = Poly.from_ints([-a, b], b)  # x - a/b
            pair = self._chains[a, b] = (self.chain("ba", q), self.chain("ac", q))
        return pair

    def pair_result(self, lam: int | Fraction, key: object, build):
        """build(ba, ac) for the chain pair (ba, ac) = chains(lam), formed
        once per pair and key.

        A result read off the chains alone is the same at every lam with
        that pair: every lam at which BA - lam and AC - lam are invertible
        has the identity's pair, and equal operators share their chains.
        So such a result is built once, and each lam adds only its label.
        """
        pair = self.chains(lam)
        results = self._pair_results.get(pair)
        if results is None:
            results = self._pair_results[pair] = {}
        if key not in results:
            results[key] = build(*pair)
        return results[key]

    def __repr__(self) -> str:
        return (f"OperatorTriple(dim_x={self.dim_x}, dim_y={self.dim_y}, "
                f"condition={'holds' if self.condition_holds else 'fails'})")


def _times_x_power(p: Poly, k: int) -> Poly:
    """x^k p; for k < 0, p over x^-k, whose low coefficients Sylvester's
    identity makes zero: a nonzero one raises ArithmeticError."""
    if k >= 0:
        return Poly.from_ints((0,) * k + p.num, p.den)
    if any(p.num[:-k]):
        raise ArithmeticError(f"x^{-k} does not divide {p}, against Sylvester's "
                              "identity")
    return Poly.from_ints(p.num[-k:], p.den)


def power_sum_witness(t: OperatorTriple) -> str:
    """The first power sum on which AC and BA differ, read off their
    charpolys, as "Tr(AC^k) = a, Tr(BA^k) = b"; "" when none does.

    x^dy charpoly(BA) and x^dx charpoly(AC) are monic of degree dx + dy,
    so by Newton's identities they are equal iff their first dx + dy power
    sums are, and the x^k factors add nothing to a power sum.
    """
    n = t.dim_x + t.dim_y
    sums = zip(power_sums(t.charpoly("ac"), n), power_sums(t.charpoly("ba"), n))
    for k, (ac, ba) in enumerate(sums, 1):
        if ac != ba:
            power = f"^{k}" if k > 1 else ""
            return f"Tr(AC{power}) = {ac}, Tr(BA{power}) = {ba}"
    return ""


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


_X_MINUS_1 = Poly([-1, 1])


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

    The ranges and kernels of Q(T - I) are read off the triple's chains
    (OperatorTriple.chain) of CA, AB, BA and AC: for Q = c x^k those of
    (T - I)^k, at x - 1 and index k, which BA and AC share with chains(1);
    for any other Q those of q(T) at index 1, q = Q(x - 1). The
    containments go through the triple's MapCache, so the ones on the
    chains at 1 are decided once with the quotient maps at 1.
    """
    _require_condition(t)
    k = Q.degree
    if k >= 1 and not any(Q.num[:-1]):
        q, index = _X_MINUS_1, k
    else:
        q, index = Poly([]), 1
        for c in reversed(Q.coeffs):  # Q(x - 1) by Horner
            q = q * _X_MINUS_1 + Poly([c])
    ba, ac, ca, ab = (t.chain(name, q) for name in ("ba", "ac", "ca", "ab"))
    into = t.map_cache.maps_into
    return InclusionReport(
        aba_range=into(t.aba, ca.image(index), ab.image(index)),
        aba_kernel=into(t.aba, ca.kernel(index), ab.kernel(index)),
        aca_range=into(t.aca, ba.image(index), ac.image(index)),
        aca_kernel=into(t.aca, ba.kernel(index), ac.kernel(index)),
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
    profiles are read off the shared chains of AC - lam and BA - lam, and
    the rows, totals, ascents and descents are formed once per chain pair
    and n_max (OperatorTriple.pair_result).
    """
    _require_condition(t)
    lam = rat(lam)
    if n_max is None:
        n_max = max(t.dim_x, t.dim_y)
    report = t.pair_result(lam, ("sequences", n_max),
                           lambda ba, ac: _sequence_report(lam, ba, ac, n_max))
    return replace(report, lam=lam)


def _sequence_report(lam: Fraction, ba: PowerChain, ac: PowerChain,
                     n_max: int) -> SequenceReport:
    """The SequenceReport at lam read off the chains of BA - lam and AC - lam."""
    pac = profile(ac)
    pba = profile(ba)

    def seq(s: tuple[int, ...], n: int) -> int:
        return s[n] if n < len(s) else 0

    rows = tuple(SequenceRow(n=n,
                             c_ac=seq(pac.c_seq, n), c_ba=seq(pba.c_seq, n),
                             cp_ac=seq(pac.cp_seq, n), cp_ba=seq(pba.cp_seq, n),
                             k_ac=seq(pac.k_seq, n), k_ba=seq(pba.k_seq, n))
                 for n in range(n_max + 1))
    return SequenceReport(lam=lam, rows=rows,
                          totals_ac=(pac.c_total, pac.cp_total, pac.k_total),
                          totals_ba=(pba.c_total, pba.cp_total, pba.k_total),
                          asc_ac=pac.asc, asc_ba=pba.asc,
                          dsc_ac=pac.dsc, dsc_ba=pba.dsc)


def default_probes(t: OperatorTriple) -> list[Fraction]:
    """Probe set: rational eigenvalues of AC and BA, 1, and two non-eigenvalues.

    Under the condition the charpolys of AC and BA agree away from 0
    (nonzero_charpoly_match checks it), so only AC's roots are searched,
    and 0 is added when either product is singular. Consumers skip 0 with an
    explicit note, mirroring sigma \\ {0} in the statements.
    """
    pba, pac = t.charpoly("ba"), t.charpoly("ac")
    eigs = {lam for lam, _ in rational_eigenvalues(pac)}
    if not (pba.num[0] and pac.num[0]):
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

    Each row is read off the shared chains of AC - lam and BA - lam, its
    memberships once per chain pair (OperatorTriple.pair_result). lam = 0
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
        in_ac, in_ba = t.pair_result(lam, "sigma", lambda ba, ac: (
            sigma_memberships(ac), sigma_memberships(ba)))
        rows.append(TheoremRow(lam=lam, in_sigma_ac=in_ac, in_sigma_ba=in_ba))
    return TheoremReport(rows=tuple(rows), skipped=tuple(skipped))


def nonzero_charpoly_match(t: OperatorTriple) -> bool:
    """Equal nonzero eigenvalue structure, as an exact polynomial identity.

    The characteristic polynomials of AC and BA, after dividing out all
    powers of the variable, must coincide; this covers irrational and
    complex eigenvalues without extracting any root. Both are monic, and
    dividing out x^k keeps the leading coefficient. The triple reads one
    off the other only when Tr(AC) = Tr(BA) and Tr((AC)^2) = Tr((BA)^2),
    and computes both otherwise. Under the condition the sums from k = 3 on
    agree anyway (module docstring), so this decides those first two sums:
    the same predicate as comparing two computed polynomials.
    """
    _require_condition(t)
    pba, pac = (t.charpoly(name).strip_zero_roots()[0] for name in ("ba", "ac"))
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
