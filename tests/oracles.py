"""Independent oracles that only the tests call.

Production reads every per-operator quantity off one PowerChain and every
per-lambda quantity off the triple's shared chains. The functions here
compute the same quantities another way, from fresh matrix powers,
subspace sums and intersections, or the characteristic polynomial, so that
the tests can compare the two. The characteristic polynomial, its
evaluation and the rational eigenvalues have their textbook forms here
too: Faddeev-LeVerrier and Horner's rule over Fraction, and the
rational-root theorem with a divisor scan; so has the root search that
production runs only when no prime certifies that there is no root, run on
every polynomial; so has the invertibility of q(T), as
gcd(charpoly(T), q) = 1; so has the default probe set,
from a root search on each of the two characteristic polynomials where
production searches one. The generator's ABA = ACA sampler has its first
form here as well, the kernel of the dx*dy x dx*dy Kronecker matrix of
C |-> ACA, and so has the subspace intersection, by the kernel of the
stacked bases, and the preimage route to a quotient map's injectivity, on
the whole space; so has a kernel, by two row reductions where production
makes one, and a quotient map's matrix, by its formula on Fractions. The condition residuals are here as differences of the
four products A(BA)^2, ABACA, ACABA and (AC)^2A, where production forms at
most three products by distributivity, and the power sums Tr(T^k) are
here as traces of explicit powers. FractionMat is the
entrywise-Fraction matrix that Mat's integer-numerator arithmetic is
checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from unittest import mock

from ratspec import invariants
from ratspec.intertwine import OperatorTriple, _require_condition
from ratspec.invariants import _gcd, rational_eigenvalues
from ratspec.ratmat import (Mat, Poly, Subspace, charpoly, image, kernel,
                            preimage, quotient_dim, rank, rat, rref)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_square(T: Mat) -> None:
    if not T.is_square:
        raise ValueError("spectral invariants need a square matrix")


@dataclass(frozen=True)
class FractionMat:
    """A matrix as a row-major tuple of Fractions, with textbook operations."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    @classmethod
    def of(cls, M: Mat) -> "FractionMat":
        return cls(M.rows, M.cols, tuple(M.entry(i, j) for i in range(M.rows)
                                         for j in range(M.cols)))

    def __add__(self, other: "FractionMat") -> "FractionMat":
        return FractionMat(self.rows, self.cols,
                           tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "FractionMat") -> "FractionMat":
        return FractionMat(self.rows, self.cols,
                           tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scaled(self, s: Fraction) -> "FractionMat":
        return FractionMat(self.rows, self.cols, tuple(s * a for a in self.entries))

    def shifted(self, lam: Fraction) -> "FractionMat":
        return FractionMat(self.rows, self.cols,
                           tuple(a - lam if i % (self.cols + 1) == 0 else a
                                 for i, a in enumerate(self.entries)))

    def __matmul__(self, other: "FractionMat") -> "FractionMat":
        return FractionMat(self.rows, other.cols, tuple(
            sum((self.entries[i * self.cols + t] * other.entries[t * other.cols + j]
                 for t in range(self.cols)), _ZERO)
            for i in range(self.rows) for j in range(other.cols)))

    def transpose(self) -> "FractionMat":
        return FractionMat(self.cols, self.rows,
                           tuple(self.entries[i * self.cols + j]
                                 for j in range(self.cols) for i in range(self.rows)))

    def columns(self, cols) -> "FractionMat":
        return FractionMat(self.rows, len(cols),
                           tuple(self.entries[i * self.cols + j]
                                 for i in range(self.rows) for j in cols))


def intersect_by_kernel(U: Subspace, W: Subspace) -> Subspace:
    """U cap W from the kernel of the stacked bases.

    A vector of the intersection is sum(a_i u_i) = -sum(b_j w_j), so the
    coefficient pairs (a, b) form the kernel of the matrix whose columns
    are the stacked basis vectors.
    """
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    du, dw = U.dim, W.dim
    if du == 0 or dw == 0:
        return Subspace.zero(U.ambient_dim)
    stacked = Mat(du + dw, U.ambient_dim,
                  [x for v in U.basis + W.basis for x in v])
    coeffs = kernel(stacked.transpose()).basis_matrix()
    vecs = coeffs.columns(range(du)) @ U.basis_matrix()
    return Subspace.from_vectors(U.ambient_dim, vecs.to_rows())


def kernel_by_two_reductions(M: Mat) -> Subspace:
    """kernel(M) by its first route: row-reduce M, write the kernel vector
    e_f - sum_r R[r, f] e_(p_r) of each free column f, and row-reduce those
    vectors to the canonical basis."""
    R, pivots = rref(M)
    n = M.cols
    vecs = []
    for f in (c for c in range(n) if c not in pivots):
        v = [_ONE if c == f else _ZERO for c in range(n)]
        for r, p in enumerate(pivots):
            v[p] = -R.entry(r, f)
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


def quotient_matrix_by_formula(source_big: Subspace, source_small: Subspace,
                               target_big: Subspace, target_small: Subspace,
                               carrier: Mat) -> Mat:
    """The matrix of x + source_small |-> carrier x + target_small on
    Fractions, for a well-defined map: each representative u (a basis row
    of source_big at a pivot that source_small lacks) is carried to
    y = carrier u, and y less y[P] S, its part on target_small's basis S
    with pivots P, gives its column at the target representatives' pivots.
    """
    def reps(big, small):
        return [i for i, p in enumerate(big.pivots) if p not in small.pivots]

    S = FractionMat.of(target_small.basis_matrix())
    C = FractionMat.of(carrier)
    q = [target_big.pivots[i] for i in reps(target_big, target_small)]
    columns = []
    for i in reps(source_big, source_small):
        u = FractionMat(carrier.cols, 1, source_big.basis[i])
        y = (C @ u).entries
        rest = [y[c] - sum((y[p] * S.entries[r * S.cols + c]
                            for r, p in enumerate(target_small.pivots)), _ZERO)
                for c in range(len(y))]
        columns.append([rest[c] for c in q])
    return Mat(len(q), len(columns), [col[r] for r in range(len(q)) for col in columns])


def injective_by_preimage_in_ambient(qm) -> bool:
    """QuotientMap.injective_by_preimage on the whole space, its first form.

    preimage(carrier, target_small) (two kernels) cut down to source_big by
    a Zassenhaus intersection, then contained in source_small.
    """
    pulled = preimage(qm.carrier, qm.target_small).intersect(qm.source_big)
    return qm.source_small.contains(pulled)


def c_n(T: Mat, n: int) -> int:
    """dim R(T^n)/R(T^(n+1)); zero for all n >= dim."""
    _require_square(T)
    if n >= T.rows:
        return 0
    return rank(T ** n) - rank(T ** (n + 1))


def cp_n(T: Mat, n: int) -> int:
    """dim N(T^(n+1))/N(T^n); zero for all n >= dim."""
    _require_square(T)
    if n >= T.rows:
        return 0
    return kernel(T ** (n + 1)).dim - kernel(T ** n).dim


def k_n(T: Mat, n: int) -> int:
    """dim (R(T^n) cap N(T)) / (R(T^(n+1)) cap N(T)); zero for all n >= dim."""
    _require_square(T)
    if n >= T.rows:
        return 0
    ker = kernel(T)
    return quotient_dim(image(T ** n).intersect(ker),
                        image(T ** (n + 1)).intersect(ker))


def c_n_via_complement(T: Mat, n: int) -> int:
    """c_n as dim X - dim(R(T) + N(T^n)): the complement-form identity."""
    _require_square(T)
    return T.rows - image(T).sum(kernel(T ** n)).dim


def cp_n_via_intersection(T: Mat, n: int) -> int:
    """c'_n as dim(N(T) cap R(T^n)): the intersection-form identity."""
    _require_square(T)
    return kernel(T).intersect(image(T ** n)).dim


def k_n_via_sums(T: Mat, n: int) -> int:
    """k_n as dim (R(T)+N(T^(n+1))) / (R(T)+N(T^n)): the sum-chain identity."""
    _require_square(T)
    img = image(T)
    return quotient_dim(img.sum(kernel(T ** (n + 1))), img.sum(kernel(T ** n)))


def sigma_R_membership(T: Mat, lam: int | Fraction, i: int) -> bool:
    """True iff lam is in sigma_{R_i}(T), i.e. T - lam is not in R_i.

    At finite dimension R_1, R_6 and R_11 say that the total c, c' or k of
    T - lam is 0, each summed here over n = 0..dim from its complement,
    intersection or sum form; every other class holds for every operator.
    """
    if not 1 <= i <= 19:
        raise ValueError("regularity index out of range 1..19")
    total = {1: c_n_via_complement, 6: cp_n_via_intersection,
             11: k_n_via_sums}.get(i)
    if total is None:
        return False
    S = T.shifted(rat(lam))
    return sum(total(S, n) for n in range(S.rows + 1)) != 0


def fredholm_index(T: Mat) -> int:
    """dim N(T) - codim R(T); identically 0 for square finite-dimensional T.

    Kept as a computation (not a constant) to document the finite-dimensional
    collapse of the semi-Weyl spectra: index conditions never cut anything.
    """
    _require_square(T)
    return kernel(T).dim - (T.rows - rank(T))


def eigenvalue_multiplicity(T: Mat, lam: int | Fraction) -> int:
    """Algebraic multiplicity of lam as a root of charpoly(T)."""
    _require_square(T)
    p: Poly = charpoly(T)
    lam = rat(lam)
    mult = 0
    while p.degree > 0 and p(lam) == 0:
        p = _deflate_poly(p, lam)
        mult += 1
    return mult


def coprime(p: Poly, q: Poly) -> bool:
    """Whether gcd(p, q) = 1 over Q, by the primitive PRS of invariants._gcd.

    With p the characteristic polynomial of T, q(T) is invertible iff p and
    q are coprime; production reads that off hyper_kernel_dim(p, q) = 0. A
    linear q = a x + b shares a factor with p iff its one root -b/a is a
    root of p: one evaluation, against the PRS in the tests.
    """
    if q.degree == 1:
        b, a = q.coeffs
        return p(-b / a) != 0
    a, b = p.num, q.num
    g = _gcd(a, b) if a and b else a or b
    return len(g) == 1


def _deflate_poly(p: Poly, r: Fraction) -> Poly:
    # synthetic division by (x - r); exact when r is a root
    cs = list(p.coeffs)
    out = [Fraction(0)] * (len(cs) - 1)
    carry = Fraction(0)
    for i in range(len(cs) - 1, 0, -1):
        carry = cs[i] + carry * r if i < len(cs) - 1 else cs[i]
        out[i - 1] = carry
    return Poly(out)


def residuals_by_four_products(A: Mat, B: Mat, C: Mat) -> tuple[Mat, Mat, Mat]:
    """A(BA)^2 - ABACA, ABACA - ACABA and ACABA - (AC)^2A, each product
    formed afresh from A, B and C."""
    ba, ca = B @ A, C @ A
    aba, aca = A @ ba, A @ ca
    p1, p2, p3, p4 = aba @ ba, aba @ ca, aca @ ba, aca @ ca
    return p1 - p2, p2 - p3, p3 - p4


def power_identity(t: OperatorTriple, k: int) -> bool:
    """ABA(CA-I)^k = (AB-I)^k ABA and ACA(BA-I)^k = (AC-I)^k ACA, exactly."""
    _require_condition(t)
    ca_shift = t.ca.shifted(1)
    ab_shift = t.ab.shifted(1)
    ba_shift = t.ba.shifted(1)
    ac_shift = t.ac.shifted(1)
    left = t.aba @ ca_shift ** k == ab_shift ** k @ t.aba
    right = t.aca @ ba_shift ** k == ac_shift ** k @ t.aca
    return left and right


def power_traces(T: Mat, ks: range) -> list[Fraction]:
    """Tr(T^k) for each k in ks (all k >= 1), off explicit powers T, T^2, ...

    Production reads Tr(T) and Tr(T^2) off a charpoly's top coefficients
    or T's entries, and the rest not at all.
    """
    _require_square(T)
    traces, power = [], T
    for k in range(1, ks.stop):
        if k > 1:
            power = power @ T
        if k in ks:
            traces.append(sum(power.data[::T.rows + 1], _ZERO))
    return traces


def poly_eval_fraction(p: Poly, x: int | Fraction) -> Fraction:
    """p(x) by Horner's rule over Fraction, one normalization per step."""
    x = rat(x)
    acc = _ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def charpoly_fraction(M: Mat) -> Poly:
    """det(lambda*I - M) by Faddeev-LeVerrier over Fraction."""
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.rows
    coeffs = [_ZERO] * (n + 1)
    coeffs[n] = _ONE
    N = M
    for k in range(1, n + 1):
        ck = -sum((N.entry(i, i) for i in range(n)), _ZERO) / k
        coeffs[n - k] = ck
        if k < n:
            N = M @ Mat(n, n, [x + (ck if i % (n + 1) == 0 else 0)
                               for i, x in enumerate(N.data)])
    return Poly(coeffs)


_SCAN_LIMIT = 65536


def default_probes_by_two_searches(t: OperatorTriple) -> list[Fraction]:
    """default_probes from two root searches, one on each characteristic
    polynomial: the union of the rational eigenvalues of AC and of BA, 1,
    and the first two candidates outside that union."""
    eigs = {lam for name in ("ba", "ac")
            for lam, _ in rational_eigenvalues(t.charpoly(name))}
    extras = [Fraction(c) for c in (2, 3, 5, 7, Fraction(1, 2), Fraction(3, 2),
                                    11, 13, 17, 19, 23) if c not in eigs][:2]
    return sorted(eigs | {_ONE} | set(extras))


def _divisors_up_to(n: int, bound: int) -> list[int]:
    """Positive divisors of n > 0 that are <= bound, ascending.

    Scans candidates directly when the bound is small, otherwise factorizes
    by trial division and combines prime powers.
    """
    if bound < 1:
        return []
    if bound <= _SCAN_LIMIT:
        return [d for d in range(1, bound + 1) if n % d == 0]
    factors: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for q, e in factors.items():
        divs = [d * q ** j for d in divs for j in range(e + 1) if d * q ** j <= bound]
    return sorted(set(divs))


def rational_eigenvalues_by_divisors(T: Mat) -> list[tuple[Fraction, int]]:
    """Rational eigenvalues with multiplicities by the rational-root theorem.

    Scales T to an integer matrix S = D*T, whose (monic, integer)
    characteristic polynomial has all its rational roots integral and
    dividing the constant term; candidates are capped by the smaller of the
    Cauchy and Gershgorin root bounds, tested, and deflated by synthetic
    division, then divided back by D. Trial division makes it slow once the
    constant term has a large prime factor.
    """
    _require_square(T)
    n = T.rows
    if n == 0:
        return []
    D = 1
    for x in T.data:
        d = x.denominator
        D = D // gcd(D, d) * d
    p = charpoly_fraction(T)
    coeffs = []
    for i, c in enumerate(p.coeffs):
        scaled = c * Fraction(D) ** (n - i)
        if scaled.denominator != 1:
            raise ArithmeticError("integer charpoly scaling failed")
        coeffs.append(scaled.numerator)
    out: list[tuple[Fraction, int]] = []
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        out.append((Fraction(0), k))
        coeffs = coeffs[k:]
    if len(coeffs) > 1:
        cauchy = 1 + max(abs(c) for c in coeffs[:-1])
        gersh = max(sum(abs((D * x).numerator) for x in T.row(i))
                    for i in range(n))
        for cand in _divisors_up_to(abs(coeffs[0]), min(cauchy, gersh)):
            for r in (cand, -cand):
                mult = 0
                while len(coeffs) > 1 and _eval_int(coeffs, r) == 0:
                    coeffs = _deflate_int(coeffs, r)
                    mult += 1
                if mult:
                    out.append((Fraction(r, D), mult))
    out.sort(key=lambda t: t[0])
    return out


def rational_eigenvalues_uncertified(p: Poly) -> list[tuple[Fraction, int]]:
    """rational_eigenvalues(p) with no rootless-prime certificate: the
    squarefree part, the prime search and the Hensel lift run on every
    polynomial, as they did before the certificate."""
    with mock.patch.object(invariants, "_rootless_prime", lambda f: None):
        return rational_eigenvalues(p)


def _eval_int(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate_int(coeffs: list[int], r: int) -> list[int]:
    # synthetic division by (x - r); exact when r is a root
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * r if i < len(coeffs) - 1 else coeffs[i]
        out[i - 1] = carry
    return out


def solve_aba_eq_aca_by_kronecker(rng: random.Random, A: Mat, B: Mat,
                                  bound: int) -> Mat:
    """Random C with ACA = ABA: B plus a sample from the homogeneous kernel.

    The map C |-> ACA is linear; its kernel is computed once and a random
    combination is added to the particular solution C = B.
    """
    dy, dx = A.rows, A.cols
    n = dx * dy
    rows = []
    for i in range(dy):
        for j in range(dx):
            row = []
            for p in range(dx):
                for q in range(dy):
                    row.append(A.entry(i, p) * A.entry(q, j))
            rows.append(row)
    ker = kernel(Mat(dy * dx, n, [x for r in rows for x in r]))
    data = list(B.data)
    for kv in ker.basis:
        coef = Fraction(rng.randint(-bound, bound))
        if coef:
            data = [d + coef * x for d, x in zip(data, kv)]
    return Mat(dx, dy, data)
