"""Spectral invariant sequences and regularity membership for square matrices.

For a square T the sequences c_n (consecutive range-quotient dimensions),
c'_n (consecutive kernel-quotient dimensions) and k_n (null-space dimensions
of the induced maps between consecutive range quotients) are computed exactly,
with the ascent, descent, degree of stable iteration and totals c, c', k.
Every chain of kernels and ranges of powers stabilizes by n = dim
(Cayley-Hamilton), so all sequences have length dim+1 and the "infimum over
an empty set" branch of the general theory cannot occur here.

Every sequence is read off the ranks of one PowerChain: c_n and c'_n are
both rank T^n - rank T^(n+1), and by rank-nullity so is dim R(T^n) cap N(T),
whose drop is k_n. The chain also keeps the kernels and the sums
R(T) + N(T^n), which the quotient maps of ratspec.intertwine read. The
single-index forms and Grabiner's complement/intersection/sum twins live in
tests/oracles.py, as the oracles of profile.

Two facts fix most of a chain before any row reduction. Fitting's floor:
rank T^n falls strictly until it reaches dim - m, m = dim N(T^dim), and then
stays; for T = q(M), m is the degree of the q-primary part of M's
characteristic polynomial (hyper_kernel_dim). Weyr's rule: the drops
rank T^(n-1) - rank T^n = dim(R(T^(n-1)) cap N(T)) never increase, since
R(T^n) lies in R(T^(n-1)), so R(T^n) cap N(T) shrinks. So once a drop is 1,
every later drop is 1 until the floor.

Every polynomial decision runs on a Poly's integer numerators. m for a
linear q = x - a/b is the multiplicity of the root a/b: one Horner pass
says whether it is a root, and exact division by bx - a counts it. Any
other q goes through gcds by a primitive remainder sequence (PRS).

Rational eigenvalues are the rational roots of the characteristic
polynomial. A small prime p not dividing f(0) at which the integer-scaled
polynomial f has no root mod p proves that there are none, with no
further search, as on random charpolys. Otherwise they are found by
Zassenhaus' linear factors over Z with Hensel lifting from a prime at
which each root is simple. The squarefree part of f is f itself when a
mod-p certificate (p = 2^61 - 1) says so, and comes from the PRS
otherwise.

Membership in the nineteen regularity classes R_1..R_19 is, at finite
dimension, one invertibility verdict read off the power chain
(regularity_membership); the tests keep the totals c, c', k as oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from typing import Sequence

from ratspec.ratmat import Mat, Poly, Subspace, charpoly, image, kernel


def _require_square(T: Mat) -> None:
    if not T.is_square:
        raise ValueError("spectral invariants need a square matrix")


@dataclass(frozen=True)
class InvariantProfile:
    """All invariant sequences and degrees of one square operator.

    Sequences run n = 0..dim, all read off the ranks of T^n (see profile).
    The essential degrees asc_e, dsc_e, dis_e are 0 for every
    finite-dimensional operator (every count is finite, so the defining
    infima are attained at n = 0). The hyper-kernel N(T^s) and
    hyper-range R(T^s), s the stabilization index, enter by their dimensions
    dim - rank T^s and rank T^s; the subspaces are on the power chain.
    """

    dim: int
    c_seq: tuple[int, ...]
    cp_seq: tuple[int, ...]
    k_seq: tuple[int, ...]
    asc: int
    dsc: int
    asc_e: int
    dsc_e: int
    dis: int
    dis_e: int
    k_total: int
    c_total: int
    cp_total: int
    hyper_kernel_dim: int
    hyper_range_dim: int


class PowerChain:
    """The powers T^n of one square T with their ranges and kernels.

    stable is the least s with rank T^s = rank T^(s+1), at most dim T; from
    s on every range and kernel is the one at s, so image(n), kernel(n),
    range_plus_kernel(n) and rank(n) read index min(n, s). R(T^0) and
    R(T) + N(T^s) (Fitting's lemma) are the whole space and N(T^0) is 0.
    With no hyper_kernel_dim, R(T), R(T^2), ... are row-reduced until the
    ranks stop falling. hyper_kernel_dim = m = dim N(T^s), read off a
    characteristic polynomial, fixes the rest (Fitting's floor and Weyr's
    rule, in the module docstring): the chain stops at the first rank
    dim - m, with no T^(s+1), and once a drop is 1 or the floor is 1 away
    the later unit drops are written down; m = 0 is an invertible T. Powers,
    kernels, sums and the images not row-reduced here are formed on first
    read, each checked against its rank; a rank that breaks the rules
    raises ArithmeticError. The tests keep the chain without m as oracle.
    """

    __slots__ = ("T", "stable", "_ranks", "_powers", "_images", "_kernels",
                 "_sums", "_profile")

    def __init__(self, T: Mat, hyper_kernel_dim: int | None = None):
        _require_square(T)
        d = T.rows
        self.T = T
        self._powers = [Mat.identity(d)]
        self._images = {0: Subspace.full(d)}
        self._kernels = {0: Subspace.zero(d)}
        self._profile: InvariantProfile | None = None
        ranks = [d]
        if hyper_kernel_dim is None:
            while (img := image(self._power(len(ranks)))).dim < ranks[-1]:
                self._images[len(ranks)] = img
                ranks.append(img.dim)
        else:
            drop, floor = hyper_kernel_dim, d - hyper_kernel_dim
            while min(drop, ranks[-1] - floor) > 1:
                img = self._images[len(ranks)] = image(self._power(len(ranks)))
                if not floor <= img.dim < ranks[-1]:
                    raise ArithmeticError(f"power chain ranks {ranks}, {img.dim} "
                                          f"miss the floor {floor}")
                drop = ranks[-1] - img.dim
                ranks.append(img.dim)
            ranks.extend(range(ranks[-1] - 1, floor - 1, -1))
        self._ranks = ranks
        self.stable = len(ranks) - 1
        self._sums = {self.stable: self._images[0]}

    def _power(self, n: int) -> Mat:
        # T^n, multiplying out the powers not yet formed from T^1 = T
        while (k := len(self._powers)) <= n:
            self._powers.append(self._powers[-1] @ self.T if k > 1 else self.T)
        return self._powers[n]

    def _checked(self, n: int, space: Subspace, dim: int) -> Subspace:
        if space.dim != dim:
            raise ArithmeticError(f"power chain level {n} has dimension {space.dim}, "
                                  f"predicted {dim} from ranks {self._ranks}")
        return space

    def image(self, n: int) -> Subspace:
        """R(T^n)."""
        if (n := min(n, self.stable)) not in self._images:
            self._images[n] = self._checked(n, image(self._power(n)), self._ranks[n])
        return self._images[n]

    def kernel(self, n: int) -> Subspace:
        """N(T^n)."""
        if (n := min(n, self.stable)) not in self._kernels:
            K = kernel(self._power(n))
            self._kernels[n] = self._checked(n, K, self.T.rows - self._ranks[n])
        return self._kernels[n]

    def range_plus_kernel(self, n: int) -> Subspace:
        """R(T) + N(T^n); at n = 0 that is R(T) itself."""
        n = min(n, self.stable)
        if n not in self._sums:
            self._sums[n] = self.image(1).sum(self.kernel(n)) if n else self.image(1)
        return self._sums[n]

    def rank(self, n: int) -> int:
        """rank T^n, read off the ranks the chain holds."""
        return self._ranks[min(n, self.stable)]

    def stable_power(self) -> Mat:
        """T^s at the stabilization index s."""
        return self._power(self.stable)


def profile(T: Mat | PowerChain) -> InvariantProfile:
    """Full invariant profile of T, read off the ranks of its power chain.

    k_n = c_n - c_(n+1) by rank-nullity, with no kernel or intersection.
    T may be given as that PowerChain, when one is already built; the
    profile is then kept on the chain and later calls return it.
    """
    chain = T if isinstance(T, PowerChain) else PowerChain(T)
    if chain._profile is not None:
        return chain._profile
    d = chain.T.rows
    s = chain.stable

    def drops(dims: tuple[int, ...]) -> tuple[int, ...]:
        # consecutive differences n = 0..d of dimensions constant from s on
        return tuple(dims[min(n, s)] - dims[min(n + 1, s)] for n in range(d + 1))

    c_seq = drops(tuple(chain.rank(n) for n in range(s + 1)))
    k_seq = drops(c_seq)  # dim R(T^n) cap N(T) = c_n, by rank-nullity
    dis = max((n + 1 for n in range(d + 1) if k_seq[n] != 0), default=0)

    chain._profile = InvariantProfile(
        dim=d,
        c_seq=c_seq,
        # dim N(T^(n+1)) - dim N(T^n) = rank T^n - rank T^(n+1)
        cp_seq=c_seq,
        k_seq=k_seq,
        asc=s,
        dsc=s,
        asc_e=0,
        dsc_e=0,
        dis=dis,
        dis_e=0,
        k_total=sum(k_seq),
        c_total=sum(c_seq),
        cp_total=sum(c_seq),
        hyper_kernel_dim=d - chain.rank(s),
        hyper_range_dim=chain.rank(s),
    )
    return chain._profile


def regularity_membership(T: Mat | PowerChain) -> tuple[bool, ...]:
    """Membership of T in R_1..R_19, in that order.

    At finite dimension R_1 is surjectivity (c(T) = 0), R_6 injectivity
    (c'(T) = 0) and R_11 semi-regularity (k(T) = 0). Since k(T) =
    dim N(T) - dim(N(T) cap R(T^dim)) and T is injective on its hyper-range,
    k(T) = dim N(T); so all three mean that T is invertible, which is that
    its power chain (which may be given instead of T) is stable at 0. Every
    other class holds for every T.
    """
    chain = T if isinstance(T, PowerChain) else PowerChain(T)
    flags = [True] * 19
    flags[0] = flags[5] = flags[10] = chain.stable == 0
    return tuple(flags)


def sigma_memberships(shifted: PowerChain) -> tuple[bool, ...]:
    """For each i, whether lam lies in the R_i-spectrum of T.

    shifted is the power chain of T - lam; lam is in sigma_{R_i}(T) iff
    T - lam is not a member of R_i.
    """
    return tuple(not f for f in regularity_membership(shifted))


def rational_eigenvalues(T: Mat | Poly) -> list[tuple[Fraction, int]]:
    """All rational eigenvalues with algebraic multiplicities, ascending.

    T may be given as its characteristic polynomial p, when one is already
    built. Zero roots are stripped first (Poly.strip_zero_roots). The rest
    is scaled to f(x) = D^n p(x/D), monic over Z (D is built up from p's
    denominators), so every rational root of f is an integer and
    lam = root/D. There are none when a prime p not dividing f(0) certifies
    it: f has no root mod p, so no integer root (_rootless_prime; p must
    not divide f(0), as 0 is then a root mod p). Otherwise the candidates
    are the linear factors of Zassenhaus' method: the squarefree part
    g = f / gcd(f, f') by a primitive remainder sequence over Z, the roots
    of g modulo the smallest prime p at which every one of them is simple,
    found by evaluation at 0..p-1, and each root Newton-Hensel-lifted until
    the modulus passes twice the Cauchy root bound of f, read as a
    symmetric residue. Each candidate r is
    tested by exact evaluation and x - r is divided out, by the exact
    division that also forms g, once per multiplicity. Every step is in
    integers, and the search ends for every input.
    """
    p = T
    if isinstance(T, Mat):
        _require_square(T)
        p = charpoly(T)
    if not p.num or p.num[-1] != p.den:
        raise ValueError("rational eigenvalues need a monic characteristic polynomial")
    p, k = p.strip_zero_roots()
    n, num, den = p.degree, p.num, p.den
    # p_i = c_i / d_i in lowest terms
    gs = [gcd(c, den) for c in num]
    cs, ds = [c // g for c, g in zip(num, gs)], [den // g for g in gs]
    # p_i D^(n-i) is an integer once d_i divides D^(n-i); the powers are
    # built up from the highest coefficient down, and again only when D
    # grows. Each quotient D^j / d is kept; those from before the last
    # growth are formed again with the final D
    D = power = 1
    quotients = [1]  # D^j / d_(n-j), j = 0..n
    grown = 0
    for j in range(1, n + 1):
        power *= D  # D^j, for the coefficient of x^(n-j)
        d = ds[n - j]
        scaled, rem = divmod(power, d)
        if rem:
            D *= d // gcd(d, power)
            power = D ** j
            scaled, rem = divmod(power, d)
            grown = j
        quotients.append(scaled)
        if rem:
            raise ArithmeticError("integer charpoly scaling failed")
    power = 1
    for j in range(1, grown):
        power *= D
        quotients[j], rem = divmod(power, ds[n - j])
        if rem:
            raise ArithmeticError("integer charpoly scaling failed")
    coeffs = [c * scaled for c, scaled in zip(cs, reversed(quotients))]
    out = [(Fraction(0), k)] if k else []
    if n:
        for r in _integer_root_candidates(coeffs):
            mult, coeffs = _divide_out(coeffs, r)
            if mult:
                out.append((Fraction(r, D), mult))
    out.sort(key=lambda t: t[0])
    return out


def _integer_root_candidates(f: list[int]) -> list[int]:
    """A list holding every integer root of the monic f, each once.

    It is empty, with nothing else computed, when a prime not dividing f(0)
    certifies that f has no root (_rootless_prime). Otherwise:
    g, the squarefree part of f, has every integer root r of f as a root,
    so r mod p is a root of g mod p. The prime p is the smallest at which
    every root of g mod p is simple (g'(a) != 0 mod p); every prime not
    dividing the discriminant of g qualifies, so the search ends. A simple
    root lifts uniquely, and modulo q > 2 * bound its symmetric residue is
    r itself.
    """
    if _rootless_prime(f):
        return []
    g = _squarefree_part(f)
    dg = _derivative(g)
    for p in _primes():
        g_p, dg_p = _mod(g, p), _mod(dg, p)
        roots = [a for a in range(p) if _eval_mod(g_p, a, p) == 0]
        if all(_eval_mod(dg_p, a, p) for a in roots):
            break
    bound = 1 + max(abs(c) for c in f[:-1])  # Cauchy: every |root| < bound
    q = p
    while q <= 2 * bound:
        q *= q
        roots = [(a - _eval_mod(g, a, q) * pow(_eval_mod(dg, a, q), -1, q)) % q
                 for a in roots]
    return [a - q if 2 * a > q else a for a in roots]


#: How many primes not dividing f(0) _rootless_prime tries.
_CERTIFICATE_PRIMES = 8


def _rootless_prime(f: list[int]) -> int | None:
    """The first prime p not dividing f(0) at which the monic f has no root
    mod p, among the first _CERTIFICATE_PRIMES such primes, or None.

    Such a p proves that f has no integer root: an integer root r of f
    makes r mod p a root of f mod p at every prime p. A prime dividing f(0)
    has the root 0, so it can never certify and is skipped; with f(0) != 0
    only finitely many are, and f(0) = 0 is never certified. As 0 is no
    root mod the others, f mod p is evaluated at 1..p-1. A polynomial with
    a rational root is never certified, so it costs these evaluations on
    top of the search. Over three rounds of the report_auto and
    verify_corpus documents at seeds 11 and 7340117, every charpoly with no
    rational root was certified within the first 7 such primes.
    """
    if not f[0]:
        return None
    for p in islice((p for p in _primes() if f[0] % p), _CERTIFICATE_PRIMES):
        f_p = _mod(f, p)
        if all(_eval_mod(f_p, a, p) for a in range(1, p)):
            return p
    return None


def _primes():
    """2, 3, 5, 7, ...: every prime in order, by trial division."""
    p = 1
    while True:
        p += 1
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p


def hyper_kernel_dim(p: Poly, q: Poly) -> int:
    """dim N(q(T)^s) for s >= dim, p the characteristic polynomial of T.

    That is the degree of p's q-primary part (p, q nonzero), 0 exactly when
    q(T) is invertible: the one invertibility decision production makes, in
    OperatorTriple.chain(name, q), which passes T's charpoly(name) as p.
    A linear q, with root a/b in lowest terms, is decided on p's integer
    numerators by _divide_out: one Horner pass, and exact division by
    bx - a for the multiplicity. For any other q, gcd(p, q) by the
    primitive PRS of _gcd is divided out of p exactly until it is 1,
    summing its degrees (_primary_degree). The tests keep dim - rank
    q(T)^dim, and _primary_degree for a linear q, as oracles.
    """
    if q.degree == 1:
        root = Fraction(-q.num[0], q.num[1])
        return _divide_out(p.num, root.numerator, root.denominator)[0]
    return _primary_degree(p.num, q.num)


def _divide_out(f: Sequence[int], a: int, b: int = 1) -> tuple[int, Sequence[int]]:
    """(m, g) with f = (bx - a)^m g over Z and g(a/b) != 0; b > 0, gcd(a, b) = 1.

    b^deg f * f(a/b) is one Horner pass; while it vanishes, bx - a, a
    primitive factor of f (Gauss' lemma), is divided out exactly.
    """
    m = 0
    while len(f) > 1 and _eval_int(f, a, b) == 0:
        f = _exact_quotient(f, [-a, b])
        m += 1
    return m, f


def _primary_degree(f: Sequence[int], g: Sequence[int]) -> int:
    """The degree of the g-primary part of the integer polynomial f: gcd(f, g),
    by the primitive PRS of _gcd, divided out exactly until it is 1."""
    m = 0
    while len(h := _gcd(f, g)) > 1:
        f = _exact_quotient(f, h)
        m += len(h) - 1
    return m


#: The Mersenne prime 2^61 - 1 of the mod-p squarefree certificate.
_P61 = (1 << 61) - 1


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for monic f.

    The mod-p certificate comes first: when p does not divide lc(f) and
    f mod p, f' mod p are coprime, p does not divide the discriminant of f,
    so f is squarefree and is its own squarefree part. Otherwise the gcd
    comes from the primitive PRS of _gcd, which the tests keep as oracle.
    """
    df = _derivative(f)
    if f[-1] % _P61 and _coprime_mod(f, df, _P61):
        return f
    return _exact_quotient(f, _gcd(f, df))


def _coprime_mod(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    """Whether a mod p and b mod p have a nonzero constant gcd over GF(p),
    by Euclid's algorithm; p prime."""
    a, b = _mod(a, p), _mod(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            t = a[-1] * inv % p
            shift = len(a) - len(b)
            for i in range(len(b) - 1):
                a[shift + i] = (a[shift + i] - t * b[i]) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _mod(f: Sequence[int], p: int) -> list[int]:
    # f's residues modulo p, zeros stripped from the top
    r = [c % p for c in f]
    while r and not r[-1]:
        r.pop()
    return r


def _gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive gcd of the nonzero a and b, by a primitive PRS over Z."""
    a, b = _primitive(a), _primitive(b)
    while r := _pseudo_remainder(a, b):
        a, b = b, _primitive(r)
    return b


def _derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _primitive(f: Sequence[int]) -> list[int]:
    # f over its content, with a positive leading coefficient
    c = 0
    for x in f:
        c = gcd(c, x)
    if f[-1] < 0:
        c = -c
    return [x // c for x in f]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    # the remainder of lead(b)^(deg a - deg b + 1) a by b, zeros stripped
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        t = a.pop()
        a = [x * lead for x in a]
        shift = len(a) - len(b) + 1
        for i in range(len(b) - 1):
            a[shift + i] -= t * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def _exact_quotient(f: Sequence[int], h: Sequence[int]) -> list[int]:
    """f / h over Z; raises ArithmeticError unless h divides f exactly."""
    rem = list(f)
    quot = [0] * (len(f) - len(h) + 1)
    for i in range(len(quot) - 1, -1, -1):
        # a remainder stays at i + len(h) - 1, unread, for any(rem) below
        quot[i] = qi = rem[i + len(h) - 1] // h[-1]
        for j, c in enumerate(h):
            rem[i + j] -= qi * c
    if any(rem):
        raise ArithmeticError("exact quotient: the divisor does not divide f")
    return quot


def _eval_mod(coeffs: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _eval_int(coeffs: Sequence[int], a: int, b: int = 1) -> int:
    # b^deg * f(a/b), by Horner's rule
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * scale
        scale *= b
    return acc
