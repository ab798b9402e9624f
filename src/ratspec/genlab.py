"""Generators for operator triples satisfying the intertwining condition.

Templates: two block-matrix worked examples over an arbitrary nontrivial
idempotent P (conforming identically in P, with ABA != ACA whenever P != I),
the trivial C = B family, the ABA = ACA family (C = B plus a sample of
{C : ACA = 0} = {C : C R(A) inside N(A)}, spanned by rank-one matrices read
off N(A) and N(A^T)), conjugations and direct sums of conforming triples,
triples whose products have fully rational spectra (rational_spectrum), and
adversarial nonconforming triples for negative controls. Every
non-adversarial generator re-verifies the condition on its output;
conformance is never assumed from the construction alone.

No claim is made that these templates cover every conformance class of the
condition; they cover the cases the verification suite needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ratspec.intertwine import OperatorTriple
from ratspec.ratmat import Mat, Subspace, block, inverse, kernel, rat

TEMPLATES = ("paper_ex1", "paper_ex2", "c_equals_b", "aba_eq_aca",
             "conjugated", "direct_sum", "nonconforming", "rational_spectrum")

_NONCONFORMING_RETRIES = 50


class GenerationError(RuntimeError):
    """A generator could not produce a triple with the required property."""


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one generated triple.

    block_dim is the X dimension (and the idempotent's dimension for the
    worked-example templates, which must have block_dim >= 2 so P can be
    nontrivial); dim_y defaults to block_dim. entry_bound caps the absolute
    value of sampled numerators and denominators.
    """

    template: str
    block_dim: int = 3
    seed: int = 0
    entry_bound: int = 5
    dim_y: int | None = None

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown template {self.template!r}")
        if self.block_dim < 1:
            raise ValueError("block_dim must be positive")
        if self.template in ("paper_ex1", "paper_ex2") and self.block_dim < 2:
            raise ValueError("worked-example templates need block_dim >= 2")
        if self.block_dim > 24 or (self.dim_y or 0) > 24:
            raise ValueError("dimensions are capped at 24 (rank work on power "
                             "chains grows fast beyond desk scale)")
        if self.entry_bound < 1:
            raise ValueError("entry_bound must be positive")


def _rand_rat(rng: random.Random, bound: int) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> Mat:
    return Mat(rows, cols, [_rand_rat(rng, bound) for _ in range(rows * cols)])


def random_unimodular(rng: random.Random, n: int, bound: int) -> Mat:
    """Product of a unit lower and unit upper triangular matrix (det 1)."""
    lo = [int(i == j) for i in range(n) for j in range(n)]
    up = list(lo)
    for i in range(n):
        for j in range(i):
            lo[i * n + j] = rng.randint(-bound, bound)
            up[j * n + i] = rng.randint(-bound, bound)
    return Mat.from_ints(n, n, lo) @ Mat.from_ints(n, n, up)


def default_idempotent(m: int) -> Mat:
    """The rank-one coordinate projection diag(1, 0, ..., 0) on Q^m."""
    return Mat.from_ints(m, m, [int(k == 0) for k in range(m * m)])


def paper_example(which: int, P: Mat) -> OperatorTriple:
    """One of the two worked block-matrix examples over the idempotent P.

    On X + X + X:

        A = [[0, I, 0],   B = [[I, 0, 0],   C = [[0, I, 0],
             [0, P, 0],        [0, I, 0],        [P, 0, 0],
             [I, 0, 0]]        [0, 0, 0]]        [0, *, 0]]

    with * = I for example 1 and * = P for example 2. For every nontrivial
    idempotent P all four condition products equal x |-> (Px2, Px2, Px2),
    while ABA != ACA and BAB != B^2; both are asserted before returning.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not P.is_square:
        raise ValueError("P must be square")
    if P @ P != P:
        raise ValueError("P must be idempotent")
    m = P.rows
    ident = Mat.identity(m)
    zero = Mat.zero(m, m)
    if P.is_zero() or P == ident:
        raise ValueError("P must be a nontrivial idempotent")
    A = block([[zero, ident, zero], [zero, P, zero], [ident, zero, zero]])
    B = block([[ident, zero, zero], [zero, ident, zero], [zero, zero, zero]])
    low = ident if which == 1 else P
    C = block([[zero, ident, zero], [P, zero, zero], [zero, low, zero]])
    t = OperatorTriple(A, B, C)
    if not t.condition_holds:
        raise GenerationError("worked example lost the condition")
    if t.aba == t.aca:
        raise GenerationError("worked example has ABA = ACA")
    if B @ A @ B == B @ B:
        raise GenerationError("worked example has BAB = B^2")
    return t


def _solve_aba_eq_aca(rng: random.Random, A: Mat, B: Mat, bound: int) -> Mat:
    """Random C with ACA = ABA: B plus a sample from the homogeneous space.

    ACA = 0 exactly when C R(A) is inside N(A), so the homogeneous solutions
    are spanned by the rank-one matrices u e_j^T with Au = 0 and e_i z^T with
    z^T A = 0, and they have dimension dx*dy - rank(A)^2. The span's reduced
    echelon basis is canonical (the kernel of the dx*dy x dx*dy map C |-> ACA
    has the same one); a random combination of it is added to the particular
    solution C = B.
    """
    dy, dx = A.rows, A.cols
    ker, coker = kernel(A).basis_matrix(), kernel(A.transpose()).basis_matrix()
    pieces = [[x if q == j else 0 for x in ker.num[r * dx:(r + 1) * dx] for q in range(dy)]
              for r in range(ker.rows) for j in range(dy)]
    pieces += [[x if p == i else 0 for p in range(dx) for x in coker.num[r * dy:(r + 1) * dy]]
               for r in range(coker.rows) for i in range(dx)]
    basis = Subspace.from_vectors(dx * dy, pieces).basis_matrix()
    coefs = [rng.randint(-bound, bound) for _ in range(basis.rows)]
    sample = Mat.from_ints(1, basis.rows, coefs) @ basis
    return B + Mat.from_ints(dx, dy, sample.num, sample.den)


def conjugate(t: OperatorTriple, U: Mat, V: Mat) -> OperatorTriple:
    """Similarity transport: A -> VAU^-1, B -> UBV^-1, C -> UCV^-1.

    U acts on X, V on Y; the condition is conjugation invariant, as are all
    the invariant sequences of BA - lam and AC - lam.
    """
    ui = inverse(U)
    vi = inverse(V)
    if ui is None or vi is None:
        raise ValueError("conjugating matrices must be invertible")
    return OperatorTriple(V @ t.A @ ui, U @ t.B @ vi, U @ t.C @ vi)


def direct_sum(t1: OperatorTriple, t2: OperatorTriple) -> OperatorTriple:
    """Block-diagonal join; the condition holds blockwise."""
    def join(M1: Mat, M2: Mat) -> Mat:
        return block([[M1, Mat.zero(M1.rows, M2.cols)],
                      [Mat.zero(M2.rows, M1.cols), M2]])

    return OperatorTriple(join(t1.A, t2.A), join(t1.B, t2.B), join(t1.C, t2.C))


def generate(spec: GenSpec) -> OperatorTriple:
    """Produce a triple from a GenSpec recipe; conforming templates are re-verified."""
    rng = random.Random(spec.seed)
    dx = spec.block_dim
    dy = spec.dim_y if spec.dim_y is not None else spec.block_dim
    bound = spec.entry_bound
    template = spec.template

    if template in ("paper_ex1", "paper_ex2"):
        t = paper_example(1 if template == "paper_ex1" else 2,
                          default_idempotent(spec.block_dim))
    elif template == "c_equals_b":
        A = random_matrix(rng, dy, dx, bound)
        B = random_matrix(rng, dx, dy, bound)
        t = OperatorTriple(A, B, B)
    elif template == "aba_eq_aca":
        # rank-deficient A keeps the solution space of ACA = ABA nontrivial
        # (for invertible A the only solution is C = B)
        r = max(1, min(dx, dy) - 1)
        A = random_matrix(rng, dy, r, bound) @ random_matrix(rng, r, dx, bound)
        B = random_matrix(rng, dx, dy, bound)
        C = _solve_aba_eq_aca(rng, A, B, bound)
        t = OperatorTriple(A, B, C)
    elif template == "conjugated":
        base_template = rng.choice(("c_equals_b", "aba_eq_aca"))
        base = generate(GenSpec(template=base_template, block_dim=dx,
                                seed=rng.randrange(1 << 30),
                                entry_bound=bound, dim_y=dy))
        U = random_unimodular(rng, dx, 1)
        V = random_unimodular(rng, dy, 1)
        t = conjugate(base, U, V)
    elif template == "direct_sum":
        d1 = max(1, dx // 2)
        d2 = max(1, dx - d1)
        t1 = generate(GenSpec(template="c_equals_b", block_dim=d1,
                              seed=rng.randrange(1 << 30), entry_bound=bound))
        t2 = generate(GenSpec(template="aba_eq_aca", block_dim=d2,
                              seed=rng.randrange(1 << 30), entry_bound=bound))
        t = direct_sum(t1, t2)
    elif template == "rational_spectrum":
        t = rational_spectrum_instance(spec)
    elif template == "nonconforming":
        for _ in range(_NONCONFORMING_RETRIES):
            A = random_matrix(rng, dy, dx, bound)
            B = random_matrix(rng, dx, dy, bound)
            C = random_matrix(rng, dx, dy, bound)
            t = OperatorTriple(A, B, C)
            if not t.condition_holds:
                return t
        raise GenerationError("could not sample a nonconforming triple "
                              f"in {_NONCONFORMING_RETRIES} tries (generator bug?)")
    else:  # pragma: no cover - guarded by GenSpec validation
        raise ValueError(f"unknown template {template!r}")

    if not t.condition_holds:
        raise GenerationError(f"template {template!r} produced a nonconforming triple")
    return t


def rational_spectrum_instance(spec: GenSpec) -> OperatorTriple:
    """Conforming triple whose products have fully rational spectra.

    BA is pinned to an upper-triangular core J with chosen rational diagonal
    by taking A = [I; 0] (an embedding X -> Y) and B = [J | R]; the spectrum
    of AB is then that of J together with 0, and any C with ACA = ABA keeps
    the nonzero spectrum of AC equal to that of BA, hence rational.
    Optionally conjugated for density.
    """
    n = spec.block_dim
    if spec.dim_y is None and n > 22:
        raise ValueError("block_dim above 22 needs dim_y (Y is padded by 1 or 2)")
    rng = random.Random(spec.seed)
    pad = (spec.dim_y - n) if spec.dim_y is not None else rng.randint(1, 2)
    if pad < 1:
        raise ValueError("rational_spectrum_instance needs dim_y > block_dim")
    dy = n + pad
    eig_pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1),
                Fraction(1, 2), Fraction(3), Fraction(-1, 2)]
    jrows = [[rat(0)] * n for _ in range(n)]
    for i in range(n):
        jrows[i][i] = rng.choice(eig_pool)
        for j in range(i + 1, n):
            jrows[i][j] = Fraction(rng.randint(-spec.entry_bound, spec.entry_bound))
    J = Mat.from_rows(jrows)
    R = random_matrix(rng, n, pad, spec.entry_bound)
    A = block([[Mat.identity(n)], [Mat.zero(pad, n)]])
    B = block([[J, R]])
    C = _solve_aba_eq_aca(rng, A, B, 1) if rng.random() < 0.5 else B
    t = OperatorTriple(A, B, C)
    if rng.random() < 0.5:
        t = conjugate(t, random_unimodular(rng, n, 1), random_unimodular(rng, dy, 1))
    if not t.condition_holds:
        raise GenerationError("rational-spectrum construction lost the condition")
    return t
