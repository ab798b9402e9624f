"""Exact rational dense linear algebra.

Scalars are arbitrary-precision rationals (fractions.Fraction, aliased Rat);
there is no floating point anywhere. Mat is a dense, immutable, possibly
rectangular matrix; Subspace is a subspace of Q^n held as a reduced-echelon
basis, which makes subspace equality a structural comparison; Poly is a dense
univariate polynomial, coefficients lowest degree first.

Rank decisions, kernels, images and the subspace lattice (sum, intersection by
one Zassenhaus reduction, preimage, containment, quotient dimension) run
through the two integer kernels of ratspec.kernels, rref and matmul. An echelon
basis row holds 1 at its pivot and the other rows 0 there, so the rows X of a
subspace satisfy X == X[:, pivots] @ basis; M(U) <= W is that test on U @ M^T.

The characteristic polynomial does not use the kernels: charpoly runs the
Faddeev-LeVerrier recurrence fraction-free, on the integer matrix D*M and
on Python ints throughout, with every division checked to be exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from ratspec import kernels

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to an exact rational."""
    return value if isinstance(value, Fraction) else Fraction(value)


class Mat:
    """Immutable dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Fraction]):
        data = tuple(data)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError(f"bad shape {rows}x{cols} for {len(data)} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Fraction]]) -> "Mat":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(rat(x) for x in r)
        return cls(nr, nc, flat)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [_ONE if i == j else _ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [_ZERO] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [-a for a in self.data])

    def scaled(self, s: int | Fraction) -> "Mat":
        s = rat(s)
        return Mat(self.rows, self.cols, [s * a for a in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        out = kernels.matmul(self.rows, self.cols, other.cols,
                             list(self.data), list(other.data))
        return Mat(self.rows, other.cols, out)

    def __pow__(self, k: int) -> "Mat":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        result = Mat.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [self.data[i * self.cols + j]
                    for j in range(self.cols) for i in range(self.rows)])

    def shifted(self, lam: int | Fraction) -> "Mat":
        """self - lam*I (the operator T - lambda)."""
        if not self.is_square:
            raise ValueError("shift of a non-square matrix")
        lam = rat(lam)
        out = list(self.data)
        for i in range(self.rows):
            out[i * self.cols + i] -= lam
        return Mat(self.rows, self.cols, out)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(kernels.matmul(self.rows, self.cols, 1, list(self.data), list(v)))

    def columns(self, cols: Sequence[int]) -> "Mat":
        """The submatrix of the listed columns, in the listed order."""
        return Mat(self.rows, len(cols),
                   [self.data[i * self.cols + j] for i in range(self.rows) for j in cols])

    def _same_shape(self, other: "Mat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"


def rref(M: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    data, pivots = kernels.rref(M.rows, M.cols, list(M.data))
    return Mat(M.rows, M.cols, data), pivots


def rank(M: Mat) -> int:
    """Exact rank (row rank = column rank)."""
    return len(rref(M)[1])


class Subspace:
    """Subspace of Q^n, stored as a canonical reduced-echelon row basis.

    Two Subspaces are equal iff their bases are identical entry for entry;
    canonicality makes that a complete equality test.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int,
                     vectors: Sequence[Sequence[int | str | Fraction]]) -> "Subspace":
        """Span of the given vectors, canonicalized."""
        vecs = [tuple(rat(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        return _row_space(Mat(len(vecs), ambient_dim, [x for v in vecs for x in v]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim,
                   tuple(tuple(_ONE if i == j else _ZERO for j in range(ambient_dim))
                         for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row: it holds 1 there, the others 0."""
        return tuple(next(j for j, x in enumerate(v) if x) for v in self.basis)

    def basis_matrix(self) -> Mat:
        return Mat(self.dim, self.ambient_dim, [x for v in self.basis for x in v])

    def contains_rows(self, X: Mat) -> bool:
        """True iff every row of X lies in self: X == X[:, pivots] @ basis."""
        if X.cols != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return X == X.columns(self.pivots) @ self.basis_matrix()

    def contains_vector(self, v: Sequence[int | str | Fraction]) -> bool:
        """Membership test: v == v[pivots] @ basis."""
        return self.contains_rows(Mat(1, len(v), [rat(x) for x in v]))

    def contains(self, other: "Subspace") -> bool:
        """True iff every basis vector of other lies in self."""
        return self.contains_rows(other.basis_matrix())

    def sum(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both."""
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Largest subspace contained in both, by Zassenhaus' reduction.

        Row-reduce [[U, U], [W, 0]] for the bases U, W of self and other. A
        row with zero left half is u + w = 0 (u in U, w in W) with right half
        u, and these right halves are the reduced-echelon basis of U cap W.
        """
        self._same_ambient(other)
        n = self.ambient_dim
        if not (self.dim and other.dim):
            return Subspace.zero(n)
        R, pivots = rref(Mat(self.dim + other.dim, 2 * n,
                             [x for v in self.basis for x in v + v]
                             + [x for w in other.basis for x in w + (_ZERO,) * n]))
        return Subspace(n, tuple(R.row(i)[n:] for i, p in enumerate(pivots) if p >= n))

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _row_space(M: Mat) -> Subspace:
    """The span of M's rows: its reduced echelon form, cut to its rank."""
    if not M.rows:
        return Subspace.zero(M.cols)
    R, pivots = rref(M)
    return Subspace(M.cols, tuple(R.row(i) for i in range(len(pivots))))


def kernel(M: Mat) -> Subspace:
    """{x : Mx = 0} as a canonical subspace of Q^cols."""
    R, pivots = rref(M)
    n = M.cols
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    vecs = []
    for fc in free:
        v = [_ZERO] * n
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -R.entry(r, fc)
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


def image(M: Mat) -> Subspace:
    """Column space of M as a canonical subspace of Q^rows."""
    return _row_space(M.transpose())


def map_subspace(M: Mat, U: Subspace) -> Subspace:
    """Image M(U) of a subspace of the domain, living in Q^rows."""
    if U.ambient_dim != M.cols:
        raise ValueError("subspace not in the domain of M")
    return image(M @ U.basis_matrix().transpose())


def maps_into(M: Mat, U: Subspace, W: Subspace) -> bool:
    """True iff M(U) <= W, read from the rows U @ M^T at W's pivots."""
    return W.contains_rows(U.basis_matrix() @ M.transpose())


def preimage(M: Mat, W: Subspace) -> Subspace:
    """{x : Mx in W}; always contains kernel(M).

    W is the kernel of the constraint matrix K whose rows form a basis of
    {k : k.w = 0 for all w in W}, so the preimage is the kernel of K@M.
    """
    if W.ambient_dim != M.rows:
        raise ValueError("subspace not in the codomain of M")
    if W.dim == W.ambient_dim:
        return Subspace.full(M.cols)
    K = kernel(W.basis_matrix()).basis_matrix() if W.dim else Mat.identity(W.ambient_dim)
    return kernel(K @ M)


def quotient_dim(U: Subspace, W: Subspace) -> int:
    """dim U/W for nested subspaces W <= U; raises on non-nested inputs."""
    if not U.contains(W):
        raise ValueError("quotient of non-nested subspaces")
    return U.dim - W.dim


def solve(M: Mat, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One solution of Mx = b, or None if inconsistent (free variables 0)."""
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    aug_data = []
    for i in range(M.rows):
        aug_data.extend(M.row(i))
        aug_data.append(rat(b[i]))
    R, pivots = rref(Mat(M.rows, M.cols + 1, aug_data))
    if pivots and pivots[-1] == M.cols:
        return None
    x = [_ZERO] * M.cols
    for r, pc in enumerate(pivots):
        x[pc] = R.entry(r, M.cols)
    return tuple(x)


def inverse(M: Mat) -> Mat | None:
    """Exact inverse, or None if M is singular."""
    if not M.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    aug = []
    for i in range(n):
        aug.extend(M.row(i))
        aug.extend(_ONE if i == j else _ZERO for j in range(n))
    R, pivots = rref(Mat(n, 2 * n, aug))
    if len(pivots) < n or any(p >= n for p in pivots):
        return None
    return Mat(n, n, [R.entry(i, n + j) for i in range(n) for j in range(n)])


class Poly:
    """Dense univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | str | Fraction]):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __call__(self, x: int | Fraction) -> Fraction:
        x = rat(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([c + (b[i] if i < len(b) else _ZERO) for i, c in enumerate(a)])

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly([])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return self if lead == 1 else Poly([c / lead for c in self.coeffs])

    def strip_zero_roots(self) -> tuple["Poly", int]:
        """Factor out the highest power of the variable: (reduced, power)."""
        if not self.coeffs:
            return self, 0
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return Poly(self.coeffs[k:]), k

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def charpoly(M: Mat) -> Poly:
    """det(lambda*I - M), monic of degree n, by Faddeev-LeVerrier over Z.

    M is scaled to the integer matrix S = D*M, D the lcm of its
    denominators, and the recurrence N_1 = S, c_(n-k) = -tr(N_k)/k,
    N_(k+1) = S(N_k + c_(n-k) I) runs on Python ints. Every division by k
    is exact for an integer matrix; it is checked, and ArithmeticError is
    raised if one is not. The coefficients c_i of charpoly(S) give those of
    charpoly(M) as c_i / D^(n-i).
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.rows
    D = 1
    for x in M.data:
        d = x.denominator
        D = D // gcd(D, d) * d
    S = [[x.numerator * (D // x.denominator) for x in M.row(i)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    N = [row[:] for row in S]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(N[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(f"Faddeev-LeVerrier: trace of N_{k} is not "
                                  f"divisible by {k}")
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                N[i][i] += ck
            cols = list(zip(*N))
            N = [[sum(map(mul, row, col)) for col in cols] for row in S]
    return Poly([Fraction(c, D ** (n - i)) for i, c in enumerate(coeffs)])


def poly_eval_mat(Q: Poly, M: Mat) -> Mat:
    """Q(M) by Horner evaluation from lead*M, in deg Q - 1 products."""
    if not M.is_square:
        raise ValueError("polynomial of a non-square matrix")
    if Q.degree < 1:
        return Mat.identity(M.rows).scaled(Q(0))
    acc = M.scaled(Q.coeffs[-1])
    for i, c in enumerate(reversed(Q.coeffs[:-1])):
        if i:
            acc = acc @ M
        if c:
            acc = acc.shifted(-c)
    return acc
