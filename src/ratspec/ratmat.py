"""Exact rational dense linear algebra.

There is no floating point anywhere. Mat is a dense, immutable, possibly
rectangular matrix over Q held as a tuple of integer numerators num over one
positive common denominator den, in lowest terms: gcd(den, *num) == 1, and
the zero matrix has den == 1. Equal matrices are therefore equal field for
field. Subspace is a subspace of Q^n held as its reduced-echelon basis, a Mat
in that form, with the pivot columns of the reduction that made it; that
makes subspace equality a structural comparison too. Poly is a dense
univariate polynomial, lowest degree first, held the way Mat is: integer
numerators num over one positive common denominator den, in lowest terms;
its value at a/b is one Horner pass on integers and one Fraction at the end.

Fractions appear only where values enter (Mat(...), Mat.from_rows,
Subspace.from_vectors, Poly(...), a shift or a scale factor) and where they
leave (entry, row, to_rows, Mat.data, Subspace.basis, Poly.coeffs), as
fractions.Fraction, aliased Rat; the arithmetic in between runs on Python
ints. This is the fraction-free idea of Bareiss (1968) carried through the
whole layer.

Rank decisions, kernels, images, the subspace lattice (sum, intersection by
one Zassenhaus reduction, preimage, containment, quotient dimension) and the
products of charpoly run through the two integer kernels of ratspec.kernels,
rref and matmul. A product is the kernels' product of the numerators over the
product of the denominators (on all but the smallest shapes, with each row of
the right operand packed into one integer: Kronecker substitution); a row
reduction needs the numerators only, and one of full column rank ends after
its forward pass, since its reduced form is the identity over zero rows. An
echelon basis row holds 1 at its pivot and the other rows 0 there, so the
rows X of a subspace satisfy X == X[:, pivots] @ basis; M(U) <= W is that
test on U @ M^T. The same basis gives, with no reduction, rows K with
W = {y : K y = 0} (Subspace.annihilator), and a kernel's reduced basis
comes off one elimination, of the matrix with its columns reversed. An
empty product, a product with a zero or an identity operand, the row
reduction of a matrix with no rows or no columns, and a containment with
no rows or in the whole space, need no kernel call. Each Mat keeps a memo
of what the product kernel reads off its numerators alone (Mat), so a
matrix met again in a product is not scanned or packed again. block lays
out blocks over the lcm of their denominators; inverse and solve reduce
the [M | I] and [M | b] it builds.

charpoly reads the power sums tr(S^k) of the integer numerators S off about
2 sqrt(n) products and turns them into its coefficients by Newton's
identities, each division checked exact, and writes the coefficients'
numerators over one power of the common denominator; Faddeev-LeVerrier is
its oracle. power_sums runs those identities back, from a monic charpoly to
its first power sums, and first_traces reads tr(M) and tr(M^2) off M's
numerators with no product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from ratspec import kernels

Rat = Fraction

_ZERO = Fraction(0)

_set = object.__setattr__


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to an exact rational."""
    return value if isinstance(value, Fraction) else Fraction(value)


@cache
def _identity_num(n: int) -> tuple[int, ...]:
    """The row-major numerators of the n x n identity."""
    num = [0] * (n * n)
    num[::n + 1] = [1] * n
    return tuple(num)


class Mat:
    """Immutable dense matrix over Q: integer numerators num (row-major) over den.

    Two facts are computed once and kept in slots: the hash, on the first
    one asked for (every MapCache key and chain lookup hashes its matrices),
    and the memo that kernels.matmul is given with num on every product,
    made empty on the first product and filled by the kernel with what it
    reads off num alone. Both follow from the fields and change nothing
    about the matrix. A product with a zero operand is Mat.zero, and one
    with an identity operand (den 1, identity numerators) is the other
    operand itself, with no kernel call.
    """

    __slots__ = ("rows", "cols", "num", "den", "_memo", "_hash")

    def __init__(self, rows: int, cols: int, data: Iterable[int | Fraction]):
        data = tuple(data)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError(f"bad shape {rows}x{cols} for {len(data)} entries")
        # ints and Fractions are in lowest terms, so the lcm of their
        # denominators is the least common one
        den = lcm(*[x.denominator for x in data])
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "num", tuple([x.numerator * (den // x.denominator) for x in data]))
        _set(self, "den", den)
        _set(self, "_memo", None)
        _set(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def from_ints(cls, rows: int, cols: int, num: Iterable[int], den: int = 1) -> "Mat":
        """The matrix num/den of row-major integer numerators, in lowest terms."""
        num = tuple(num)
        if rows < 0 or cols < 0 or len(num) != rows * cols:
            raise ValueError(f"bad shape {rows}x{cols} for {len(num)} entries")
        if den < 1:
            raise ValueError("the common denominator must be positive")
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
        M = object.__new__(cls)
        _set(M, "rows", rows)
        _set(M, "cols", cols)
        _set(M, "num", num)
        _set(M, "den", den)
        _set(M, "_memo", None)
        _set(M, "_hash", None)
        return M

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
        return cls.from_ints(n, n, _identity_num(n))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls.from_ints(rows, cols, [0] * (rows * cols))

    @property
    def data(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, row-major."""
        return tuple([Fraction(x, self.den) for x in self.num])

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple([Fraction(x, self.den)
                      for x in self.num[i * self.cols:(i + 1) * self.cols]])

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.num)

    def _over_common_den(self, other: "Mat") -> tuple[Sequence[int], Sequence[int], int]:
        """The numerators of self and other over the lcm of their denominators."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        da, db = self.den, other.den
        if da == db:
            return self.num, other.num, da
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return [x * fa for x in self.num], [x * fb for x in other.num], den

    def __add__(self, other: "Mat") -> "Mat":
        a, b, den = self._over_common_den(other)
        return Mat.from_ints(self.rows, self.cols, list(map(add, a, b)), den)

    def __sub__(self, other: "Mat") -> "Mat":
        a, b, den = self._over_common_den(other)
        return Mat.from_ints(self.rows, self.cols, list(map(sub, a, b)), den)

    def __neg__(self) -> "Mat":
        return Mat.from_ints(self.rows, self.cols, [-x for x in self.num], self.den)

    def scaled(self, s: int | Fraction) -> "Mat":
        s = rat(s)
        p = s.numerator
        return Mat.from_ints(self.rows, self.cols, [p * x for x in self.num],
                             self.den * s.denominator)

    def _kernel_memo(self) -> dict:
        """The memo in which kernels.matmul keeps what it derives from this
        matrix's numerators alone; made on the first product."""
        memo = self._memo
        if memo is None:
            memo = {}
            _set(self, "_memo", memo)
        return memo

    def is_identity(self) -> bool:
        """True iff this is the identity matrix (den 1, identity numerators)."""
        return (self.den == 1 and self.rows == self.cols
                and self.num == _identity_num(self.rows))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        if (not (self.rows and self.cols and other.cols)
                or self.is_zero() or other.is_zero()):
            return Mat.zero(self.rows, other.cols)
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        out = kernels.matmul(self.rows, self.cols, other.cols, self.num, other.num,
                             self._kernel_memo(), other._kernel_memo())
        return Mat.from_ints(self.rows, other.cols, out, self.den * other.den)

    def __pow__(self, k: int) -> "Mat":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        if k == 0:
            return Mat.identity(self.rows)
        # start from the lowest set bit of k, so that no product has an
        # identity operand and M ** 1 forms none
        base = self
        while not k & 1:
            base = base @ base
            k >>= 1
        result = base
        while k > 1:
            base = base @ base
            k >>= 1
            if k & 1:
                result = result @ base
        return result

    def transpose(self) -> "Mat":
        num, c = self.num, self.cols
        return Mat.from_ints(c, self.rows, [x for j in range(c) for x in num[j::c]],
                             self.den)

    def shifted(self, lam: int | Fraction) -> "Mat":
        """self - lam*I (the operator T - lambda)."""
        if not self.is_square:
            raise ValueError("shift of a non-square matrix")
        lam = rat(lam)
        den = lcm(self.den, lam.denominator)
        f = den // self.den
        num = [x * f for x in self.num]
        d = lam.numerator * (den // lam.denominator)
        for i in range(0, len(num), self.cols + 1):
            num[i] -= d
        return Mat.from_ints(self.rows, self.cols, num, den)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return (self @ Mat(self.cols, 1, [rat(x) for x in v])).data

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Mat":
        """The entries at the listed rows and columns, in the listed orders."""
        num, c = self.num, self.cols
        return Mat.from_ints(len(rows), len(cols),
                             [num[i * c + j] for i in rows for j in cols], self.den)

    def columns(self, cols: Sequence[int]) -> "Mat":
        """The submatrix of the listed columns, in the listed order."""
        return self.submatrix(range(self.rows), cols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.num, self.den))
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"


def block(layout: Sequence[Sequence[Mat]]) -> Mat:
    """The matrix with the given rows of blocks, over the lcm of the block
    denominators; the blocks of a row share a row count, of a column a
    column count."""
    den = lcm(*[blk.den for block_row in layout for blk in block_row])
    num = []
    for block_row in layout:
        for r in range(block_row[0].rows):
            for blk in block_row:
                f = den // blk.den
                num.extend([x * f for x in blk.num[r * blk.cols:(r + 1) * blk.cols]])
    return Mat.from_ints(sum(block_row[0].rows for block_row in layout),
                         sum(blk.cols for blk in layout[0]), num, den)


def rref(M: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    A matrix with no rows or no columns is its own reduced form, with no
    pivots, and needs no kernel call.
    """
    if not (M.rows and M.cols):
        return M, ()
    num, den, pivots = kernels.rref(M.rows, M.cols, M.num)
    return Mat.from_ints(M.rows, M.cols, num, den), pivots


def rank(M: Mat) -> int:
    """Exact rank (row rank = column rank)."""
    return len(rref(M)[1])


class Subspace:
    """Subspace of Q^n, stored as a canonical reduced-echelon row basis.

    The basis is a Mat whose row i holds 1 at column pivots[i] and every
    other row 0 there; the pivots are kept from the reduction that made it.
    Two Subspaces are equal iff their bases are identical; canonicality makes
    that a complete equality test.
    """

    __slots__ = ("ambient_dim", "pivots", "_basis")

    def __init__(self, basis: Mat, pivots: tuple[int, ...]):
        _set(self, "ambient_dim", basis.cols)
        _set(self, "pivots", pivots)
        _set(self, "_basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int,
                     vectors: Sequence[Sequence[int | str | Fraction]]) -> "Subspace":
        """Span of the given vectors, canonicalized."""
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        return _row_space(Mat(len(vecs), ambient_dim,
                              [rat(x) if isinstance(x, str) else x for v in vecs for x in v]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(Mat.zero(0, ambient_dim), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(Mat.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced-echelon basis vectors as Fractions."""
        return tuple(self._basis.row(i) for i in range(self.dim))

    def basis_matrix(self) -> Mat:
        return self._basis

    def contains_rows(self, X: Mat) -> bool:
        """True iff every row of X lies in self: X == X[:, pivots] @ basis.

        With the basis B/d, that is X.num[:, pivots] @ B == d * X.num over Z.
        """
        if X.cols != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        if not X.rows or self.dim == self.ambient_dim:
            return True
        B = self._basis
        n = X.cols
        at_pivots = [X.num[i * n + p] for i in range(X.rows) for p in self.pivots]
        return (kernels.matmul(X.rows, self.dim, n, at_pivots, B.num,
                               None, B._kernel_memo())
                == [B.den * x for x in X.num])

    def contains_vector(self, v: Sequence[int | str | Fraction]) -> bool:
        """Membership test: v == v[pivots] @ basis."""
        return self.contains_rows(Mat(1, len(v), [rat(x) for x in v]))

    def contains(self, other: "Subspace") -> bool:
        """True iff every basis vector of other lies in self; an equal
        subspace with no product."""
        return self == other or self.contains_rows(other._basis)

    def annihilator(self) -> Mat:
        """Rows K with self = {y : K y = 0}: a basis of the orthogonal complement.

        Read off the reduced-echelon basis with no row reduction; the rows
        are not reduced, which a constraint matrix does not need. The zero
        subspace gives the identity, the whole space no rows.
        """
        return _null_rows(self._basis, self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both.

        The span of the stacked bases; row scaling leaves a span alone, so
        their numerators are stacked.
        """
        self._same_ambient(other)
        return _row_space(Mat.from_ints(self.dim + other.dim, self.ambient_dim,
                                        self._basis.num + other._basis.num))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Largest subspace contained in both, by Zassenhaus' reduction.

        Row-reduce [[U, U], [W, 0]] for the bases U, W of self and other. A
        row with zero left half is u + w = 0 (u in U, w in W) with right half
        u, and these right halves are the reduced-echelon basis of U cap W.
        Row scaling leaves the reduction alone, so the numerators of U and W
        are stacked. A zero or whole-space side gives the answer with no
        reduction.
        """
        self._same_ambient(other)
        n = self.ambient_dim
        if not (self.dim and other.dim):
            return Subspace.zero(n)
        if self.dim == n:
            return other
        if other.dim == n:
            return self
        u, w = self._basis.num, other._basis.num
        zeros = (0,) * n
        stacked = ([x for i in range(0, len(u), n) for x in u[i:i + n] * 2]
                   + [x for i in range(0, len(w), n) for x in w[i:i + n] + zeros])
        R, pivots = rref(Mat.from_ints(self.dim + other.dim, 2 * n, stacked))
        keep = [i for i, p in enumerate(pivots) if p >= n]
        return Subspace(R.submatrix(keep, range(n, 2 * n)),
                        tuple(pivots[i] - n for i in keep))

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and self._basis == other._basis

    def __hash__(self) -> int:
        return hash(self._basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _row_space(M: Mat) -> Subspace:
    """The span of M's rows: its reduced echelon form, cut to its rank."""
    R, pivots = rref(M)
    return Subspace(R.submatrix(range(len(pivots)), range(M.cols)), pivots)


def _null_rows(R: Mat, pivots: Sequence[int]) -> Mat:
    """A basis of {x : Rx = 0} as rows, for R in reduced echelon form.

    With R = N/d, free column f gives the kernel vector e_f - sum_r R[r, f]
    e_(p_r), p_r the pivot of row r; scaled by d, d e_f - sum_r N[r, f]
    e_(p_r) is in the integers. No row reduction is needed.
    """
    n = R.cols
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    vecs = []
    for fc in free:
        v = [0] * n
        v[fc] = R.den
        for r, pc in enumerate(pivots):
            v[pc] = -R.num[r * n + fc]
        vecs.extend(v)
    return Mat.from_ints(len(free), n, vecs)


def kernel(M: Mat) -> Subspace:
    """{x : Mx = 0} as a canonical subspace of Q^cols, from one elimination.

    Reduce M with its columns reversed, to R. Its free column f gives the
    kernel vector that is 1 at f and -R[r, f] at each pivot p_r
    (_null_rows), and R[r, f] is 0 unless p_r < f, so f is the vector's
    last nonzero entry and the other vectors are 0 there. Column c of R is
    column n - 1 - c of M, so back in M's order each vector leads with 1
    at n - 1 - f, where the others are 0: taken by f descending, they are
    the reduced-echelon basis, with no second reduction.
    """
    n = M.cols
    reverse = range(n - 1, -1, -1)
    R, pivots = rref(M.columns(reverse))
    K = _null_rows(R, pivots)  # over R.den, by f ascending
    flipped = K.submatrix(range(K.rows - 1, -1, -1), reverse)
    pivset = set(pivots)
    return Subspace(Mat.from_ints(K.rows, n, flipped.num, R.den),
                    tuple(n - 1 - f for f in reverse if f not in pivset))


def image(M: Mat) -> Subspace:
    """Column space of M as a canonical subspace of Q^rows."""
    return _row_space(M.transpose())


def map_subspace(M: Mat, U: Subspace) -> Subspace:
    """Image M(U) of a subspace of the domain, living in Q^rows."""
    if U.ambient_dim != M.cols:
        raise ValueError("subspace not in the domain of M")
    return image(M @ U.basis_matrix().transpose())


def preimage(M: Mat, W: Subspace) -> Subspace:
    """{x : Mx in W}; always contains kernel(M).

    W is the kernel of its annihilator K, whose rows form a basis of
    {k : k.w = 0 for all w in W}, so the preimage is the kernel of K@M.
    """
    if W.ambient_dim != M.rows:
        raise ValueError("subspace not in the codomain of M")
    if W.dim == W.ambient_dim:
        return Subspace.full(M.cols)
    return kernel(W.annihilator() @ M)


def quotient_dim(U: Subspace, W: Subspace) -> int:
    """dim U/W for nested subspaces W <= U; raises on non-nested inputs."""
    if not U.contains(W):
        raise ValueError("quotient of non-nested subspaces")
    return U.dim - W.dim


def solve(M: Mat, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One solution of Mx = b, or None if inconsistent (free variables 0)."""
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    R, pivots = rref(block([[M, Mat(M.rows, 1, [rat(x) for x in b])]]))
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
    R, pivots = rref(block([[M, Mat.identity(n)]]))
    if len(pivots) < n or any(p >= n for p in pivots):
        return None
    return R.columns(range(n, 2 * n))


class Poly:
    """Dense univariate polynomial over Q, lowest degree first.

    Held as Mat holds its entries: integer numerators num over one positive
    common denominator den, in lowest terms (gcd(den, *num) == 1), with no
    trailing zero numerator; the zero polynomial has no coefficients and
    den == 1. Equal polynomials are therefore equal field for field, and
    hash on integers. coeffs renders the coefficients as Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[int | str | Fraction]):
        cs = [rat(c) for c in coeffs]
        # ints and Fractions are in lowest terms, so the lcm of their
        # denominators is the least common one
        den = lcm(*[c.denominator for c in cs])
        num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        _set(self, "num", tuple(num))
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, num: Iterable[int], den: int = 1) -> "Poly":
        """The polynomial of integer numerators num over den, in lowest terms."""
        num = list(num)
        if den < 1:
            raise ValueError("the common denominator must be positive")
        while num and not num[-1]:
            num.pop()
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        p = object.__new__(cls)
        _set(p, "num", tuple(num))
        _set(p, "den", den)
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple([Fraction(x, self.den) for x in self.num])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.num) - 1

    def __call__(self, x: int | Fraction) -> Fraction:
        """p(a/b) = sum N_i a^i b^(d-i) / (D b^d) for p = N/D: one Horner pass
        on integers and one Fraction at the end."""
        if not self.num:
            return _ZERO
        x = rat(x)
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * a + c * scale
            scale *= b
        return Fraction(acc, self.den * scale // b)  # scale = b^(d+1)

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        a = [x * (den // self.den) for x in self.num]
        b = [x * (den // other.den) for x in other.num]
        if len(a) < len(b):
            a, b = b, a
        return Poly.from_ints([x + b[i] if i < len(b) else x for i, x in enumerate(a)],
                              den)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.num or not other.num:
            return Poly.from_ints([])
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return Poly.from_ints(out, self.den * other.den)

    def monic(self) -> "Poly":
        if not self.num or self.num[-1] == self.den:
            return self
        lead = self.num[-1]
        return Poly.from_ints([-x for x in self.num] if lead < 0 else self.num, abs(lead))

    def strip_zero_roots(self) -> tuple["Poly", int]:
        """Factor out the highest power of the variable: (reduced, power)."""
        if not self.num:
            return self, 0
        k = 0
        while not self.num[k]:
            k += 1
        return (Poly.from_ints(self.num[k:], self.den) if k else self), k

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if not self.num:
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def _power_traces(n: int, S: Sequence[int], s_memo: dict | None = None) -> list[int]:
    """tr(S^k) for k = 0..n of an n x n integer matrix S, in about 2 sqrt(n) products.

    Baby steps S, S^2, ..., S^m and giant steps G = S^m, G^2, ... with
    m = ceil(sqrt(n)) (Paterson and Stockmeyer 1973): k = i + jm with
    1 <= i <= m, and tr(S^i G^j) is the dot product of S^i with the transpose
    of G^j, both flat: n^2 multiplications where a product costs n^3. S is
    the right operand of every baby step and G of every giant step, so the
    product kernel is given one memo for each; s_memo is S's, kept on its
    Mat, or a new one when none is given.
    """
    traces = [n] + [0] * n
    if not n:
        return traces
    m = isqrt(n - 1) + 1
    baby = [S]
    s_memo = {} if s_memo is None else s_memo
    g_memo = {}
    for _ in range(m - 1):
        baby.append(kernels.matmul(n, n, n, baby[-1], S, None, s_memo))
    traces[1:m + 1] = [_trace(n, X) for X in baby]
    G = giant = baby[-1]
    for j in range(1, (n - 1) // m + 1):
        if j > 1:
            giant = kernels.matmul(n, n, n, giant, G, None, g_memo)
        transposed = _transposed(n, giant)
        for i in range(1, min(m, n - j * m) + 1):
            traces[i + j * m] = sum(map(mul, baby[i - 1], transposed))
    return traces


def _trace(n: int, S: Sequence[int]) -> int:
    """The trace of the flat n x n matrix S."""
    return sum(S[::n + 1])


def _transposed(n: int, S: Sequence[int]) -> list[int]:
    """The flat n x n matrix S transposed: tr(XS) is the dot product of X
    with it."""
    return [x for a in range(n) for x in S[a::n]]


def first_traces(M: Mat) -> list[Fraction]:
    """tr(M) and tr(M^2) = sum m_ij m_ji of a square M, with no product."""
    n, S = M.rows, M.num
    return [Fraction(_trace(n, S), M.den),
            Fraction(sum(map(mul, S, _transposed(n, S))), M.den * M.den)]


def charpoly(M: Mat) -> Poly:
    """det(lambda*I - M), monic of degree n, from power sums over Z.

    M is S/D with S its integer numerators. The power sums p_k = tr(S^k)
    come from _power_traces, and Newton's identities
    k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i give the elementary
    symmetric functions e_k of S's eigenvalues, all on Python ints. Every
    division by k is exact for an integer matrix; it is checked, and
    ArithmeticError is raised if one is not. charpoly(S) has the
    coefficients (-1)^k e_k at x^(n-k), and those of charpoly(M) are them
    over D^k: the numerators (-1)^k e_k D^(n-k) over D^n.
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n, D = M.rows, M.den
    p = _power_traces(n, M.num, M._kernel_memo())
    e = [1] + [0] * n
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc = acc + term if i & 1 else acc - term
        e[k], rem = divmod(acc, k)
        if rem:
            raise ArithmeticError(f"Newton's identities: {k} e_{k} is not "
                                  f"divisible by {k}")
    num, scale = [], 1
    for k in range(n, -1, -1):
        num.append((-e[k] if k & 1 else e[k]) * scale)
        scale *= D
    return Poly.from_ints(num, scale // D)


def power_sums(p: Poly, k: int) -> list[Fraction]:
    """tr(T), ..., tr(T^k) for any T with the monic characteristic polynomial p.

    charpoly's Newton's identities run the other way: with c_i the
    coefficient of x^(n-i) (zero past n), tr(T^j) =
    -(j c_j + sum_(i=1..j-1) c_i tr(T^(j-i))).
    """
    c = [Fraction(x, p.den) for x in p.num[:-k - 2:-1]]  # c_0 .. c_k
    sums: list[Fraction] = []
    for j in range(1, k + 1):
        acc = j * c[j] if j < len(c) else 0
        for i in range(1, min(j, len(c))):
            acc += c[i] * sums[j - i - 1]
        sums.append(-acc)
    return sums


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
