"""Independent oracles that only the tests call.

Production reads every per-operator quantity off one PowerChain and every
per-lambda quantity off the triple's shared chains. The functions here
compute the same quantities another way, from fresh matrix powers,
subspace sums and intersections, or the characteristic polynomial, so that
the tests can compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from ratspec.intertwine import OperatorTriple, _require_condition
from ratspec.invariants import regularity_membership
from ratspec.ratmat import (Mat, Poly, charpoly, image, kernel, quotient_dim,
                            rank, rat)


def _require_square(T: Mat) -> None:
    if not T.is_square:
        raise ValueError("spectral invariants need a square matrix")


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
    """True iff lam is in sigma_{R_i}(T), i.e. T - lam is not in R_i."""
    return not regularity_membership(T.shifted(rat(lam))).is_member(i)


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


def _deflate_poly(p: Poly, r: Fraction) -> Poly:
    # synthetic division by (x - r); exact when r is a root
    cs = list(p.coeffs)
    out = [Fraction(0)] * (len(cs) - 1)
    carry = Fraction(0)
    for i in range(len(cs) - 1, 0, -1):
        carry = cs[i] + carry * r if i < len(cs) - 1 else cs[i]
        out[i - 1] = carry
    return Poly(out)


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
