"""Drazin inverses and the transfer of invertibility between AC and BA.

At finite dimension every square T is Drazin invertible: with d the index
(where the rank of T^d stabilizes), Q^n splits as R(T^d) + N(T^d), T is
invertible on the first summand and nilpotent on the second, and the Drazin
inverse S inverts the core and kills the nilpotent part. S is formed from the
r x r core block of T (r = rank T^d), the only matrix inverted and the only
row reduction past T's power chain, and the check of its three defining
identities reads TS once. Nilpotency is decided by products alone: at finite
dimension M is nilpotent iff M^dim = 0 (Cayley-Hamilton), so
nilpotency_index multiplies out M, M^2, ... until a power vanishes, and the
same routine decides the known degree of T^2 S - T. The transfer and the
proof identities share their products: the proof identities read ST, T^2 S
and T(BA) off the Drazin result and the transfer report, and take the
degree of PA.C from that of (AC)^2 S - AC when the two are equal.
Everything here is exact; "Riesz"
collapses to "nilpotent" on rational matrices, so the generalized statements
specialize to the classical Drazin inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from ratspec.intertwine import OperatorTriple, _require_condition
from ratspec.invariants import PowerChain
# image and kernel are not called here; they stay importable as drazin.image
# and drazin.kernel, which the ratbench tracer self-tests read
from ratspec.ratmat import Mat, image, inverse, kernel  # noqa: F401

def nilpotency_index(M: Mat) -> int | None:
    """Smallest k >= 1 with M^k = 0, or None if M is not nilpotent.

    M, M^2, ... are multiplied out until a power is zero: index k takes
    k - 1 products and no row reduction. By Cayley-Hamilton a nilpotent M
    has M^dim = 0, so the search stops at dim, after at most dim - 1
    products. The zero matrix has index 1 (on a nonzero space); a 0x0
    matrix has index 0 by convention.
    """
    if not M.is_square:
        raise ValueError("nilpotency of a non-square matrix")
    if M.rows == 0:
        return 0
    power = M
    for k in range(1, M.rows):
        if power.is_zero():
            return k
        power = power @ M
    return M.rows if power.is_zero() else None


@dataclass(frozen=True)
class DrazinResult:
    """Drazin inverse S of T with the core-nilpotent split of T.

    TS = ST, STS = S, and T^2 S - T is nilpotent; T = core_part +
    nilpotent_part with both products zero and index = asc(T) = dsc(T).
    projection is TS, the projection onto R(T^d) along N(T^d), st is ST,
    which the check found equal to it, and core_part is T^2 S = T (TS).
    """

    inverse: Mat
    index: int
    projection: Mat
    st: Mat
    core_part: Mat
    nilpotent_part: Mat


def drazin_inverse(T: Mat) -> DrazinResult:
    """Drazin inverse S = U (W T U)^-1 W from the core block at d = asc(T).

    d is the stabilization index of T's PowerChain. The columns U are the
    chain's basis of R(T^d). The chain row-reduced R(T^d) as the row space
    of (T^d)^T, whose pivot columns are r independent rows of T^d; those
    rows are W, so W spans the rows of T^d and N(W) = N(T^d), with no
    further row reduction. T maps R(T^d) onto itself, and W is injective there
    because R(T^d) and N(T^d) meet in 0, so the r x r core block W T U is
    invertible. S is then the inverse of T on R(T^d) and zero on N(T^d);
    no basis of N(T^d) is formed. At index 0 T is invertible and S is its
    inverse. The three defining identities are verified before returning.
    """
    if not T.is_square:
        raise ValueError("Drazin inverse of a non-square matrix")
    chain = PowerChain(T)
    d = chain.stable
    if d == 0:
        S = inverse(T)
        if S is None:
            raise ArithmeticError("index 0 but T is singular")
    else:
        img = chain.image(d)
        U = img.basis_matrix().transpose()
        W = chain.stable_power().submatrix(img.pivots, range(T.cols))
        core_inv = inverse(W @ T @ U)
        if core_inv is None:
            raise ArithmeticError("core block is singular")
        S = U @ core_inv @ W
    ts, st, core = _verify_drazin(T, S, d)
    return DrazinResult(inverse=S, index=d, projection=ts, st=st,
                        core_part=core, nilpotent_part=T - core)


def _verify_drazin(T: Mat, S: Mat, d: int) -> tuple[Mat, Mat, Mat]:
    """Check the three defining identities; (TS, ST, T^2 S), read off TS."""
    ts, st = T @ S, S @ T
    if st != ts:
        raise ArithmeticError("TS != ST")
    if S @ ts != S:
        raise ArithmeticError("STS != S")
    # T^2 S is T on the core summand and zero on the nilpotent one
    core = T @ ts
    if not _nilpotent_of_degree(core - T, d):
        raise ArithmeticError("nilpotency degree of T^2 S - T != index")
    return ts, st, core


def _nilpotent_of_degree(M: Mat, d: int) -> bool:
    """M has nilpotency index d: M^(d-1) != 0 and M^d = 0; at d <= 1, M = 0."""
    return M.is_zero() if d <= 1 else nilpotency_index(M) == d


@dataclass(frozen=True)
class TransferReport:
    """BS^2A as a Drazin inverse of BA, from a Drazin inverse S of AC."""

    s_ac: DrazinResult
    candidate: Mat           # B S^2 A
    cand_ba: Mat             # T(BA)
    commutes: bool           # T(BA) = (BA)T
    inner: bool              # T(BA)T = T
    residual_index: int | None  # nilpotency index of (BA)^2 T - BA

    @property
    def residual_nilpotent(self) -> bool:
        return self.residual_index is not None

    @property
    def verified(self) -> bool:
        return self.commutes and self.inner and self.residual_nilpotent

    @property
    def matches_direct(self) -> bool:
        """Whether the candidate equals drazin_inverse(BA).inverse.

        The Drazin inverse is unique: a T with T(BA) = (BA)T, T(BA)T = T
        and (BA)^2 T - BA nilpotent is the Drazin inverse of BA. So the
        candidate equals the direct inverse exactly when it is verified,
        and the direct inverse is not formed; the tests compare the two.
        """
        return self.verified


def transfer(t: OperatorTriple) -> TransferReport:
    """Form T = B S^2 A with S the Drazin inverse of AC and verify it inverts BA.

    The three defining identities are checked directly, and by uniqueness
    of the Drazin inverse they hold exactly when the candidate is the
    Drazin inverse of BA; that inverse is not formed here. T(BA) is kept
    on the report, where the proof identities read it.
    """
    _require_condition(t)
    s_res = drazin_inverse(t.ac)
    S = s_res.inverse
    cand = t.B @ (S @ S) @ t.A
    ba = t.ba
    cand_ba, ba_cand = cand @ ba, ba @ cand
    commutes = cand_ba == ba_cand
    inner = cand_ba @ cand == cand
    residual_index = nilpotency_index(ba @ ba_cand - ba)
    return TransferReport(s_ac=s_res, candidate=cand, cand_ba=cand_ba,
                          commutes=commutes, inner=inner,
                          residual_index=residual_index)


@dataclass(frozen=True)
class ProofIdentitiesReport:
    """Mechanical checks of the algebraic steps in the transfer argument."""

    commutation: bool        # ACS = SAC
    residual_is_bpa: bool    # T(BA)^2 - BA = BPA with P = ACS - I
    cycle: bool              # (PA)B(PA)B(PA) = ..B..C.. = ..C..B.. = ..C..C..
    pac_matches: bool        # (PA)C = (AC)^2 S - AC
    pac_nilpotent: bool      # with nilpotency degree = index of AC
    index: int


def proof_identities(t: OperatorTriple, tr: TransferReport) -> ProofIdentitiesReport:
    """Verify the identity chain used to justify the transfer, entrywise.

    S, its index, AC S, SAC, (AC)^2 S, the candidate B S^2 A and T(BA) are
    read from the transfer report tr of the same triple, so no product is
    formed twice. When PA.B == PA.C (always when C == B) the four words of
    the cycle are one word, and none of them is formed. drazin_inverse has
    verified that (AC)^2 S - AC is nilpotent of degree index, so when PA.C
    equals it, so is PA.C, with no product.
    """
    _require_condition(t)
    d = tr.s_ac.index
    ac_s = tr.s_ac.projection  # AC S
    commutation = ac_s == tr.s_ac.st
    pa = ac_s.shifted(1) @ t.A  # P = AC S - I
    ba = t.ba
    residual_is_bpa = (tr.cand_ba @ ba - ba) == t.B @ pa
    pac = pa @ t.C
    pab = pac if t.C == t.B else pa @ t.B
    if pab == pac:
        cycle = True  # the four words are one
    else:
        # (PA)X(PA)Y(PA) = [(PA)X] [(PA)Y(PA)] for X, Y in {B, C}
        pabpa, pacpa = pab @ pa, pac @ pa
        cycle = pab @ pabpa == pab @ pacpa == pac @ pabpa == pac @ pacpa
    pac_matches = pac == tr.s_ac.core_part - t.ac  # (AC)^2 S - AC
    return ProofIdentitiesReport(commutation=commutation,
                                 residual_is_bpa=residual_is_bpa,
                                 cycle=cycle, pac_matches=pac_matches,
                                 pac_nilpotent=(pac_matches
                                                or _nilpotent_of_degree(pac, d)),
                                 index=d)
