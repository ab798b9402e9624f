"""Drazin inverses and the transfer of invertibility between AC and BA.

At finite dimension every square T is Drazin invertible: with d the index
(where the rank of T^d stabilizes), Q^n splits as R(T^d) + N(T^d), T is
invertible on the first summand and nilpotent on the second, and the Drazin
inverse S inverts the core and kills the nilpotent part. Everything here is
exact; "Riesz" collapses to "nilpotent" on rational matrices, so the
generalized statements specialize to the classical Drazin inverse.
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

    Read off the power chain: M is nilpotent iff the ranks of its powers
    stabilize at 0, and then the stabilization index is the least such k.
    The zero matrix has index 1 (on a nonzero space); a 0x0 matrix has
    index 0 by convention.
    """
    if not M.is_square:
        raise ValueError("nilpotency of a non-square matrix")
    chain = PowerChain(M)
    return chain.stable if chain.rank(chain.stable) == 0 else None


@dataclass(frozen=True)
class DrazinResult:
    """Drazin inverse S of T with the core-nilpotent split of T.

    TS = ST, STS = S, and T^2 S - T is nilpotent; T = core_part +
    nilpotent_part with both products zero and index = asc(T) = dsc(T).
    """

    inverse: Mat
    index: int
    core_part: Mat
    nilpotent_part: Mat


def drazin_inverse(T: Mat) -> DrazinResult:
    """Drazin inverse via the core-nilpotent decomposition at d = asc(T).

    d is the stabilization index of T's PowerChain, whose range and kernel
    at d are the two summands of Q^n = R(T^d) + N(T^d). In a basis adapted
    to them T is block diagonal with an invertible core and a nilpotent
    block; S inverts the core and is zero on the nilpotent summand. The
    three defining identities are verified before returning.
    """
    if not T.is_square:
        raise ValueError("Drazin inverse of a non-square matrix")
    n = T.rows
    chain = PowerChain(T)
    d = chain.stable
    core_basis = chain.image(d).basis_matrix()
    nil_basis = chain.kernel(d).basis_matrix()
    r = core_basis.rows
    if r + nil_basis.rows != n:
        raise ArithmeticError("core-nilpotent split failed")
    # the basis rows scaled to integers, as columns: still adapted to the split
    Q = Mat.from_ints(n, n, core_basis.num + nil_basis.num).transpose()
    Qi = inverse(Q)
    if Qi is None:
        raise ArithmeticError("adapted basis is singular")
    # S = Q diag(core^-1, 0) Q^-1 needs only the first r columns of Q and
    # rows of Q^-1, and the core block is the product of those around T
    q_core = Q.columns(range(r))
    qi_core = Qi.submatrix(range(r), range(n))
    core_inv = inverse(qi_core @ T @ q_core)
    if core_inv is None:
        raise ArithmeticError("core block is singular")
    S = q_core @ core_inv @ qi_core
    # T^2 S is T on the core summand and zero on the nilpotent one
    core = T @ T @ S
    _verify_drazin(T, S, core, d)
    return DrazinResult(inverse=S, index=d, core_part=core, nilpotent_part=T - core)


def _verify_drazin(T: Mat, S: Mat, core: Mat, d: int) -> None:
    if T @ S != S @ T:
        raise ArithmeticError("TS != ST")
    if S @ T @ S != S:
        raise ArithmeticError("STS != S")
    resid = core - T  # T^2 S - T
    if d <= 1:
        if not resid.is_zero():
            raise ArithmeticError("T^2 S - T nonzero at index <= 1")
    else:
        if not (resid ** d).is_zero() or (resid ** (d - 1)).is_zero():
            raise ArithmeticError("nilpotency degree of T^2 S - T != index")


@dataclass(frozen=True)
class TransferReport:
    """BS^2A as a Drazin inverse of BA, from a Drazin inverse S of AC."""

    s_ac: DrazinResult
    candidate: Mat           # B S^2 A
    commutes: bool           # T(BA) = (BA)T
    inner: bool              # T(BA)T = T
    residual_index: int | None  # nilpotency index of (BA)^2 T - BA
    matches_direct: bool     # equals drazin_inverse(BA).inverse

    @property
    def residual_nilpotent(self) -> bool:
        return self.residual_index is not None

    @property
    def verified(self) -> bool:
        return self.commutes and self.inner and self.residual_nilpotent


def transfer(t: OperatorTriple) -> TransferReport:
    """Form T = B S^2 A with S the Drazin inverse of AC and verify it inverts BA.

    The three defining identities are checked directly; by uniqueness of the
    Drazin inverse the candidate must then equal the independently computed
    inverse of BA, which is also checked.
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
    direct = drazin_inverse(ba).inverse
    return TransferReport(s_ac=s_res, candidate=cand, commutes=commutes,
                          inner=inner, residual_index=residual_index,
                          matches_direct=cand == direct)


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

    S, its index and the candidate B S^2 A are read from the transfer report
    tr of the same triple.
    """
    _require_condition(t)
    S = tr.s_ac.inverse
    d = tr.s_ac.index
    ac = t.ac
    ac_s = ac @ S
    commutation = ac_s == S @ ac
    P = ac_s.shifted(1)
    pa = P @ t.A
    ba = t.ba
    residual_is_bpa = (tr.candidate @ ba @ ba - ba) == t.B @ pa
    # (PA)X(PA)Y(PA) = [(PA)X] [(PA)Y(PA)] for X, Y in {B, C}
    pab, pac = pa @ t.B, pa @ t.C
    pabpa, pacpa = pab @ pa, pac @ pa
    cycle = pab @ pabpa == pab @ pacpa == pac @ pabpa == pac @ pacpa
    pac_matches = pac == ac @ ac_s - ac
    if d <= 1:
        pac_nilpotent = pac.is_zero()
    else:
        ni = nilpotency_index(pac)
        pac_nilpotent = ni == d
    return ProofIdentitiesReport(commutation=commutation,
                                 residual_is_bpa=residual_is_bpa,
                                 cycle=cycle, pac_matches=pac_matches,
                                 pac_nilpotent=pac_nilpotent, index=d)
