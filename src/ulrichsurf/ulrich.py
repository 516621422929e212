"""Numerical Ulrich-bundle conditions on a polarized surface.

The checks here decide the exact Diophantine conditions satisfied by the
Chern data of Ulrich bundles: the degree (linear) equation on c1.h, the
quadratic equation tying c2 to c1, the distinguished rank-2 Chern classes
with c1 = 3h + K, and the dual-twist involution.  They are numerical
conditions only: the cohomological halves of Ulrichness (aCM-ness and the
h^0 vanishings) are not decidable from lattice data and every report says
so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .invariants import ChernData, PolarizedSurface, chern_twist, riemann_roch_chi
# Unused here; perfbench/tracer.py wraps the name at ulrich.derived_invariants.
from .invariants import derived_invariants  # noqa: F401
from .lattice import DivisorClass, DivisorLike, as_divisor, dot

__all__ = [
    "DISCLAIMER",
    "UlrichCheckReport",
    "line_numeric_check",
    "rank_numeric_check",
    "special_rank2_chern",
    "dual_twist",
    "line_dual",
    "chi_vanishing_check",
]

DISCLAIMER = "numerical conditions only; cohomological vanishings not checked"


@dataclass(frozen=True)
class UlrichCheckReport:
    """Outcome of a numerical Ulrich check, with both sides of each equation.

    ``required_*`` values are exact ints: adjunction parity makes each half
    in them an integer (see IntersectionLattice).
    """

    linear_ok: bool
    quadratic_ok: bool
    required_linear: int
    actual_linear: int
    required_c2: int
    actual_c2: int
    disclaimer: str = DISCLAIMER

    @property
    def passed(self) -> bool:
        return self.linear_ok and self.quadratic_ok

    def to_dict(self) -> dict:
        return {"passed": self.passed, **vars(self)}


def line_numeric_check(S: PolarizedSurface, D: DivisorLike) -> UlrichCheckReport:
    """Numerical Ulrich conditions for the line bundle O_S(D):

    D.h = (3 h^2 + h.K)/2  and  D^2 = 2(h^2 - chi) + D.K.
    """
    D = S.lattice.check_dimension(as_divisor(D))
    required_linear = (3 * S.h2 + S.hK) // 2
    actual_linear = dot(D.coeffs, S.gram_h)
    required_c2 = 2 * (S.h2 - S.chi) + dot(D.coeffs, S.lattice.gram_K)
    actual_c2 = S.pair(D, D)
    return UlrichCheckReport(
        linear_ok=actual_linear == required_linear,
        quadratic_ok=actual_c2 == required_c2,
        required_linear=required_linear,
        actual_linear=actual_linear,
        required_c2=required_c2,
        actual_c2=actual_c2,
    )


def rank_numeric_check(S: PolarizedSurface, F: ChernData) -> UlrichCheckReport:
    """Numerical Ulrich conditions for Chern data of arbitrary rank:

    c1.h = (rank/2)(3 h^2 + h.K)  and
    c2 = (c1^2 - c1.K)/2 - rank (h^2 - chi).
    """
    c1 = S.lattice.check_dimension(F.c1)
    required_linear = F.rank * (3 * S.h2 + S.hK) // 2
    actual_linear = dot(c1.coeffs, S.gram_h)
    required_c2 = (
        (S.pair(c1, c1) - dot(c1.coeffs, S.lattice.gram_K)) // 2
        - F.rank * (S.h2 - S.chi)
    )
    return UlrichCheckReport(
        linear_ok=actual_linear == required_linear,
        quadratic_ok=F.c2 == required_c2,
        required_linear=required_linear,
        actual_linear=actual_linear,
        required_c2=required_c2,
        actual_c2=F.c2,
    )


def special_rank2_chern(S: PolarizedSurface) -> ChernData:
    """Chern data of a special rank-2 Ulrich bundle:

    c1 = 3h + K,  c2 = (5 h^2 + 3 h.K)/2 + 2 chi.

    When pg = q = 0 (chi = 1) this c2 is deg Z + 2h^2 + 2h.K, the count for
    the bundle cut out by a length-(N+2) scheme Z, identically in h^2, h.K.
    """
    return ChernData(2, 3 * S.h + S.K, (5 * S.h2 + 3 * S.hK) // 2 + 2 * S.chi)


def dual_twist(S: PolarizedSurface, F: ChernData) -> ChernData:
    """Chern data of F^dual(3h + K); an involution preserving Ulrichness."""
    c1 = S.lattice.check_dimension(F.c1)
    D = 3 * S.h + S.K
    new_c1 = F.rank * D - c1
    new_c2 = (
        comb(F.rank, 2) * S.pair(D, D)
        - (F.rank - 1) * S.pair(c1, D)
        + F.c2
    )
    return ChernData(F.rank, new_c1, new_c2)


def line_dual(S: PolarizedSurface, D: DivisorLike) -> DivisorClass:
    """The dual solution 3h + K - D of the line-bundle conditions."""
    D = S.lattice.check_dimension(as_divisor(D))
    return 3 * S.h + S.K - D


def chi_vanishing_check(S: PolarizedSurface, F: ChernData) -> bool:
    """True iff chi(F(-h)) = chi(F(-2h)) = 0."""
    return (
        riemann_roch_chi(S, chern_twist(S, F, -1)) == 0
        and riemann_roch_chi(S, chern_twist(S, F, -2)) == 0
    )
