"""Polarized surfaces and their numerical invariants.

A polarized surface bundles a lattice, a polarization class h, the discrete
invariants p_g and q, a family tag, and asserted cohomological flags.  All
derived quantities (Euler characteristic of the structure sheaf, sectional
genus, embedding dimension, Riemann-Roch values, Chern twists) are computed
in exact integer arithmetic; adjunction parity makes every half an integer
(see IntersectionLattice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, isqrt
from operator import index
from typing import Optional

from .errors import MissingHypothesis, ValidationError
from .lattice import DivisorClass, DivisorLike, IntersectionLattice, as_divisor, dot

__all__ = [
    "SurfaceKind",
    "HypothesisFlags",
    "PolarizedSurface",
    "hypothesis_flag",
    "standing_hypotheses",
    "DerivedInvariants",
    "ChernData",
    "SanityCheck",
    "SanityReport",
    "chi_structure",
    "derived_invariants",
    "riemann_roch_chi",
    "chern_twist",
    "embedding_sanity",
]

# Tri-state hypothesis value: True / False / None (unknown).
Flag = Optional[bool]

# Number of integer parameters each kind carries.
KIND_ARITY = {"p2": 1, "hirzebruch": 3, "blowup_p2": 0, "enriques": 0, "abstract": 0}
# Kinds on which |-K| is non-empty for every member, however it is built.
ANTICANONICAL_KINDS = frozenset({"p2", "hirzebruch"})


@dataclass(frozen=True)
class SurfaceKind:
    """Family tag of a surface, with its integer parameters.

    ``anticanonical`` records that |-K| is known non-empty for this family,
    which makes some hypotheses theorems (see hypothesis_flag); it is
    always true for ANTICANONICAL_KINDS.
    """

    name: str
    params: tuple[int, ...] = ()
    anticanonical: bool = False

    def __post_init__(self):
        if self.name not in KIND_ARITY:
            raise ValidationError("kind", f"unknown kind {self.name!r}")
        object.__setattr__(self, "params", tuple(map(index, self.params)))
        if len(self.params) != KIND_ARITY[self.name]:
            raise ValidationError(
                "kind",
                f"wrong number of parameters for {self.name!r}: "
                f"expected {KIND_ARITY[self.name]}, got {len(self.params)}",
            )
        # the windows in which p2_surface and hirzebruch_surface build h
        if self.name == "p2" and self.params[0] < 1:
            raise ValidationError("kind", f"p2 needs lambda >= 1, got {self.params[0]}")
        if self.name == "hirzebruch":
            e, a, b = self.params
            if e < 0 or a < 1 or b < a * e + 1:
                raise ValidationError(
                    "kind",
                    f"hirzebruch needs e >= 0, a >= 1 and b >= a*e + 1, got {self.params}",
                )
        if self.name in ANTICANONICAL_KINDS:
            object.__setattr__(self, "anticanonical", True)

    @staticmethod
    def p2(lam: int) -> "SurfaceKind":
        return SurfaceKind("p2", (lam,))

    @staticmethod
    def hirzebruch(e: int, a: int, b: int) -> "SurfaceKind":
        return SurfaceKind("hirzebruch", (e, a, b))

    @staticmethod
    def blowup_p2(anticanonical: bool = False) -> "SurfaceKind":
        return SurfaceKind("blowup_p2", (), anticanonical=anticanonical)

    @staticmethod
    def enriques() -> "SurfaceKind":
        return SurfaceKind("enriques")

    @staticmethod
    def abstract() -> "SurfaceKind":
        return SurfaceKind("abstract")

    def lattice_invariants(self) -> tuple[int, int, int, int] | None:
        """(rank, h^2, h.K, K^2) that the parameters fix, or None; none
        of them depends on the basis."""
        if self.name == "p2":
            (lam,) = self.params
            return 1, lam * lam, -3 * lam, 9
        if self.name == "hirzebruch":
            e, a, b = self.params
            return 2, 2 * a * b - a * a * e, a * e - 2 * a - 2 * b, 8
        return None

    def to_string(self) -> str:
        parts = self.name
        if self.params:
            parts += ":" + ",".join(str(p) for p in self.params)
        if self.anticanonical and self.name not in ANTICANONICAL_KINDS:
            parts += ":anticanonical"
        return parts

    @staticmethod
    def from_string(text: str) -> "SurfaceKind":
        pieces = text.split(":")
        anticanonical = False
        params: tuple[int, ...] | None = None
        for piece in pieces[1:]:
            if piece == "anticanonical":
                anticanonical = True
            elif params is not None:
                raise ValidationError(
                    "kind", f"more than one parameter group in {text!r}"
                )
            else:
                try:
                    params = tuple(int(p) for p in piece.split(","))
                except ValueError:
                    raise ValidationError("kind", f"bad parameters in {text!r}")
        return SurfaceKind(pieces[0], params or (), anticanonical=anticanonical)


@dataclass(frozen=True)
class HypothesisFlags:
    """Asserted cohomological facts; None means unknown.

    * very_ample: O_S(h) is very ample.
    * non_special: h^1(O_S(h)) = 0.
    * h0_2K_minus_h_zero: h^0(O_S(2K - h)) = 0.
    * h0_h_minus_K_zero: h^0(O_S(h - K)) = 0.
    """

    very_ample: Flag = None
    non_special: Flag = None
    h0_2K_minus_h_zero: Flag = None
    h0_h_minus_K_zero: Flag = None

    def __post_init__(self):
        # any other value, 1 or "true" say, would read as asserted: it
        # would block the auto-derivation, yet decide no verdict
        for name, value in vars(self).items():
            if value is not None and type(value) is not bool:
                raise TypeError(f"flag {name} must be True, False or None, got {value!r}")


@dataclass(frozen=True)
class PolarizedSurface:
    """A lattice with a polarization h and the discrete invariants.

    h^2, h.K, K^2, the sectional genus, gram . h and the line-bundle
    intervals are computed on first use and kept on the instance
    (``functools.cached_property``); they are not fields, so equality and
    hashing ignore them.
    """

    lattice: IntersectionLattice
    h: DivisorClass
    pg: int = 0
    q: int = 0
    kind: SurfaceKind = field(default_factory=SurfaceKind.abstract)
    flags: HypothesisFlags = field(default_factory=HypothesisFlags)
    name: str = ""
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "h", as_divisor(self.h))
        self.lattice.check_dimension(self.h)
        if self.pg < 0 or self.q < 0:
            raise ValidationError("pg/q", "must be non-negative")
        if self.h2 <= 0:
            raise ValidationError("h", "a very ample class must have h^2 > 0")

    @property
    def K(self) -> DivisorClass:
        return self.lattice.canonical

    @cached_property
    def gram_h(self) -> tuple[int, ...]:
        """gram . h: D.h is then dot(D, gram_h), O(rank)."""
        return self.lattice.gram_apply(self.h)

    @cached_property
    def line_intervals(self) -> tuple[tuple[int, int], ...] | None:
        """One interval (lo, hi) per coordinate that holds that coefficient
        of every solution D of D.h = (3h^2 + h.K)/2 and
        D^2 - D.K = 2(h^2 - chi); () when there is no solution, and None
        when the lattice does not have signature (1, rank - 1).

        w = 2D - K has w.h = 3h^2 and w^2 = 8(h^2 - chi) + K^2, so
        P(w) = 2(w.h)^2 - h^2 w^2 = R = h^2(10h^2 + 8chi - K^2), where
        P = 2(gram_h)(gram_h)^T - h^2 gram.  P is positive definite exactly
        when h-perp is negative definite (Hodge index), and then
        |w_i| <= s_i = isqrt(R (P^-1)_ii) (Fincke & Pohst, Math. Comp. 44,
        1985), so D_i lies in [ceil((K_i - s_i)/2), floor((K_i + s_i)/2)].
        """
        h2, gram_h = self.h2, self.gram_h
        P = [
            [2 * a * b - h2 * g for b, g in zip(gram_h, row)]
            for a, row in zip(gram_h, self.lattice.gram)
        ]
        adjugate = _positive_definite_adjugate(P)
        if adjugate is None:
            return None
        det, diagonal = adjugate
        R = h2 * (10 * h2 + 8 * self.chi - self.K2)
        if R < 0:
            return ()
        intervals = []
        for k, adj in zip(self.K.coeffs, diagonal):
            s = isqrt(R * adj // det)
            intervals.append((-((s - k) // 2), (k + s) // 2))
        return tuple(intervals)

    @cached_property
    def h2(self) -> int:
        return dot(self.h.coeffs, self.gram_h)

    @cached_property
    def hK(self) -> int:
        """pair(h, K) with K the lattice's own canonical class: O(rank),
        from the cached gram_K."""
        return self.lattice.pair(self.h, self.K)

    @cached_property
    def K2(self) -> int:
        return dot(self.K.coeffs, self.lattice.gram_K)

    @property
    def chi(self) -> int:
        return chi_structure(self.pg, self.q)

    @cached_property
    def pi(self) -> int:
        """Sectional genus (h^2 + h.K)/2 + 1."""
        return (self.h2 + self.hK) // 2 + 1

    def pair(self, D: DivisorLike, E: DivisorLike) -> int:
        return self.lattice.pair(D, E)


def _positive_definite_adjugate(P: list[list[int]]) -> tuple[int, list[int]] | None:
    """(det P, the diagonal of adj P = det P . P^-1) for a symmetric integer
    matrix P that is positive definite, else None.

    One fraction-free Gauss-Jordan elimination (Bareiss) of [P | I], in
    O(rank^3) exact integer operations: every division is exact, the k-th
    pivot is the leading principal minor of order k + 1 (all of them are
    positive exactly when P is positive definite, by Sylvester's
    criterion), and the right half ends as adj P.
    """
    n = len(P)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(P)]
    previous = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot <= 0:
            return None
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pivot * a - f * b) // previous for a, b in zip(row, pivot_row)]
        previous = pivot
    return previous, [row[n + i] for i, row in enumerate(rows)]


# Flags that are theorems on Enriques and on anticanonical surfaces: h is
# non-special there, and h^0(2K - h) = 0, as 2K is numerically trivial or
# h - K is effective.
AUTO_DERIVED_FLAGS = ("non_special", "h0_2K_minus_h_zero")


def hypothesis_flag(S: PolarizedSurface, name: str) -> Flag:
    """The flag ``name`` of S as asserted or, when unknown, true where the
    kind makes it a theorem.  Every verdict reads its hypotheses here."""
    asserted = getattr(S.flags, name)
    if asserted is None and name in AUTO_DERIVED_FLAGS and (
        S.kind.anticanonical or S.kind.name == "enriques"
    ):
        return True
    return asserted


def standing_hypotheses(S: PolarizedSurface) -> bool:
    """pg = q = 0 and h non-special, asserted or auto-derived: the
    hypotheses under which N, the verdicts and the sanity checks hold."""
    return S.pg == 0 and S.q == 0 and hypothesis_flag(S, "non_special") is True


@dataclass(frozen=True)
class ChernData:
    """Numeric shadow of a vector bundle: (rank, c_1, c_2)."""

    rank: int
    c1: DivisorClass
    c2: int

    def __post_init__(self):
        object.__setattr__(self, "rank", index(self.rank))
        if self.rank < 1:
            raise ValidationError("rank", "must be a positive integer")
        object.__setattr__(self, "c1", as_divisor(self.c1))
        object.__setattr__(self, "c2", index(self.c2))


@dataclass(frozen=True)
class DerivedInvariants:
    h2: int
    hK: int
    K2: int
    chi: int
    pi: int
    N: Optional[int]
    h0_h: Optional[int]
    degZ: Optional[int]
    h0_h_plus_K: Optional[int]

    def to_dict(self) -> dict:
        return dict(vars(self))


def chi_structure(pg: int, q: int) -> int:
    """chi(O_S) = 1 - q + p_g."""
    if pg < 0 or q < 0:
        raise ValidationError("pg/q", "must be non-negative")
    return 1 - q + pg


def derived_invariants(S: PolarizedSurface) -> DerivedInvariants:
    """All numerical invariants derivable from the lattice data.

    N (and with it h^0(h) = N + 1 and deg Z = N + 2) is only computed under
    the standing hypotheses; otherwise those fields are None rather than
    guessed.  h^0(h + K) is the sectional genus when it is at least 1
    (Kodaira vanishing range), absent otherwise.
    """
    h2 = S.h2
    hK = S.hK
    pi = S.pi
    if standing_hypotheses(S):
        N = (h2 - hK) // 2
        h0_h = N + 1
        degZ = N + 2
    else:
        N = h0_h = degZ = None
    return DerivedInvariants(
        h2=h2,
        hK=hK,
        K2=S.K2,
        chi=S.chi,
        pi=pi,
        N=N,
        h0_h=h0_h,
        degZ=degZ,
        h0_h_plus_K=pi if pi >= 1 else None,
    )


def riemann_roch_chi(S: PolarizedSurface, F: ChernData) -> int:
    """chi(F) = rank . chi(O_S) + c1.(c1 - K)/2 - c2, exactly."""
    c1 = S.lattice.check_dimension(F.c1)
    half = (S.pair(c1, c1) - dot(c1.coeffs, S.lattice.gram_K)) // 2
    return F.rank * S.chi + half - F.c2


def chern_twist(S: PolarizedSurface, F: ChernData, t: int) -> ChernData:
    """Chern data of F(t h): the standard twist formulas for c1 and c2."""
    c1 = S.lattice.check_dimension(F.c1)
    new_c1 = c1 + (F.rank * t) * S.h
    new_c2 = (
        F.c2
        + (F.rank - 1) * t * dot(c1.coeffs, S.gram_h)
        + comb(F.rank, 2) * t * t * S.h2
    )
    return ChernData(F.rank, new_c1, new_c2)


@dataclass(frozen=True)
class SanityCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SanityReport:
    checks: tuple[SanityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [dict(vars(c)) for c in self.checks]}


def embedding_sanity(S: PolarizedSurface) -> SanityReport:
    """Degree/dimension inequalities forced by the projective embedding.

    Requires the standing hypotheses, under which N is defined.  Each
    inequality is reported individually; clauses with unmet preconditions
    are recorded as vacuously passing.
    """
    inv = derived_invariants(S)
    if inv.N is None:
        raise MissingHypothesis(
            "embedding sanity needs pg = q = 0 and non_special = true"
        )
    h2, hK, N = inv.h2, inv.hK, inv.N
    checks = [
        SanityCheck("h2 = hK + 2N", h2 == hK + 2 * N, f"{h2} vs {hK + 2 * N}"),
        SanityCheck("h2 >= hK + 4", h2 >= hK + 4, f"{h2} >= {hK + 4}"),
    ]
    for floor, n_min, gap in ((2, 3, 6), (4, 4, 8)):
        clauses = (
            (f"h2 >= {floor} => N >= {n_min}", N >= n_min, f"N = {N}"),
            (f"h2 >= {floor} => h2 >= hK + {gap}", h2 >= hK + gap,
             f"{h2} >= {hK + gap}"),
        )
        for name, ok, detail in clauses:
            if h2 < floor:
                ok, detail = True, "vacuous"
            checks.append(SanityCheck(name, ok, detail))
    return SanityReport(tuple(checks))
