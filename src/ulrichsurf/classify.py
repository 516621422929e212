"""Decision procedures: existence, stability, wildness, moduli dimensions.

Verdicts are tri-state (true / false / unknown): the theorems being decided
are conditional on cohomological hypotheses which are asserted flags, never
silently assumed.  For well-studied families (Enriques surfaces and
anticanonical rational surfaces) some hypotheses are auto-derived; every
flag is read through invariants.hypothesis_flag, which says which.

classify decides each verdict once; the public verdict functions read its
sheet and keep their MissingHypothesis raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import MissingHypothesis
from .invariants import (
    PolarizedSurface, derived_invariants, hypothesis_flag, standing_hypotheses,
)

__all__ = [
    "Verdict",
    "ModuliDims",
    "ClassificationReport",
    "special_rank2_exists",
    "stable_special_exists",
    "is_ulrich_wild",
    "wild_via_lemma",
    "moduli_dims",
    "classify",
]


class Verdict(str, Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self):
        raise TypeError("Verdict is tri-state; compare explicitly")


def special_rank2_exists(S: PolarizedSurface) -> Verdict:
    """Existence of a special rank-2 Ulrich bundle.

    True under the standing hypotheses with a very ample polarization;
    unknown whenever a hypothesis is unknown.  Never false: no
    nonexistence statement is available.
    """
    return classify(S).special_rank2_exists


def _stability_read(report: "ClassificationReport") -> Verdict:
    if report.special_rank2_exists is not Verdict.TRUE:
        raise MissingHypothesis("stability decision needs special_rank2_exists = true")
    return report.stable_special_exists


def stable_special_exists(S: PolarizedSurface) -> Verdict:
    """Stability of the general special rank-2 Ulrich bundle.

    False exactly for the known exceptions (rational scroll embeddings of
    Hirzebruch surfaces, i.e. a = 1, and the plane with lambda = 1); true
    for every other tagged family, including lambda = 2 and all sectional
    genus >= 1 surfaces; unknown for untagged minimal-degree data, where
    the numbers cannot distinguish a scroll from the Veronese surface.
    """
    return _stability_read(classify(S))


def is_ulrich_wild(S: PolarizedSurface) -> Verdict:
    """Ulrich-wildness: true iff pi >= 1, or pi = 0 and h^2 >= 5.

    False for pi = 0 and h^2 <= 4, the surfaces of minimal degree: the
    plane (h^2 = 1), the quadric (2), the cubic scroll S(1,2) in P^4 (3),
    the Veronese surface in P^5 and the quartic scrolls S(2,2), S(1,3)
    (4).  The first four are of finite Cohen-Macaulay type (Eisenbud-
    Herzog, Math. Ann. 280, 1988), so they carry only finitely many
    indecomposable Ulrich bundles; the quartic scrolls are of tame type
    (Faenzi-Malaspinas, Adv. Math. 314, 2017), with at most
    one-dimensional families.  Unknown outside the standing hypotheses.
    """
    return classify(S).ulrich_wild


def wild_via_lemma(S: PolarizedSurface) -> bool:
    """The sufficient criterion pi >= 1 and h^2 + 1 >= K^2."""
    return S.pi >= 1 and S.h2 + 1 >= S.K2


@dataclass(frozen=True)
class ModuliDims:
    lower_chern: int
    lower_injective: Optional[int]
    smooth: Optional[int]


def moduli_dims(S: PolarizedSurface) -> ModuliDims:
    """Dimension bounds for the moduli of stable special Ulrich bundles.

    * lower_chern: h^2 - K^2 + 5, always.
    * lower_injective: 2(N + 2), only when h^0(h - K) = 0 is asserted.
    * smooth: equal to lower_chern, only when h^0(2K - h) = 0 holds, in
      which case the moduli component is generically smooth of exactly
      that dimension.

    A stable bundle needs the standing hypotheses, so N is known here.
    """
    report = classify(S)
    if _stability_read(report) is not Verdict.TRUE:
        raise MissingHypothesis("moduli dimensions need a stable bundle")
    return ModuliDims(report.moduli_dim_lower_chern,
                      report.moduli_dim_lower_injective, report.moduli_dim_smooth)


@dataclass(frozen=True)
class ClassificationReport:
    special_rank2_exists: Verdict
    stable_special_exists: Verdict
    ulrich_wild: Verdict
    wild_via_lemma: bool
    minimal_degree: bool
    moduli_dim_lower_chern: int
    moduli_dim_lower_injective: Optional[int]
    moduli_dim_smooth: Optional[int]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        """The fields in order, each Verdict as its text."""
        data = dict(vars(self), notes=list(self.notes))
        return {
            key: value.value if isinstance(value, Verdict) else value
            for key, value in data.items()
        }


def _stability(S: PolarizedSurface) -> Verdict:
    """The stability rule, on a surface with a special rank-2 Ulrich bundle."""
    kind = S.kind
    if kind.name == "hirzebruch":
        _, a, _ = kind.params
        return Verdict.FALSE if a == 1 else Verdict.TRUE
    if kind.name == "p2":
        (lam,) = kind.params
        return Verdict.FALSE if lam == 1 else Verdict.TRUE
    if kind.name == "abstract" and S.pi == 0:
        return Verdict.UNKNOWN
    return Verdict.TRUE


def classify(S: PolarizedSurface) -> ClassificationReport:
    """Full verdict sheet for a polarized surface, each verdict decided once."""
    standing = standing_hypotheses(S)
    embedded = standing and hypothesis_flag(S, "very_ample") is True
    special = Verdict.TRUE if embedded else Verdict.UNKNOWN
    stable = _stability(S) if special is Verdict.TRUE else Verdict.UNKNOWN
    lower_chern = S.h2 - S.K2 + 5
    lower_injective = smooth = None
    if stable is Verdict.TRUE:
        if hypothesis_flag(S, "h0_h_minus_K_zero") is True:
            lower_injective = 2 * (derived_invariants(S).N + 2)
        if hypothesis_flag(S, "h0_2K_minus_h_zero") is True:
            smooth = lower_chern
    wild = Verdict.UNKNOWN
    if standing:
        wild = Verdict.TRUE if S.pi >= 1 or S.h2 >= 5 else Verdict.FALSE
    notes = []
    if S.kind.anticanonical and S.kind.name == "blowup_p2" and S.pi >= 1:
        notes.append("moduli space irreducible rational smooth of dimension h2 - K2 + 5")
    if S.kind.anticanonical:
        notes.append(
            "anticanonical wildness threshold h2 >= 4 has exceptions at "
            "sectional genus 0; the general criterion is used instead"
        )
    if S.pg == 0 and S.q == 0 and S.K2 > 9:
        notes.append(
            "K2 > 9 violates the minimal-surface bound K2 <= 9; "
            "data cannot come from a minimal surface with pg = q = 0"
        )
    return ClassificationReport(
        special_rank2_exists=special,
        stable_special_exists=stable,
        ulrich_wild=wild,
        wild_via_lemma=wild_via_lemma(S),
        minimal_degree=S.pi == 0,
        moduli_dim_lower_chern=lower_chern,
        moduli_dim_lower_injective=lower_injective,
        moduli_dim_smooth=smooth,
        notes=tuple(notes),
    )
