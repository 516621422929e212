"""Exact integer arithmetic on intersection lattices of surfaces.

A lattice is a free abelian group of finite rank with a symmetric integer
pairing and a distinguished canonical class.  Divisor classes are integer
coefficient vectors in the chosen basis.  Everything is immutable and all
arithmetic uses Python's arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index, mul
from typing import Iterable, Sequence, Union

from .errors import AsymmetricGram, DimensionMismatch, ParityViolation

__all__ = [
    "DivisorClass",
    "IntersectionLattice",
    "dot",
    "make_lattice",
    "hirzebruch_lattice",
    "blowup_p2_lattice",
]


@dataclass(frozen=True)
class DivisorClass:
    """Integer coefficient vector in a lattice basis.

    Coefficients go through ``operator.index``: ints pass unchanged, bools
    become 0/1, and floats or strings raise TypeError rather than being
    truncated or parsed.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise DimensionMismatch(
                f"cannot add vectors of lengths {len(self)} and {len(other)}"
            )
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(tuple(scalar * a for a in self.coeffs))

    @staticmethod
    def zero(rank: int) -> "DivisorClass":
        return DivisorClass((0,) * rank)


DivisorLike = Union[DivisorClass, Sequence[int]]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Integer dot product; with v = gram . E it gives the pairing u.E."""
    return sum(map(mul, u, v))


def as_divisor(value: DivisorLike) -> DivisorClass:
    if isinstance(value, DivisorClass):
        return value
    return DivisorClass(tuple(value))


@dataclass(frozen=True)
class IntersectionLattice:
    """Free abelian group with symmetric pairing and canonical class.

    Construct through :func:`make_lattice`, which coerces the entries to
    ints and checks symmetry and adjunction parity in _validated_lattice.
    parse_surface, whose own type pass has already proved every entry an
    int, calls that validator directly, so every builtin and every
    document is validated in one place.  The parity check on basis
    vectors alone suffices: writing o(D) = D.D + D.K, bilinearity and
    symmetry of the pairing give
    o(D + E) = o(D) + o(E) + 2 D.E, so o is additive mod 2 and vanishes on
    all integer vectors as soon as it vanishes on the basis.

    Every half in the numerical Ulrich conditions is therefore an integer,
    and the code halves with ``//`` without a check.  For a polarization h
    and any class c1, o(h) and o(c1) are even, so

    * h^2 + h.K (sectional genus) and h^2 - h.K = o(h) - 2 h.K (the
      embedding dimension N) are even;
    * 3h^2 + h.K = o(h) + 2h^2 (the degree D.h of an Ulrich line bundle,
      times any rank) and 5h^2 + 3h.K = 3 o(h) + 2h^2 (the special c2)
      are even;
    * c1^2 - c1.K = o(c1) - 2 c1.K (Riemann-Roch) is even.

    The degeneracy checks go the same way: PolarizedSurface requires
    h.h = dot(h, gram . h) > 0, so gram . h is not the zero vector, and the
    linear form D -> D.h always has a nonzero coefficient to solve for.
    """

    gram: tuple[tuple[int, ...], ...]
    canonical: DivisorClass
    basis_labels: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.gram)

    def check_dimension(self, D: DivisorLike) -> DivisorClass:
        D = as_divisor(D)
        if len(D) != self.rank:
            raise DimensionMismatch(
                f"divisor has {len(D)} coefficients, lattice has rank {self.rank}"
            )
        return D

    def pair(self, D: DivisorLike, E: DivisorLike) -> int:
        """Intersection product D^T . gram . E; O(rank) from the cached
        gram_K when E is the canonical class itself."""
        D = self.check_dimension(D)
        if E is self.canonical:
            return dot(D.coeffs, self.gram_K)
        e = self.check_dimension(E).coeffs
        return sum(d * dot(row, e) for d, row in zip(D.coeffs, self.gram) if d)

    def gram_apply(self, D: DivisorLike) -> tuple[int, ...]:
        """The vector gram . D; its dot product with E gives pair(E, D)."""
        D = self.check_dimension(D)
        return tuple(dot(row, D.coeffs) for row in self.gram)

    @cached_property
    def gram_K(self) -> tuple[int, ...]:
        """gram . K, computed once: D.K is then dot(D, gram_K), O(rank)."""
        return self.gram_apply(self.canonical)


def make_lattice(
    gram: Iterable[Iterable[int]],
    canonical: DivisorLike,
    labels: Sequence[str],
) -> IntersectionLattice:
    """Validate and build an intersection lattice.

    Raises AsymmetricGram, ParityViolation or DimensionMismatch, and
    TypeError for an entry that is not an integer (``operator.index``:
    a bool becomes 0/1).  Every builtin surface builds its lattice here,
    and every lattice, a parsed document's included, is validated in
    _validated_lattice, so the integrality argument of IntersectionLattice
    holds for all of them.
    """
    rows = tuple(tuple(map(index, row)) for row in gram)
    return _validated_lattice(rows, canonical, labels)


def _validated_lattice(
    rows: tuple[tuple[int, ...], ...],
    canonical: DivisorLike,
    labels: Sequence[str],
) -> IntersectionLattice:
    """The lattice of rows, entries already exact ints, once it passes the
    checks: a square gram, K and labels of its rank, symmetry and parity.
    make_lattice and parse_surface build every lattice through here."""
    rank = len(rows)
    for row in rows:
        if len(row) != rank:
            raise DimensionMismatch("gram matrix is not square")
    K = as_divisor(canonical)
    if len(K) != rank:
        raise DimensionMismatch(
            f"canonical class has {len(K)} coefficients, expected {rank}"
        )
    labels = tuple(str(s) for s in labels)
    if len(labels) != rank:
        raise DimensionMismatch(f"{len(labels)} labels for rank {rank}")
    if tuple(zip(*rows)) != rows:
        # name the first asymmetric pair in row-major order
        for i in range(rank):
            for j in range(i + 1, rank):
                if rows[i][j] != rows[j][i]:
                    raise AsymmetricGram(f"gram[{i}][{j}] != gram[{j}][{i}]")
    lattice = IntersectionLattice(rows, K, labels)
    # b_i.b_i + b_i.K = gram[i][i] + (gram . K)[i]: O(rank^2) in all.
    for i, (row, gK) in enumerate(zip(rows, lattice.gram_K)):
        if (row[i] + gK) % 2 != 0:
            raise ParityViolation(
                f"basis vector {labels[i]}: b.b + b.K is odd"
            )
    return lattice


def hirzebruch_lattice(e: int) -> IntersectionLattice:
    """Rank-2 lattice of a Hirzebruch surface: basis (xi, f) with
    xi^2 = -e, xi.f = 1, f^2 = 0 and K = -2 xi - (e+2) f."""
    if e < 0:
        raise ValueError(f"e must be non-negative, got {e}")
    return make_lattice(
        [[-e, 1], [1, 0]],
        [-2, -(e + 2)],
        ["xi", "f"],
    )


def blowup_p2_lattice(m: int, labels: Sequence[str] | None = None) -> IntersectionLattice:
    """Rank-(m+1) lattice of the plane blown up at m points: basis
    (l, e_1, ..., e_m), gram diag(1, -1, ..., -1), K = -3l + sum e_i."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    gram = [
        [(1 if i == 0 else -1) if i == j else 0 for j in range(m + 1)]
        for i in range(m + 1)
    ]
    if labels is None:
        labels = ["l"] + [f"e{i}" for i in range(1, m + 1)]
    return make_lattice(gram, [-3] + [1] * m, labels)
