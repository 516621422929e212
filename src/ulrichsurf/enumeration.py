"""Enumeration of divisor classes satisfying the line-bundle conditions.

Three routes: an exact solver on lattices of rank at most 2 (parametrize
the integer solutions of the linear equation, then solve the induced
univariate quadratic in integers), the closed form on P^1 x P^1,
and a bounded exhaustive search usable on any rank as an independent
oracle.  The bounded search clips its box to the intervals that the Hodge
index theorem proves hold every solution (PolarizedSurface.line_intervals)
and visits every point of what is left once, in builtins, over at most
three factors, each the pre-summed entries of a run of adjacent
coordinates; on a diagonal gram matrix, the case of planes blown up at
points in their standard basis, one sum of packed integers and one set
lookup per box point decide both conditions, and otherwise the points
that pass the linear condition are tested column by column.  Outputs are
numerical candidates only and are always sorted lexicographically by
coefficient vector.
"""

from __future__ import annotations

from itertools import compress, count, islice, product, repeat
from math import gcd, isqrt, prod
from operator import add, floordiv, mod, mul, not_, sub

from .errors import (
    BoxTooLarge,
    DegenerateForm,
    InvalidPolarization,
    OutOfRange,
    RankTooHigh,
)
from .invariants import PolarizedSurface
from .lattice import DivisorClass
from .ulrich import line_numeric_check

__all__ = [
    "enumerate_rank2_exact",
    "p1xp1_closed_form",
    "enumerate_bounded",
    "DEFAULT_ITERATION_CEILING",
]

DEFAULT_ITERATION_CEILING = 10**8

# cap on rank * (2 bound + 1), the size of the per-coordinate tables and
# the target set the box search builds before it scans (about 110 bytes an
# entry)
_TABLE_CAP = 10**6

# kept box points decoded and tested per column pass of the box search
_CHUNK = 4096


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _integer_roots(A: int, B: int, C: int) -> list[int]:
    """Integer roots of A t^2 + B t + C = 0, for A != 0."""
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    roots = []
    for sign in (1, -1) if s else (1,):
        num = -B + sign * s
        if num % (2 * A) == 0:
            roots.append(num // (2 * A))
    return sorted(set(roots))


def enumerate_rank2_exact(S: PolarizedSurface) -> list[DivisorClass]:
    """All integer solutions of the line-bundle conditions, rank <= 2 only.

    Raises RankTooHigh above rank 2 and DegenerateForm when the solution
    set is infinite, which needs a degenerate pairing.  The right-hand side
    (3h^2 + h.K)/2 is an integer and D -> D.h is not the zero form (see
    IntersectionLattice), so neither needs a check here.
    """
    rank = S.lattice.rank
    if rank > 2:
        raise RankTooHigh(f"exact enumeration needs rank <= 2, got {rank}")
    w = S.gram_h
    r = (3 * S.h2 + S.hK) // 2

    if rank == 1:
        (w0,) = w
        if r % w0 != 0:
            return []
        candidates = [DivisorClass((r // w0,))]
        return [D for D in candidates if line_numeric_check(S, D).passed]

    w0, w1 = w
    g, x, y = _ext_gcd(w0, w1)
    if r % g != 0:
        return []
    scale = r // g
    # Solution line of the linear equation: P + t V, t integer.
    P = (x * scale, y * scale)
    V = (w1 // g, -w0 // g)

    def pair(u, v):
        return S.pair(DivisorClass(u), DivisorClass(v))

    K = S.K.coeffs
    # Quadratic condition: D^2 - D.K - 2(h^2 - chi) = 0 along the line.
    A = pair(V, V)
    B = 2 * pair(P, V) - pair(V, K)
    C = pair(P, P) - pair(P, K) - 2 * (S.h2 - S.chi)
    if A == 0:
        # V.h = 0 = V.V and h^2 > 0 put V in the kernel of the form, so
        # B = 0 too: every point of the line solves, or none does
        if C == 0:
            raise DegenerateForm("infinitely many solutions along the linear locus")
        return []
    solutions = []
    for t in _integer_roots(A, B, C):
        D = DivisorClass((P[0] + t * V[0], P[1] + t * V[1]))
        report = line_numeric_check(S, D)
        assert report.passed, "solver produced a non-solution"
        solutions.append(D)
    return sorted(solutions, key=lambda D: D.coeffs)


def p1xp1_closed_form(a: int, b: int) -> tuple[DivisorClass, DivisorClass]:
    """The two solutions on P^1 x P^1 with h = a xi + b f:

    L = (a-1) xi + (2b-1) f  and  M = (2a-1) xi + (b-1) f.
    """
    if a < 1 or b < 1:
        raise InvalidPolarization(f"need a, b >= 1, got ({a}, {b})")
    L = DivisorClass((a - 1, 2 * b - 1))
    M = DivisorClass((2 * a - 1, b - 1))
    for u, v in (L.coeffs, M.coeffs):
        assert (u + 1) * (v + 1) == 2 * a * b
        assert a * (v + 1) + b * (u + 1) == 3 * a * b
    return L, M


def enumerate_bounded(
    S: PolarizedSurface,
    bound: int,
    iteration_ceiling: int = DEFAULT_ITERATION_CEILING,
) -> list[DivisorClass]:
    """Exhaustive search for solutions with all coefficients in [-bound, bound].

    Coordinate i ranges over values_i, the interval [-bound, bound]
    clipped to S.line_intervals[i], which holds that coefficient of every
    solution (on a lattice without signature (1, rank - 1) there is no
    such interval and values_i is [-bound, bound]).  The search returns []
    at once when some values_i is empty or line_intervals is (), no
    solution at all.  The linear equation is used to solve one coordinate,
    the pivot, exactly: among the coordinates where D.h has a nonzero
    coefficient, the one with the most values_i, and among those the one
    with the largest |coefficient|.  The search visits every point y of the
    clipped box, the product of the values_i of the other coordinates,
    once.  Raises OutOfRange for a bound below 1, and BoxTooLarge, before
    any search work, when the tables built for the scan, one entry per
    value in every values_i, would exceed _TABLE_CAP, or when the clipped
    box has more points than the ceiling.

    Write k = gram . K and q_i(v) = g_ii v^2 - k_i v.  On a diagonal gram
    matrix the quadratic condition D.G.D - D.K = 2(h^2 - chi) is the sum of
    one share q_i(D_i) per coordinate, so the box scan decides it together
    with the linear one.  Three stages, all in exact integer arithmetic:

    1. Every box point, in builtins.  The entry for the value v of a
       non-pivot coordinate packs two fields, w_i v M + (q_i(v) - min q_i):
       every low field lies in [0, M) and M exceeds the largest sum of
       them, so the sum of one entry per coordinate gives the point's w.y
       and quadratic share in one integer, with no carry between the
       fields.  Each run of adjacent coordinates is pre-summed into one
       factor, the sums a + b over the entries a of the run so far and b
       of the next coordinate, a outer, while the factor holds at most
       max(widest values_i, ceil(sqrt(N))) entries, N the number of box
       points: no factor is larger, and there are at most 3 of them, since
       any two adjacent factors together hold more than sqrt(N) points.
       itertools.product draws the clipped box once, over the factors,
       in the same lexicographic order as over the coordinates, and
       map(sum, ...) adds 1 to 3 terms per point.  A point is kept when
       that integer is one of the packed targets, one per pivot value x in
       values_pivot whose required low field lies in [0, M); that is
       exactly when x = (r - w.y) / w_pivot is an integer in values_pivot
       and D is a solution.  On a gram matrix with an off-diagonal entry
       every low field is zero and M = 1: the targets are
       {r - w_pivot x : x in values_pivot} and the kept points are the
       candidates whose pivot is an integer in values_pivot.
    2. Kept points, column-wise.  Their box indices are taken in chunks of
       at most _CHUNK and decoded in mixed radix, len(values_i) for
       coordinate i with the last coordinate varying fastest, as in
       product, into one column of values per coordinate; the pivot column
       is divided out exactly, and the residual of
       D.G.D - D.K - 2(h^2 - chi) that stage 1 left out evaluated one term
       at a time: nothing on a diagonal gram matrix, otherwise every nonzero
       entry of the upper triangle of the gram matrix and of gram . K.
       Memory is bounded by the chunk, not by the box.
    3. Solutions.  Each zero becomes a DivisorClass, certified by
       line_numeric_check; the list is returned sorted.
    """
    if bound < 1:
        raise OutOfRange(f"bound must be >= 1, got {bound}")
    rank = S.lattice.rank
    w = S.gram_h
    r = (3 * S.h2 + S.hK) // 2
    intervals = S.line_intervals
    if intervals is None:
        intervals = ((-bound, bound),) * rank
    values = [range(max(lo, -bound), min(hi, bound) + 1) for lo, hi in intervals]
    if not (values and all(values)):
        return []
    # the table check first: its count stays printable at any bound
    table_entries = sum(map(len, values))
    if table_entries > _TABLE_CAP:
        raise BoxTooLarge(
            f"{table_entries} search table entries exceed cap {_TABLE_CAP}"
        )
    # the widest pivot leaves the fewest box points; some coefficient of
    # the linear form is nonzero because h^2 > 0
    pivot = max(
        (i for i in range(rank) if w[i]), key=lambda i: (len(values[i]), abs(w[i]))
    )
    w_pivot = w[pivot]
    others = [i for i in range(rank) if i != pivot]
    points = prod(len(values[i]) for i in others)
    if points > iteration_ceiling:
        raise BoxTooLarge(f"{points} iterations exceed ceiling {iteration_ceiling}")

    # Only the data depends on the gram matrix: the shares q_i folded into
    # stage 1, and the residual terms and constant left to stage 2.
    gram, gram_K = S.lattice.gram, S.lattice.gram_K
    c = 2 * (S.h2 - S.chi)
    if any(gram[i][j] for i in range(rank) for j in range(i + 1, rank)):
        shares = [[0] * len(values_i) for values_i in values]
        quadratic = [
            (i, j, gram[i][j] if i == j else 2 * gram[i][j])
            for i in range(rank)
            for j in range(i, rank)
            if gram[i][j]
        ]
        linear_terms = [(i, -ki) for i, ki in enumerate(gram_K) if ki]
        residual_c = c
    else:
        shares = [
            [(gram[i][i] * v - gram_K[i]) * v for v in values[i]] for i in range(rank)
        ]
        quadratic, linear_terms, residual_c = [], [], 0
    floors = {i: min(shares[i]) for i in others}
    M = 1 + sum(max(shares[i]) - floors[i] for i in others)
    # a solution with pivot x has low-field sum goal - q_pivot(x)
    goal = c - residual_c - sum(floors.values())

    # stage 1: the index of every box point that the packed sum keeps
    targets = {
        (r - w_pivot * x) * M + low
        for x, low in zip(values[pivot], map(sub, repeat(goal), shares[pivot]))
        if 0 <= low < M
    }
    packed = [
        [w[i] * v * M + q - floors[i] for v, q in zip(values[i], shares[i])]
        for i in others
    ]
    # runs of adjacent coordinates pre-summed into at most 3 factors
    limit = max(max(map(len, packed), default=1), isqrt(points - 1) + 1)
    factors = []
    for entries in packed:
        if factors and len(factors[-1]) * len(entries) <= limit:
            factors[-1] = [a + b for a in factors[-1] for b in entries]
        else:
            factors.append(entries)
    kept = compress(count(), map(targets.__contains__, map(sum, product(*factors))))

    # stage 2: the residual of D.G.D - D.K - 2(h^2 - chi), term by term
    solutions = []
    while chunk := list(islice(kept, _CHUNK)):
        n = len(chunk)
        columns = [None] * rank
        # the last coordinate of the box varies fastest, as in product
        for i in reversed(others):
            radix, start = len(values[i]), values[i].start
            columns[i] = list(map(add, map(mod, chunk, repeat(radix)), repeat(start)))
            chunk = list(map(floordiv, chunk, repeat(radix)))
        rest = [r] * n
        for i in others:
            rest = list(map(sub, rest, map(mul, columns[i], repeat(w[i]))))
        columns[pivot] = list(map(floordiv, rest, repeat(w_pivot)))
        value = [-residual_c] * n
        for i, j, coefficient in quadratic:
            product_ij = map(mul, columns[i], columns[j])
            value = list(map(add, value, map(mul, product_ij, repeat(coefficient))))
        for i, coefficient in linear_terms:
            value = list(map(add, value, map(mul, columns[i], repeat(coefficient))))

        # stage 3: only solutions become DivisorClass objects
        for k in compress(count(), map(not_, value)):
            D = DivisorClass(tuple(column[k] for column in columns))
            report = line_numeric_check(S, D)
            assert report.passed, "box search produced a non-solution"
            solutions.append(D)
    return sorted(solutions, key=lambda D: D.coeffs)
