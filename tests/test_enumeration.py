import json
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, isqrt, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from documents import moved_document
from ulrichsurf import enumeration
from ulrichsurf.catalog import (
    builtin_surface,
    del_pezzo,
    hirzebruch_surface,
    p1xp1_surface,
    p2_surface,
    parse_surface,
)
from ulrichsurf.enumeration import (
    enumerate_bounded,
    enumerate_rank2_exact,
    p1xp1_closed_form,
)
from ulrichsurf.errors import (
    BoxTooLarge,
    DegenerateForm,
    InvalidPolarization,
    RankTooHigh,
)
from ulrichsurf.invariants import PolarizedSurface
from ulrichsurf.lattice import DivisorClass, IntersectionLattice, make_lattice
from ulrichsurf.ulrich import line_dual, line_numeric_check


def test_p2_degree_one():
    assert enumerate_rank2_exact(p2_surface(1)) == [DivisorClass((0,))]


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_p2_higher_degrees_empty(lam):
    assert enumerate_rank2_exact(p2_surface(lam)) == []


def test_f2_solutions():
    S = hirzebruch_surface(2, 1, 3)
    assert enumerate_rank2_exact(S) == [
        DivisorClass((0, 3)),
        DivisorClass((1, 2)),
    ]


def test_closed_form_examples():
    L, M = p1xp1_closed_form(1, 1)
    assert (L.coeffs, M.coeffs) == ((0, 1), (1, 0))
    L, M = p1xp1_closed_form(2, 3)
    assert (L.coeffs, M.coeffs) == ((1, 5), (3, 2))


def test_closed_form_symmetry():
    for a in range(1, 6):
        L, M = p1xp1_closed_form(a, a)
        assert L.coeffs == tuple(reversed(M.coeffs))


def test_closed_form_rejects_bad_polarization():
    with pytest.raises(InvalidPolarization):
        p1xp1_closed_form(0, 3)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 4), (2, 3), (3, 3), (4, 7)])
def test_p1xp1_exact_matches_closed_form(a, b):
    S = p1xp1_surface(a, b)
    L, M = p1xp1_closed_form(a, b)
    assert enumerate_rank2_exact(S) == sorted(
        [L, M], key=lambda D: D.coeffs
    )


def test_bounded_matches_exact():
    S = hirzebruch_surface(2, 1, 3)
    assert enumerate_bounded(S, 5) == enumerate_rank2_exact(S)
    assert enumerate_bounded(p2_surface(2), 10) == []
    Q = p1xp1_surface(2, 3)
    assert enumerate_bounded(Q, 6) == enumerate_rank2_exact(Q)


def test_bounded_on_higher_rank():
    S = del_pezzo(3)
    solutions = enumerate_bounded(S, 2)
    assert all(line_numeric_check(S, D).passed for D in solutions)
    # the zero twist of -K: D = h itself is a solution iff the equations say so;
    # just confirm closure under duality inside the box
    for D in solutions:
        dual = line_dual(S, D)
        if all(abs(c) <= 2 for c in dual.coeffs):
            assert dual in solutions


def test_exact_rejects_high_rank():
    with pytest.raises(RankTooHigh):
        enumerate_rank2_exact(del_pezzo(3))


def test_box_too_large():
    # the count is of the clipped box, 8^6 points, not of the 201^6 requested
    with pytest.raises(BoxTooLarge, match="^262144 iterations exceed ceiling 1000$"):
        enumerate_bounded(del_pezzo(3), 100, iteration_ceiling=1000)


def test_duality_stability_of_solution_sets():
    for S in [p1xp1_surface(2, 3), hirzebruch_surface(2, 1, 3), p2_surface(1)]:
        solutions = enumerate_rank2_exact(S)
        for D in solutions:
            assert line_dual(S, D) in solutions


def test_every_solution_passes_line_check():
    for S in [p1xp1_surface(3, 5), hirzebruch_surface(1, 1, 2)]:
        for D in enumerate_rank2_exact(S):
            assert line_numeric_check(S, D).passed


# ---------------------------------------------------------------------------
# The box search against its first form


def reference_enumerate_bounded(S, bound):
    """The bounded search as first written, kept as an oracle: every box
    point that solves the linear equation becomes a DivisorClass and goes
    through line_numeric_check."""
    rank = S.lattice.rank
    w = S.lattice.gram_apply(S.h)
    if all(wi == 0 for wi in w):
        raise DegenerateForm("pairing with h is identically zero")
    required = Fraction(3 * S.h2 + S.hK, 2)
    if required.denominator != 1:
        return []
    r = int(required)
    pivot = max(range(rank), key=lambda i: abs(w[i]))
    others = [i for i in range(rank) if i != pivot]
    solutions = []
    for values in product(range(-bound, bound + 1), repeat=rank - 1):
        rest = r - sum(w[i] * v for i, v in zip(others, values))
        if rest % w[pivot] != 0:
            continue
        x = rest // w[pivot]
        if abs(x) > bound:
            continue
        coeffs = [0] * rank
        for i, v in zip(others, values):
            coeffs[i] = v
        coeffs[pivot] = x
        D = DivisorClass(tuple(coeffs))
        if line_numeric_check(S, D).passed:
            solutions.append(D)
    return sorted(solutions, key=lambda D: D.coeffs)


# One or more members of every built-in family, up to rank 9.
SMALL_BUILTINS = (
    ["p2-1", "p2-3", "p1xp1-2-3", "p1xp1-3-3", "hirzebruch-e1-a1-b2",
     "hirzebruch-e2-a1-b3", "table1-row-1", "table1-row-2", "table1-row-3",
     "table1-row-2-printed", "enriques-10", "kim-4-5", "kim-5-2"]
    + [f"del-pezzo-{d}" for d in range(3, 10)]
)


def _small_bounds(rank, points=3**8):
    """Bounds from 1 to 6 whose box has at most ``points`` points (always 1)."""
    return [1] + [b for b in range(2, 7) if (2 * b + 1) ** (rank - 1) <= points]


# The default chunk holds every candidate of these boxes; chunks of 1, 2
# and 7 candidates put chunk boundaries everywhere inside them.
@pytest.mark.parametrize(
    "name,chunk",
    [pytest.param(name, None, id=name) for name in SMALL_BUILTINS]
    + [pytest.param(name, chunk, id=f"{name}-chunk-{chunk}")
       for chunk in (1, 2, 7) for name in SMALL_BUILTINS],
)
def test_bounded_matches_reference_on_builtins(name, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(enumeration, "_CHUNK", chunk)
    S = builtin_surface(name)
    for bound in _small_bounds(S.lattice.rank):
        assert enumerate_bounded(S, bound) == reference_enumerate_bounded(S, bound)


def _candidate_count(S, bound):
    """Box points whose pivot coordinate is an integer inside the box."""
    w = S.gram_h
    r = (3 * S.h2 + S.hK) // 2
    pivot = max(range(len(w)), key=lambda i: abs(w[i]))
    others = [wi for i, wi in enumerate(w) if i != pivot]
    candidates = 0
    for values in product(range(-bound, bound + 1), repeat=len(others)):
        x, rest = divmod(r - sum(wi * v for wi, v in zip(others, values)), w[pivot])
        candidates += rest == 0 and abs(x) <= bound
    return candidates


def test_bounded_matches_reference_across_chunks_on_a_diagonal_gram(monkeypatch):
    # on a diagonal gram stage 1 keeps only the solutions: the 30 of
    # del-pezzo-4 in the box of 7^5 = 16,807 points fill five chunks of 7
    monkeypatch.setattr(enumeration, "_CHUNK", 7)
    S = del_pezzo(4)
    solutions = enumerate_bounded(S, 3)
    assert len(solutions) == 30
    assert solutions == reference_enumerate_bounded(S, 3)


def _fix_parity(gram, K):
    """Adjust gram so that b.b + b.K is even for every basis vector b.

    For K_i even, b_i.b_i + b_i.K flips with gram[i][i]; for K_i odd it is
    the parity of the sum of gram[i][j] over the other j with K_j odd,
    which toggling gram[i][last odd] fixes for all but the last odd index,
    and that one follows because the sum over all of them is even."""
    n = len(gram)
    odd = [i for i in range(n) if K[i] % 2]
    for i in odd[:-1]:
        if sum(gram[i][j] for j in odd if j != i) % 2:
            gram[i][odd[-1]] += 1
            gram[odd[-1]][i] += 1
    for i in range(n):
        if K[i] % 2 == 0 and (gram[i][i] + sum(g * k for g, k in zip(gram[i], K))) % 2:
            gram[i][i] += 1
    return gram


@st.composite
def small_surfaces(draw):
    rank = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = draw(entries)
    K = draw(st.lists(entries, min_size=rank, max_size=rank))
    h = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    lattice = make_lattice(_fix_parity(gram, K), K, [f"b{i}" for i in range(rank)])
    assume(lattice.pair(h, h) > 0)
    return PolarizedSurface(lattice=lattice, h=h)


def _surface(gram, K, h):
    return PolarizedSurface(
        lattice=make_lattice(gram, K, [f"b{i}" for i in range(len(K))]), h=h
    )


def _reference_intervals(S):
    """S.line_intervals by rational Gauss-Jordan inversion of
    P = 2 (gram h)(gram h)^T - h^2 gram: None unless every pivot is positive
    (P positive definite), () when R = h^2 (10 h^2 + 8 chi - K^2) < 0."""
    n, gram_h, h2 = S.lattice.rank, S.gram_h, S.h2
    rows = [
        [Fraction(2 * a * b - h2 * g) for b, g in zip(gram_h, row)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i, (a, row) in enumerate(zip(gram_h, S.lattice.gram))
    ]
    for k in range(n):
        if rows[k][k] <= 0:
            return None
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    R = h2 * (10 * h2 + 8 * S.chi - S.K2)
    if R < 0:
        return ()
    intervals = []
    for i, k in enumerate(S.K.coeffs):
        s = isqrt(floor(R * rows[i][n + i]))  # the largest |w_i| on P(w) = R
        intervals.append((ceil(Fraction(k - s, 2)), floor(Fraction(k + s, 2))))
    return tuple(intervals)


def _assert_matches_reference(surface, bound):
    """The box search equals the reference, and the reference's solutions
    lie inside line_intervals, which equal their rational computation."""
    intervals = surface.line_intervals
    assert intervals == _reference_intervals(surface)
    solutions = reference_enumerate_bounded(surface, bound)
    assert enumerate_bounded(surface, bound) == solutions
    if intervals is not None:
        for D in solutions:
            assert all(lo <= d <= hi for d, (lo, hi) in zip(D.coeffs, intervals))


@given(surface=small_surfaces(), bound=st.integers(1, 2))
@settings(max_examples=150, deadline=None)
# positive definite
@example(surface=_surface([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1], [1, 0, 0]), bound=2)
@example(surface=_surface([[2, 1], [1, 2]], [0, 0], [1, 1]), bound=2)
# degenerate: gram has a kernel
@example(surface=_surface([[1, 1], [1, 1]], [1, 0], [1, 0]), bound=2)
@example(surface=_surface([[1, 0, 0], [0, 0, 0], [0, 0, -1]], [-3, 0, 1], [1, 0, 0]), bound=2)
# R < 0: line_intervals is (), there is no solution
@example(surface=_surface([[1, 0], [0, -1]], [5, 1], [1, 0]), bound=2)
def test_bounded_matches_reference_on_generated_lattices(surface, bound):
    _assert_matches_reference(surface, bound)


@st.composite
def diagonal_surfaces(draw):
    """Lattices with a diagonal gram matrix, on which the box search folds
    the quadratic condition into its scan of the box.  _fix_parity changes
    only the diagonal of a diagonal gram matrix."""
    rank = draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    diagonal = draw(st.lists(entries, min_size=rank, max_size=rank))
    K = draw(st.lists(entries, min_size=rank, max_size=rank))
    h = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    gram = [[diagonal[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
    lattice = make_lattice(_fix_parity(gram, K), K, [f"b{i}" for i in range(rank)])
    assume(lattice.pair(h, h) > 0)
    return PolarizedSurface(lattice=lattice, h=h)


@given(surface=diagonal_surfaces(), bound=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
# the plane blown up at a point: the solution (1, 1) has low-field sum
# exactly M - 1 = 6
@example(surface=_surface([[1, 0], [0, -1]], [-3, 1], [2, 1]), bound=2)
# the pivot x = 1 needs a low field outside [0, M): its target is dropped
@example(surface=_surface([[1, 0], [0, -3]], [1, -1], [2, -1]), bound=1)
# the cubic scroll: the pivot is clipped to [-3, 2]
@example(surface=_surface([[1, 0], [0, -1]], [-3, 1], [2, -1]), bound=3)
def test_bounded_matches_reference_on_diagonal_lattices(surface, bound):
    gram = surface.lattice.gram
    rank = surface.lattice.rank
    assert not any(gram[i][j] for i in range(rank) for j in range(rank) if i != j)
    _assert_matches_reference(surface, bound)


# Clipping fires on both paths: del-pezzo-7 and del-pezzo-6 (diagonal) and
# the quadric p1xp1-2-3 and del-pezzo-7 in the basis (l, l + e1, e2)
# (off-diagonal) each have a box coordinate that their intervals cut.
@given(
    surface=st.one_of(small_surfaces(), diagonal_surfaces()),
    bound=st.integers(1, 4),
    chunk=st.sampled_from([1, 2, 7]),
)
@settings(max_examples=100, deadline=None)
@example(surface=_surface([[1, 0, 0], [0, -1, 0], [0, 0, -1]], [-3, 1, 1], [3, -1, -1]),
         bound=5, chunk=1)
@example(surface=_surface(
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], [-3, 1, 1, 1], [3, -1, -1, -1]),
    bound=5, chunk=3)
@example(surface=_surface([[0, 1], [1, 0]], [-2, -2], [2, 3]), bound=6, chunk=1)
@example(surface=_surface([[1, 1, 0], [1, 0, 0], [0, 0, -1]], [-4, 1, 1], [4, -1, -1]),
         bound=6, chunk=1)
def test_clipped_search_matches_reference_across_chunks(surface, bound, chunk):
    previous = enumeration._CHUNK
    enumeration._CHUNK = chunk
    try:
        _assert_matches_reference(surface, bound)
    finally:
        enumeration._CHUNK = previous


# Every builtin in the windows the catalog lists, up to the parameters shown.
WINDOW_BUILTINS = (
    [f"del-pezzo-{d}" for d in range(3, 10)]
    + [f"table1-row-{n}" for n in range(1, 8)] + ["bordiga"]
    + [f"kim-{a}-{m}" for a in range(4, 7) for m in range(2, 7)]
    + [f"p1xp1-{a}-{b}" for a in range(1, 5) for b in range(1, 5)]
    + [f"hirzebruch-e{e}-a{a}-b{a * e + c}"
       for e in range(4) for a in range(1, 4) for c in range(1, 4)]
    + [f"enriques-{h}" for h in range(8, 17, 2)]
)

# the reference search costs about 3 us a box point
_REFERENCE_POINTS = 20_000


@pytest.mark.parametrize("name", WINDOW_BUILTINS)
def test_line_intervals_hold_every_solution_on_builtins(name):
    """The reference search, one past the widest interval where that box
    has at most _REFERENCE_POINTS points (every builtin of rank 4 or less)
    and at the largest such bound otherwise, finds no solution outside the
    intervals."""
    S = builtin_surface(name)
    rank = S.lattice.rank
    intervals = S.line_intervals
    assert intervals and intervals == _reference_intervals(S)
    cover = 1 + max(max(-lo, hi) for lo, hi in intervals)
    affordable = [b for b in range(1, cover + 1) if (2 * b + 1) ** (rank - 1) <= _REFERENCE_POINTS]
    assert rank > 4 or affordable[-1] == cover
    if affordable:
        _assert_matches_reference(S, affordable[-1])


@pytest.mark.parametrize("d, count", [(3, 72), (4, 40), (5, 20), (6, 8), (7, 2), (8, 0), (9, 0)])
def test_bound_covering_the_intervals_finds_the_full_del_pezzo_sets(d, count):
    S = del_pezzo(d)
    bound = max(max(-lo, hi) for lo, hi in S.line_intervals)
    solutions = enumerate_bounded(S, bound)
    assert len(solutions) == count
    assert enumerate_bounded(S, bound + 1) == solutions
    assert {line_dual(S, D) for D in solutions} == set(solutions)


def test_bounded_matches_reference_across_default_chunks_off_diagonal(skewed):
    # a plane blow-up in a skewed basis keeps the column-wise stage 2;
    # 7^5 = 16,807 box points, of which more candidates than one chunk holds
    S = parse_surface(json.dumps(skewed(6, 1)))
    assert _candidate_count(S, 3) == 4662 > enumeration._CHUNK
    assert enumerate_bounded(S, 3) == reference_enumerate_bounded(S, 3)


def test_box_too_large_before_any_search_work(monkeypatch):
    S = del_pezzo(3)

    def forbidden(*args, **kwargs):
        raise AssertionError("search work started")

    monkeypatch.setattr(enumeration, "product", forbidden)
    monkeypatch.setattr(enumeration, "line_numeric_check", forbidden)
    with pytest.raises(BoxTooLarge):
        enumerate_bounded(S, 100, iteration_ceiling=1000)


# no interval clips this box: its limits count the requested one
_UNCLIPPED = _surface([[2, 1], [1, 2]], [0, 0], [1, 1])


def test_limits_count_the_requested_box_without_intervals():
    assert _UNCLIPPED.line_intervals is None
    with pytest.raises(BoxTooLarge, match="^11 iterations exceed ceiling 10$"):
        enumerate_bounded(_UNCLIPPED, 5, iteration_ceiling=10)
    assert enumerate_bounded(_UNCLIPPED, 5, iteration_ceiling=11) == []


def test_table_cap_before_any_search_work(monkeypatch):
    # a box of 2 B + 1 points, but 2 (2 B + 1) table entries
    def forbidden(*args, **kwargs):
        raise AssertionError("search work started")

    monkeypatch.setattr(enumeration, "product", forbidden)
    monkeypatch.setattr(enumeration, "line_numeric_check", forbidden)
    bound = enumeration._TABLE_CAP // 4
    with pytest.raises(BoxTooLarge, match=f"^{2 * (2 * bound + 1)} search table entries"):
        enumerate_bounded(_UNCLIPPED, bound)


def test_table_cap_admits_the_largest_shipped_box(monkeypatch):
    # table1-row-1 at B = 1000, the largest box in the README, the tests and
    # the benchmark, tabulates the 8 + 8 values of its intervals, as it does
    # at every bound from 5 on; p2-1 tabulates one value at every bound
    S = builtin_surface("table1-row-1")
    monkeypatch.setattr(enumeration, "_TABLE_CAP", 8 + 8)
    solutions = enumerate_bounded(S, 1000)
    assert solutions == reference_enumerate_bounded(S, 1000)
    assert enumerate_bounded(S, 10**9) == solutions
    assert enumerate_bounded(p2_surface(1), 10**9) == [DivisorClass((0,))]
    monkeypatch.setattr(enumeration, "_TABLE_CAP", 8 + 8 - 1)
    with pytest.raises(BoxTooLarge, match="^16 search table entries exceed cap 15$"):
        enumerate_bounded(S, 10**9)


# ---------------------------------------------------------------------------
# Work-count guards: they count work rather than time it


def _counting_pair(monkeypatch):
    calls = []
    pair = IntersectionLattice.pair

    def counted(self, D, E):
        calls.append(1)
        return pair(self, D, E)

    monkeypatch.setattr(IntersectionLattice, "pair", counted)
    return calls


def test_bounded_pairs_per_request_and_solution_not_per_box_point(monkeypatch):
    calls = _counting_pair(monkeypatch)
    seen = []
    for bound in (2, 3):
        S = del_pezzo(5)
        calls.clear()
        solutions = enumerate_bounded(S, bound)
        # h.K once per request (h^2 is cached by the constructor), D^2
        # once per solution in line_numeric_check
        assert len(calls) == 1 + len(solutions)
        seen.append(len(solutions))
    assert seen[0] < seen[1]


def _counting_box_work(monkeypatch):
    """Wrap the box draw and the line check of the search.  Each draw
    records the number of items it yielded and whether it ran to its end."""
    draws, checks = [], []
    draw_box, check = enumeration.product, enumeration.line_numeric_check

    def counted_product(*iterables, repeat=1):
        draw = {"items": 0, "exhausted": False}
        draws.append(draw)
        for item in draw_box(*iterables, repeat=repeat):
            draw["items"] += 1
            yield item
        draw["exhausted"] = True

    def counted_check(S, D):
        checks.append(D)
        return check(S, D)

    monkeypatch.setattr(enumeration, "product", counted_product)
    monkeypatch.setattr(enumeration, "line_numeric_check", counted_check)
    return draws, checks


def _drawn_widths(S, bound):
    """The number of values of each coordinate the search draws, in order:
    [-bound, bound] clipped to S.line_intervals, for every coordinate but
    the pivot, the one with the most values among those where S.gram_h is
    nonzero, the largest |S.gram_h[i]| breaking ties; None when some
    coordinate has no value, or the surface no line bundle solution."""
    w = S.gram_h
    intervals = S.line_intervals
    if intervals is None:
        intervals = [(-bound, bound)] * len(w)
    widths = [max(0, min(hi, bound) - max(lo, -bound) + 1) for lo, hi in intervals]
    if not (widths and all(widths)):
        return None
    pivot = max((i for i in range(len(w)) if w[i]), key=lambda i: (widths[i], abs(w[i])))
    return [width for i, width in enumerate(widths) if i != pivot]


def _clipped_box_points(S, bound):
    """Points of the box the search draws: the product of _drawn_widths,
    or 0 when there is none."""
    widths = _drawn_widths(S, bound)
    return 0 if widths is None else prod(widths)


@pytest.mark.parametrize("name,bound,points", [
    ("p2-1", 3, 1), ("p2-3", 2, 1), ("del-pezzo-7", 2, 25), ("del-pezzo-5", 3, 2401),
    ("table1-row-3", 1, 6561), ("del-pezzo-4", 3, 16807),
    # clipped: the requested box holds 13, 2197, 801, 81, 61, 441, 1681,
    # 4,826,809 and 4913 points
    ("p1xp1-2-3", 6, 9), ("kim-4-3", 6, 1728), ("table1-row-1", 400, 8),
    ("enriques-10", 40, 5), ("hirzebruch-e1-a1-b2", 30, 5), ("del-pezzo-7", 10, 100),
    ("kim-4-2", 20, 144), ("del-pezzo-3", 6, 262144),
    # pivoting on the widest coordinate: [-8, 8] clipped to 15, 16, 16 and
    # 16 values draws 16^2 15 points, not 16^3
    ("kim-5-3", 8, 3840),
])
def test_bounded_draws_the_whole_box_once(monkeypatch, name, bound, points):
    """The box contract the benchmark's box_points count relies on: at most
    one product per request, drawing exactly the points of the box clipped
    to S.line_intervals, every one of them consumed, and one line check per
    solution.  Where the bound lies inside every interval the clipped box
    is the requested one, (2B+1)^(rank-1) points."""
    draws, checks = _counting_box_work(monkeypatch)
    S = builtin_surface(name)
    solutions = enumerate_bounded(S, bound)
    assert _clipped_box_points(S, bound) == points
    assert draws == [{"items": points, "exhausted": True}]
    assert sorted(checks, key=lambda D: D.coeffs) == solutions


def test_bounded_draws_the_requested_box_without_intervals(monkeypatch):
    # gram [[2, 1], [1, 2]] is positive definite, so P is not: no interval
    # bounds the solutions, and the whole box [-5, 5] of the other
    # coordinate is drawn
    S = _surface([[2, 1], [1, 2]], [0, 0], [1, 1])
    assert S.line_intervals is None
    draws, checks = _counting_box_work(monkeypatch)
    assert enumerate_bounded(S, 5) == reference_enumerate_bounded(S, 5)
    assert draws == [{"items": 11, "exhausted": True}]


def test_bounded_draws_nothing_when_no_solution_can_exist(monkeypatch):
    # K^2 = 24 > 10 h^2 + 8 chi = 18: P(w) = R < 0 has no solution
    S = _surface([[1, 0], [0, -1]], [5, 1], [1, 0])
    assert S.line_intervals == ()
    draws, checks = _counting_box_work(monkeypatch)
    assert enumerate_bounded(S, 30) == [] == reference_enumerate_bounded(S, 30)
    assert draws == [] and checks == []


# ---------------------------------------------------------------------------
# The factored draw: runs of adjacent coordinates pre-summed into factors


def _recording_factors(monkeypatch):
    """Wrap the box draw to record the lengths of the factors it draws."""
    sizes = []
    draw_box = enumeration.product

    def recorded(*factors):
        sizes.append([len(factor) for factor in factors])
        return draw_box(*factors)

    monkeypatch.setattr(enumeration, "product", recorded)
    return sizes


def _assert_factors_bounded(sizes, widths):
    """The factors of one draw cover the box of the drawn widths; each holds
    at most max(widest, ceil(sqrt(N))) entries, N the box's points; no two
    adjacent ones would fit in one factor, so there are at most 3."""
    points = prod(widths)
    limit = max(max(widths, default=1), isqrt(points - 1) + 1)
    assert prod(sizes) == points
    assert max(sizes, default=1) <= limit
    assert all(a * b > limit for a, b in zip(sizes, sizes[1:]))
    assert len(sizes) <= 3


def _weighted_blowup(a, K, m, extra=1, moves=()):
    """The lattice diag(1, -a_1, ..., -a_n) with K = (-3, K_1, ..., K_n) and
    h = (d, -m_1, ..., -m_n), d = isqrt(sum a_i m_i^2) + extra so that
    h^2 > 0, written in the basis the unimodular moves (i, j, c),
    b_i <- b_i + c b_j, make.  A large a_i with K_i = 0 and m_i = 0 makes
    coordinate i narrow, a_i = 1 leaves it wide; the moves put entries off
    the diagonal."""
    n = len(a)
    gram = [[0] * (n + 1) for _ in range(n + 1)]
    gram[0][0] = 1
    for i, ai in enumerate(a, 1):
        gram[i][i] = -ai
    d = isqrt(sum(ai * mi * mi for ai, mi in zip(a, m))) + extra
    doc = moved_document({"gram": gram, "K": [-3, *K], "h": [d, *(-mi for mi in m)]}, moves)
    return _surface(doc["gram"], doc["K"], doc["h"])


# the largest bound on n drawn coordinates whose whole box, which the
# reference scans, has at most 4000 points
_REFERENCE_BOUNDS = {3: 7, 4: 3, 5: 2, 6: 1, 7: 1}


@st.composite
def wide_and_narrow_boxes(draw):
    """(surface, bound): a _weighted_blowup of rank 4 to 8, so 3 to 7 drawn
    coordinates, diagonal or skewed by up to two moves, with a bound that
    keeps the reference's box small."""
    n = draw(st.integers(3, 7))
    # mostly 1, as on the plane blown up at points, where solutions abound
    a = draw(st.lists(st.sampled_from([1, 1, 1, 2, 8, 50]), min_size=n, max_size=n))
    # b.b + b.K = -a_i (1 + K_i) must be even
    K = [draw(st.sampled_from([-1, 1])) if ai % 2 else 0 for ai in a]
    m = draw(st.lists(st.sampled_from([0, 1, 1]), min_size=n, max_size=n))
    move = st.tuples(st.integers(0, n), st.integers(0, n), st.sampled_from([1, -1]))
    moves = draw(st.lists(move.filter(lambda t: t[0] != t[1]), max_size=2))
    surface = _weighted_blowup(a, K, m, draw(st.integers(1, 2)), moves)
    return surface, draw(st.integers(1, _REFERENCE_BOUNDS[n]))


@given(case=wide_and_narrow_boxes())
@settings(max_examples=80, deadline=None)
# one drawn coordinate of 8 values beside two of 1: diagonal, and skewed
@example(case=(_weighted_blowup([1, 50, 50], [1, 0, 0], [1, 0, 0]), 7))
@example(case=(_weighted_blowup([1, 50, 50], [1, 0, 0], [1, 0, 0], moves=[(2, 1, 1)]), 7))
# 6, 7 and 1 values, skewed; 6 and 1, 1, 1 at rank 5; 3 and six 1s at rank 8
@example(case=(_weighted_blowup([1, 1, 50], [1, 1, 0], [1, 1, 0], moves=[(1, 2, 1)]), 7))
@example(case=(_weighted_blowup([1, 50, 50, 50], [1, 0, 0, 0], [1, 0, 0, 0]), 3))
@example(case=(_weighted_blowup([1] + [50] * 6, [1] + [0] * 6, [1] + [0] * 6), 1))
# equal widths: the box is not clipped at bound 1, 3^7 points in 2 factors
@example(case=(_weighted_blowup([1] * 7, [1] * 7, [1] * 7), 1))
# solutions whose coordinates differ inside a factor, so that a factor
# summed in another order finds other points: diagonal, 6 6 (6 3) and
# (5 5) (5 5) 5 values, and del-pezzo-5 skewed, (7 7) (7 7)
@example(case=(_weighted_blowup([1, 1, 1, 2], [1, 1, 1, 0], [1, 1, 1, 0]), 3))
@example(case=(_weighted_blowup([1, 1, 2, 1, 1], [1, 1, 0, 1, 1], [1] * 5), 2))
@example(case=(_weighted_blowup([1] * 4, [1] * 4, [1] * 4, moves=[(2, 3, 1), (4, 1, -1)]), 3))
def test_factored_draw_matches_reference(case):
    """One exhausted draw of exactly the clipped box, over factors within
    their bound, finds the reference's solutions."""
    surface, bound = case
    with pytest.MonkeyPatch.context() as patch:
        draws, checks = _counting_box_work(patch)
        sizes = _recording_factors(patch)
        solutions = enumerate_bounded(surface, bound)
    assert solutions == reference_enumerate_bounded(surface, bound)
    assert sorted(checks, key=lambda D: D.coeffs) == solutions
    widths = _drawn_widths(surface, bound)
    if widths is None:
        assert draws == sizes == []
        return
    assert draws == [{"items": prod(widths), "exhausted": True}]
    (factor_sizes,) = sizes
    _assert_factors_bounded(factor_sizes, widths)


def _largest_admitted_width(rank):
    """The widest box 2 B + 1 that the table cap and the default ceiling
    admit on a lattice whose box no interval clips."""
    ceiling = enumeration.DEFAULT_ITERATION_CEILING
    width = min(enumeration._TABLE_CAP // rank, round(ceiling ** (1 / (rank - 1))) + 1)
    while width % 2 == 0 or width ** (rank - 1) > ceiling:
        width -= 1
    return width


@pytest.mark.parametrize("rank", range(2, 10))
def test_factors_stay_small_at_the_largest_admitted_box(monkeypatch, rank):
    # the identity gram is positive definite: no interval clips its box,
    # and the pivot is the one coordinate where D.h = D_0 is nonzero
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    S = _surface(identity, [1] * rank, [1] + [0] * (rank - 1))
    assert S.line_intervals is None
    width = _largest_admitted_width(rank)
    bound = width // 2
    sizes = []

    def recorded(*factors):
        sizes.append([len(factor) for factor in factors])
        return iter(())

    monkeypatch.setattr(enumeration, "product", recorded)
    assert enumerate_bounded(S, bound) == []
    (factor_sizes,) = sizes
    _assert_factors_bounded(factor_sizes, [width] * (rank - 1))
    assert max(factor_sizes) < enumeration._TABLE_CAP
    with pytest.raises(BoxTooLarge):
        enumerate_bounded(S, bound + 1)


# ---------------------------------------------------------------------------
# Branches of the rank-2 solver


def _exact_in_box(S, bound):
    return [D for D in enumerate_rank2_exact(S) if max(map(abs, D.coeffs)) <= bound]


def test_exact_when_the_gcd_does_not_divide_the_degree():
    # D.h = 2 D_0 + 2 D_1 would have to be (3 h^2 + h.K)/2 = 13
    S = builtin_surface("hirzebruch-e1-a2-b4")
    assert S.gram_h == (2, 2) and (3 * S.h2 + S.hK) // 2 == 13
    assert enumerate_rank2_exact(S) == [] == enumerate_bounded(S, 30)


def test_exact_when_the_discriminant_is_not_a_square(monkeypatch):
    discriminants = []
    integer_roots = enumeration._integer_roots

    def recorded(A, B, C):
        discriminants.append(B * B - 4 * A * C)
        return integer_roots(A, B, C)

    monkeypatch.setattr(enumeration, "_integer_roots", recorded)
    S = builtin_surface("enriques-10")
    assert enumerate_rank2_exact(S) == [] == enumerate_bounded(S, 40)
    (disc,) = discriminants
    assert disc > 0 and isqrt(disc) ** 2 != disc


@st.composite
def rank2_surfaces(draw):
    entries = st.integers(-3, 3)
    a, b, d = draw(entries), draw(entries), draw(entries)
    K = draw(st.lists(entries, min_size=2, max_size=2))
    h = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
    lattice = make_lattice(_fix_parity([[a, b], [b, d]], K), K, ["b0", "b1"])
    assume(lattice.pair(h, h) > 0)
    return PolarizedSurface(lattice=lattice, h=h)


@given(surface=rank2_surfaces())
@settings(max_examples=200, deadline=None)
# gram . h = (-2, -1): the remainder sequence of the extended gcd ends at -1
@example(surface=_surface([[1, 0], [0, -1]], [-3, 1], [-2, 1]))
# a negative discriminant: the quadratic along the line has no real root
@example(surface=_surface([[1, 0], [0, 1]], [-1, -1], [1, 1]))
# the solution line runs along the kernel of the form: A = B = 0, and
# C = 2, or C = 0 with q = 1, when every point of the line solves
@example(surface=_surface([[2, 0], [0, 0]], [1, 2], [1, 0]))
@example(surface=PolarizedSurface(
    lattice=make_lattice([[2, 0], [0, 0]], [1, 0], ["b0", "b1"]), h=(1, 0), q=1))
def test_exact_matches_bounded_on_generated_rank2_lattices(surface):
    g, x, y = enumeration._ext_gcd(*surface.gram_h)
    assert g == gcd(*surface.gram_h) and x * surface.gram_h[0] + y * surface.gram_h[1] == g
    try:
        exact = _exact_in_box(surface, 6)
    except DegenerateForm:
        # the whole solution line solves the quadratic: a solution moved
        # along ker(D -> D.h) is again a solution
        w0, w1 = surface.gram_h
        V = DivisorClass((w1 // g, -w0 // g))
        for D in enumerate_bounded(surface, 6):
            assert line_numeric_check(surface, D + V).passed
        return
    assert exact == enumerate_bounded(surface, 6)
