"""Per-layer timings of the Ulrich checks and the line-bundle searches.

Times line_numeric_check, rank_numeric_check and IntersectionLattice.pair
on the cubic surface (del-pezzo-3, rank 7) and on a rank-60 plane blow-up
in a skewed basis; enumerate_rank2_exact on two rank-2 builtins;
enumerate_bounded on seven boxes, two of them far larger than the intervals
that hold every solution and three the largest of the enumerate-box
workload, with the box points requested and drawn, and those drawn per
second, in extra_info; and the computation of those
intervals, PolarizedSurface.line_intervals, at ranks 3, 7 and 9.  Each
surface is built once, outside the timed call.
Outside the test suite; run from the repository root with

    python -m pytest benchmarks/test_check_layers.py --benchmark-json BENCH_checks.json

``conftest.py`` imports the package from ``src/`` of this checkout.
"""

from itertools import product
from math import prod

import pytest

from ulrichsurf import enumeration
from ulrichsurf.catalog import builtin_surface
from ulrichsurf.enumeration import enumerate_bounded, enumerate_rank2_exact
from ulrichsurf.invariants import PolarizedSurface
from ulrichsurf.ulrich import (
    line_numeric_check,
    rank_numeric_check,
    special_rank2_chern,
)

SURFACES = ("del-pezzo-3", "skewed-rank-60")


@pytest.mark.parametrize("name", SURFACES)
def test_line_numeric_check(benchmark, surface, name):
    S = surface(name)
    report = benchmark(line_numeric_check, S, S.h)
    assert report.actual_c2 == S.h2


@pytest.mark.parametrize("name", SURFACES)
def test_rank_numeric_check(benchmark, surface, name):
    S = surface(name)
    report = benchmark(rank_numeric_check, S, special_rank2_chern(S))
    assert report.passed


@pytest.mark.parametrize("name", SURFACES)
def test_pair(benchmark, surface, name):
    S = surface(name)
    assert benchmark(S.lattice.pair, S.h, S.K) == S.hK


@pytest.mark.parametrize("name", ("p1xp1-2-3", "table1-row-1"))
def test_enumerate_rank2_exact(benchmark, name):
    solutions = benchmark(enumerate_rank2_exact, builtin_surface(name))
    assert len(solutions) == 2


def _drawn_box_points(monkeypatch, S, bound):
    """The box points one search draws: the product of the lengths of the
    lists it hands to itertools.product."""
    drawn = []

    def counted(*iterables):
        drawn.append(prod(map(len, iterables)))
        return product(*iterables)

    monkeypatch.setattr(enumeration, "product", counted)
    enumerate_bounded(S, bound)
    monkeypatch.undo()
    return sum(drawn)


@pytest.mark.parametrize("name, bound, count", [
    ("del-pezzo-6", 5, 8),
    ("kim-5-2", 15, 0),
    ("del-pezzo-3", 6, 72),
    ("table1-row-1", 1000, 2),
    ("kim-5-6", 2, 0),
    ("kim-6-6", 2, 0),
    ("table1-row-3", 1, 0),
])
def test_enumerate_bounded(benchmark, monkeypatch, name, bound, count):
    S = builtin_surface(name)
    drawn = _drawn_box_points(monkeypatch, S, bound)
    solutions = benchmark(enumerate_bounded, S, bound)
    assert len(solutions) == count
    benchmark.extra_info["requested_box_points"] = (2 * bound + 1) ** (S.lattice.rank - 1)
    benchmark.extra_info["drawn_box_points"] = drawn
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["drawn_box_points_per_s"] = drawn / benchmark.stats.stats.median


@pytest.mark.parametrize("name, rank", [
    ("del-pezzo-7", 3), ("del-pezzo-3", 7), ("table1-row-3", 9),
])
def test_line_intervals(benchmark, name, rank):
    # the cached property's function, so every round computes afresh
    S = builtin_surface(name)
    intervals = benchmark(PolarizedSurface.line_intervals.func, S)
    assert intervals == S.line_intervals and len(intervals) == S.lattice.rank == rank
