"""Per-layer timings of the Ulrich checks and the line-bundle searches.

Times line_numeric_check, rank_numeric_check and IntersectionLattice.pair
on the cubic surface (del-pezzo-3, rank 7) and on a rank-60 plane blow-up
in a skewed basis; enumerate_rank2_exact on two rank-2 builtins; and
enumerate_bounded on two boxes, with the box points it visits per second
in extra_info.  Each surface is built once, outside the timed call.
Outside the test suite; run from the repository root with

    python -m pytest benchmarks/test_check_layers.py --benchmark-json BENCH_checks.json

``conftest.py`` imports the package from ``src/`` of this checkout.
"""

import pytest

from ulrichsurf.catalog import builtin_surface
from ulrichsurf.enumeration import enumerate_bounded, enumerate_rank2_exact
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


@pytest.mark.parametrize("name, bound, count", [
    ("del-pezzo-6", 5, 8),
    ("kim-5-2", 15, 0),
])
def test_enumerate_bounded(benchmark, name, bound, count):
    S = builtin_surface(name)
    solutions = benchmark(enumerate_bounded, S, bound)
    assert len(solutions) == count
    box_points = (2 * bound + 1) ** (S.lattice.rank - 1)
    benchmark.extra_info["box_points"] = box_points
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["box_points_per_s"] = box_points / benchmark.stats.stats.median
