"""Per-layer timings of the catalog: builtin surfaces and Table 1.

Times builtin_surface on five builtins cold (its name cache cleared before
each round, so the surface is built) and warm (the name resolved once
before timing); verify_table1 cold and warm, as the cache leaves it; and
the first read of h^2, h.K and K^2 on a table1-row-5 fresh from its family
constructor, that is the computation each cached property runs once per
surface.  Outside the test suite; run from the repository root with

    python -m pytest benchmarks/test_catalog_layers.py --benchmark-json BENCH_catalog.json

``conftest.py`` imports the package from ``src/`` of this checkout.
"""

import pytest

from ulrichsurf.catalog import builtin_surface, table1_row, verify_table1
from ulrichsurf.invariants import PolarizedSurface

NAMES = ("p2-3", "p1xp1-2-3", "del-pezzo-3", "kim-5-9", "table1-row-7")


@pytest.mark.parametrize("name", NAMES)
def test_builtin_surface_cold(benchmark, name):
    S = benchmark.pedantic(
        builtin_surface, args=(name,), setup=builtin_surface.cache_clear,
        rounds=300, warmup_rounds=5,
    )
    assert S.h2 > 0


@pytest.mark.parametrize("name", NAMES)
def test_builtin_surface_warm(benchmark, name):
    S = builtin_surface(name)
    assert benchmark(builtin_surface, name) is S


def test_verify_table1_cold(benchmark):
    report = benchmark.pedantic(
        verify_table1, setup=builtin_surface.cache_clear, rounds=100, warmup_rounds=3,
    )
    assert report.passed


def test_verify_table1_warm(benchmark):
    verify_table1()
    assert benchmark(verify_table1).passed


@pytest.mark.parametrize("invariant", ("h2", "hK", "K2"))
def test_invariant_on_a_fresh_surface(benchmark, invariant):
    compute = PolarizedSurface.__dict__[invariant].func
    fresh = table1_row(5)
    value = benchmark.pedantic(
        compute, setup=lambda: ((table1_row(5),), {}), rounds=300, warmup_rounds=5,
    )
    assert value == getattr(fresh, invariant)
