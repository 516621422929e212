"""Per-layer timings of the verdicts.

Times classify, which decides every verdict, and the four public verdict
functions that read its sheet (special_rank2_exists, stable_special_exists,
is_ulrich_wild, moduli_dims) on several builtins and on a rank-60 plane
blow-up in a skewed basis.  Each surface is built once, outside the timed
call, so its cached h^2, h.K and K^2 are warm and the figures are those of
the verdict logic.  Outside the test suite; run from the repository root
with

    python -m pytest benchmarks/test_classify_layers.py --benchmark-json BENCH_classify.json

``conftest.py`` imports the package from ``src/`` of this checkout.
"""

import pytest

from ulrichsurf.classify import (
    Verdict,
    classify,
    is_ulrich_wild,
    moduli_dims,
    special_rank2_exists,
    stable_special_exists,
)

# Every stable verdict is true here, so moduli_dims answers on each.
SURFACES = ("del-pezzo-3", "bordiga", "enriques-10", "kim-4-9", "skewed-rank-60")
READERS = (special_rank2_exists, stable_special_exists, is_ulrich_wild, moduli_dims)


@pytest.mark.parametrize("name", SURFACES)
def test_classify(benchmark, surface, name):
    report = benchmark(classify, surface(name))
    assert report.stable_special_exists is Verdict.TRUE


@pytest.mark.parametrize("reader", READERS, ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("name", SURFACES)
def test_verdict_reader(benchmark, surface, name, reader):
    benchmark(reader, surface(name))
