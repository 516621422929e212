"""Per-layer timings of the surface-document path.

Times parse_surface, make_lattice and serialize_surface on plane blow-ups
of Picard rank 20, 40 and 60 written in a skewed basis, the documents the
tests use, and derived_invariants on such a surface freshly parsed before
each round, so that h.K (lattice.pair with the canonical class) is computed
in the timed call.  Outside the test suite; run from the repository root with

    python -m pytest benchmarks/test_document_layers.py --benchmark-json BENCH_documents.json

``conftest.py`` imports the package from ``src/`` of this checkout.
"""

import json

import pytest

from documents import skewed_document
from ulrichsurf.catalog import parse_surface, serialize_surface
from ulrichsurf.invariants import derived_invariants
from ulrichsurf.lattice import DivisorClass, make_lattice

RANKS = (20, 40, 60)


@pytest.mark.parametrize("rank", RANKS)
def test_parse_surface(benchmark, rank):
    text = json.dumps(skewed_document(rank, 1))
    S = benchmark(parse_surface, text)
    assert S.lattice.rank == rank


@pytest.mark.parametrize("rank", RANKS)
def test_make_lattice(benchmark, rank):
    doc = skewed_document(rank, 1)
    L = benchmark(make_lattice, doc["gram"], doc["K"], doc["basis"])
    assert L.rank == rank


@pytest.mark.parametrize("rank", RANKS)
def test_serialize_surface(benchmark, rank):
    S = parse_surface(json.dumps(skewed_document(rank, 1)))
    text = benchmark(serialize_surface, S)
    assert text.endswith("}\n")


@pytest.mark.parametrize("rank", RANKS)
def test_derived_invariants_on_a_fresh_document(benchmark, rank):
    text = json.dumps(skewed_document(rank, 1))
    inv = benchmark.pedantic(
        derived_invariants, setup=lambda: ((parse_surface(text),), {}),
        rounds=300, warmup_rounds=5,
    )
    S = parse_surface(text)
    assert inv.hK == S.lattice.pair(S.h, DivisorClass(S.K.coeffs))
