"""Shared set-up of the per-layer benchmarks: the package is imported from
``src/`` of this checkout and the skewed documents from ``tests/``, and the
``surface`` fixture builds the surfaces the timed calls run on."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from documents import skewed_document  # noqa: E402
from ulrichsurf.catalog import builtin_surface, parse_surface  # noqa: E402


@pytest.fixture
def surface():
    """surface(name) -> the builtin surface ``name`` or, for
    "skewed-rank-60", a rank-60 plane blow-up in a skewed basis, parsed
    afresh."""

    def build(name):
        if name == "skewed-rank-60":
            return parse_surface(json.dumps(skewed_document(60, 1)))
        return builtin_surface(name)

    return build
