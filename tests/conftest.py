"""Shared test data: surface documents in a skewed basis."""

import pytest

from documents import skewed_document


@pytest.fixture
def skewed():
    """skewed(rank, seed) -> a document dict; json.dumps it for parse_surface."""
    return skewed_document
