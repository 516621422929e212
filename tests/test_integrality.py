"""The halves in the Ulrich conditions are exact ints on parity-valid lattices.

The library halves with ``//`` and no check, on the strength of adjunction
parity and h^2 > 0 (see the IntersectionLattice docstring).  These
properties hold the halves to the exact rational formulas they replace.
"""

import json
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from test_enumeration import small_surfaces
from ulrichsurf.catalog import parse_surface
from ulrichsurf.invariants import (
    ChernData,
    HypothesisFlags,
    derived_invariants,
    riemann_roch_chi,
)
from ulrichsurf.lattice import dot
from ulrichsurf.ulrich import line_numeric_check, rank_numeric_check, special_rank2_chern


@st.composite
def polarized(draw):
    """A small_surfaces lattice with drawn pg, q and non_special flag."""
    S = draw(small_surfaces())
    return replace(
        S,
        pg=draw(st.integers(0, 2)),
        q=draw(st.integers(0, 2)),
        flags=HypothesisFlags(non_special=draw(st.sampled_from([True, False, None]))),
    )


def assert_halves_exact(S, D, c1, c2):
    h2, hK = S.h2, S.hK
    assert any(S.gram_h)
    assert 2 * (S.pi - 1) == h2 + hK

    line = line_numeric_check(S, D)
    assert type(line.required_linear) is int
    assert type(line.required_c2) is int
    assert 2 * line.required_linear == 3 * h2 + hK

    c1c1 = S.pair(c1, c1)
    c1K = dot(c1, S.lattice.gram_K)
    for rank in range(1, 5):
        report = rank_numeric_check(S, ChernData(rank, c1, c2))
        assert type(report.required_linear) is int
        assert type(report.required_c2) is int
        assert report.required_linear == Fraction(rank * (3 * h2 + hK), 2)
        assert report.required_c2 == Fraction(c1c1 - c1K, 2) - rank * (h2 - S.chi)

        chi = riemann_roch_chi(S, ChernData(rank, c1, c2))
        assert type(chi) is int
        assert chi == rank * S.chi + Fraction(c1c1 - c1K, 2) - c2

    inv = derived_invariants(S)
    F = special_rank2_chern(S)
    assert F.c2 == Fraction(5 * h2 + 3 * hK, 2) + 2 * S.chi
    if S.pg == S.q == 0 and S.flags.non_special is True:
        assert 2 * inv.N == h2 - hK
        assert F.c2 == inv.degZ + 2 * h2 + 2 * hK
    else:
        assert inv.N is None


@given(data=st.data(), S=polarized())
@settings(max_examples=200, deadline=None)
def test_halves_are_exact_on_generated_lattices(data, S):
    vector = st.lists(st.integers(-4, 4), min_size=S.lattice.rank, max_size=S.lattice.rank)
    D = data.draw(vector)
    c1 = data.draw(vector)
    c2 = data.draw(st.integers(-20, 20))
    assert_halves_exact(S, D, c1, c2)


def test_halves_are_exact_on_a_skewed_rank_40_document(skewed):
    S = parse_surface(json.dumps(skewed(40, 3)))
    rank = S.lattice.rank
    for k in range(3):
        D = [(3 * i + k) % 5 - 2 for i in range(rank)]
        c1 = [(7 * i + k) % 9 - 4 for i in range(rank)]
        assert_halves_exact(S, D, c1, k - 1)
