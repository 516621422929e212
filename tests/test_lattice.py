import json
import random

import pytest
from hypothesis import given, strategies as st

from documents import BUILTINS, skewed_document
from ulrichsurf.catalog import builtin_surface, parse_surface
from ulrichsurf.errors import AsymmetricGram, DimensionMismatch, ParityViolation
from ulrichsurf.lattice import (
    DivisorClass,
    IntersectionLattice,
    blowup_p2_lattice,
    dot,
    hirzebruch_lattice,
    make_lattice,
)


def test_p2_lattice_valid():
    L = make_lattice([[1]], [-3], ["l"])
    assert L.rank == 1
    assert L.pair([1], [1]) == 1
    assert L.pair([1], L.canonical) == -3


def test_f0_lattice_valid():
    L = make_lattice([[0, 1], [1, 0]], [-2, -2], ["xi", "f"])
    assert L.pair([1, 0], [0, 1]) == 1
    assert L.pair([1, 0], [1, 0]) == 0


def test_parity_violation():
    with pytest.raises(ParityViolation):
        make_lattice([[1]], [-2], ["l"])


def test_asymmetric_gram():
    with pytest.raises(AsymmetricGram):
        make_lattice([[0, 1], [2, 0]], [-2, -2], ["a", "b"])


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        make_lattice([[1, 0]], [-3], ["l"])
    with pytest.raises(DimensionMismatch):
        make_lattice([[1]], [-3, 0], ["l"])
    with pytest.raises(DimensionMismatch):
        make_lattice([[1]], [-3], ["l", "e"])
    L = make_lattice([[1]], [-3], ["l"])
    with pytest.raises(DimensionMismatch):
        L.pair([1, 2], [1])


def test_f2_pairings():
    L = hirzebruch_lattice(2)
    D = DivisorClass((1, 3))
    assert L.pair(D, D) == 4
    K = L.canonical
    assert K.coeffs == (-2, -4)
    assert L.pair(K, K) == 8


def test_blowup_canonical_square():
    L = blowup_p2_lattice(6)
    assert L.pair(L.canonical, L.canonical) == 3
    assert blowup_p2_lattice(0).pair([1], [1]) == 1
    assert blowup_p2_lattice(11).pair(
        blowup_p2_lattice(11).canonical, blowup_p2_lattice(11).canonical
    ) == -2


@pytest.mark.parametrize("e", range(11))
def test_hirzebruch_k_square_is_eight(e):
    L = hirzebruch_lattice(e)
    assert L.pair(L.canonical, L.canonical) == 8


@pytest.mark.parametrize("m", range(16))
def test_blowup_k_square(m):
    L = blowup_p2_lattice(m)
    assert L.pair(L.canonical, L.canonical) == 9 - m


LATTICES = [hirzebruch_lattice(e) for e in (0, 1, 2, 5)] + [
    blowup_p2_lattice(m) for m in (1, 3, 6)
]


@st.composite
def lattice_and_vectors(draw, count=2):
    L = draw(st.sampled_from(LATTICES))
    vecs = [
        DivisorClass(
            tuple(
                draw(st.integers(min_value=-50, max_value=50))
                for _ in range(L.rank)
            )
        )
        for _ in range(count)
    ]
    return L, vecs


@given(lattice_and_vectors(count=2))
def test_pair_symmetric(data):
    L, (D, E) = data
    assert L.pair(D, E) == L.pair(E, D)


@given(lattice_and_vectors(count=3), st.integers(-9, 9), st.integers(-9, 9))
def test_pair_bilinear(data, a, b):
    L, (D, Dp, E) = data
    assert L.pair(a * D + b * Dp, E) == a * L.pair(D, E) + b * L.pair(Dp, E)


@given(lattice_and_vectors(count=1))
def test_adjunction_parity_all_vectors(data):
    L, (D,) = data
    assert (L.pair(D, D) + L.pair(D, L.canonical)) % 2 == 0


def _check_canonical_fast_path(L, rng):
    """pair(D, K) against the canonical class itself (the gram_K fast path),
    against an equal copy (the general pairing) and against dot(D, gram_K),
    for seeded random D; a D of the wrong length still raises."""
    K = L.canonical
    copy = DivisorClass(K.coeffs)
    assert copy is not K
    for D in [K] + [
        DivisorClass(tuple(rng.randint(-50, 50) for _ in range(L.rank)))
        for _ in range(20)
    ]:
        assert L.pair(D, K) == L.pair(D, copy) == dot(D.coeffs, L.gram_K)
        assert L.pair(list(D.coeffs), K) == L.pair(D, K)
    for length in (L.rank - 1, L.rank + 1):
        with pytest.raises(DimensionMismatch):
            L.pair((1,) * length, K)


@pytest.mark.parametrize("name", BUILTINS)
def test_pair_with_canonical_matches_general_pairing_on_builtins(name):
    _check_canonical_fast_path(builtin_surface(name).lattice, random.Random(name))


@pytest.mark.parametrize("rank", range(2, 41))
def test_pair_with_canonical_matches_general_pairing_on_skewed_documents(rank):
    S = parse_surface(json.dumps(skewed_document(rank, rank)))
    _check_canonical_fast_path(S.lattice, random.Random(rank))


def test_divisor_arithmetic():
    D = DivisorClass((1, 2))
    E = DivisorClass((3, -1))
    assert (D + E).coeffs == (4, 1)
    assert (D - E).coeffs == (-2, 3)
    assert (3 * D).coeffs == (3, 6)
    assert (-D).coeffs == (-1, -2)
    assert DivisorClass.zero(3).coeffs == (0, 0, 0)


def reference_parity_message(gram, K, labels):
    """The parity check as first written, two full pairings per basis
    vector; returns the ParityViolation message it raised, or None."""
    lattice = IntersectionLattice(
        tuple(tuple(row) for row in gram), DivisorClass(tuple(K)), tuple(labels)
    )
    rank = len(gram)
    for i in range(rank):
        basis = DivisorClass(tuple(1 if j == i else 0 for j in range(rank)))
        if (lattice.pair(basis, basis) + lattice.pair(basis, K)) % 2 != 0:
            return f"basis vector {labels[i]}: b.b + b.K is odd"
    return None


def test_parity_violation_names_the_same_vector_on_rank_50(skewed):
    doc = skewed(50, 7)
    gram, K, labels = doc["gram"], doc["K"], doc["basis"]
    make_lattice(gram, K, labels)
    # gram[i][i] += 1 flips b_i.b_i + b_i.K exactly when K_i is even
    even = [i for i, k in enumerate(K) if k % 2 == 0]
    assert len(even) >= 3
    for broken in (even[-1:], even[-3:], even[:1]):
        bad = [list(row) for row in gram]
        for i in broken:
            bad[i][i] += 1
        expected = reference_parity_message(bad, K, labels)
        assert expected == f"basis vector {labels[broken[0]]}: b.b + b.K is odd"
        with pytest.raises(ParityViolation) as info:
            make_lattice(bad, K, labels)
        assert str(info.value) == expected


def reference_asymmetry_message(gram):
    """The symmetry check as first written, a double loop over the upper
    triangle; returns the AsymmetricGram message it raised, or None."""
    rank = len(gram)
    for i in range(rank):
        for j in range(i + 1, rank):
            if gram[i][j] != gram[j][i]:
                return f"gram[{i}][{j}] != gram[{j}][{i}]"
    return None


def test_asymmetric_gram_names_the_first_pair_on_rank_50(skewed):
    doc = skewed(50, 7)
    gram, K, labels = doc["gram"], doc["K"], doc["basis"]
    assert reference_asymmetry_message(gram) is None
    # (i, j) entries to perturb; the first pair in row-major order of the
    # upper triangle is the one named
    for broken, first in [
        (((40, 3),), (3, 40)),
        (((5, 45), (3, 40)), (3, 40)),
        (((49, 48),), (48, 49)),
        (((0, 1), (48, 49)), (0, 1)),
    ]:
        bad = [list(row) for row in gram]
        for i, j in broken:
            bad[i][j] += 2  # keeps the diagonal, so parity is untouched
        expected = reference_asymmetry_message(bad)
        assert expected == f"gram[{first[0]}][{first[1]}] != gram[{first[1]}][{first[0]}]"
        with pytest.raises(AsymmetricGram) as info:
            make_lattice(bad, K, labels)
        assert str(info.value) == expected


@pytest.mark.parametrize("gram,K", [
    ([[1.5]], [-3]),
    ([[1]], [-3.2]),
    ([[1.5]], [-3.2]),
    ([["1"]], [-3]),
    ([[1]], ["-3"]),
    ([[None]], [-3]),
])
def test_make_lattice_rejects_non_integers(gram, K):
    # int() used to truncate floats and parse strings: [[1.5]], [-3.2]
    # became gram ((1,),) and K (-3,)
    with pytest.raises(TypeError):
        make_lattice(gram, K, ["l"])


@pytest.mark.parametrize("coeffs", [(2.7, 3), (2, "3"), (2.7, "3"), (None,), (1.0,)])
def test_divisor_class_rejects_non_integers(coeffs):
    with pytest.raises(TypeError):
        DivisorClass(coeffs)


def test_integers_pass_unchanged_and_bools_become_ints():
    big = 10**40
    D = DivisorClass((big, -7, True, False))
    assert D.coeffs == (big, -7, 1, 0)
    assert [type(c) for c in D.coeffs] == [int] * 4
    L = make_lattice([[True, 0], [0, -1]], [-3, True], ["l", "e"])
    assert L.gram == ((1, 0), (0, -1)) and L.canonical.coeffs == (-3, 1)
    assert {type(c) for row in L.gram for c in row} == {int}
