import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from ulrichsurf.catalog import (
    builtin_surface,
    del_pezzo,
    hirzebruch_surface,
    p1xp1_surface,
    p2_surface,
    parse_surface,
    table1_row,
)
from ulrichsurf.classify import classify
from ulrichsurf.enumeration import enumerate_bounded
from ulrichsurf.errors import InvalidPolarization, MissingHypothesis, ValidationError
from ulrichsurf.invariants import (
    AUTO_DERIVED_FLAGS,
    ChernData,
    HypothesisFlags,
    PolarizedSurface,
    SurfaceKind,
    chern_twist,
    chi_structure,
    derived_invariants,
    embedding_sanity,
    hypothesis_flag,
    riemann_roch_chi,
    standing_hypotheses,
)
from ulrichsurf.lattice import DivisorClass, make_lattice
from ulrichsurf.ulrich import line_numeric_check, special_rank2_chern


def test_chi_structure():
    assert chi_structure(0, 0) == 1
    assert chi_structure(1, 0) == 2
    assert chi_structure(0, 2) == -1


def test_derived_del_pezzo_cubic():
    inv = derived_invariants(del_pezzo(3))
    assert (inv.h2, inv.hK, inv.pi, inv.N, inv.degZ) == (3, -3, 1, 3, 5)


def test_derived_bordiga():
    inv = derived_invariants(table1_row(4))
    assert (inv.h2, inv.hK, inv.K2, inv.pi, inv.N, inv.degZ) == (6, -2, -1, 3, 4, 6)


def test_derived_quadric_scroll():
    inv = derived_invariants(p1xp1_surface(1, 2))
    assert (inv.h2, inv.hK, inv.pi, inv.N) == (4, -6, 0, 5)
    assert inv.h0_h_plus_K is None


def test_n_unavailable_without_hypotheses():
    S = PolarizedSurface(
        lattice=make_lattice([[1]], [-3], ["l"]),
        h=DivisorClass((1,)),
    )
    inv = derived_invariants(S)
    assert inv.N is None and inv.h0_h is None and inv.degZ is None


def test_riemann_roch_examples():
    S = del_pezzo(3)
    assert riemann_roch_chi(S, ChernData(1, DivisorClass.zero(7), 0)) == 1
    bordiga = table1_row(4)
    assert riemann_roch_chi(bordiga, ChernData(1, bordiga.h, 0)) == 5
    F = ChernData(2, 3 * S.h + S.K, 5)
    assert riemann_roch_chi(S, F) == 6


def test_chern_twist_examples():
    S = del_pezzo(3)
    F = ChernData(2, 3 * S.h + S.K, 5)
    assert chern_twist(S, F, 0) == F
    F1 = chern_twist(S, F, -1)
    assert F1.c1 == S.h + S.K and F1.c2 == 2
    assert riemann_roch_chi(S, F1) == 0
    F2 = chern_twist(S, F, -2)
    assert F2.c2 == 5
    assert riemann_roch_chi(S, F2) == 0


SURFACES = [
    p2_surface(1),
    p2_surface(2),
    p1xp1_surface(2, 3),
    del_pezzo(3),
    table1_row(4),
]


@st.composite
def surface_and_chern(draw):
    S = draw(st.sampled_from(SURFACES))
    rank = draw(st.integers(1, 4))
    c1 = DivisorClass(
        tuple(
            draw(st.integers(-10, 10)) for _ in range(S.lattice.rank)
        )
    )
    c2 = draw(st.integers(-100, 100))
    return S, ChernData(rank, c1, c2)


@given(surface_and_chern(), st.integers(-5, 5))
def test_twist_inverse(data, t):
    S, F = data
    assert chern_twist(S, chern_twist(S, F, t), -t) == F


@given(surface_and_chern(), st.integers(-4, 4))
def test_riemann_roch_quadratic_in_twist(data, t):
    # second difference of t -> chi(F(th)) equals rank * h^2
    S, F = data
    values = [riemann_roch_chi(S, chern_twist(S, F, t + k)) for k in range(3)]
    assert values[2] - 2 * values[1] + values[0] == F.rank * S.h2


def test_embedding_sanity_bordiga():
    assert embedding_sanity(table1_row(4)).passed


def test_embedding_sanity_p2_boundary():
    report = embedding_sanity(p2_surface(1))
    assert report.passed
    # h2 = 1: the later clauses are vacuous
    assert any(c.detail == "vacuous" for c in report.checks)


def test_embedding_sanity_violation():
    S = PolarizedSurface(
        lattice=make_lattice([[0, 1], [1, 0]], [0, -2], ["u", "v"]),
        h=DivisorClass((1, 2)),
        flags=HypothesisFlags(non_special=True),
    )
    assert S.h2 == 4 and S.hK == -2
    report = embedding_sanity(S)
    assert not report.passed
    failing = [c.name for c in report.checks if not c.ok]
    assert "h2 >= 4 => N >= 4" in failing


def test_embedding_sanity_requires_hypotheses():
    S = PolarizedSurface(
        lattice=make_lattice([[1]], [-3], ["l"]),
        h=DivisorClass((2,)),
    )
    with pytest.raises(MissingHypothesis):
        embedding_sanity(S)


# ---------------------------------------------------------------------------
# Classical embedding identities: under the standing hypotheses with h very
# ample, h embeds S linearly normally in P^N, which fixes integer identities
# that the invariants must satisfy exactly.
#
# enriques-8 is left out: it asserts a very_ample that these identities
# refute (h^2 = 8, hK = K^2 = 0 and chi = 1 give N = 4 and a double-point
# value of -4, not 0), an open FOUND that waits on a benchmark change.

EMBEDDED = [
    "p2-1", "p2-2", "p2-3", "p2-5", "p1xp1-1-1", "p1xp1-1-3", "p1xp1-2-2",
    "p1xp1-2-3", "p1xp1-3-4", "hirzebruch-e1-a1-b2", "hirzebruch-e1-a2-b4",
    "hirzebruch-e2-a1-b3", "hirzebruch-e3-a2-b9", *(f"table1-row-{r}" for r in range(1, 8)),
    "bordiga", *(f"del-pezzo-{d}" for d in range(3, 10)), "enriques-10", "enriques-12",
    "kim-4-2", "kim-4-9", "kim-5-3", "kim-5-9",
]


def _embedded(name):
    S = builtin_surface(name)
    assert standing_hypotheses(S) and hypothesis_flag(S, "very_ample") is True
    return S, derived_invariants(S).N


@pytest.mark.parametrize("name", [n for n in EMBEDDED if _embedded(n)[1] == 4])
def test_double_point_formula_in_p4(name):
    # Hartshorne, Algebraic Geometry, App. A, Ex. 4.1.3
    S, _ = _embedded(name)
    d = S.h2
    assert d * d - 10 * d - 5 * S.hK - 2 * S.K2 + 12 * S.chi == 0


def test_double_point_formula_covers_table1_and_the_p4_builtins():
    in_p4 = {n for n in EMBEDDED if _embedded(n)[1] == 4}
    assert in_p4 == {*(f"table1-row-{r}" for r in range(1, 8)), "bordiga",
                     "del-pezzo-4", "hirzebruch-e1-a1-b2"}


@pytest.mark.parametrize("name", ["del-pezzo-3", "p1xp1-1-1"])
def test_surfaces_in_p3_have_canonical_class_of_degree_d_minus_4(name):
    # a smooth surface of degree d in P^3 has K = (d - 4)h
    S, N = _embedded(name)
    d = S.h2
    assert N == 3
    assert S.hK == d * (d - 4) and S.K2 == d * (d - 4) ** 2


@pytest.mark.parametrize("name", [n for n in EMBEDDED if _embedded(n)[1] >= 3])
def test_castelnuovo_bound_on_the_hyperplane_section(name):
    # the hyperplane section is a curve of degree d in P^r, r = N - 1:
    # d - 1 = m(r - 1) + eps, 0 <= eps < r - 1, gives
    # pi <= m(m - 1)(r - 1)/2 + m eps (Harris, Curves in projective space)
    S, N = _embedded(name)
    r = N - 1
    m, eps = divmod(S.h2 - 1, r - 1)
    assert S.pi <= m * (m - 1) * (r - 1) // 2 + m * eps


def test_kind_string_round_trip():
    kinds = [
        SurfaceKind.p2(2),
        SurfaceKind.hirzebruch(2, 1, 3),
        SurfaceKind.blowup_p2(),
        SurfaceKind.blowup_p2(anticanonical=True),
        SurfaceKind.enriques(),
        SurfaceKind.abstract(),
    ]
    for kind in kinds:
        assert SurfaceKind.from_string(kind.to_string()) == kind


@pytest.mark.parametrize("name,params", [("p2", (2,)), ("hirzebruch", (1, 1, 3))])
def test_plane_and_hirzebruch_are_anticanonical_however_built(name, params):
    built = getattr(SurfaceKind, name)(*params)
    text = f"{name}:{','.join(map(str, params))}"
    for kind in (
        SurfaceKind(name, params),
        SurfaceKind(name, params, anticanonical=False),
        SurfaceKind.from_string(text),
        SurfaceKind.from_string(text + ":anticanonical"),
    ):
        assert kind.anticanonical is True and kind == built
        assert kind.to_string() == text


@pytest.mark.parametrize("params", [(2.9,), (2.0,), ("2",)])
def test_kind_parameters_must_be_integers(params):
    with pytest.raises(TypeError):
        SurfaceKind("p2", params)


# p2_surface and hirzebruch_surface build h only in these windows:
# lambda >= 1, and e >= 0, a >= 1, b >= a*e + 1
@pytest.mark.parametrize("name,params", [
    ("p2", (0,)), ("p2", (-2,)),
    ("hirzebruch", (-1, 1, 1)), ("hirzebruch", (0, 0, 1)), ("hirzebruch", (0, 1, 0)),
    ("hirzebruch", (1, 1, 1)), ("hirzebruch", (2, 2, 4)), ("hirzebruch", (1, -1, 3)),
])
def test_kind_parameters_outside_the_family_are_rejected(name, params):
    text = f"{name}:{','.join(map(str, params))}"
    for build in (lambda: SurfaceKind(name, params),
                  lambda: getattr(SurfaceKind, name)(*params),
                  lambda: SurfaceKind.from_string(text)):
        with pytest.raises(ValidationError) as info:
            build()
        assert info.value.path == "kind"
        assert info.value.message.startswith(f"{name} needs ")


@pytest.mark.parametrize("name,params", [
    ("p2", (1,)), ("hirzebruch", (0, 1, 1)), ("hirzebruch", (1, 1, 2)),
    ("hirzebruch", (2, 2, 5)), ("hirzebruch", (3, 1, 4)),
])
def test_kind_parameters_on_the_window_edge_are_accepted(name, params):
    assert SurfaceKind(name, params).params == params


def test_constructors_still_raise_invalid_polarization_first():
    with pytest.raises(InvalidPolarization):
        p2_surface(0)
    with pytest.raises(InvalidPolarization):
        hirzebruch_surface(-1, 1, 1)
    with pytest.raises(InvalidPolarization):
        hirzebruch_surface(1, 1, 1)


@pytest.mark.parametrize("rank,c2", [(2, 3.7), (2, 3.0), (2.5, 3), ("2", 3), (2, "3")])
def test_chern_data_rank_and_c2_must_be_integers(rank, c2):
    with pytest.raises(TypeError):
        ChernData(rank, DivisorClass((1,)), c2)


def test_chern_data_keeps_integers():
    F = ChernData(2, (1,), 3)
    assert (F.rank, F.c1, F.c2) == (2, DivisorClass((1,)), 3)
    assert type(F.rank) is int and type(F.c2) is int


def _flagged(kind, flags):
    return PolarizedSurface(
        lattice=make_lattice([[1, 0], [0, -1]], [-3, 1], ["l", "e1"]),
        h=DivisorClass((2, -1)),
        kind=kind,
        flags=flags,
    )


AUTO_KINDS = [SurfaceKind.p2(2), SurfaceKind.hirzebruch(0, 1, 1),
              SurfaceKind.blowup_p2(anticanonical=True), SurfaceKind.enriques()]


@pytest.mark.parametrize("kind", AUTO_KINDS, ids=SurfaceKind.to_string)
def test_unknown_flags_auto_derive_where_the_kind_makes_them_theorems(kind):
    S = _flagged(kind, HypothesisFlags())
    assert hypothesis_flag(S, "non_special") is True
    assert hypothesis_flag(S, "h0_2K_minus_h_zero") is True
    # the other two are never theorems of the kind
    assert hypothesis_flag(S, "very_ample") is None
    assert hypothesis_flag(S, "h0_h_minus_K_zero") is None
    assert standing_hypotheses(S)


@pytest.mark.parametrize("kind", AUTO_KINDS, ids=SurfaceKind.to_string)
def test_asserted_flags_win_over_auto_derivation(kind):
    flags = HypothesisFlags(non_special=False, h0_2K_minus_h_zero=False)
    S = _flagged(kind, flags)
    assert hypothesis_flag(S, "non_special") is False
    assert hypothesis_flag(S, "h0_2K_minus_h_zero") is False
    assert not standing_hypotheses(S)


@pytest.mark.parametrize("kind", [SurfaceKind.abstract(), SurfaceKind.blowup_p2()],
                         ids=SurfaceKind.to_string)
def test_no_auto_derivation_without_a_theorem(kind):
    S = _flagged(kind, HypothesisFlags())
    assert [hypothesis_flag(S, name) for name in AUTO_DERIVED_FLAGS] == [None, None]
    assert not standing_hypotheses(S)
    assert derived_invariants(S).N is None


FLAG_NAMES = [field.name for field in dataclasses.fields(HypothesisFlags)]


@pytest.mark.parametrize("value", [1, 0, "true", "unknown"])
@pytest.mark.parametrize("name", FLAG_NAMES)
def test_flags_refuse_values_that_are_not_tri_state(name, value):
    # 1 or "true" would read as asserted, block the auto-derivation and
    # leave N and the verdicts unknown
    with pytest.raises(TypeError, match=name):
        HypothesisFlags(**{name: value})


@pytest.mark.parametrize("value", [True, False, None])
@pytest.mark.parametrize("name", FLAG_NAMES)
def test_flags_take_the_three_tri_state_values(name, value):
    assert getattr(HypothesisFlags(**{name: value}), name) is value


def test_standing_hypotheses_need_pg_and_q_zero():
    for pg, q in ((1, 0), (0, 1)):
        S = PolarizedSurface(
            lattice=make_lattice([[0, 1], [1, 0]], [0, 0], ["u", "v"]),
            h=DivisorClass((1, 4)),
            pg=pg,
            q=q,
            kind=SurfaceKind.enriques(),
            flags=HypothesisFlags(non_special=True),
        )
        assert not standing_hypotheses(S)
        assert derived_invariants(S).N is None


# ---------------------------------------------------------------------------
# Cached invariants


CACHE_BUILTINS = (
    ["p2-1", "p2-4", "p1xp1-2-3", "hirzebruch-e1-a1-b2", "hirzebruch-e3-a2-b7",
     "bordiga", "table1-row-2-printed", "enriques-10", "kim-4-9", "kim-6-9"]
    + [f"table1-row-{n}" for n in range(1, 8)]
    + [f"del-pezzo-{d}" for d in range(3, 10)]
)


def _pairing(gram, u, v):
    """u^T . gram . v entry by entry, independent of IntersectionLattice."""
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def _assert_caches_match_pairings(S):
    L = S.lattice
    G, h, K = L.gram, S.h.coeffs, S.K.coeffs
    basis = [tuple(int(j == i) for j in range(L.rank)) for i in range(L.rank)]
    fresh_h2, fresh_hK = _pairing(G, h, h), _pairing(G, h, K)
    fresh = (
        fresh_h2,
        fresh_hK,
        _pairing(G, K, K),
        (fresh_h2 + fresh_hK) // 2 + 1,
        tuple(_pairing(G, b, h) for b in basis),
        tuple(_pairing(G, b, K) for b in basis),
    )
    assert (L.pair(h, h), L.pair(h, K), L.pair(K, K)) == fresh[:3]
    assert (S.h2, S.hK, S.K2, S.pi, S.gram_h, L.gram_K) == fresh
    # a second read returns the stored values
    assert (S.h2, S.hK, S.K2, S.pi, S.gram_h, L.gram_K) == fresh


@pytest.mark.parametrize("name", CACHE_BUILTINS)
def test_cached_invariants_equal_fresh_pairings_on_builtins(name):
    _assert_caches_match_pairings(builtin_surface(name))


def test_cached_invariants_equal_fresh_pairings_on_skewed_document(skewed):
    doc = skewed(40, 11)
    S = parse_surface(json.dumps(doc))
    assert S.lattice.rank == 40
    assert any(S.lattice.gram[i][j] for i in range(40) for j in range(40) if i != j)
    _assert_caches_match_pairings(S)


def test_filled_caches_keep_equality_and_hash():
    S, T = builtin_surface("bordiga"), builtin_surface("bordiga")
    before = hash(S)
    assert S == T and hash(T) == before
    _assert_caches_match_pairings(S)
    assert S == T and T == S
    assert hash(S) == hash(T) == before
    assert S != builtin_surface("table1-row-3")


def test_h2_is_computed_once_per_surface(monkeypatch):
    prop = PolarizedSurface.__dict__["h2"]
    calls = []
    compute = prop.func

    def counted(self):
        calls.append(self)
        return compute(self)

    monkeypatch.setattr(prop, "func", counted)
    S = del_pezzo(5)
    derived_invariants(S)
    embedding_sanity(S)
    classify(S)
    special_rank2_chern(S)
    enumerate_bounded(S, 2)
    line_numeric_check(S, [3, -1, -1, -1, -1])
    assert calls == [S]
