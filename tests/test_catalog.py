import json

import pytest

from test_invariants import CACHE_BUILTINS, _assert_caches_match_pairings
from ulrichsurf.catalog import (
    MAX_DIGITS,
    builtin_names,
    builtin_surface,
    clifford_report,
    del_pezzo,
    enriques_numeric,
    hirzebruch_surface,
    kim_cubic,
    p1xp1_surface,
    p2_surface,
    parse_surface,
    serialize_surface,
    table1,
    table1_row,
    table1_row2_printed,
    verify_table1,
)
from ulrichsurf.errors import (
    InvalidDegree,
    InvalidPolarization,
    OutOfRange,
    ParseError,
    UnknownBuiltin,
    ValidationError,
)
from ulrichsurf.invariants import (
    HypothesisFlags,
    PolarizedSurface,
    derived_invariants,
    embedding_sanity,
)
from ulrichsurf.lattice import DivisorClass, make_lattice
from ulrichsurf.ulrich import special_rank2_chern


def test_verify_table1_passes():
    report = verify_table1()
    assert report.passed
    degrees = [r.h2 for r in report.rows]
    assert degrees == [3, 4, 5, 6, 7, 8, 9]
    assert [r.hK for r in report.rows] == [-5, -4, -3, -2, -1, 0, 1]
    assert [r.K2 for r in report.rows] == [8, 4, 1, -1, -2, -2, -1]
    assert all(r.N == 4 for r in report.rows)


def test_printed_row2_variant_fails_linear_normality():
    S = table1_row2_printed()
    inv = derived_invariants(S)
    assert inv.N == 5
    assert inv.h2 == 5


def test_table1_row_bounds():
    with pytest.raises(OutOfRange):
        table1_row(0)
    with pytest.raises(OutOfRange):
        table1_row(8)


def test_table1_labels():
    row3 = table1_row(3)
    assert row3.lattice.basis_labels[:2] == ("l", "f1")
    row7 = table1_row(7)
    assert row7.h.coeffs == (13,) + (-4,) * 10


def test_catalog_surfaces_pass_sanity():
    for S in table1() + [del_pezzo(d) for d in (3, 6, 9)] + [
        enriques_numeric(8),
        kim_cubic(4, 9),
        kim_cubic(5, 2),
    ]:
        assert embedding_sanity(S).passed


def test_del_pezzo():
    S = del_pezzo(3)
    inv = derived_invariants(S)
    assert (inv.h2, inv.pi, inv.N) == (3, 1, 3)
    assert derived_invariants(del_pezzo(9)).h2 == 9
    inv4 = derived_invariants(del_pezzo(4))
    assert (inv4.h2, inv4.N, inv4.degZ) == (4, 4, 6)
    with pytest.raises(InvalidDegree):
        del_pezzo(2)
    with pytest.raises(InvalidDegree):
        del_pezzo(10)


def test_del_pezzo_special_c2():
    for d in range(3, 10):
        assert special_rank2_chern(del_pezzo(d)).c2 == d + 2


def test_enriques_numeric():
    S = enriques_numeric(10)
    assert (S.h2, S.hK, S.K2, S.pi) == (10, 0, 0, 6)
    assert enriques_numeric(8).pi == 5
    for bad in (6, 9):
        with pytest.raises(InvalidDegree):
            enriques_numeric(bad)


def test_kim_cubic():
    S = kim_cubic(4, 9)
    assert (S.h2, S.pi) == (7, 3)
    assert kim_cubic(5, 2).h2 == 23
    assert kim_cubic(4, 2).h2 == 14 and kim_cubic(4, 2).hK == -10
    for a, m in [(3, 5), (4, 1), (4, 10)]:
        with pytest.raises(OutOfRange):
            kim_cubic(a, m)


def test_clifford_reports():
    report = clifford_report(4, 9)
    assert (report.pi, report.g, report.deg_L, report.h0_L) == (3, 19, 9, 3)
    assert report.cliff_L == report.pencil_bound == 5
    assert report.kim_hypothesis_plausible
    report = clifford_report(5, 9)
    assert report.cliff_L == 14 and report.pencil_bound == 8
    assert not report.kim_hypothesis_plausible
    report = clifford_report(6, 2)
    assert report.cliff_L == 27 and report.pencil_bound == 11


def test_clifford_identities_in_range():
    for a in range(4, 12):
        for m in range(2, 10):
            report = clifford_report(a, m)
            assert report.cliff_L == report.deg_L - 2 * report.h0_L + 2
            S = kim_cubic(a, m)
            deg_from_lattice = 3 * S.h2 + 4 * S.hK + S.K2
            assert deg_from_lattice == 3 * (a - 1) * (a - 3) == report.deg_L


def test_serialize_round_trip():
    for S in table1() + [
        p2_surface(2),
        del_pezzo(5),
        enriques_numeric(8),
        kim_cubic(4, 3),
        builtin_surface("p1xp1-2-3"),
    ]:
        text = serialize_surface(S)
        again = serialize_surface(parse_surface(text))
        assert text == again


def test_parse_rejects_asymmetric_gram():
    text = '{"gram": [[0, 1], [2, 0]], "K": [-2, -2], "h": [1, 1]}'
    with pytest.raises(ValidationError) as info:
        parse_surface(text)
    assert info.value.path == "gram"


def test_parse_defaults_flags_to_unknown():
    text = '{"gram": [[0, 1], [1, 0]], "K": [-2, -2], "h": [1, 1]}'
    S = parse_surface(text)
    assert S.flags.very_ample is None
    assert S.flags.non_special is None
    assert S.kind.name == "abstract"


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_surface("not json")
    with pytest.raises(ParseError):
        parse_surface("[1, 2]")
    with pytest.raises(ValidationError):
        parse_surface('{"gram": [[1]], "K": [-3], "h": [1], "bogus": 1}')
    with pytest.raises(ValidationError):
        parse_surface(
            '{"gram": [[1]], "K": [-3], "h": [1], "flags": {"very_ample": "yes"}}'
        )


def test_builtin_names_resolve():
    names = [
        "p2-1",
        "p2-2",
        "p1xp1-2-3",
        "hirzebruch-e2-a1-b3",
        "table1-row-1",
        "bordiga",
        "table1-row-2-printed",
        "del-pezzo-3",
        "enriques-10",
        "kim-4-9",
    ]
    for name in names:
        S = builtin_surface(name)
        assert S.h2 > 0
    assert builtin_surface("bordiga").name == "table1-row-4"
    with pytest.raises(UnknownBuiltin):
        builtin_surface("veronese")


# ---------------------------------------------------------------------------
# The plane-model families against surfaces written out by hand

FAMILY_FLAGS = HypothesisFlags(
    very_ample=True, non_special=True, h0_2K_minus_h_zero=True, h0_h_minus_K_zero=False
)
P4_FLAGS = HypothesisFlags(very_ample=True, non_special=True)
ANTICANONICAL = "blowup_p2:anticanonical"


def _points(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


# name -> (basis labels, h, kind string, flags); the lattice is the plane
# blown up at one point per label after l
PLANE_MODELS = {
    "p2-1": (["l"], [1], "p2:1", FAMILY_FLAGS),
    "p2-4": (["l"], [4], "p2:4", FAMILY_FLAGS),
    "del-pezzo-3": (["l"] + _points("e", 6), [3] + [-1] * 6, ANTICANONICAL,
                    FAMILY_FLAGS),
    "del-pezzo-9": (["l"], [3], ANTICANONICAL, FAMILY_FLAGS),
    "kim-4-2": (["l", "e1", "e2"], [4, -1, -1], ANTICANONICAL, FAMILY_FLAGS),
    "kim-7-9": (["l"] + _points("e", 9), [7] + [-1] * 9, ANTICANONICAL,
                FAMILY_FLAGS),
    "table1-row-1": (["l", "e1"], [2, -1], ANTICANONICAL, P4_FLAGS),
    "table1-row-3": (["l", "f1"] + _points("e", 7), [4, -2] + [-1] * 7,
                     ANTICANONICAL, P4_FLAGS),
    "table1-row-5": (["l"] + _points("f", 6) + _points("e", 5),
                     [6] + [-2] * 6 + [-1] * 5, "blowup_p2", P4_FLAGS),
    "table1-row-7": (["l"] + _points("f", 10), [13] + [-4] * 10, "blowup_p2",
                     P4_FLAGS),
    "bordiga": (["l"] + _points("e", 10), [4] + [-1] * 10, "blowup_p2", P4_FLAGS),
    "table1-row-2-printed": (["l"] + _points("e", 5), [3, -1, -1, -1, -1, 0],
                             ANTICANONICAL, P4_FLAGS),
}


@pytest.mark.parametrize("name", PLANE_MODELS)
def test_plane_models_match_surfaces_written_out_by_hand(name):
    labels, h, kind, flags = PLANE_MODELS[name]
    rank = len(labels)
    # gram diag(1, -1, ..., -1) and K = -3l + sum of the exceptional classes
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    lattice = make_lattice(gram, [-3] + [1] * (rank - 1), labels)
    S = builtin_surface(name)
    assert S.lattice.gram == lattice.gram
    assert S.lattice.canonical == lattice.canonical
    assert S.lattice.basis_labels == tuple(labels)
    assert S.h == DivisorClass(tuple(h))
    assert S.kind.to_string() == kind
    assert S.flags == flags


def test_builtin_names_list_every_family_once():
    patterns = [pattern for pattern, _ in builtin_names()]
    assert patterns == [
        "p2-L", "p1xp1-A-B", "hirzebruch-eE-aA-bB", "table1-row-N", "bordiga",
        "table1-row-2-printed", "del-pezzo-D", "enriques-H", "kim-A-M",
    ]


@pytest.mark.parametrize(
    "kind",
    ["p2", "hirzebruch", "hirzebruch:1,2", "p2:1,2", "p2:anticanonical",
     "abstract:1", "blowup_p2:1,2", "enriques:3"],
)
def test_parse_rejects_kind_with_wrong_parameter_count(kind):
    text = json.dumps(
        {"gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [2, -1], "kind": kind}
    )
    with pytest.raises(ValidationError) as info:
        parse_surface(text)
    assert info.value.path == "kind"
    assert "wrong number of parameters" in info.value.message


def test_parse_rejects_two_parameter_groups():
    text = json.dumps({"gram": [[-1, 1], [1, 0]], "K": [-2, -3], "h": [1, 2],
                       "kind": "hirzebruch:1,2:0,1,2"})
    with pytest.raises(ValidationError) as info:
        parse_surface(text)
    assert info.value.path == "kind"
    assert "more than one parameter group" in info.value.message


# The plane blown up at two points with h = 4l - e1 - e2 (h^2 = 14) tagged
# p2:1, and documents whose rank, h or K contradicts their kind's parameters.
@pytest.mark.parametrize("doc", [
    {"gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "K": [-3, 1, 1], "h": [4, -1, -1],
     "kind": "p2:1"},
    {"gram": [[1]], "K": [-3], "h": [1], "kind": "p2:2"},
    {"gram": [[1]], "K": [-3], "h": [-2], "kind": "p2:2"},
    {"gram": [[0, 1], [1, 0]], "K": [-2, -2], "h": [2, 3], "kind": "hirzebruch:1,2,3"},
    {"gram": [[0, 1], [1, 0]], "K": [-2, -2], "h": [2, 3], "kind": "hirzebruch:0,2,4"},
    {"gram": [[1, 0], [0, -1]], "K": [-1, -3], "h": [2, -1], "kind": "hirzebruch:1,1,2"},
], ids=["p2-rank-3", "p2-degree", "p2-sign", "hirzebruch-e", "hirzebruch-b",
        "hirzebruch-K2"])
def test_parse_rejects_kind_that_contradicts_the_lattice(doc):
    with pytest.raises(ValidationError) as info:
        parse_surface(json.dumps(doc))
    assert info.value.path == "kind"
    assert "needs (rank, h^2, h.K, K^2)" in info.value.message


# F_1 = hirzebruch:1,1,2 in the basis (f, xi) and as the plane blown up at
# a point, h = 2l - e: every invariant the kind fixes is unchanged
@pytest.mark.parametrize("gram,K,h", [
    ([[0, 1], [1, -1]], [-3, -2], [2, 1]),
    ([[1, 0], [0, -1]], [-3, 1], [2, -1]),
])
def test_parse_accepts_kind_in_another_basis(gram, K, h):
    S = parse_surface(json.dumps({"gram": gram, "K": K, "h": h, "kind": "hirzebruch:1,1,2"}))
    assert S.kind.params == (1, 1, 2)
    assert (S.h2, S.hK, S.K2) == (3, -5, 8)


# ---------------------------------------------------------------------------
# The builtin name cache

FAMILIES = {
    "p2": p2_surface,
    "p1xp1": p1xp1_surface,
    "hirzebruch": hirzebruch_surface,
    "table1-row": table1_row,
    "del-pezzo": del_pezzo,
    "enriques": enriques_numeric,
    "kim": kim_cubic,
}


def _fresh(name):
    """The builtin called name, built anew by its family constructor."""
    if name == "bordiga":
        return table1_row(4)
    if name == "table1-row-2-printed":
        return table1_row2_printed()
    for family, build in FAMILIES.items():
        if name.startswith(family + "-"):
            params = name[len(family) + 1:].split("-")
            return build(*(int(param.lstrip("eab")) for param in params))
    raise AssertionError(name)


@pytest.mark.parametrize("name", CACHE_BUILTINS)
def test_builtin_resolves_once_to_the_surface_its_family_builds(name):
    builtin_surface.cache_clear()
    S = builtin_surface(name)
    assert builtin_surface(name) is S
    assert S == _fresh(name)
    _assert_caches_match_pairings(S)
    assert builtin_surface.cache_info()[:2] == (1, 1)  # hits, misses


def test_family_constructors_build_a_new_surface_each_call():
    assert del_pezzo(3) is not del_pezzo(3)
    assert table1_row(5) is not table1_row(5)
    assert table1()[0] is not table1()[0]


def test_builtin_cache_keeps_the_128_names_used_last():
    builtin_surface.cache_clear()
    for lam in range(1, 201):
        builtin_surface(f"p2-{lam}")
    info = builtin_surface.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (128, 128, 200)
    builtin_surface("p2-200")
    builtin_surface("p2-1")
    info = builtin_surface.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 201, 128)


@pytest.mark.parametrize("name, error", [
    ("veronese", UnknownBuiltin),
    ("p2-x", UnknownBuiltin),
    ("p2-0", InvalidPolarization),
    ("hirzebruch-e2-a1-b2", InvalidPolarization),
    ("del-pezzo-2", InvalidDegree),
    ("enriques-9", InvalidDegree),
    ("table1-row-8", OutOfRange),
    ("kim-3-5", OutOfRange),
    ("p2-" + "9" * (MAX_DIGITS + 1), OutOfRange),
    # near-misses of the name grammar
    ("p2-", UnknownBuiltin),
    ("p2-1-1", UnknownBuiltin),
    ("P2-1", UnknownBuiltin),
    ("del-pezzo-3x", UnknownBuiltin),
    ("hirzebruch-e1-a1", UnknownBuiltin),
    ("kim-4", UnknownBuiltin),
    ("table1-row-2-printedx", UnknownBuiltin),
], ids=lambda value: value[:20] if isinstance(value, str) else value.__name__)
def test_bad_builtin_names_raise_on_every_call_and_are_never_stored(name, error):
    builtin_surface.cache_clear()
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            builtin_surface(name)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    info = builtin_surface.cache_info()
    assert (info.misses, info.currsize) == (3, 0)


def test_second_verify_table1_builds_no_surface(monkeypatch):
    builtin_surface.cache_clear()
    built = []
    post_init = PolarizedSurface.__post_init__

    def counted(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(PolarizedSurface, "__post_init__", counted)
    first = verify_table1()
    assert built == [f"table1-row-{n}" for n in range(1, 8)]
    built.clear()
    assert verify_table1() == first and first.passed
    # the rows are the builtins of those names
    builtin_surface("table1-row-5")
    assert built == []
