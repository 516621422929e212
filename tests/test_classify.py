import importlib

import pytest

from ulrichsurf.catalog import (
    del_pezzo,
    enriques_numeric,
    hirzebruch_surface,
    kim_cubic,
    p1xp1_surface,
    p2_surface,
    parse_surface,
    table1,
    table1_row,
)
from ulrichsurf.classify import (
    Verdict,
    classify,
    is_ulrich_wild,
    moduli_dims,
    special_rank2_exists,
    stable_special_exists,
)
from ulrichsurf.errors import MissingHypothesis
from ulrichsurf.invariants import HypothesisFlags, PolarizedSurface, SurfaceKind
from ulrichsurf.lattice import DivisorClass, hirzebruch_lattice, make_lattice


def test_special_exists_catalog():
    assert special_rank2_exists(del_pezzo(3)) is Verdict.TRUE
    assert special_rank2_exists(enriques_numeric(10)) is Verdict.TRUE


def test_special_exists_unknown_on_bare_surface():
    S = PolarizedSurface(
        lattice=make_lattice([[1]], [-3], ["l"]),
        h=DivisorClass((1,)),
    )
    assert special_rank2_exists(S) is Verdict.UNKNOWN


def test_special_exists_never_false_with_positive_pg():
    S = PolarizedSurface(
        lattice=make_lattice([[0, 1], [1, 0]], [0, 0], ["u", "v"]),
        h=DivisorClass((1, 4)),
        pg=1,
        flags=HypothesisFlags(very_ample=True, non_special=True),
    )
    assert special_rank2_exists(S) is Verdict.UNKNOWN


def test_stability_exceptions():
    assert stable_special_exists(p2_surface(1)) is Verdict.FALSE
    assert stable_special_exists(p2_surface(2)) is Verdict.TRUE
    assert stable_special_exists(table1_row(4)) is Verdict.TRUE
    for b in (1, 2, 5):
        assert stable_special_exists(p1xp1_surface(1, b)) is Verdict.FALSE
    assert stable_special_exists(hirzebruch_surface(2, 1, 3)) is Verdict.FALSE
    assert stable_special_exists(p1xp1_surface(2, 3)) is Verdict.TRUE


def test_stability_unknown_for_abstract_minimal_degree():
    # F0 with h = xi + 2f presented without its family tag
    S = PolarizedSurface(
        lattice=hirzebruch_lattice(0),
        h=DivisorClass((1, 2)),
        flags=HypothesisFlags(very_ample=True, non_special=True),
    )
    assert S.pi == 0
    assert stable_special_exists(S) is Verdict.UNKNOWN


def test_stability_requires_existence():
    S = PolarizedSurface(
        lattice=make_lattice([[1]], [-3], ["l"]),
        h=DivisorClass((1,)),
    )
    with pytest.raises(MissingHypothesis):
        stable_special_exists(S)


def test_wildness_truth_table():
    assert is_ulrich_wild(p2_surface(1)) is Verdict.FALSE
    assert is_ulrich_wild(p2_surface(2)) is Verdict.FALSE
    assert is_ulrich_wild(p1xp1_surface(1, 2)) is Verdict.FALSE
    assert is_ulrich_wild(p1xp1_surface(1, 3)) is Verdict.TRUE
    assert is_ulrich_wild(hirzebruch_surface(2, 1, 4)) is Verdict.TRUE
    assert is_ulrich_wild(table1_row(4)) is Verdict.TRUE
    for d in range(3, 10):
        assert is_ulrich_wild(del_pezzo(d)) is Verdict.TRUE


def test_wildness_unknown_without_hypotheses():
    S = PolarizedSurface(
        lattice=make_lattice([[1]], [-3], ["l"]),
        h=DivisorClass((1,)),
    )
    assert is_ulrich_wild(S) is Verdict.UNKNOWN


def test_moduli_dims():
    dims = moduli_dims(enriques_numeric(10))
    assert dims.lower_chern == 15 and dims.smooth == 15
    dims = moduli_dims(table1_row(4))
    assert dims.lower_chern == 12
    dims = moduli_dims(del_pezzo(3))
    assert dims.lower_chern == 5
    assert dims.lower_injective is None  # h - K = -2K is effective
    assert dims.smooth == 5


def test_moduli_injective_bound_when_flag_set():
    S = PolarizedSurface(
        lattice=table1_row(4).lattice,
        h=table1_row(4).h,
        kind=table1_row(4).kind,
        flags=HypothesisFlags(
            very_ample=True, non_special=True, h0_h_minus_K_zero=True
        ),
    )
    dims = moduli_dims(S)
    assert dims.lower_injective == 2 * (4 + 2)


def test_moduli_require_stability():
    with pytest.raises(MissingHypothesis):
        moduli_dims(p2_surface(1))


def test_classify_scroll():
    report = classify(p1xp1_surface(1, 2))
    assert report.ulrich_wild is Verdict.FALSE
    assert report.stable_special_exists is Verdict.FALSE
    assert report.minimal_degree


def test_classify_kim_cubic():
    S = kim_cubic(4, 9)
    report = classify(S)
    assert report.ulrich_wild is Verdict.TRUE
    assert report.stable_special_exists is Verdict.TRUE
    assert report.moduli_dim_lower_chern == S.h2 - S.K2 + 5 == 12


def test_classify_enriques():
    report = classify(enriques_numeric(8))
    assert report.ulrich_wild is Verdict.TRUE
    assert report.moduli_dim_smooth == 13


def test_classify_notes_k2_bound():
    S = PolarizedSurface(
        lattice=make_lattice([[0, 1], [1, 0]], [-4, -2], ["u", "v"]),
        h=DivisorClass((1, 1)),
        flags=HypothesisFlags(very_ample=True, non_special=True),
    )
    assert S.K2 == 16
    report = classify(S)
    assert any("K2" in note for note in report.notes)


def test_minimal_degree_iff_n_is_h2_plus_1():
    from ulrichsurf.invariants import derived_invariants

    for S in table1() + [del_pezzo(3), p2_surface(1), p1xp1_surface(1, 2)]:
        inv = derived_invariants(S)
        assert (inv.pi == 0) == (inv.N == inv.h2 + 1)


def test_wild_implies_special_on_catalog():
    surfaces = table1() + [del_pezzo(d) for d in range(3, 10)] + [
        enriques_numeric(8),
        p2_surface(2),
        p1xp1_surface(2, 2),
    ]
    for S in surfaces:
        if is_ulrich_wild(S) is Verdict.TRUE:
            assert special_rank2_exists(S) is Verdict.TRUE


@pytest.mark.parametrize("built,direct", [
    (SurfaceKind.p2(2), SurfaceKind("p2", (2,))),
    (SurfaceKind.hirzebruch(1, 2, 4), SurfaceKind("hirzebruch", (1, 2, 4))),
])
def test_kind_built_directly_classifies_as_its_constructor(built, direct):
    # non_special left unknown: only the kind's anticanonical tag supplies it;
    # a directly built plane used to answer unknown where p2(2) answered true
    def surface(kind):
        base = p2_surface(2) if kind.name == "p2" else hirzebruch_surface(1, 2, 4)
        return PolarizedSurface(
            lattice=base.lattice,
            h=base.h,
            kind=kind,
            flags=HypothesisFlags(very_ample=True),
        )

    assert direct == built
    report = classify(surface(direct))
    assert report == classify(surface(built))
    assert report.special_rank2_exists is Verdict.TRUE
    assert report.stable_special_exists is Verdict.TRUE


def test_moduli_injective_bound_with_auto_derived_non_special():
    # the anticanonical degree-7 del Pezzo surface asserting h^0(h - K) = 0
    # but leaving h non-special to its kind: N is known, so the bound is too
    S = del_pezzo(7)
    S = PolarizedSurface(
        lattice=S.lattice,
        h=S.h,
        kind=S.kind,
        flags=HypothesisFlags(very_ample=True, h0_h_minus_K_zero=True),
    )
    dims = moduli_dims(S)
    assert dims.lower_injective == 2 * ((S.h2 - S.hK) // 2 + 2) == 18
    assert dims.smooth == dims.lower_chern == S.h2 - S.K2 + 5


# ---------------------------------------------------------------------------
# classify decides each verdict once; the public verdict functions read it

def _count_calls(monkeypatch, name):
    # ulrichsurf.classify, the package attribute, is the function; the
    # module comes from the import system
    module = importlib.import_module("ulrichsurf.classify")
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_reads_each_hypothesis_once(monkeypatch):
    standing = _count_calls(monkeypatch, "standing_hypotheses")
    flags = _count_calls(monkeypatch, "hypothesis_flag")
    report = classify(del_pezzo(3))
    assert report.stable_special_exists is Verdict.TRUE
    assert len(standing) == 1
    assert sorted(flags) == [
        ("h0_2K_minus_h_zero",), ("h0_h_minus_K_zero",), ("very_ample",),
    ]


@pytest.mark.parametrize("reader", [
    special_rank2_exists, stable_special_exists, is_ulrich_wild, moduli_dims,
])
def test_each_verdict_reader_runs_classify_once(monkeypatch, reader):
    runs = _count_calls(monkeypatch, "classify")
    reader(del_pezzo(3))
    assert len(runs) == 1


def test_readers_keep_their_missing_hypothesis_messages():
    bare = PolarizedSurface(lattice=make_lattice([[1]], [-3], ["l"]), h=DivisorClass((1,)))
    for reader in (stable_special_exists, moduli_dims):
        with pytest.raises(MissingHypothesis, match="^stability decision needs "
                                                    "special_rank2_exists = true$"):
            reader(bare)
    with pytest.raises(MissingHypothesis, match="^moduli dimensions need a stable bundle$"):
        moduli_dims(p2_surface(1))
