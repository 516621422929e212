"""The surface-document path: the canonical writer, the type checks of
parse_surface and the Hodge-index check, each against a reference."""

import dataclasses
import json
import re
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from documents import BUILTINS, skewed_document
from ulrichsurf.catalog import (
    _FLAG_KEYS,
    _flag_to_text,
    builtin_surface,
    parse_surface,
    serialize_surface,
)
from ulrichsurf.cli import run
from ulrichsurf.errors import ValidationError
from ulrichsurf.invariants import HypothesisFlags, PolarizedSurface, SurfaceKind
from ulrichsurf.lattice import DivisorClass, make_lattice

README = Path(__file__).resolve().parents[1] / "README.md"

SKEWED_RANKS = range(2, 61)


def reference_serialize(S) -> str:
    """The writer as first written: the document dict through json.dumps."""
    doc = {
        "name": S.name,
        "basis": list(S.lattice.basis_labels),
        "gram": [list(row) for row in S.lattice.gram],
        "K": list(S.lattice.canonical.coeffs),
        "h": list(S.h.coeffs),
        "pg": S.pg,
        "q": S.q,
        "kind": S.kind.to_string(),
        "flags": {
            key: _flag_to_text(getattr(S.flags, key)) for key in _FLAG_KEYS
        },
        "provenance": S.provenance,
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_gram_error(gram):
    """The per-entry type loop of parse_surface as first written: the
    (path, message) of the first bad row or entry, or None."""
    for i, row in enumerate(gram):
        if not isinstance(row, list):
            return f"gram[{i}]", "expected a list of integers"
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or isinstance(entry, bool):
                return f"gram[{i}][{j}]", "expected an integer"
    return None


# ---------------------------------------------------------------------------
# The canonical writer


@pytest.mark.parametrize("name", BUILTINS)
def test_writer_matches_reference_and_round_trips_on_builtins(name):
    S = builtin_surface(name)
    text = serialize_surface(S)
    assert text == reference_serialize(S)
    assert serialize_surface(parse_surface(text)) == text


@pytest.mark.parametrize("rank", SKEWED_RANKS)
def test_writer_matches_reference_on_skewed_documents(rank):
    S = parse_surface(json.dumps(skewed_document(rank, rank)))
    assert serialize_surface(S) == reference_serialize(S)


# Magnitudes from 0 to 10, just past a machine word, and up to 1000 digits.
MAGNITUDES = (
    st.integers(0, 10) | st.integers(2**63, 2**64) | st.integers(2**64, 10**1000 - 1)
)
COEFFS = st.builds(mul, st.sampled_from((1, -1)), MAGNITUDES)
# even coefficients, none of them over the 1000-digit cap on K
EVEN_COEFFS = st.builds(
    lambda sign, m: sign * (m - m % 2), st.sampled_from((1, -1)), MAGNITUDES
)


@st.composite
def arrow_surfaces(draw):
    """A surface of rank 1 to 8 whose gram has a > 0 at [0][0], any x_i in
    row and column 0 and -m_i < 0 on the rest of the diagonal.  -diag(m) is
    negative definite and a > 0, so the form has signature (1, rank - 1) and
    every h with h^2 > 0 passes the Hodge index check.  K_i is even for
    i >= 1; m_i and a are nudged to make the parity hold, and a is raised,
    if need be, until h^2 > 0."""
    rank = draw(st.integers(1, 8))
    x = [draw(COEFFS) for _ in range(rank - 1)]
    m = [draw(MAGNITUDES) + 1 for _ in range(rank - 1)]
    K = [draw(COEFFS)] + [draw(EVEN_COEFFS) for _ in range(rank - 1)]
    h = [draw(COEFFS) or 1] + [draw(COEFFS) for _ in range(rank - 1)]
    # b_i.b_i + b_i.K = -m_i (1 + K_i) + x_i K_0, for i >= 1
    m = [mi + (mi + xi * K[0]) % 2 for mi, xi in zip(m, x)]
    # h^2 = a h_0^2 + 2 h_0 sum x_i h_i - sum m_i h_i^2
    cross = 2 * h[0] * sum(map(mul, x, h[1:]))
    negative = sum(mi * hi * hi for mi, hi in zip(m, h[1:]))
    a = max(draw(MAGNITUDES) + 1, (negative - cross) // (h[0] * h[0]) + 1)
    # b_0.b_0 + b_0.K = a (1 + K_0) + sum x_i K_i, and each K_i is even
    a += a % 2 * (1 - K[0] % 2)
    gram = [[a, *x]] + [
        [xi] + [-mi if j == i else 0 for j in range(rank - 1)]
        for i, (xi, mi) in enumerate(zip(x, m))
    ]
    labels = [f"b{i}" for i in range(rank)]
    return PolarizedSurface(lattice=make_lattice(gram, K, labels), h=DivisorClass(tuple(h)))


@given(arrow_surfaces())
def test_writer_matches_reference_and_round_trips_on_large_and_negative_entries(S):
    text = serialize_surface(S)
    assert text == reference_serialize(S)
    assert serialize_surface(parse_surface(text)) == text


KINDS = st.sampled_from([
    "abstract", "abstract:anticanonical", "blowup_p2", "blowup_p2:anticanonical",
    "enriques", "enriques:anticanonical",
]) | st.builds("p2:{}".format, st.integers(1, 10**6)) | st.builds(
    # b from a*e + 1 up: SurfaceKind rejects parameters outside the family
    lambda e, a, c: f"hirzebruch:{e},{a},{a * e + 1 + c}",
    st.integers(0, 9), st.integers(1, 9), st.integers(0, 98),
)
TRISTATE = st.sampled_from([True, False, None])
# a surface built in Python may carry a bool pg or q, since bool is an int
COUNTS = st.integers(0, 10**30) | st.booleans()


@given(
    name=st.sampled_from(["p2-2", "p1xp1-2-3", "table1-row-3", "enriques-10"]),
    text=st.text(),
    provenance=st.text(),
    labels=st.lists(st.text(), min_size=11, max_size=11),
    kind=KINDS,
    flags=st.tuples(TRISTATE, TRISTATE, TRISTATE, TRISTATE),
    pg=COUNTS,
    q=COUNTS,
)
def test_writer_matches_reference_on_any_strings_flags_and_kinds(
    name, text, provenance, labels, kind, flags, pg, q
):
    S = builtin_surface(name)
    lattice = make_lattice(S.lattice.gram, S.K, labels[:S.lattice.rank])
    S = dataclasses.replace(
        S,
        lattice=lattice,
        name=text,
        provenance=provenance,
        kind=SurfaceKind.from_string(kind),
        flags=HypothesisFlags(*flags),
        pg=pg,
        q=q,
    )
    assert serialize_surface(S) == reference_serialize(S)


def test_writer_matches_reference_on_non_ascii_and_control_characters():
    S = dataclasses.replace(
        builtin_surface("p2-1"),
        name='quote " backslash \\ tab \t nul \x00 del \x7f',
        provenance="Hodge–Riemann ✓ \U0001d53d   é",
    )
    assert serialize_surface(S) == reference_serialize(S)


# ---------------------------------------------------------------------------
# The type checks of parse_surface

@pytest.mark.parametrize("gram", [
    [[1, True], [0, -1]],
    [[1, 0], [0, False]],
    [[1.0, 0], [0, -1]],
    [[1, 0], [0, -1.5]],
    [[1, None], [0, -1]],
    [[1, 0], ["0", -1]],
    [[1, [0]], [0, -1]],
    [[1, 0], [[], -1]],
    [{"a": 1}, [0, -1]],
    [[1, 0], {}],
    ["ab", [0, -1]],
    [[1, 0], 7],
    [[1, 0.5], 7],
    [7, [1, 0.5]],
    [[1, 0], [0, True], "row"],
    [{}, [None]],
], ids=lambda gram: json.dumps(gram))
def test_fast_gram_check_raises_the_reference_error(gram):
    doc = {"gram": gram, "K": [-3, 1], "h": [2, -1]}
    expected = reference_gram_error(gram)
    assert expected is not None
    with pytest.raises(ValidationError) as info:
        parse_surface(json.dumps(doc))
    assert (info.value.path, info.value.message) == expected


def test_well_formed_grams_pass_the_reference_loop_too():
    for rank in (2, 20, 60):
        assert reference_gram_error(skewed_document(rank, 5)["gram"]) is None


# ---------------------------------------------------------------------------
# The Hodge-index check

POSITIVE_DEFINITE = {"gram": [[1, 0], [0, 1]], "h": [1, 1], "K": [-1, -1]}


def test_hodge_index_rejects_a_positive_definite_form():
    with pytest.raises(ValidationError) as info:
        parse_surface(json.dumps(POSITIVE_DEFINITE))
    assert info.value.path == "gram"
    # b0.h = 1, h^2 = 2, b0^2 = 1
    assert info.value.message == (
        "Hodge index theorem fails for b0: (D.h)^2 = 1 < h^2 D^2 = 2"
    )


def test_hodge_index_checks_the_canonical_class():
    # signature (2, 1), and every basis vector passes: h^2 = 1 and
    # (b.h)^2 = 1 >= b^2; but K.h = 1 and K^2 = 9
    doc = {"gram": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "K": [3, -1, 1], "h": [1, 1, 1]}
    with pytest.raises(ValidationError) as info:
        parse_surface(json.dumps(doc))
    assert info.value.path == "gram"
    assert info.value.message == (
        "Hodge index theorem fails for K: (D.h)^2 = 1 < h^2 D^2 = 9"
    )


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_classify_rejects_a_positive_definite_document(capsys, tmp_path, fmt):
    # accepted before, with "wild_via_lemma": true
    path = tmp_path / "definite.json"
    path.write_text(json.dumps(POSITIVE_DEFINITE))
    code = run(["classify", "--surface", str(path), "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    message = "gram: Hodge index theorem fails for b0"
    if fmt == "json":
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "ValidationError")
        assert error["message"].startswith(message)
    else:
        assert err.startswith(f"error (ValidationError): {message}")
        assert err.count("\n") == 1


# A length mismatch is reported at the field whose length is wrong; a gram
# that is not square is the gram's fault whatever else is short.
PLANE_AT_A_POINT = {"gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [2, -1]}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("change, message", [
    ({"K": [-3]}, "K: canonical class has 1 coefficients, expected 2"),
    ({"basis": ["l"]}, "basis: 1 labels for rank 2"),
    ({"h": [2]}, "h: divisor has 1 coefficients, lattice has rank 2"),
    ({"gram": [[1, 0], [0]], "K": [-3]}, "gram: gram matrix is not square"),
], ids=["K", "basis", "h", "gram"])
def test_length_mismatch_names_its_field(capsys, tmp_path, change, message, fmt):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({**PLANE_AT_A_POINT, **change}))
    code = run(["info", "--surface", str(path), "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    if fmt == "json":
        assert json.loads(err)["error"]["message"] == message
    else:
        assert err == f"error (ValidationError): {message}\n"


# ---------------------------------------------------------------------------
# The README example


def test_readme_document_example_is_canonical(capsys, tmp_path):
    section = README.read_text(encoding="utf-8").split("## Surface documents", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "example.json"
    path.write_text(example, encoding="utf-8")
    assert run(["convert", "--surface", str(path)]) == 0
    assert capsys.readouterr().out == example
