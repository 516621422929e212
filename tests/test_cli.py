import argparse
import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ulrichsurf import catalog, cli
from ulrichsurf.catalog import parse_surface, serialize_surface
from ulrichsurf.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--builtin", "bordiga", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ulrich_wild"] == "true"
    assert data["moduli_dim_lower_chern"] == 12


def test_catalog_verify(capsys):
    code, out, _ = invoke(capsys, "catalog", "verify", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_catalog_list(capsys):
    code, out, _ = invoke(capsys, "catalog", "list")
    assert code == 0
    assert "del-pezzo-D" in out


def test_enumerate_bounded(capsys):
    code, out, _ = invoke(
        capsys,
        "enumerate", "--builtin", "p1xp1-2-3", "--bound", "6", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["solutions"] == [[1, 5], [3, 2]]


def test_enumerate_exact_default(capsys):
    code, out, _ = invoke(
        capsys, "enumerate", "--builtin", "p2-1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["solutions"] == [[0]]


def test_enumerate_high_rank_needs_bound(capsys):
    code, _, err = invoke(capsys, "enumerate", "--builtin", "del-pezzo-3")
    assert code == 1
    assert "--bound" in err


def test_info(capsys):
    code, out, _ = invoke(
        capsys, "info", "--builtin", "del-pezzo-3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["h2"] == 3 and data["N"] == 3
    assert data["embedding_sanity"]["passed"] is True


def test_check_line_pass_and_fail(capsys):
    code, out, _ = invoke(
        capsys,
        "check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = invoke(
        capsys,
        "check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,4",
        "--format", "json",
    )
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_check_rank(capsys):
    code, out, _ = invoke(
        capsys,
        "check-rank", "--builtin", "del-pezzo-3",
        "--rank", "2", "--c1", "6,-2,-2,-2,-2,-2,-2", "--c2", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_special_chern(capsys):
    code, out, _ = invoke(
        capsys, "special-chern", "--builtin", "enriques-10", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["c2"] == 27


def test_clifford(capsys):
    code, out, _ = invoke(
        capsys, "clifford", "--a", "4", "--m", "9", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["cliff_L"] == data["pencil_bound"] == 5


def test_convert_round_trip(capsys, tmp_path):
    code, out, _ = invoke(capsys, "convert", "--builtin", "kim-4-9")
    assert code == 0
    path = tmp_path / "surface.json"
    path.write_text(out)
    code, out2, _ = invoke(capsys, "convert", "--surface", str(path))
    assert code == 0
    assert out == out2


def test_convert_output_parses(capsys):
    code, out, _ = invoke(capsys, "convert", "--builtin", "bordiga")
    assert code == 0
    S = parse_surface(out)
    assert serialize_surface(S) == out


def test_table_and_json_agree(capsys):
    _, json_out, _ = invoke(
        capsys, "info", "--builtin", "bordiga", "--format", "json"
    )
    _, table_out, _ = invoke(capsys, "info", "--builtin", "bordiga")
    data = json.loads(json_out)
    for key in ("h2", "hK", "K2", "chi", "pi", "N"):
        assert f"{key}: {data[key]}" in table_out


def test_usage_errors(capsys):
    code, _, err = invoke(capsys, "info")
    assert code == 1 and "surface" in err
    code, _, err = invoke(capsys, "info", "--builtin", "nope")
    assert code == 1
    code, _, err = invoke(
        capsys, "info", "--builtin", "nope", "--format", "json"
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "UnknownBuiltin"


def test_bad_surface_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"gram": [[0,1],[2,0]], "K": [-2,-2], "h": [1,1]}')
    code, _, err = invoke(capsys, "info", "--surface", str(path))
    assert code == 1
    assert "gram" in err


# ---------------------------------------------------------------------------
# Unreadable surface files


def _assert_rejected(capsys, *argv):
    """Exit 1, nothing on stdout, the error on stderr in the chosen format."""
    for fmt in ("table", "json"):
        code, out, err = invoke(capsys, *argv, "--format", fmt)
        assert code == 1 and out == ""
        if fmt == "json":
            error = json.loads(err)["error"]
            assert error["category"] == "validation"
            assert error["type"] == "UnreadableFile"
        else:
            assert err.startswith("error (UnreadableFile): ")
            assert err.count("\n") == 1
    return error["message"]


def test_missing_surface_file(capsys, tmp_path):
    message = _assert_rejected(capsys, "info", "--surface", str(tmp_path / "none.json"))
    assert "none.json" in message


def test_surface_path_is_a_directory(capsys, tmp_path):
    _assert_rejected(capsys, "classify", "--surface", str(tmp_path))


def test_surface_file_with_undecodable_bytes(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    message = _assert_rejected(capsys, "convert", "--surface", str(path))
    assert "UTF-8" in message


def test_surface_file_permission_denied(capsys, tmp_path, monkeypatch):
    path = tmp_path / "locked.json"
    path.write_text("{}")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    # chmod does not stop a privileged user, so the refusal is simulated
    monkeypatch.setattr(Path, "read_text", denied)
    message = _assert_rejected(capsys, "info", "--surface", str(path))
    assert "Permission denied" in message


@pytest.mark.parametrize("text,message", [
    pytest.param("[" * 100_000 + "]" * 100_000, "JSON nested too deeply", id="nested-too-deeply"),
    pytest.param('{"gram": [[' + "7" * 5000 + ']], "K": [-3], "h": [1]}', "4300 digits",
                 id="integer-over-the-digit-limit"),
    pytest.param('{"gram": [[1]', "invalid JSON: ", id="truncated"),
])
def test_malformed_json_is_a_parse_error(capsys, tmp_path, text, message):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out, err = invoke(capsys, "info", "--surface", str(path), "--format", "json")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert (error["category"], error["type"]) == ("validation", "ParseError")
    assert message in error["message"]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("kind", ["p2", "hirzebruch", "hirzebruch:1,2", "p2:1,2"])
def test_kind_with_wrong_parameter_count_is_a_validation_error(capsys, tmp_path, kind, fmt):
    # with both flags true, classify reaches the stability verdict, which
    # reads the kind's parameters
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({
        "gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [2, -1], "kind": kind,
        "flags": {"very_ample": "true", "non_special": "true"},
    }))
    code, out, err = invoke(capsys, "classify", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    if fmt == "json":
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "ValidationError")
        assert error["message"].startswith("kind: wrong number of parameters")
    else:
        assert err.startswith("error (ValidationError): kind: wrong number of parameters")
        assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("doc,message", [
    ({"gram": [[1]], "K": [-3], "h": [-2], "kind": "p2:-2"},
     "kind: p2 needs lambda >= 1, got -2"),
    ({"gram": [[1, 1], [1, 0]], "K": [-2, -1], "h": [1, 1], "kind": "hirzebruch:-1,1,1"},
     "kind: hirzebruch needs e >= 0, a >= 1 and b >= a*e + 1, got (-1, 1, 1)"),
])
def test_kind_outside_its_family_is_a_validation_error(capsys, tmp_path, doc, message, fmt):
    # both documents match their kind's (rank, h^2, h.K, K^2), and classify
    # used to answer them with exit 0: p2:-2 as stable and wild
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({**doc, "flags": {"very_ample": "true"}}))
    code, out, err = invoke(capsys, "classify", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    if fmt == "json":
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "ValidationError")
        assert error["message"] == message
    else:
        assert err == f"error (ValidationError): {message}\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("kind,message", [
    ("hirzebruch:1,2:0,1,2", "kind: more than one parameter group"),
    ("p2:1", "kind: 'p2:1' needs (rank, h^2, h.K, K^2)"),
])
def test_convert_rejects_kind_it_cannot_keep(capsys, tmp_path, kind, message, fmt):
    # convert used to rewrite the first kind as hirzebruch:0,1,2 and to keep
    # the second on a rank-3 lattice with h^2 = 14
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "K": [-3, 1, 1], "h": [4, -1, -1],
        "kind": kind,
    }))
    code, out, err = invoke(capsys, "convert", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    if fmt == "json":
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "ValidationError")
        assert error["message"].startswith(message)
    else:
        assert err.startswith(f"error (ValidationError): {message}")
        assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["info", "convert"])
@pytest.mark.parametrize("field", ["pg", "q"])
def test_bool_pg_or_q_is_a_validation_error(capsys, tmp_path, field, command, fmt):
    # bool is an int subclass: "pg": true used to give chi = 2 under info,
    # and convert wrote it back as "pg": true
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({
        "gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [2, -1], field: True,
    }))
    code, out, err = invoke(capsys, command, "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    # only the field is pinned: the wording after it may still change
    if fmt == "json":
        error = json.loads(err)["error"]
        assert error["category"] == "validation" and error["type"] == "ValidationError"
        assert error["message"].startswith(f"{field}: ")
    else:
        assert err.startswith(f"error (ValidationError): {field}: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("name", [
    "p2-1", "p2-2", "p2-7", "p1xp1-1-1", "p1xp1-2-3", "p1xp1-5-2",
    "hirzebruch-e1-a1-b2", "hirzebruch-e2-a1-b3", "hirzebruch-e3-a2-b9",
])
def test_plane_and_hirzebruch_builtins_round_trip_through_convert(capsys, tmp_path, name):
    code, out, _ = invoke(capsys, "convert", "--builtin", name)
    assert code == 0
    path = tmp_path / "surface.json"
    path.write_text(out)
    assert invoke(capsys, "convert", "--surface", str(path)) == (0, out, "")


def _validation_error(err, fmt, error_type="ValidationError"):
    """The message of the one structured error on stderr."""
    if fmt == "json":
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", error_type)
        return error["message"]
    prefix = f"error ({error_type}): "
    assert err.startswith(prefix) and err.count("\n") == 1
    return err[len(prefix):-1]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("field,value,message", [
    ("pg", True, "pg: expected an integer, got a boolean"),
    ("pg", 1.5, "pg: expected an integer, got a number"),
    ("q", "0", "q: expected an integer, got a string"),
    ("name", 5, "name: expected a string, got an integer"),
    ("basis", "l,e1", "basis: expected a list, got a string"),
    ("basis", None, "basis: expected a list, got null"),
    ("flags", ["very_ample"], "flags: expected an object, got a list"),
    ("gram", {"0": [1]}, "gram: expected a list, got an object"),
])
def test_wrong_field_type_is_named_in_json_terms(capsys, tmp_path, field, value, message, fmt):
    # the message used to print the Python type: "expected <class 'int'>"
    doc = {"gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [2, -1]}
    doc[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert _validation_error(err, fmt) == message


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("extra, code", [(0, 0), (1, 1)], ids=["at-cap", "past-cap"])
def test_document_rank_is_capped(capsys, tmp_path, extra, code, fmt):
    # the plane blown up at MAX_RANK - 1 + extra points; past the cap the
    # document is refused before any O(rank^2) work on it
    rank = catalog.MAX_RANK + extra
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 1 if i == 0 else -1
    doc = {"gram": gram, "K": [-3] + [1] * (rank - 1), "h": [10] + [-1] * (rank - 1)}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    got, out, err = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
    if code == 0:
        assert (got, err) == (0, "") and out
    else:
        assert (got, out) == (1, "")
        assert _validation_error(err, fmt) == f"gram: more than {catalog.MAX_RANK} rows"


def test_anticanonical_document_gets_the_builtin_info(capsys, tmp_path):
    # del-pezzo-7 as a document that leaves non_special to its kind,
    # blowup_p2:anticanonical; info used to report N as unavailable while
    # classify derived the flag
    code, text, _ = invoke(capsys, "convert", "--builtin", "del-pezzo-7")
    doc = json.loads(text)
    assert code == 0 and doc["kind"] == "blowup_p2:anticanonical"
    doc["flags"]["non_special"] = "unknown"
    doc["name"] = "dp7-document"
    path = tmp_path / "dp7.json"
    path.write_text(json.dumps(doc))
    for fmt in ("table", "json"):
        got = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
        want = invoke(capsys, "info", "--builtin", "del-pezzo-7", "--format", fmt)
        assert got[0] == want[0] == 0
        assert got[1].replace("dp7-document", "del-pezzo-7") == want[1]
    data = json.loads(got[1])
    assert data["N"] == 7 and data["embedding_sanity"]["passed"] is True
    code, out, _ = invoke(capsys, "classify", "--surface", str(path), "--format", "json")
    assert json.loads(out)["special_rank2_exists"] == "true"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_box_with_oversized_tables_exits_1(capsys, tmp_path, fmt):
    # the sum of two hyperbolic planes has signature (2, 2), so no interval
    # clips its box: at --bound 250000 the tables would hold 4 * 500001
    # entries, some 0.2 GB
    doc = {"gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
           "K": [0, 0, 0, 0], "h": [1, 1, 0, 0]}
    path = tmp_path / "hyperbolic.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(
        capsys, "enumerate", "--surface", str(path), "--bound", "250000", "--format", fmt
    )
    assert code == 1 and out == ""
    message = _validation_error(err, fmt, "BoxTooLarge")
    assert message == "2000004 search table entries exceed cap 1000000"


@pytest.mark.parametrize("name,bound,count", [
    # one box point, whose requested tables of 2 * 10^6 + 1 entries used to
    # be refused
    ("p2-1", "1000000", 1),
    # the 262,144 points of --bound 4 to 10, whose requested box of 23^6
    # points used to be refused
    ("del-pezzo-3", "11", 72),
])
def test_limits_count_the_clipped_box(capsys, name, bound, count):
    code, out, err = invoke(
        capsys, "enumerate", "--builtin", name, "--bound", bound, "--format", "json"
    )
    assert (code, err) == (0, "") and json.loads(out)["count"] == count


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("bound", ["0", "-2"])
def test_bound_below_one_is_out_of_range(capsys, fmt, bound):
    # a search bound is not a polarization: this used to be
    # InvalidPolarization, which blames the surface
    code, out, err = invoke(
        capsys, "enumerate", "--builtin", "del-pezzo-7", f"--bound={bound}", "--format", fmt
    )
    assert code == 1 and out == ""
    message = _validation_error(err, fmt, "OutOfRange")
    assert message == f"bound must be >= 1, got {bound}"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_degenerate_line_locus_exits_1(capsys, tmp_path, fmt):
    # the quadratic along the solution line of D.h = r vanishes identically
    # (A = B = C = 0), so every point of the line is a solution
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"gram": [[2, 0], [0, 0]], "K": [1, 0], "h": [1, 0], "q": 1}))
    code, out, err = invoke(capsys, "enumerate", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    message = _validation_error(err, fmt, "DegenerateForm")
    assert message == "infinitely many solutions along the linear locus"


# ---------------------------------------------------------------------------
# Integers from the command line: at most catalog.MAX_DIGITS digits

NINES = "9" * catalog.MAX_DIGITS  # the largest integer a request may read
OVER = NINES + "9"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv, error_type, message", [
    (["info", "--builtin", f"p2-{OVER}"], "OutOfRange",
     "p2-L: a parameter has more than 1000 digits"),
    (["info", "--builtin", "p2-" + "9" * 5000], "OutOfRange",
     "p2-L: a parameter has more than 1000 digits"),
    (["classify", "--builtin", f"hirzebruch-e1-a1-b{OVER}"], "OutOfRange",
     "hirzebruch-eE-aA-bB: a parameter has more than 1000 digits"),
    (["check-line", "--builtin", "p2-3", "--divisor=" + "9" * 4000], "ValidationError",
     "--divisor: more than 1000 digits"),
    (["check-line", "--builtin", "p1xp1-2-3", "--divisor", f"1,-{OVER}"], "ValidationError",
     "--divisor: more than 1000 digits"),
    (["check-rank", "--builtin", "p2-3", "--rank", "2", "--c1=" + "9" * 4000, "--c2", "1"],
     "ValidationError", "--c1: more than 1000 digits"),
    (["check-rank", "--builtin", "p2-3", "--rank", OVER, "--c1", "3", "--c2", "1"],
     "ValidationError", "--rank: more than 1000 digits"),
    (["check-rank", "--builtin", "p2-3", "--rank", "2", "--c1", "3", "--c2", f"-{OVER}"],
     "ValidationError", "--c2: more than 1000 digits"),
    (["enumerate", "--builtin", "p2-3", "--bound", OVER], "ValidationError",
     "--bound: more than 1000 digits"),
    (["clifford", "--a", "9" * 2200, "--m", "3"], "ValidationError",
     "--a: more than 1000 digits"),
    (["clifford", "--a", "4", "--m", OVER], "ValidationError",
     "--m: more than 1000 digits"),
], ids=["p2-L", "p2-L-5000", "hirzebruch-b", "divisor-4000", "divisor", "c1-4000",
        "rank", "c2", "bound", "a-2200", "m"])
def test_integer_over_the_digit_cap_exits_1(capsys, argv, error_type, message, fmt):
    code, out, err = invoke(capsys, *argv, "--format", fmt)
    assert code == 1 and out == ""
    assert _validation_error(err, fmt, error_type) == message


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["info", "classify", "special-chern"])
@pytest.mark.parametrize("field, vector", [
    ("h[0]", {"h": [10**3000 - 1, 1]}),
    ("K[1]", {"K": [-3, -(10**3000 - 1)]}),
])
def test_document_vector_entry_over_the_digit_cap_exits_1(
    capsys, tmp_path, fmt, command, field, vector
):
    # json.loads reads up to 4300 digits; h^2 of this h has 6000, and
    # printing it used to exit 3
    doc = {"gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [2, -1], **vector}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, command, "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert _validation_error(err, fmt) == f"{field}: more than 1000 digits"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_document_vector_entry_at_the_digit_cap_is_answered(capsys, tmp_path, fmt):
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [int(NINES), 1]}))
    code, out, err = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    assert str(int(NINES) ** 2 - 1) in out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_largest_allowed_integers_are_answered(capsys, fmt):
    big = int(NINES)
    c1 = ",".join([NINES, f"-{NINES}"] * 5)
    requests = [
        (["info", "--builtin", f"p2-{NINES}"], 0),
        (["info", "--builtin", f"kim-{NINES}-9"], 0),
        (["check-rank", "--builtin", f"kim-{NINES}-9", "--rank", NINES,
          "--c1", c1, "--c2", f"-{NINES}"], 2),
        (["check-line", "--builtin", f"p1xp1-{NINES}-{NINES}",
          "--divisor", f"{NINES},-{NINES}"], 2),
        (["clifford", "--a", NINES, "--m", "9"], 0),
    ]
    outputs = []
    for argv, expected in requests:
        code, out, err = invoke(capsys, *argv, "--format", fmt)
        assert (code, err) == (expected, ""), argv
        outputs.append(out)
    if fmt == "json":
        info, *_, clifford = map(json.loads, outputs)
        assert (info["h2"], info["hK"]) == (big * big, -3 * big)
        assert clifford["g"] == (3 * big - 4) * (3 * big - 5) // 2 - 9
    # the box of del-pezzo-3 is clipped to its intervals, 262,144 points
    code, out, err = invoke(
        capsys, "enumerate", "--builtin", "del-pezzo-3", "--bound", NINES, "--format", fmt
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["count"] == 72


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("value", [["true"], {"value": "true"}, 1, True],
                         ids=["list", "object", "number", "json-true"])
def test_non_string_flag_value_is_a_validation_error(capsys, tmp_path, value, fmt):
    # a list or an object used to exit 3: unhashable in the tristate lookup
    path = tmp_path / "flags.json"
    path.write_text(json.dumps({
        "gram": [[1, 0], [0, -1]], "K": [-3, 1], "h": [1, 0], "flags": {"very_ample": value},
    }))
    code, out, err = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert _validation_error(err, fmt) == 'flags.very_ample: expected "true", "false" or "unknown"'


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("field,value", [
    ("pg", int("9" * 4300)),
    ("pg", -int(OVER)),
    ("q", int(OVER)),
    ("kind", "p2:" + "9" * 4000),
    ("kind", f"hirzebruch:1,1_{NINES},3"),
], ids=["pg-4300", "pg-negative", "q", "p2-lambda-4000", "hirzebruch-b-underscored"])
def test_document_count_or_kind_parameter_over_the_digit_cap_exits_1(
    capsys, tmp_path, field, value, fmt
):
    # a 4300-digit pg gave chi 4301 digits, and the kind mismatch message
    # printed lambda^2: both exited 3 when the number was printed
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gram": [[1]], "K": [-3], "h": [1], field: value}))
    code, out, err = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert _validation_error(err, fmt) == f"{field}: more than 1000 digits"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_document_counts_and_kind_parameter_at_the_digit_cap_are_answered(capsys, tmp_path, fmt):
    big = int(NINES)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gram": [[1]], "K": [-3], "h": [1], "pg": big}))
    code, out, err = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["chi"] == 1 + big
    path.write_text(json.dumps({"gram": [[1]], "K": [-3], "h": [1], "pg": big, "q": big}))
    code, out, err = invoke(capsys, "convert", "--surface", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    assert (json.loads(out)["pg"], json.loads(out)["q"]) == (big, big)
    path.write_text(json.dumps({"gram": [[1]], "K": [-3], "h": [1], "kind": f"p2:{NINES}"}))
    code, out, err = invoke(capsys, "info", "--surface", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert _validation_error(err, fmt).endswith(f"{(1, big * big, -3 * big, 9)}, the document has (1, 1, -3, 9)")


# ---------------------------------------------------------------------------
# Unexpected exceptions


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_unexpected_exception_exits_3_without_traceback(capsys, monkeypatch, fmt):
    def broken(args):
        raise RuntimeError("something broke")

    # the shared parser binds the command functions when it is built
    monkeypatch.setattr(cli, "cmd_info", broken)
    cli._shared_parser.cache_clear()
    try:
        code, out, err = invoke(capsys, "info", "--builtin", "p2-1", "--format", fmt)
    finally:
        cli._shared_parser.cache_clear()
    assert code == cli.EXIT_INTERNAL == 3 and out == ""
    if fmt == "json":
        assert json.loads(err) == {"error": {
            "category": "internal", "type": "RuntimeError", "message": "something broke",
        }}
    else:
        assert err == "error (RuntimeError): something broke\n"


# ---------------------------------------------------------------------------
# One output path: run alone prints, and a closed stdout is no error


def _writers(tree) -> set[str]:
    """Names of the functions that call print or a method of sys.stdout or
    sys.stderr."""
    def writes(call):
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "print"
        target = func.value if isinstance(func, ast.Attribute) else None
        return (
            isinstance(target, ast.Attribute) and target.attr in ("stdout", "stderr")
            and isinstance(target.value, ast.Name) and target.value.id == "sys"
        )

    return {
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function) if isinstance(call, ast.Call) and writes(call)
    }


def test_only_run_and_the_error_reporter_write_output():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writers = _writers(tree)
    assert "run" in writers
    assert writers <= {"run", "_report_error", "main"}


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv, expected", [
    (["catalog", "list"], 0),
    (["classify", "--builtin", "bordiga"], 0),
    (["convert", "--builtin", "kim-4-9"], 0),
    (["check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,5"], 0),
    (["check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,4"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_closed_stdout_keeps_the_command_exit_code(capsys, monkeypatch, argv, expected, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run([*argv, "--format", fmt]) == expected
    assert capsys.readouterr().err == ""


def _main(argv, unbuffered="", reader_gone=True):
    """Run cli.main in a fresh interpreter, stdout into a pipe whose read
    end is closed (reader_gone) or read to its end; returns the exit code,
    stdout and stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    program = (
        "import sys; from ulrichsurf.cli import main; "
        f"sys.argv = ['ulrichsurf', *{argv!r}]; main()"
    )
    if not reader_gone:
        done = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, env=env, timeout=60,
        )
        return done.returncode, done.stdout, done.stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", program], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    return done.returncode, b"", done.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_main_with_the_reader_gone_exits_0_and_says_nothing(unbuffered):
    # buffered, the pipe breaks at the flush, and again at the interpreter's
    # flush on exit; unbuffered, it breaks at the write.  argparse's help
    # leaves run by SystemExit, with the text still in stdout's buffer.
    for argv in (["catalog", "list"], ["--help"], ["classify", "--help"]):
        code, _, err = _main(argv, unbuffered)
        assert (code, err) == (0, b""), argv
    # a usage error keeps its exit code and its usage line on stderr
    code, _, err = _main(["check-line", "--builtin", "p2-1"], unbuffered)
    assert code == 1
    assert err.startswith(b"usage: ulrichsurf check-line")
    assert b"the following arguments are required: --divisor" in err


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_main_delivers_the_whole_help_to_a_reader(capsys, argv):
    with pytest.raises(SystemExit):
        run(argv)
    expected = capsys.readouterr().out
    assert _main(argv, reader_gone=False) == (0, expected.encode(), b"")


# ---------------------------------------------------------------------------
# Usage errors and the shared parser


def test_usage_error_exits_1_with_usage_on_stderr(capsys):
    with pytest.raises(SystemExit) as info:
        run(["check-line", "--builtin", "p2-1"])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: ulrichsurf check-line")
    assert "the following arguments are required: --divisor" in captured.err
    for argv in (["enumerate", "--builtin", "p2-1", "--bound", "x"], ["no-such-command"], []):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 1
        assert "usage: ulrichsurf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["info", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ulrichsurf")


def _outcome(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SEQUENCE = (
    ["classify", "--builtin", "bordiga", "--format", "json"],
    ["enumerate", "--builtin", "p1xp1-2-3", "--bound", "6"],
    ["info", "--builtin", "p1xp1-0-3", "--format", "json"],
    ["check-line", "--builtin", "p2-1"],
    ["check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,5"],
)


def test_reused_parser_answers_each_call_as_if_alone(capsys):
    alone = []
    for argv in SEQUENCE:
        cli._shared_parser.cache_clear()
        alone.append(_outcome(capsys, argv))
    in_sequence = [_outcome(capsys, argv) for argv in SEQUENCE]
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 1, 1, 0]
    assert json.loads(alone[0][1])["ulrich_wild"] == "true"
    assert "count: 2\n" in alone[1][1]
    assert json.loads(alone[2][2])["error"]["category"] == "validation"
    assert alone[3][2].startswith("usage: ")


def test_build_parser_runs_once_per_process(capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    for argv in SEQUENCE * 4:
        _outcome(capsys, argv)
    assert len(calls) == 1
    cli._shared_parser.cache_clear()


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_repeated_requests_on_one_builtin_answer_as_the_first(capsys, fmt):
    # the first request resolves table1-row-5, the later ones reuse it
    requests = [
        [command, "--builtin", "table1-row-5", "--format", fmt]
        for command in ("info", "classify", "special-chern", "convert")
    ] + [
        ["check-rank", "--builtin", "table1-row-5", "--rank", "2", "--c1",
         "18,-5,-5,-5,-5,-5,-5,-2,-2,-2,-2,-2", "--c2", "1", "--format", fmt],
        ["enumerate", "--builtin", "table1-row-5", "--bound", "1", "--format", fmt],
        ["catalog", "verify", "--format", fmt],
    ]
    catalog.builtin_surface.cache_clear()
    first = [_outcome(capsys, argv) for argv in requests]
    assert [_outcome(capsys, argv) for argv in requests * 3] == first * 3
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 0, 0]


# ---------------------------------------------------------------------------
# The option table: the same parse as the top-level parser's parse_args


def _parsed(capsys, parse, argv):
    """vars of the namespace, or the exit code, plus stdout and stderr."""
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


COMMANDS = (
    ["info", "--builtin", "del-pezzo-3"],
    ["check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,5"],
    ["check-rank", "--builtin", "del-pezzo-3", "--rank", "2",
     "--c1", "6,-2,-2,-2,-2,-2,-2", "--c2", "5"],
    ["enumerate", "--builtin", "p1xp1-2-3"],
    ["enumerate", "--builtin", "del-pezzo-5", "--bound", "2"],
    ["special-chern", "--builtin", "enriques-10"],
    ["classify", "--builtin", "bordiga"],
    ["catalog", "list"],
    ["catalog", "verify"],
    ["clifford", "--a", "4", "--m", "9"],
    ["convert", "--builtin", "p2-2"],
)
TRICKY = (
    [], ["-h"], ["--help"], ["info", "-h"], ["info", "--help"],
    ["bogus"], ["inf"], ["--format", "json", "info"],
    ["info", "--bogus", "x"],
    ["info", "--builtin", "p2-1", "--form", "json"],
    ["info", "--builtin", "p2-1", "--format=xml"],
    ["check-line", "--builtin", "p2-1"],
    ["info", "--", "x"],
    ["info", "--builtin", "p2-1", "--builtin", "p2-2"],
    ["check-line", "--builtin", "p1xp1-2-3", "--divisor=-1"],
)
DISPATCH_CASES = [
    argv + ["--format", fmt] for argv in COMMANDS for fmt in ("table", "json")
] + list(TRICKY)


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=" ".join)
def test_direct_dispatch_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    reference = _parsed(capsys, cli.build_parser().parse_args, argv)
    assert _parsed(capsys, cli._parse_args, argv) == reference
    # and the whole request: exit code, stdout and stderr
    expected = _outcome(capsys, list(argv))
    monkeypatch.setattr(cli, "_parse_args", lambda a: cli.build_parser().parse_args(a))
    assert _outcome(capsys, list(argv)) == expected


_SUBPARSERS = next(
    action.choices for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
OPTION_STRINGS = sorted({
    option for subparser in _SUBPARSERS.values()
    for action in subparser._actions for option in action.option_strings
})
ABBREVIATIONS = sorted({
    option[:end] for option in OPTION_STRINGS if option.startswith("--")
    for end in range(3, len(option))
})
VALUES = [
    "", "-", "-3", "-1,5", "json", "xml", "table", " 5", "1_0", "x=y", "--",
    "9" * 1001, "-" + "9" * 1001, "2", "1,5", "list", "verify", "p2-1", "p1xp1-2-3",
]
# values that some option accepts
GOOD_VALUES = ["json", "table", "2", " 5", "1_0", "1,5", "p2-1", "list", "verify"]
WORDS = [*_SUBPARSERS, *OPTION_STRINGS, *ABBREVIATIONS, "-h", "--help", "--", "--bogus", *VALUES]
_WORD = st.sampled_from(WORDS) | st.builds(
    "{}={}".format, st.sampled_from(OPTION_STRINGS + ABBREVIATIONS), st.sampled_from(VALUES)
)


def _extended(line):
    """line with words appended: mostly its command's own options with a
    value, separate or after "=", so that many lines stay well formed,
    and stray words, repeats and missing values among them."""
    subparser = _SUBPARSERS.get(line[0])
    own = OPTION_STRINGS if subparser is None else sorted(
        option for action in subparser._actions for option in action.option_strings
    )
    pair = st.tuples(st.sampled_from(own), st.sampled_from(GOOD_VALUES) | st.sampled_from(VALUES))
    chunk = pair | pair.map(lambda words: ("=".join(words),)) | st.tuples(_WORD)
    return st.lists(chunk, max_size=4).map(
        lambda chunks: [*line, *(word for words in chunks for word in words)]
    )


# a well-formed line or a single word, then extended
ARGVS = (st.sampled_from(COMMANDS) | st.sampled_from(WORDS).map(lambda word: [word])).flatmap(
    _extended
)


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ARGVS)
@example(["check-line", "--builtin", "p2-1", "--divisor", "-1,5"])
@example(["check-rank", "--builtin", "p2-1", "--rank", "2", "--c1", "1", "--c2", "-3"])
@example(["info", "--builtin", "--"])
@example(["info", "--builtin=--"])
@example(["info", "--builtin", "-"])
@example(["info", "--builtin", ""])
@example(["catalog", "list", "verify"])
@example(["catalog", "--format", "xml", "list"])
@example(["clifford", "--a", "9" * 1001, "--m", "1_0"])
def test_option_table_parses_as_the_top_level_parser(capsys, argv):
    reference = _parsed(capsys, cli.build_parser().parse_args, argv)
    assert _parsed(capsys, cli._parse_args, argv) == reference


def test_run_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["classify", "--builtin", "bordiga", "--format", "json"]
    expected = _outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["ulrichsurf", *argv])
    assert _outcome(capsys, None) == expected
    assert expected[0] == 0 and json.loads(expected[1])["ulrich_wild"] == "true"


# ---------------------------------------------------------------------------
# The JSON writer: the text of json.dumps(value, indent=2)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40) | st.text(),
    lambda children: (
        st.lists(children) | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    object(), 3 / 2, [1, {"x": 3 / 2}], {"x": {1, 2}},
    # json.dumps would write the key as "1"; the commands only emit str keys
    {1: "one"},
], ids=["object", "fraction", "nested-fraction", "set", "int-key"])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value)
