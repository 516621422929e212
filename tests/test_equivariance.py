"""Answers do not depend on the basis a surface document is written in.

Each builtin's document is rewritten by seeded unimodular moves
b_i <- b_i +- b_j (documents.moved_document), keeping its kind and flags,
and read back with parse_surface.  On the moved surface, info, classify and
special-chern print the builtin's JSON (special-chern's c1 in the new
coordinates), check-line and check-rank give the builtin's report on the
mapped divisor or c1, line_dual and dual_twist commute with the change of
basis, and on rank <= 2 enumerate_rank2_exact returns the mapped solution
set.  A rank-1 lattice has no such move, so p2-2 checks the document round
trip alone.
"""

import contextlib
import functools
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from documents import move_coeffs, moved_document, unimodular_moves
from ulrichsurf import cli
from ulrichsurf.catalog import builtin_surface, parse_surface, serialize_surface
from ulrichsurf.enumeration import enumerate_bounded, enumerate_rank2_exact
from ulrichsurf.invariants import ChernData
from ulrichsurf.ulrich import dual_twist, line_dual, special_rank2_chern

BUILTINS = (
    "p2-2", "p1xp1-2-3", "p1xp1-1-2", "hirzebruch-e1-a1-b2", "hirzebruch-e2-a2-b5",
    "table1-row-1", "table1-row-3", "bordiga", "table1-row-2-printed",
    "del-pezzo-3", "del-pezzo-6", "enriques-10", "kim-4-2", "kim-5-5",
)
RANK2_BUILTINS = [name for name in BUILTINS if builtin_surface(name).lattice.rank <= 2]

SEEDS = st.integers(min_value=0, max_value=2**32)
EXAMPLES = settings(max_examples=5, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("moved")


def _moved(name, seed, workdir):
    """The builtin's document moved by 2 rank seeded moves: the path it is
    written to under workdir, the surface read back, and the moves."""
    S = builtin_surface(name)
    moves = unimodular_moves(random.Random(seed), S.lattice.rank, 2 * S.lattice.rank)
    document = moved_document(json.loads(serialize_surface(S)), moves)
    document["name"] = f"moved {name}"
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path, parse_surface(path.read_text(encoding="utf-8")), moves


def _printed(*argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([*argv, "--format", "json"])
    data = json.loads(out.getvalue())
    del data["surface"]
    return code, data


def _coeffs(D) -> str:
    """D as a coefficient list; options take it as --divisor=... in one
    word, so that a leading minus sign is not read as an option."""
    return ",".join(map(str, D))


@functools.cache
def _small_solutions(name) -> tuple:
    """The builtin's line-bundle solutions in the box [-2, 2], where that
    box has at most 5^6 points."""
    S = builtin_surface(name)
    if S.lattice.rank > 7:
        return ()
    return tuple(D.coeffs for D in enumerate_bounded(S, 2))


def _divisors(name):
    rank = builtin_surface(name).lattice.rank
    return st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)


@pytest.mark.parametrize("name", BUILTINS)
@EXAMPLES
@given(seed=SEEDS)
def test_reports_are_the_builtins(workdir, name, seed):
    path, _, moves = _moved(name, seed, workdir)
    for command in ("info", "classify", "special-chern"):
        code, expected = _printed(command, "--builtin", name)
        if command == "special-chern":
            expected["c1"] = move_coeffs(expected["c1"], moves)
        assert _printed(command, "--surface", str(path)) == (code, expected)


@pytest.mark.parametrize("name", BUILTINS)
@EXAMPLES
@given(seed=SEEDS, data=st.data())
def test_check_line_is_the_same_on_the_mapped_divisor(workdir, name, seed, data):
    path, _, moves = _moved(name, seed, workdir)
    for D in [data.draw(_divisors(name)), *_small_solutions(name)]:
        mapped = move_coeffs(D, moves)
        code, expected = _printed("check-line", "--builtin", name, f"--divisor={_coeffs(D)}")
        expected["divisor"] = mapped
        moved = _printed("check-line", "--surface", str(path), f"--divisor={_coeffs(mapped)}")
        assert moved == (code, expected)


@pytest.mark.parametrize("name", BUILTINS)
@EXAMPLES
@given(seed=SEEDS, data=st.data(), rank=st.integers(1, 4), c2=st.integers(-50, 50))
def test_check_rank_is_the_same_on_the_mapped_c1(workdir, name, seed, data, rank, c2):
    path, _, moves = _moved(name, seed, workdir)
    drawn = ChernData(rank, data.draw(_divisors(name)), c2)
    for F in (drawn, special_rank2_chern(builtin_surface(name))):
        mapped = move_coeffs(F.c1.coeffs, moves)
        options = (f"--rank={F.rank}", f"--c2={F.c2}")
        code, expected = _printed(
            "check-rank", "--builtin", name, f"--c1={_coeffs(F.c1.coeffs)}", *options
        )
        expected["c1"] = mapped
        moved = _printed(
            "check-rank", "--surface", str(path), f"--c1={_coeffs(mapped)}", *options
        )
        assert moved == (code, expected)


@pytest.mark.parametrize("name", BUILTINS)
@EXAMPLES
@given(seed=SEEDS, data=st.data(), rank=st.integers(1, 4), c2=st.integers(-50, 50))
def test_dualities_commute_with_the_change_of_basis(workdir, name, seed, data, rank, c2):
    _, moved, moves = _moved(name, seed, workdir)
    S = builtin_surface(name)
    D = data.draw(_divisors(name))
    mapped = move_coeffs(D, moves)
    assert list(line_dual(moved, mapped).coeffs) == move_coeffs(line_dual(S, D).coeffs, moves)
    F = dual_twist(S, ChernData(rank, D, c2))
    expected = ChernData(rank, move_coeffs(F.c1.coeffs, moves), F.c2)
    assert dual_twist(moved, ChernData(rank, mapped, c2)) == expected


@pytest.mark.parametrize("name", RANK2_BUILTINS)
@EXAMPLES
@given(seed=SEEDS)
def test_exact_solutions_map_to_the_moved_solutions(workdir, name, seed):
    _, moved, moves = _moved(name, seed, workdir)
    expected = {
        tuple(move_coeffs(D.coeffs, moves))
        for D in enumerate_rank2_exact(builtin_surface(name))
    }
    assert {D.coeffs for D in enumerate_rank2_exact(moved)} == expected
