"""Only invariants.py reads the auto-derived hypothesis flags directly.

Every other module asks invariants.hypothesis_flag, so that the rule which
fills in a flag from the surface kind has one home.
"""

import ast
from pathlib import Path

import ulrichsurf
from ulrichsurf.invariants import AUTO_DERIVED_FLAGS

PACKAGE = Path(ulrichsurf.__file__).parent


def _direct_reads(source: str) -> list[str]:
    """Lines that read X.flags.<flag> or getattr(X.flags, "<flag>") for an
    auto-derived flag."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner, flag = node.value, node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            owner, flag = node.args[0], node.args[1].value
        else:
            continue
        if (
            flag in AUTO_DERIVED_FLAGS
            and isinstance(owner, ast.Attribute)
            and owner.attr == "flags"
        ):
            reads.append(f"line {node.lineno}: flags.{flag}")
    return reads


def test_guard_sees_both_forms_of_read():
    source = (
        "a = S.flags.non_special\n"
        "b = getattr(S.flags, 'h0_2K_minus_h_zero')\n"
        "c = S.flags.very_ample\n"
        "d = hypothesis_flag(S, 'non_special')\n"
    )
    assert _direct_reads(source) == [
        "line 1: flags.non_special", "line 2: flags.h0_2K_minus_h_zero",
    ]


def test_only_invariants_reads_auto_derived_flags():
    reads = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "invariants.py"
        and (found := _direct_reads(path.read_text()))
    }
    assert reads == {}
