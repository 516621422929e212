"""No floating point in the package: every verdict and solution is exact.

An ast scan of every module rejects float and complex literals, true
division (``/`` and ``/=``) and any name, attribute or import called
``float``, ``truediv`` or ``sqrt``.  The exact integer square root
``math.isqrt`` and floor division stay allowed.
"""

import ast
from pathlib import Path

import pytest

import ulrichsurf

PACKAGE = Path(ulrichsurf.__file__).parent
FORBIDDEN_NAMES = {"float", "truediv", "sqrt"}


def inexact_nodes(source: str) -> list[str]:
    """One line per construct of ``source`` that could bring in a float."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: attribute {node.attr}")
        elif isinstance(node, ast.alias) and node.name in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: import {node.name}")
    return found


@pytest.mark.parametrize("source", [
    "x = 0.5", "x = 1e3", "x = 2j", "x = a / b", "a /= b", "x = float(n)",
    "from operator import truediv", "from math import sqrt as root",
    "import math\nx = math.sqrt(n)", "x = isinstance(v, float)",
])
def test_guard_flags_inexact_source(source):
    assert len(inexact_nodes(source)) == 1


@pytest.mark.parametrize("source", [
    "x = a // b", "a //= b", "from math import isqrt\nx = isqrt(n)",
    "x = 'a / b and float'", "from fractions import Fraction",
])
def test_guard_allows_exact_source(source):
    assert inexact_nodes(source) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_is_float_free(module):
    assert inexact_nodes((PACKAGE / module).read_text()) == []
