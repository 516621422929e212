"""Every error class the package defines is raised somewhere in it."""

import ast
from pathlib import Path

import ulrichsurf

PACKAGE = Path(ulrichsurf.__file__).parent


def _error_classes() -> set[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {"UlrichSurfError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in classes for base in node.bases
        ):
            classes.add(node.name)
    return classes - {"UlrichSurfError"}


def _raised_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    classes = _error_classes()
    assert {"ParityViolation", "DegenerateForm", "ValidationError"} <= classes
    assert sorted(classes - _raised_names()) == []
