"""Correctness checks in the package must survive ``python -O``, which
strips ``assert`` statements, and must say what failed: they raise a named
error, never a bare ``AssertionError``."""
import ast
from pathlib import Path

import pytest

import torsionkit

MODULES = sorted(Path(torsionkit.__file__).parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and _raises_assertion_error(node)
    ]
    assert not lines, f"{path.name}: raise AssertionError at lines {lines}"
