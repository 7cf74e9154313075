"""Correctness checks in the package must survive ``python -O``, which
strips ``assert`` statements; they raise explicitly instead."""
import ast
from pathlib import Path

import pytest

import torsionkit

MODULES = sorted(Path(torsionkit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"
