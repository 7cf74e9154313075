"""The names the benchmark harness reaches into must keep existing.

``perfbench/tracing.py`` rebinds the functions it lists in ``TRACED`` and
reads the caches of those in ``CACHED``, and the modules of ``perfbench``
import names from ``torsionkit``; a rename or a dropped cache would only
show when the benchmark runs.  These tests read those files as text (they
import nothing from ``perfbench``) and check the names against the library.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _constant(name):
    """The literal value assigned to ``name`` at the top level of tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING}")


def _lookup(entry):
    module, name = entry
    return getattr(importlib.import_module(f"torsionkit.{module}"), name)


@pytest.mark.parametrize("entry", _constant("TRACED"), ids=".".join)
def test_traced_function_exists(entry):
    assert callable(_lookup(entry))


@pytest.mark.parametrize(
    "entry", _constant("CACHED") + (("cyclofield", "cyclotomic_polynomial"),), ids=".".join
)
def test_cached_function_keeps_its_cache(entry):
    fn = _lookup(entry)
    assert callable(fn.cache_info) and callable(fn.cache_clear)


def _imported_names():
    """Every (module, name) of a ``from torsionkit.<module> import <name>`` in perfbench."""
    pairs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torsionkit."):
                module = node.module.removeprefix("torsionkit.")
                pairs.update((module, alias.name) for alias in node.names)
    return sorted(pairs)


@pytest.mark.parametrize("entry", _imported_names(), ids=".".join)
def test_imported_name_exists(entry):
    _lookup(entry)
