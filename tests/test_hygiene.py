"""Source hygiene: every name a horocover module imports is referenced,
and every layer the benchmark tracer patches exists."""

import ast
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "horocover"
# the package __init__ imports only to re-export
MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never references;
    `from __future__` imports are compiler directives, not names."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            bound += [(a.asname or a.name).partition(".")[0]
                      for a in node.names]
    return [name for name in bound if name not in used]


def test_detector_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import mpmath\n"
              "from fractions import Fraction as F, gcd\n"
              "def f():\n"
              "    from math import inf\n"
              "    return mpmath.mpf(1), F(1)\n")
    assert unused_imports(source) == ["os", "os", "gcd", "inf"]


def test_modules_found():
    assert "thin_cover.py" in [p.name for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _traced():
    """perfbench/spans.py's TRACED list, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module,attr", _traced())
def test_traced_layer_exists(module, attr):
    # `--trace 1` patches each of these by name, so a deleted or renamed
    # one breaks the traced benchmark
    owner = importlib.import_module("horocover." + module)
    assert callable(reduce(getattr, attr.split("."), owner))
