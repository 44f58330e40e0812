"""The package's one declared runtime dependency is numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "timekge"


def absolute_imports(tree: ast.AST):
    """``(line, top-level name)`` of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    allowed = sys.stdlib_module_names | {"numpy"}
    undeclared = [f"{path.name}:{line}: {name}"
                  for path in sources
                  for line, name in absolute_imports(ast.parse(path.read_text(), str(path)))
                  if name not in allowed]
    assert undeclared == []


def test_an_undeclared_import_is_caught():
    tree = ast.parse("import numpy.linalg\nfrom scipy import special\nfrom . import x\n"
                     "def f():\n    import pandas as pd\n")
    assert list(absolute_imports(tree)) == [(1, "numpy"), (2, "scipy"), (5, "pandas")]
