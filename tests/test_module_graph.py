"""The import graph among bfreg's modules, read from their source.

The parser owns every fact about constraint rows (prior center, parallel
pairs, implied rows), so ``hyparse`` needs nothing of bfreg but its
errors, and the kernel imports from it.  Every edge among the modules
sits at the top of a module, where a cold process's import time can be
measured, and none is hidden in a function body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bfreg"


def _bfreg_imports(tree):
    """``(line, module)`` of every import of a bfreg module under ``tree``,
    the module named relative to the package (``.errors``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.lineno, "." * node.level + (node.module or "")
            elif node.module and node.module.split(".")[0] == "bfreg":
                yield node.lineno, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bfreg":
                    yield node.lineno, alias.name


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def test_hyparse_imports_only_the_errors():
    assert [module for _, module in _bfreg_imports(_tree("hyparse.py"))] == [".errors"]


def test_no_function_body_imports_bfreg():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{line} {node.name} imports {module}"
                    for line, module in _bfreg_imports(node)
                ]
    assert found == []
