"""The runtime imports nothing outside the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import prophet_order

PACKAGE_DIR = Path(prophet_order.__file__).parent


def imported_roots(tree: ast.AST) -> list[str]:
    """Top-level module of every absolute import; a relative import is the package's own."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.extend(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.partition(".")[0])
    return roots


def test_every_runtime_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = [
            root for root in imported_roots(tree)
            if root not in sys.stdlib_module_names and root != "prophet_order"
        ]
        assert foreign == [], path.name
