"""The package runs on the standard library alone.

Every ``import`` and ``from ... import`` anywhere in ``src/cascade_forge``,
at module level or inside a function, names a standard-library module or
``cascade_forge`` itself (relative imports stay inside the package).
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cascade_forge"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, PACKAGE
    foreign = [
        f"{path.relative_to(PACKAGE)}:{lineno}: {root}"
        for path in modules
        for lineno, root in imported_roots(ast.parse(path.read_text("utf-8"), str(path)))
        if root != "cascade_forge" and root not in sys.stdlib_module_names
    ]
    assert foreign == []
