"""The package runs on the standard library alone, and imports nothing it leaves unused.

Every ``import`` and ``from ... import`` anywhere in ``src/cascade_forge``,
at module level or inside a function, names a standard-library module or
``cascade_forge`` itself (relative imports stay inside the package).

Every name a module binds by a module-level import is read in that
module, or its import line says ``# noqa: F401``; ``__init__.py``
re-exports and is exempt.  The benchmark's tracer counts the bindings of
the functions it wraps, so a leftover import would change its counts.
That is the only reason for such an import: each one binds a function
that ``perfbench/tracing.WRAPPED`` pins, so once the pins go, the import
fails here instead of lingering.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cascade_forge"
TRACING = ROOT / "perfbench" / "tracing.py"


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


def unused_bindings(tree, lines):
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                yield alias.lineno, name


def test_package_modules_read_every_name_they_import():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules, PACKAGE
    unused = []
    for path in modules:
        text = path.read_text("utf-8")
        tree = ast.parse(text, str(path))
        unused += [f"{path.name}:{lineno}: {name}" for lineno, name in unused_bindings(tree, text.splitlines())]
    assert unused == []


def test_package_keeps_an_unread_import_only_for_a_traced_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    kept = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text("utf-8")
        lines = text.splitlines()
        for node in ast.parse(text, str(path)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                kept += [
                    (path.name, module.removeprefix("cascade_forge."), alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                ]
    assert [k for k in kept if k[1:] not in tracing.WRAPPED] == []
    assert sorted(kept) == [
        ("proposers.py", "metrics", "reward"),
        ("search.py", "metrics", "reward_report"),
        ("synthgen.py", "rule_engine", "find_sites"),
    ]
