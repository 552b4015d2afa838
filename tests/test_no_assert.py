"""Package hygiene: typed errors that survive ``python -O``, no dead imports or helpers.

A bare ``assert`` is stripped under ``-O``, so no module of the package may
contain one.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "batchsvd"


def test_package_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert statements in the package: {found}"


def test_package_has_no_unused_imports():
    # a deletion can leave its helpers' imports behind; __init__.py imports
    # only to re-export, and __future__ imports are compiler directives
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"unused imports in the package: {unused}"


def test_package_has_no_dead_private_helpers():
    # a deletion can also leave a private helper behind that only its tests
    # still call; every private function or class must have a reader in the
    # package, by name or as an attribute
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [where for where in defined if where.split()[-1] not in used]
    assert not dead, f"private helpers nothing in the package uses: {dead}"
