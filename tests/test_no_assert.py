"""Package hygiene: typed errors that survive ``python -O``; no dead imports, helpers, globals
or exports.

A bare ``assert`` is stripped under ``-O``, so no module of the package may
contain one.
"""
import ast
import re
from pathlib import Path

import batchsvd

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src" / "batchsvd"


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


def test_every_export_has_a_reader():
    # API that neither the CLI, the README nor the tests need is deleted: each
    # exported name must be read by cli.py or a test module (other than this
    # one), or be named in README.md
    read = set()
    for path in [SRC / "cli.py"] + sorted(p for p in HERE.parent.glob("*.py") if p != HERE):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.asname or node.name)
    readme = (SRC.parent.parent / "README.md").read_text()
    unread = [name for name in batchsvd.__all__
              if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert not unread, f"exports nothing outside the package reads: {unread}"


def test_every_module_global_has_a_reader():
    # a module-level name (a constant, logger, function or class) must be read
    # in its own module or imported from it by another module of the package;
    # __init__.py re-exports, and dunders such as __all__ are read by Python
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    imported = {(node.module.lstrip("."), alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound[name.id] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}.py:{line} {name}" for name, line in bound.items()
                   if not name.startswith("__") and name not in read
                   and (module, name) not in imported]
    assert not unread, f"module globals nothing in the package reads: {unread}"
