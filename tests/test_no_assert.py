"""Package invariants must raise typed errors that survive ``python -O``.

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
