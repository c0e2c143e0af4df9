"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import dxcouncil


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant guarded by one
    # would go unchecked; the package raises EngineError subclasses instead
    package = Path(dxcouncil.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
