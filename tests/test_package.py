from __future__ import annotations

import ast
from pathlib import Path

import boltvision


def test_all_names_resolve_without_duplicates():
    names = boltvision.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(boltvision, n)]
    assert missing == []
    ns: dict = {}
    exec("from boltvision import *", ns)
    assert set(names) <= set(ns)


def test_no_private_imports_across_modules():
    # a module's _underscore names are its own; a sibling that needs one
    # should get a public entry point instead
    found = []
    for path in sorted(Path(boltvision.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("boltvision"):
                continue
            found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []
