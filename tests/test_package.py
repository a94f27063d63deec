from __future__ import annotations

import ast
import inspect
from collections import Counter
from pathlib import Path

import boltvision
from boltvision import cli, pipeline


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


def test_stages_take_their_constants_from_the_config():
    # PipelineConfig is the one home of a stage constant's default and check
    found = [
        f"{fn.__name__}({p.name})"
        for fn in (pipeline.remove_head, pipeline.classify_threading, pipeline.estimate_pitch)
        for p in inspect.signature(fn).parameters.values()
        if p.name != "cfg" and p.default is not p.empty
    ]
    assert found == []


def test_one_csv_reader():
    # csvrows.py alone splits CSV fields, so tables, catalogs and
    # manifests keep one set of format rules
    found = []
    for path in sorted(Path(boltvision.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "split" and node.args
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == ","):
                found.append(f"{path.name}:{node.lineno}")
    assert found and all(f.startswith("csvrows.py:") for f in found)


def test_cli_reads_frames_in_one_place():
    # every verb turns a frame into parts through one reader, so they
    # share one area floor and one rule for a frame that holds no part
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = Counter(
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    )
    names = ("read_pgm", "threshold", "connected_components")
    assert {n: calls[n] for n in names} == dict.fromkeys(names, 1)
