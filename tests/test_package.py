from __future__ import annotations

import boltvision


def test_all_names_resolve_without_duplicates():
    names = boltvision.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(boltvision, n)]
    assert missing == []
    ns: dict = {}
    exec("from boltvision import *", ns)
    assert set(names) <= set(ns)
