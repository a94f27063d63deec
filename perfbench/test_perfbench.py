"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from boltvision import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {"large-frame": 1, "queries": 3, "enroll-catalog": 3}


def _benchmark_json() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_match_the_pattern():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [name for name, _ in run.END_TO_END + run.PER_LAYER]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]


def test_benchmark_json_lists_what_the_harness_prints():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_end_to_end_at_a_tiny_size(workload, capsys):
    result = run.run_workload(workload, workloads.DEFAULT_SEEDS[workload], 0.2,
                              trace=True, size=TINY[workload])
    out = capsys.readouterr().out
    assert json.loads(json.dumps(result)) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["metrics"]["cli.main.self_ms"]["value"] > 0
    for name, unit in run.END_TO_END:
        assert re.search(rf"^  {re.escape(name)} +[0-9.]+ {re.escape(unit)}$", out, re.M)


def _swap_names(table: str) -> None:
    """Rotate the names of a table by one row, keeping the dimensions."""
    with open(table, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    body = [l.split(",") for l in lines[2:] if l]
    names = [r[0] for r in body]
    for row, name in zip(body, names[1:] + names[:1]):
        row[0] = name
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:2] + [",".join(r) for r in body]) + "\n")


def test_swapped_table_names_fail_the_queries_gate(tmp_path, capsys):
    ops, setup_reps = run.set_up("queries", 7, tmp_path, size=3)
    _swap_names(ops[0]["argv"][ops[0]["argv"].index("--table") + 1])
    plain = run.measure(ops, 0.2, tmp_path)
    result = run.summarize("queries", 7, setup_reps, plain)
    assert result["attempted"] >= 3
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "fail_frac 1.0000" in capsys.readouterr().out


def test_unparseable_output_fails_every_part(tmp_path):
    ops = workloads.setup_enroll_catalog(str(tmp_path), 0, size=2)
    Path(ops[0]["out"]).write_text("not a table\n")
    assert len(workloads.check(ops[0], 0)) == 2
    assert len(workloads.check(ops[0], 1)) == 2


def test_tracer_self_times_add_up_and_bindings_come_back(tmp_path):
    ops = workloads.setup_enroll_catalog(str(tmp_path), 0, size=1)
    original = cli.main
    with Tracer() as tracer:
        assert cli.main is not original
        assert cli.main(ops[0]["argv"]) == 0
    assert cli.main is original
    assert workloads.check(ops[0], 0) == []

    root = tracer.spans[0]
    assert root[0] == -1 and tracer.names[root[1]] == "cli.main"
    totals = tracer.totals()
    assert totals["identify.enroll"][1] == 1
    assert totals["identify.save_table"][1] == 1
    self_sum = sum(ms for ms, _ in totals.values())
    assert self_sum == pytest.approx((root[3] - root[2]) / 1e6, abs=1e-6)
