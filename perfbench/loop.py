"""Closed-loop runner for one benchmark run, in a process of its own.

One client and one thread: each op is one in-process call of
``boltvision.cli.main`` and the next starts when it returns.  This
process does no set-up work, so its peak resident memory is the
program's.  Every op, warm-up included, goes through the truth gate;
only ops after the warm-up are timed, and the host-speed kernel
(hostspeed.py) is timed before each of them and after the last.

Usage: python3 loop.py PLAN.json RESULT.json [SPANS.csv]
Giving SPANS.csv turns on the tracer and writes the spans there.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback

import hostspeed

# warm-up runs ops until this much time has passed, and at least one op
WARMUP_S = 1.5


def _peak_rss_kb() -> int:
    # VmHWM starts afresh at exec; getrusage's ru_maxrss would also count
    # the parent's pages this process held between fork and exec
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(plan: dict, tracer=None) -> dict:
    from boltvision import cli

    import workloads

    ops = plan["ops"]
    attempted = 0
    failures: dict[str, int] = {}
    op_ms: list[float] = []
    kernel_ms: list[float] = []
    parts: list[int] = []

    def one(op: dict) -> float:
        nonlocal attempted
        with contextlib.suppress(FileNotFoundError):
            os.unlink(op["out"])
        t0 = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except Exception:
            # a crash is a failed op, not a harness failure
            traceback.print_exc()
            rc = -1
        ms = (time.perf_counter() - t0) * 1000.0
        attempted += len(op["parts"])
        for label in workloads.check(op, rc):
            failures[label] = failures.get(label, 0) + 1
        return ms

    i = 0
    start = time.perf_counter()
    while i == 0 or time.perf_counter() - start < WARMUP_S:
        one(ops[i % len(ops)])
        i += 1
    warmup_ops = i
    if tracer is not None:
        tracer.reset()

    i = 0
    start = time.perf_counter()
    while i == 0 or time.perf_counter() - start < plan["seconds"]:
        op = ops[i % len(ops)]
        kernel_ms.append(hostspeed.kernel_ms())
        op_ms.append(one(op))
        parts.append(len(op["parts"]))
        i += 1
    kernel_ms.append(hostspeed.kernel_ms())

    result = {
        "op_ms": op_ms,
        "kernel_ms": kernel_ms,
        "parts": parts,
        "warmup_ops": warmup_ops,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        result["trace"] = {
            "totals": tracer.totals(),
            "counts": dict(tracer.counts),
        }
    return result


def main(argv: list[str]) -> int:
    plan_path, result_path, *spans = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    if spans:
        from tracer import Tracer

        with Tracer() as tracer:
            result = run(plan, tracer)
        tracer.write_spans(spans[0])
    else:
        result = run(plan)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
