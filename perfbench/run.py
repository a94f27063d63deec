"""Benchmark for boltvision: three CLI workloads timed from PGM bytes to report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-frame --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Set-up renders the workload's frames from the seed and writes them (and
for ``queries`` enrolls the table); it is done SETUP_REPS times and the
median is ``setup_s``.  A child process (loop.py) then drives
``boltvision.cli.main`` in a closed loop for --seconds and checks every
output against the renderer's ground truth.  With --trace 1 a second
child repeats the loop with every layer function wrapped in a span, and
the per-layer metrics replace the end-to-end ones.  Every time reported
is scaled to the fast state of the host (see hostspeed.py); the raw
figures are printed beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 on success, 1 when
a run could not complete, 2 on bad arguments or a checkout without
boltvision's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("large-frame", "queries", "enroll-catalog")
SETUP_REPS = 3
# op_ms_p90 needs at least 10 samples beyond it
P90_MIN_OPS = 100

# (name, unit); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("parts_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# public layer functions that some workload reaches
LAYER_FUNCTIONS = (
    "imagecore.read_pgm",
    "imagecore.threshold",
    "imagecore.otsu_level",
    "imagecore.connected_components",
    "imagecore.count_white",
    "imagecore.crop",
    "imagecore.rotate180",
    "geometry.trace_contour",
    "geometry.arc_length",
    "geometry.convex_hull",
    "geometry.min_area_rect",
    "geometry.rect_of_mask",
    "geometry.is_contour_convex",
    "geometry.homography_from_quad",
    "geometry.warp_to_upright",
    "pipeline.orient",
    "pipeline.measure_axes",
    "pipeline.remove_head",
    "pipeline.classify_threading",
    "pipeline.estimate_pitch",
    "pipeline.extract_features",
    "identify.px_to_mm",
    "identify.nearest_match",
    "identify.enroll",
    "identify.save_table",
    "identify.load_table",
)

PER_LAYER = (
    (("cli.main.self_ms", "ms"),)
    + tuple(
        (f"{fn}.{kind}", unit)
        for fn in LAYER_FUNCTIONS
        for kind, unit in (("self_ms", "ms"), ("calls", "count"))
    )
    + (
        ("imagecore.components", "count"),
        ("imagecore.kept_frac", "frac"),
        ("geometry.convex_hull.points", "count"),
        ("trace.op_ms_mean", "ms"),
        ("trace.remainder_ms", "ms"),
        ("trace_overhead_frac", "frac"),
    )
)


class BenchError(Exception):
    """A run that could not complete; no result is printed."""


def _environment(workload: str, seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            out = None
        if out is not None and out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def set_up(workload: str, seed: int, work: Path, size: int | None = None):
    """Render the workload SETUP_REPS times.

    Returns the ops and, per rep, its seconds and the kernel time taken
    around it (the mean of settled passes before and after).  Each rep
    writes into a fresh directory; the ops of the last one are kept and
    the others deleted once timed.
    """
    import workloads

    setup = workloads.SETUP[workload]
    kwargs = {} if size is None else {"size": size}
    reps = []
    ops = None
    for rep in range(SETUP_REPS):
        d = work / f"setup{rep}"
        d.mkdir(parents=True)
        before = hostspeed.settled_kernel_ms()
        t0 = time.perf_counter()
        ops = setup(str(d), seed, **kwargs)
        seconds = time.perf_counter() - t0
        reps.append((seconds, (before + hostspeed.settled_kernel_ms()) / 2.0))
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(d)
    return ops, reps


def measure(ops: list[dict], seconds: float, work: Path, spans: Path | None = None) -> dict:
    """Run loop.py over the ops in a child process and return its result."""
    tag = "traced" if spans is not None else "plain"
    plan_path = work / f"plan-{tag}.json"
    result_path = work / f"result-{tag}.json"
    err_path = work / f"stderr-{tag}.txt"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"src": str(SRC), "seconds": seconds, "ops": ops}, fh)
    cmd = [sys.executable, str(HERE / "loop.py"), str(plan_path), str(result_path)]
    if spans is not None:
        cmd.append(str(spans))
    # one thread: keep numpy's BLAS from starting a pool of its own
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with open(err_path, "wb") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=2 * seconds + 60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} loop did not finish in {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{tag} loop exited with {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def scaled_op_ms(run: dict) -> list[float]:
    """Op times scaled by the mean of the kernel passes either side."""
    k = run["kernel_ms"]
    return [
        op * hostspeed.REF_MS / ((k[i] + k[i + 1]) / 2.0)
        for i, op in enumerate(run["op_ms"])
    ]


def end_to_end(plain: dict, setup_reps: list[tuple[float, float]]) -> dict[str, float]:
    op_ms = scaled_op_ms(plain)
    return {
        "parts_per_s": sum(plain["parts"]) / (sum(op_ms) / 1000.0),
        "op_ms_p50": statistics.median(op_ms),
        "setup_s": statistics.median(s * hostspeed.REF_MS / k for s, k in setup_reps),
        "peak_rss_mb": plain["peak_rss_kb"] / 1024.0,
    }


def _trace_scale(traced: dict) -> float:
    """Factor taking a traced loop's raw ms totals to scaled ms per op."""
    return hostspeed.REF_MS / statistics.median(traced["kernel_ms"]) / len(traced["op_ms"])


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """Per-op means from the traced loop, plus the tracing overhead.

    One scale factor, from the traced loop's median kernel time, applies
    to all its times, so the self times still add up to the op time.
    """
    n = len(traced["op_ms"])
    scale = _trace_scale(traced)
    totals = traced["trace"]["totals"]
    counts = traced["trace"]["counts"]
    out = {"cli.main.self_ms": totals["cli.main"][0] * scale}
    for fn in LAYER_FUNCTIONS:
        self_ms, calls = totals.get(fn, (0.0, 0))
        out[f"{fn}.self_ms"] = self_ms * scale
        out[f"{fn}.calls"] = calls / n
    out["imagecore.components"] = counts["components"] / n
    out["imagecore.kept_frac"] = (
        counts["kept"] / counts["components"] if counts["components"] else 0.0
    )
    out["geometry.convex_hull.points"] = counts["hull_points"] / n
    op_mean = sum(traced["op_ms"]) * scale
    listed = out["cli.main.self_ms"] + sum(out[f"{fn}.self_ms"] for fn in LAYER_FUNCTIONS)
    out["trace.op_ms_mean"] = op_mean
    out["trace.remainder_ms"] = op_mean - listed
    out["trace_overhead_frac"] = (
        statistics.median(scaled_op_ms(traced)) / statistics.median(scaled_op_ms(plain)) - 1.0
    )
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: int | None = None) -> dict:
    """Set up, measure and check one workload; return the printed result."""
    work = WORK / f"{workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        ops, setup_reps = set_up(workload, seed, work, size)
        plain = measure(ops, seconds, work)
        traced = None
        if trace:
            traced = measure(ops, seconds, work, WORK / f"spans-{workload}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, setup_reps, plain, traced)


def summarize(workload: str, seed: int, setup_reps: list[tuple[float, float]],
              plain: dict, traced: dict | None = None) -> dict:
    """Print the human-readable report and return the result object."""
    runs = [plain] if traced is None else [plain, traced]
    attempted = sum(r["attempted"] for r in runs)
    failures: dict[str, int] = {}
    for r in runs:
        for label, n in r["failures"].items():
            failures[label] = failures.get(label, 0) + n
    failed = sum(failures.values())
    values = end_to_end(plain, setup_reps)
    units = dict(END_TO_END)
    op_ms = scaled_op_ms(plain)
    print(f"env {json.dumps(_environment(workload, seed))}")
    print(f"{workload}: {len(op_ms)} timed ops after {plain['warmup_ops']} warm-up, "
          f"{attempted} parts checked, {failed} failed "
          f"(fail_frac {failed / attempted:.4f})")
    for label, n in sorted(failures.items()):
        print(f"  FAILED {label}: {n} times")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:12.4f} {unit}")
    if len(op_ms) >= P90_MIN_OPS:
        p90 = statistics.quantiles(op_ms, n=10)[-1]
        print(f"  {'op_ms_p90':<14} {p90:12.4f} ms   ({len(op_ms)} samples)")
    else:
        print(f"  {'op_ms_p90':<14} {'n/a':>12}      ({len(op_ms)} samples, "
              f"needs {P90_MIN_OPS})")
    raw = plain["op_ms"]
    print(f"  raw: op_ms_p50 {statistics.median(raw):.4f} ms, parts_per_s "
          f"{sum(plain['parts']) / (sum(raw) / 1000.0):.4f} 1/s, set-up reps "
          + ", ".join(f"{t:.4f}" for t, _ in setup_reps) + " s, kernel p50 "
          f"{statistics.median(plain['kernel_ms']):.4f} ms (reference {hostspeed.REF_MS} ms)")

    if traced is not None:
        values = per_layer(plain, traced)
        units = dict(PER_LAYER)
        n = len(traced["op_ms"])
        scale = _trace_scale(traced)
        print(f"trace, per op over {n} ops:")
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {values[name]:12.4f} {unit}")
        totals = traced["trace"]["totals"]
        for name in sorted(set(totals) - set(LAYER_FUNCTIONS) - {"cli.main"}):
            self_ms, calls = totals[name]
            if calls:
                print(f"  in remainder: {name} {self_ms * scale:.4f} ms, "
                      f"{calls / n:.4f} calls")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of each timed loop (default 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced loop")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "boltvision" / "cli.py").is_file():
        print(f"error: no boltvision sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        seed = workloads.DEFAULT_SEEDS[name] if args.seed is None else args.seed
        try:
            results[name] = run_workload(name, seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
