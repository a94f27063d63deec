"""Command-line front end.

Five verbs: enroll builds a lookup table from labeled silhouettes,
identify matches frames against a table, measure reports features for a
single part, gen renders synthetic test images, and bench times the
extraction stages.  Reports are JSON with all wall-clock timings
isolated in a separate section so two runs over the same inputs are
byte-identical everywhere else.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterator

import numpy as np

from .errors import (
    BoltVisionError,
    ConfigError,
    CsvFormatError,
    EmptyInputError,
    ParameterError,
    PgmFormatError,
    ReportFormatError,
    StageError,
)
from .csvrows import read_rows, write_rows
from .identify import REJECT_FRAC, LookupTable, enroll, load_table, nearest_match, save_table
from .imagecore import (
    BinaryImage,
    Component,
    PixelPoint,
    connected_components,
    read_pgm,
    threshold,
    write_binary_pgm,
)
from .pipeline import DEFAULT_PX_PER_MM, STAGES, BoltFeatures, PipelineConfig, extract_features
from .synth import BoltSpec, RenderParams, load_catalog, render_bolt, standard_catalog

REPORT_SCHEMA = "boltvision-report/1"

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(PipelineConfig))
# annotations are strings under `from __future__ import annotations`
_INT_KEYS = frozenset(f.name for f in dataclasses.fields(PipelineConfig) if f.type == "int")


# -- config handling ---------------------------------------------------------

def _key_value(item: str, where: str) -> tuple[str, str]:
    """(key, value) of a KEY=VALUE item; errors name where it is, 'line N' or '--set'."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got '{item}'")
    key, _, value = item.partition("=")
    key = key.strip()
    if key not in _CONFIG_FIELDS:
        raise ConfigError(f"{where}: unknown config key '{key}'")
    return key, value.strip()


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key=value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for n, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _key_value(line, f"line {n}")
            out[key] = value
    return out


def build_config(path: str | None, sets: list[str]) -> PipelineConfig:
    """Merge defaults, an optional config file, and --set overrides."""
    kv: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        kv.update(parse_config_text(text))
    kv.update(_key_value(item, "--set") for item in sets)

    typed: dict[str, int | float] = {}
    for key, value in kv.items():
        try:
            typed[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError as exc:
            want = "an integer" if key in _INT_KEYS else "a number"
            raise ConfigError(f"config key '{key}' expects {want}, got '{value}'") from exc
        # a NaN fails every comparison, so a range check would let it through
        if not math.isfinite(typed[key]):
            raise ConfigError(f"config key '{key}' expects a finite number, got '{value}'")
    try:
        return PipelineConfig(**typed)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


# -- shared plumbing ---------------------------------------------------------

def _parts(path: str, cfg: PipelineConfig) -> list[Component]:
    """The components of a PGM frame at or above cfg's area floor.

    A frame with none raises EmptyInputError naming the path.
    """
    with open(path, "rb") as fh:
        img = threshold(read_pgm(fh.read()))
    comps = connected_components(img, cfg.min_component_area)
    if not comps:
        raise EmptyInputError(f"no component above the area floor in {path}")
    return comps


def _read_csv(path: str, what: str, parse):
    """parse(the bytes at path); failures are ConfigErrors naming what."""
    try:
        with open(path, "rb") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except CsvFormatError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def _read_manifest(path: str) -> list[tuple[str, str, str]]:
    """(file, resolved path, name) of each row of a manifest CSV.

    The header starts `file,name`; extra columns are ignored.  Each file
    is resolved against the manifest's directory.  Two rows that resolve
    to one path, such as `x.pgm` and `./x.pgm`, raise ConfigError naming
    the second row's line.
    """
    rows = _read_csv(path, "manifest", lambda d: read_rows(d, "file,name")[1])
    base = os.path.dirname(os.path.abspath(path))
    out: list[tuple[str, str, str]] = []
    seen: set[str] = set()
    for line, r in rows:
        full = os.path.abspath(os.path.join(base, r["file"]))
        if full in seen:
            raise ConfigError(f"manifest {path}: file '{r['file']}' resolves to a path "
                              f"listed above (line {line})")
        seen.add(full)
        out.append((r["file"], full, r["name"]))
    return out


def _feature_dict(f: BoltFeatures, ppm: float) -> dict:
    return {
        "major_px": f.major_px,
        "minor_px": f.minor_px,
        "threading": f.threading.value,
        "pitch_px": f.pitch_px,
        "area_px": f.area_px,
        "perimeter_px": f.perimeter_px,
        "major_mm": f.major_px / ppm,
        "minor_mm": f.minor_px / ppm,
        "pitch_mm": None if f.pitch_px is None else f.pitch_px / ppm,
    }


def _component_report(
    path: str, index: int, comp: Component, cfg: PipelineConfig, ppm: float,
    *, table: LookupTable | None = None, reject_frac: float | None = None,
) -> tuple[dict, dict, StageError | None]:
    """Measure one component: its report record, timing row and failure.

    A StageError is kept in the record's error field and returned rather
    than raised.  With a table the features are also matched, rejecting
    beyond reject_frac.
    """
    rect = comp.rect
    rec = {
        "path": path, "component": index, "rect": [rect.x, rect.y, rect.w, rect.h],
        "features": None, "match": None, "error": None,
    }
    stages: dict[str, float] = {}
    err = None
    t0 = time.perf_counter()
    try:
        feats = extract_features(comp.mask, cfg, timings=stages)
    except StageError as exc:
        err = exc
        rec["error"] = str(exc)
    else:
        rec["features"] = _feature_dict(feats, ppm)
        if table is not None:
            m = nearest_match(feats, table, reject_frac=reject_frac)
            rec["match"] = {
                "name": m.name,
                "distance_px": m.distance_px,
                "threading_agreed": m.threading_agreed,
            }
    row = {
        "path": path, "component": index,
        "stages_ms": {k: v * 1000.0 for k, v in stages.items()},
        "total_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return rec, row, err


def make_report(
    command: str,
    cfg: PipelineConfig,
    ppm: float,
    images: list[dict],
    summary: dict,
    timings: dict,
) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": dataclasses.asdict(cfg),
        "px_per_mm": ppm,
        "images": images,
        "summary": summary,
        "timings": timings,
    }


def report_to_json(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def report_from_json(data: bytes) -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReportFormatError(f"not valid report JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise ReportFormatError(f"expected a '{REPORT_SCHEMA}' document")
    return doc


def _write_report(report: dict, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(report_to_json(report))


# -- verbs -------------------------------------------------------------------

def cmd_enroll(args: argparse.Namespace) -> int:
    cfg = build_config(args.config, args.set)
    ppm = args.px_per_mm if args.px_per_mm is not None else DEFAULT_PX_PER_MM
    seen: set[str] = set()
    samples: list[tuple[str, BinaryImage]] = []
    for file, path, name in _read_manifest(args.manifest):
        if name in seen:
            raise ConfigError(f"duplicate name '{name}' in manifest")
        seen.add(name)
        if not os.path.isfile(path):
            raise ConfigError(f"manifest names a missing file: {file}")
        samples.append((name, max(_parts(path, cfg), key=lambda c: c.area).mask))

    table = enroll(samples, cfg, px_per_mm=ppm)
    with open(args.out, "wb") as fh:
        fh.write(save_table(table))
    print(f"enrolled {len(table.entries)} templates -> {args.out}")
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    cfg = build_config(args.config, args.set)
    table = _read_csv(args.table, "table", load_table)
    ppm = args.px_per_mm if args.px_per_mm is not None else table.px_per_mm

    # truth is keyed by each row's resolved path and looked up by the
    # image's own absolute path
    truth: dict[str, str] | None = None
    if args.truth is not None:
        truth = {path: name for _, path, name in _read_manifest(args.truth)}

    records: list[dict] = []
    timing_rows: list[dict] = []
    failed_files = 0
    empty: list[str] = []
    for path in args.images:
        try:
            comps = _parts(path, cfg)
        except EmptyInputError:
            print(f"warning: no components in {path}", file=sys.stderr)
            empty.append(path)
            continue
        except (OSError, PgmFormatError) as exc:
            records.append({
                "path": path, "component": None, "rect": None,
                "features": None, "match": None, "error": str(exc),
            })
            failed_files += 1
            continue
        for i, comp in enumerate(comps):
            rec, row, _ = _component_report(
                path, i, comp, cfg, ppm, table=table, reject_frac=args.reject_frac,
            )
            records.append(rec)
            timing_rows.append(row)

    matched = [r for r in records if r["match"] is not None]
    named = [r for r in matched if r["match"]["name"] is not None]
    summary: dict = {
        "images": len(args.images),
        "components": sum(1 for r in records if r["component"] is not None),
        "identified": len(named),
        "unknown": len(matched) - len(named),
        "errors": sum(1 for r in records if r["error"] is not None),
    }
    if truth is not None:
        # a labelled part that fails, a labelled file that cannot be read,
        # and a labelled frame with no component count as misses
        have = [r for r in records if os.path.abspath(r["path"]) in truth]
        total = len(have) + sum(1 for p in empty if os.path.abspath(p) in truth)
        correct = sum(
            1 for r in have
            if r["match"] is not None
            and r["match"]["name"] == truth[os.path.abspath(r["path"])]
        )
        summary["truth_total"] = total
        summary["truth_correct"] = correct
        summary["accuracy"] = correct / total if total else 0.0

    timings = {
        "per_component": timing_rows,
        "total_ms": sum(r["total_ms"] for r in timing_rows),
    }
    report = make_report("identify", cfg, ppm, records, summary, timings)
    if args.json is not None:
        _write_report(report, args.json)

    for r in records:
        if r["error"] is not None:
            tag = r["path"] if r["component"] is None else f"{r['path']}#{r['component']}"
            print(f"{tag}: error: {r['error']}")
        elif r["match"]["name"] is not None:
            print(
                f"{r['path']}#{r['component']}: {r['match']['name']} "
                f"(distance {r['match']['distance_px']:.2f}px)"
            )
        else:
            print(f"{r['path']}#{r['component']}: unknown")
    line = (
        f"{summary['components']} components in {summary['images']} images: "
        f"{summary['identified']} identified, {summary['unknown']} unknown, "
        f"{summary['errors']} errors"
    )
    if "accuracy" in summary:
        line += f", accuracy {100.0 * summary['accuracy']:.1f}%"
    print(line)

    if args.images and failed_files == len(args.images):
        return 1
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    cfg = build_config(args.config, args.set)
    ppm = args.px_per_mm if args.px_per_mm is not None else DEFAULT_PX_PER_MM
    comps = _parts(args.image, cfg)
    idx = max(range(len(comps)), key=lambda i: comps[i].area)
    record, row, err = _component_report(args.image, idx, comps[idx], cfg, ppm)
    if err is not None:
        raise err
    f = record["features"]
    print(f"major: {f['major_px']:.1f} px = {f['major_mm']:.2f} mm")
    print(f"minor: {f['minor_px']:.1f} px = {f['minor_mm']:.2f} mm")
    print(f"threading: {f['threading']}")
    if f["pitch_px"] is None:
        print("pitch: n/a")
    else:
        print(f"pitch: {f['pitch_px']:.2f} px = {f['pitch_mm']:.3f} mm")

    if args.json is not None:
        timings = {"per_component": [row], "total_ms": row["total_ms"]}
        summary = {"images": 1, "components": len(comps), "errors": 0}
        _write_report(make_report("measure", cfg, ppm, [record], summary, timings),
                      args.json)
    return 0


def _renders(
    args: argparse.Namespace, catalog: list[BoltSpec],
) -> Iterator[tuple[str, BoltSpec, float, int, int, int, int]]:
    """(file, spec, angle, pad, dx, dy, seed) for each frame gen writes.

    The sweep draws every spec at evenly spaced angles, centred on a
    square canvas 10 px wider than the part's diagonal.  Its frames are
    named by the angle in whole degrees, which stays unique up to 360
    angles; above that they are named by their index in the sweep.
    Random mode draws spec, angle, centre offset and render seed, in that
    order, from one generator seeded by --seed, on a canvas 40 px wider.
    """
    if args.count is None:
        n = args.angles
        for i, (spec, k) in enumerate(itertools.product(catalog, range(n))):
            angle = 360.0 * k / n
            if n <= 360:
                fname = f"{spec.name}_a{int(round(angle)) % 360:03d}.pgm"
            else:
                fname = f"{spec.name}_k{k:0{len(str(n - 1))}d}.pgm"
            yield fname, spec, angle, 10, 0, 0, args.seed + i
        return
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        spec = catalog[int(rng.integers(len(catalog)))]
        angle = float(rng.uniform(0.0, 360.0))
        dx = int(rng.integers(-12, 13))
        dy = int(rng.integers(-12, 13))
        yield f"{i:04d}_{spec.name}.pgm", spec, angle, 40, dx, dy, int(rng.integers(2**31))


def cmd_gen(args: argparse.Namespace) -> int:
    ppm = args.px_per_mm if args.px_per_mm is not None else DEFAULT_PX_PER_MM
    if args.angles < 1:
        raise ParameterError(f"--angles must be >= 1, got {args.angles}")
    if args.count is not None and args.count < 1:
        raise ParameterError(f"--count must be >= 1, got {args.count}")

    if args.catalog is None:
        catalog = standard_catalog()
    else:
        catalog = _read_csv(args.catalog, "catalog", load_catalog)

    os.makedirs(args.out, exist_ok=True)
    rows: list[tuple[str, str, str, str]] = []
    for fname, spec, angle, pad, dx, dy, seed in _renders(args, catalog):
        side = math.ceil(math.hypot(spec.length_mm * ppm, spec.head_width_mm * ppm)) + pad
        params = RenderParams(
            side, side, PixelPoint(side // 2 + dx, side // 2 + dy),
            angle_deg=angle, px_per_mm=ppm, noise=args.noise, seed=seed,
        )
        img, _ = render_bolt(spec, params)
        with open(os.path.join(args.out, fname), "wb") as fh:
            fh.write(write_binary_pgm(img))
        rows.append((fname, spec.name, repr(angle), repr(args.noise)))

    with open(os.path.join(args.out, "manifest.csv"), "wb") as fh:
        fh.write(write_rows("file,name,angle_deg,noise", rows))
    print(f"wrote {len(rows)} images and manifest.csv -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = build_config(args.config, args.set)
    if args.reps < 1:
        raise ParameterError(f"--reps must be >= 1, got {args.reps}")

    masks = [max(_parts(path, cfg), key=lambda c: c.area).mask for path in args.images]

    per_stage: dict[str, list[float]] = {s: [] for s in STAGES}
    totals: list[float] = []
    for mask in masks:
        for _ in range(args.reps):
            stages: dict[str, float] = {}
            t0 = time.perf_counter()
            extract_features(mask, cfg, timings=stages)
            totals.append((time.perf_counter() - t0) * 1000.0)
            for s in STAGES:
                per_stage[s].append(stages.get(s, 0.0) * 1000.0)

    def mean(v: list[float]) -> float:
        return sum(v) / len(v)

    def p95(v: list[float]) -> float:
        s = sorted(v)
        return s[min(len(s) - 1, math.ceil(0.95 * len(s)) - 1)]

    for s in STAGES:
        print(f"{s},{mean(per_stage[s]):.3f},{p95(per_stage[s]):.3f}")
    print(f"total,{mean(totals):.3f},{p95(totals):.3f}")
    return 0


# -- entry point -------------------------------------------------------------

def _checked(parse, ok, want: str):
    """An argparse type: parse(text), kept only when ok(value) holds."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got '{text}'")
        return value

    return convert


# --px-per-mm, --reject-frac (where inf disables the rejection), --noise
# and --seed
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_reject_frac = _checked(float, lambda v: v > 0.0, "a number > 0 or inf")
_noise = _checked(float, lambda v: 0.0 <= v <= 0.05, "a number in [0, 0.05]")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="boltvision",
        description="Measure and identify bolts from backlit silhouette images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", metavar="PATH",
                        help="pipeline config file, flat key=value lines")
        sp.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        help="override one config key (repeatable)")

    def scale(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--px-per-mm", dest="px_per_mm", type=_positive_float, default=None,
                        help="pixels per millimeter for mm conversions")

    p = sub.add_parser("enroll", help="build a lookup table from labeled images")
    common(p)
    scale(p)
    p.add_argument("--manifest", required=True,
                   help="CSV mapping file,name; paths relative to the manifest")
    p.add_argument("--out", required=True, help="lookup table CSV to write")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("identify", help="match frames against a lookup table")
    common(p)
    scale(p)
    p.add_argument("images", nargs="+", help="PGM frames to identify")
    p.add_argument("--table", required=True, help="lookup table CSV")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.add_argument("--truth", metavar="PATH",
                   help="ground-truth manifest; adds accuracy to the summary")
    p.add_argument("--reject-frac", dest="reject_frac", type=_reject_frac, default=REJECT_FRAC,
                   help="unknown when distance exceeds this fraction of the "
                        "major axis (inf to disable)")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("measure", help="report features for a single part")
    common(p)
    scale(p)
    p.add_argument("image", help="PGM frame holding one part")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("gen", help="render synthetic silhouettes plus a manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--catalog", metavar="PATH",
                   help="catalog CSV (default: built-in catalog)")
    p.add_argument("--angles", type=int, default=12,
                   help="angles per spec in sweep mode (default 12)")
    p.add_argument("--count", type=int, default=None,
                   help="random mode: total number of renders")
    p.add_argument("--noise", type=_noise, default=0.0,
                   help="salt-and-pepper flip rate (default 0)")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    scale(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time the extraction stages")
    common(p)
    p.add_argument("images", nargs="+", help="PGM frames to time")
    p.add_argument("--reps", type=int, default=20,
                   help="repetitions per image (default 20)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoltVisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
