"""Inputs for the three benchmark workloads, and the truth gate.

Every workload is rendered by ``boltvision.synth`` from one seed and
written out as PGM files (plus a manifest, and for ``queries`` an
enrolled table).  A workload is a list of ops; an op is the argument
list of one ``boltvision`` CLI invocation, the file it writes, the
labels of the parts it measures, and the ground truth that file is
checked against.  The program under test
only ever sees the argument list and the files it names.

The gate tolerances are fixed from the acceptance checks: names must
match (C1), axes must lie within 2% (C2), threading must agree (C5)
and pitch must lie within 0.07 mm (C3).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from boltvision import cli
from boltvision.imagecore import PixelPoint, write_binary_pgm
from boltvision.synth import RenderParams, render_bolt, standard_catalog

# default sizes; the tests pass smaller ones
LARGE_POSES = 6
QUERY_COUNT = 200

# the seed each workload uses when none is given; queries defaults to
# the generator seed of acceptance check C1
DEFAULT_SEEDS = {"large-frame": 1, "queries": 20260822, "enroll-catalog": 0}

CATALOG_PPM = 12.42
LARGE_SIDE = 2048
# salt-and-pepper rate of the noisy frames, as in C1
NOISE = 0.002

AXIS_TOL = 0.02
PITCH_TOL_MM = 0.07


def _write_pgm(path: str, img) -> None:
    with open(path, "wb") as fh:
        fh.write(write_binary_pgm(img))


def _write_manifest(path: str, rows: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("file,name\n" + "".join(f"{f},{n}\n" for f, n in rows))


def _centered_render(spec, angle: float):
    """Clean catalog-scale render on the square canvas the sweep (C2) uses."""
    ppm = CATALOG_PPM
    side = math.ceil(math.hypot(spec.length_mm * ppm, spec.head_width_mm * ppm)) + 10
    return render_bolt(spec, RenderParams(
        side, side, PixelPoint(side // 2, side // 2),
        angle_deg=angle, px_per_mm=ppm,
    ))


def setup_large_frame(work: str, seed: int, size: int = LARGE_POSES) -> list[dict]:
    """M12x75_HT on 2048x2048 noisy frames at C8's scale, one op per pose.

    size is the number of poses.
    """
    spec = next(s for s in standard_catalog() if s.name == "M12x75_HT")
    ppm = (LARGE_SIDE - 60.0) / math.hypot(spec.length_mm, spec.head_width_mm)
    rng = np.random.default_rng(seed)
    report = os.path.join(work, "report.json")
    ops = []
    for k in range(size):
        angle = float(rng.uniform(0.0, 360.0))
        # the part's half diagonal is LARGE_SIDE/2 - 30 px, so a 20 px
        # offset keeps the 2 px margin the renderer asks for
        cx = LARGE_SIDE // 2 + int(rng.integers(-20, 21))
        cy = LARGE_SIDE // 2 + int(rng.integers(-20, 21))
        img, truth = render_bolt(spec, RenderParams(
            LARGE_SIDE, LARGE_SIDE, PixelPoint(cx, cy), angle_deg=angle,
            px_per_mm=ppm, noise=NOISE, seed=int(rng.integers(2**31)),
        ))
        frame = os.path.join(work, f"pose{k}.pgm")
        _write_pgm(frame, img)
        ops.append({
            "argv": ["measure", frame, "--json", report, "--px-per-mm", repr(ppm)],
            "out": report,
            "parts": [os.path.basename(frame)],
            "truth": {
                "major_px": truth.major_px,
                "minor_px": truth.minor_px,
                "threading": spec.threading.value,
                "pitch_px": truth.pitch_px,
                "px_per_mm": ppm,
            },
        })
    return ops


def _enroll_table(work: str) -> str:
    """Enroll the catalog from upright clean renders, as C1 does."""
    rows = []
    for spec in standard_catalog():
        img, _ = _centered_render(spec, 0.0)
        fname = f"template_{spec.name}.pgm"
        _write_pgm(os.path.join(work, fname), img)
        rows.append((fname, spec.name))
    manifest = os.path.join(work, "templates.csv")
    _write_manifest(manifest, rows)
    table = os.path.join(work, "table.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["enroll", "--manifest", manifest, "--out", table])
    if rc != 0:
        raise RuntimeError(f"enrolling the queries table failed with exit code {rc}")
    return table


def setup_queries(work: str, seed: int, size: int = QUERY_COUNT) -> list[dict]:
    """C1's noisy random-pose renders, identified one frame per op.

    size is the number of frames.
    """
    table = _enroll_table(work)
    catalog = standard_catalog()
    rng = np.random.default_rng(seed)
    report = os.path.join(work, "report.json")
    ops = []
    # same draws, in the same order, as the C1 acceptance generator
    for i in range(size):
        spec = catalog[int(rng.integers(len(catalog)))]
        angle = float(rng.uniform(0.0, 360.0))
        diag = math.hypot(spec.length_mm * CATALOG_PPM, spec.head_width_mm * CATALOG_PPM)
        side = math.ceil(diag) + 40
        cx = side // 2 + int(rng.integers(-12, 13))
        cy = side // 2 + int(rng.integers(-12, 13))
        img, _ = render_bolt(spec, RenderParams(
            side, side, PixelPoint(cx, cy), angle_deg=angle,
            px_per_mm=CATALOG_PPM, noise=NOISE, seed=int(rng.integers(2**31)),
        ))
        frame = os.path.join(work, f"query{i:04d}.pgm")
        _write_pgm(frame, img)
        ops.append({
            "argv": ["identify", frame, "--table", table, "--json", report],
            "out": report,
            "parts": [os.path.basename(frame)],
            "truth": {"name": spec.name},
        })
    return ops


def setup_enroll_catalog(work: str, seed: int, size: int | None = None) -> list[dict]:
    """One clean render per catalog template; one op enrolls them all.

    size, when given, keeps only the first size templates.
    """
    catalog = standard_catalog()[:size]
    rng = np.random.default_rng(seed)
    rows = []
    truth = {}
    for spec in catalog:
        img, gt = _centered_render(spec, float(rng.uniform(0.0, 360.0)))
        fname = f"{spec.name}.pgm"
        _write_pgm(os.path.join(work, fname), img)
        rows.append((fname, spec.name))
        truth[spec.name] = {
            "major_px": gt.major_px,
            "minor_px": gt.minor_px,
            "threading": spec.threading.value,
        }
    manifest = os.path.join(work, "manifest.csv")
    _write_manifest(manifest, rows)
    table = os.path.join(work, "table.csv")
    return [{
        "argv": ["enroll", "--manifest", manifest, "--out", table],
        "out": table,
        "parts": list(truth),
        "truth": truth,
    }]


SETUP = {
    "large-frame": setup_large_frame,
    "queries": setup_queries,
    "enroll-catalog": setup_enroll_catalog,
}


# -- truth gate ---------------------------------------------------------------

def _within(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * want


def _measure_ok(out: str, truth: dict) -> bool:
    with open(out, encoding="utf-8") as fh:
        feats = json.load(fh)["images"][0]["features"]
    pitch = feats["pitch_px"]
    ok = (
        _within(feats["major_px"], truth["major_px"], AXIS_TOL)
        and _within(feats["minor_px"], truth["minor_px"], AXIS_TOL)
        and feats["threading"] == truth["threading"]
        and pitch is not None
        and abs(pitch - truth["pitch_px"]) <= PITCH_TOL_MM * truth["px_per_mm"]
    )
    return ok


def _identify_ok(out: str, truth: dict) -> bool:
    # one bolt per frame: a second component is a false detection
    with open(out, encoding="utf-8") as fh:
        images = json.load(fh)["images"]
    return (
        len(images) == 1
        and images[0]["match"] is not None
        and images[0]["match"]["name"] == truth["name"]
    )


def _read_table_rows(path: str) -> dict[str, tuple[float, float, str]]:
    """name -> (width_px, height_px, threading) from an enrolled table CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh.read().split("\n") if l and not l.startswith("#")]
    if not lines or lines[0] != "name,width_px,height_px,threading":
        raise ValueError(f"{path}: not a lookup table")
    rows = {}
    for line in lines[1:]:
        name, w, h, t = line.split(",")
        rows[name] = (float(w), float(h), t)
    return rows


def _enroll_failures(out: str, truth: dict) -> list[str]:
    rows = _read_table_rows(out)
    failed = []
    for name, want in truth.items():
        got = rows.get(name)
        if not (
            got is not None
            and _within(got[0], want["minor_px"], AXIS_TOL)
            and _within(got[1], want["major_px"], AXIS_TOL)
            and got[2] == want["threading"]
        ):
            failed.append(name)
    return failed


def check(op: dict, rc: int) -> list[str]:
    """Labels of the parts of one finished op that fail the gate.

    A nonzero exit code, a missing output or one that does not parse
    fails every part of the op.
    """
    if rc != 0:
        return list(op["parts"])
    verb = op["argv"][0]
    try:
        if verb == "enroll":
            return _enroll_failures(op["out"], op["truth"])
        ok = (_measure_ok if verb == "measure" else _identify_ok)(op["out"], op["truth"])
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return list(op["parts"])
    return [] if ok else list(op["parts"])
