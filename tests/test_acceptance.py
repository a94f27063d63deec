"""End-to-end acceptance checks.

Each test prints one [Cn] PASS/FAIL line (past pytest's capture) so a
full run reads as a scorecard.  The synthetic renderer provides ground
truth throughout; tolerances are fixed, not tuned.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from boltvision.cli import main, report_from_json, report_to_json
from boltvision.errors import PitchParityError
from boltvision.geometry import rect_of_mask
from boltvision.identify import (
    LookupTable,
    TemplateEntry,
    enroll,
    load_table,
    nearest_match,
    save_table,
)
from boltvision.imagecore import (
    BinaryImage,
    GrayImage,
    PixelPoint,
    connected_components,
    read_pgm,
    threshold,
    write_binary_pgm,
    write_pgm,
)
from boltvision.pipeline import (
    PipelineConfig,
    PitchTrace,
    ThreadingType,
    extract_features,
    measure_axes,
    orient,
    read_threads,
    remove_head,
)
from boltvision.synth import (
    BoltSpec,
    RenderParams,
    load_catalog,
    render_bolt,
    save_catalog,
    standard_catalog,
)

PPM = 12.42
SWEEP_ANGLES = 12
NOISE = 0.002
QUERIES = 200


def _emit(capsys, n: int, ok: bool, detail: str) -> None:
    line = f"[C{n}] {detail}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _render(spec: BoltSpec, angle: float, *, pad: int = 10, noise: float = 0.0,
            seed: int = 0, center=None, ppm: float = PPM):
    diag = math.hypot(spec.length_mm * ppm, spec.head_width_mm * ppm)
    side = math.ceil(diag) + pad
    if center is None:
        center = (side // 2, side // 2)
    return render_bolt(
        spec,
        RenderParams(side, side, PixelPoint(*center), angle_deg=angle,
                     px_per_mm=ppm, noise=noise, seed=seed),
    )


def _largest_mask(img: BinaryImage, min_area: int = 50) -> BinaryImage:
    return max(connected_components(img, min_area), key=lambda c: c.area).mask


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog()


@pytest.fixture(scope="module")
def sweep(catalog):
    """Every spec at 12 angles: (spec, angle, oriented bolt, truth)."""
    items = []
    for spec in catalog:
        for k in range(SWEEP_ANGLES):
            angle = 360.0 * k / SWEEP_ANGLES
            img, truth = _render(spec, angle)
            items.append((spec, angle, orient(_largest_mask(img)), truth))
    return items


@pytest.fixture(scope="module")
def noisy_run(catalog):
    """Enroll the catalog, then identify 200 noisy random-pose renders.

    Returns per-query records plus the wall time of the whole pass.
    """
    t0 = time.perf_counter()
    table = enroll(
        [(s.name, _largest_mask(_render(s, 0.0)[0])) for s in catalog],
        px_per_mm=PPM,
    )
    rng = np.random.default_rng(20260822)
    records = []
    for _ in range(QUERIES):
        spec = catalog[int(rng.integers(len(catalog)))]
        angle = float(rng.uniform(0.0, 360.0))
        diag = math.hypot(spec.length_mm * PPM, spec.head_width_mm * PPM)
        side = math.ceil(diag) + 40
        cx = side // 2 + int(rng.integers(-12, 13))
        cy = side // 2 + int(rng.integers(-12, 13))
        img, _ = render_bolt(spec, RenderParams(
            side, side, PixelPoint(cx, cy), angle_deg=angle,
            px_per_mm=PPM, noise=NOISE, seed=int(rng.integers(2**31)),
        ))
        feats = extract_features(_largest_mask(img))
        match = nearest_match(feats, table)
        dists = [
            math.hypot(feats.major_px - e.height_px, feats.minor_px - e.width_px)
            for e in table.entries
        ]
        dims_name = table.entries[dists.index(min(dists))].name
        records.append((spec, feats, match.name, dims_name))
    return records, time.perf_counter() - t0


def test_c1_identification_accuracy(noisy_run, capsys):
    records, elapsed = noisy_run
    name_ok = sum(1 for spec, _, got, _ in records if got == spec.name)
    dims_ok = sum(1 for spec, _, _, d in records if d == spec.name)
    ok = (name_ok >= math.ceil(0.98 * QUERIES)
          and dims_ok == QUERIES and elapsed < 120.0)
    _emit(capsys, 1, ok,
          f"identification {name_ok}/{QUERIES} named, {dims_ok}/{QUERIES} "
          f"by dimensions, {elapsed:.1f}s")


def test_c2_axis_measurement(sweep, capsys):
    worst_abs = 0.0
    worst_rel = 0.0
    for spec, angle, bolt, truth in sweep:
        major, minor = measure_axes(bolt)
        for got, want in ((major, truth.major_px), (minor, truth.minor_px)):
            err = abs(got - want)
            worst_abs = max(worst_abs, err)
            worst_rel = max(worst_rel, err / want)
    ok = worst_abs <= 2.0 and worst_rel <= 0.02
    _emit(capsys, 2, ok,
          f"axes over {len(sweep)} renders: max |err| {worst_abs:.2f}px, "
          f"max rel {100.0 * worst_rel:.2f}%")


def test_c3_pitch_accuracy(catalog, capsys):
    worst = 0.0
    cases = 0
    for spec in catalog:
        img, truth = _render(spec, 0.0)
        bolt = orient(_largest_mask(img))
        _, minor = measure_axes(bolt)
        h = remove_head(bolt, minor).h
        for nudge in (1, 2, 3, 4):
            _, trace = read_threads(bolt, h, PipelineConfig(nudge=nudge))
            worst = max(worst, abs(trace.pitch_px - truth.pitch_px))
            cases += 1
    ok = cases > 0 and worst <= 0.87
    _emit(capsys, 3, ok,
          f"pitch over {cases} cases (nudge 1-4): "
          f"max |err| {worst:.3f}px")


def test_c4_shoulder_recovery(sweep, capsys):
    worst = 0.0
    window_ok = True
    bound_ok = True
    for spec, angle, bolt, truth in sweep:
        _, minor = measure_axes(bolt)
        sh = truth.shoulder_col_px
        exact = remove_head(bolt, minor, PipelineConfig(thresh=0))
        worst = max(worst, abs(exact.h - sh))
        cut = remove_head(bolt, minor)
        if not sh <= cut.h <= sh + 7.0:
            window_ok = False
        if cut.h > 0.2 * bolt.img.width + 5:
            bound_ok = False
    ok = worst <= 2.0 and window_ok and bound_ok
    _emit(capsys, 4, ok,
          f"shoulder over {len(sweep)} renders: max |h - truth| {worst:.1f}px "
          f"at thresh 0; thresh 5 window {'held' if window_ok else 'broken'}, "
          f"0.2l bound {'held' if bound_ok else 'broken'}")


def test_c5_threading_accuracy(sweep, noisy_run, capsys):
    clean_ok = 0
    for spec, angle, bolt, truth in sweep:
        _, minor = measure_axes(bolt)
        h = remove_head(bolt, minor).h
        if read_threads(bolt, h)[0] is spec.threading:
            clean_ok += 1
    records, _ = noisy_run
    noisy_ok = sum(1 for spec, f, _, _ in records if f.threading is spec.threading)
    ok = clean_ok == len(sweep) and noisy_ok >= 0.955 * len(records)
    _emit(capsys, 5, ok,
          f"threading clean {clean_ok}/{len(sweep)}, "
          f"noisy {noisy_ok}/{len(records)} "
          f"({100.0 * noisy_ok / len(records):.1f}%)")


def _sweep_rect_area(pts: np.ndarray, step_deg: float = 0.05) -> float:
    c = pts + 0.5
    th = np.deg2rad(np.arange(0.0, 90.0, step_deg))
    ct, st = np.cos(th), np.sin(th)
    u = c[:, 0:1] * ct + c[:, 1:2] * st
    v = -c[:, 0:1] * st + c[:, 1:2] * ct
    w = u.max(axis=0) - u.min(axis=0) + 1.0
    h = v.max(axis=0) - v.min(axis=0) + 1.0
    return float((w * h).min())


def test_c6_calipers_vs_sweep(capsys):
    # at least 3 points per set: a bare segment's optimum is sharper than
    # the 0.05 deg grid resolves, making the reference the error term
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 51))
        pts = rng.integers(0, 200, size=(n, 2))
        px = np.zeros((200, 200), bool)
        px[pts[:, 1], pts[:, 0]] = True
        cal = rect_of_mask(BinaryImage(px)).area
        ref = _sweep_rect_area(pts)
        assert cal <= ref + 1e-6  # the sweep can only overshoot the optimum
        worst = max(worst, (ref - cal) / ref)
    ok = worst <= 0.005
    _emit(capsys, 6, ok,
          f"calipers vs 0.05 deg sweep on 100 point sets: "
          f"max gap {100.0 * worst:.3f}%")


def test_c7_pitch_equation_fixtures(capsys):
    exact = PitchTrace(a=100.0, b=412.0, n=16).pitch_px == 39.0
    with pytest.raises(PitchParityError):
        PitchTrace(a=100.0, b=412.0, n=15)
    with pytest.raises(PitchParityError):
        PitchTrace(a=0.0, b=77.0, n=3)
    minimal = PitchTrace(a=10.0, b=50.0, n=2).pitch_px == 40.0
    ok = exact and minimal
    _emit(capsys, 7, ok,
          "scanline fixtures: (412-100)/(16/2) = 39.0 exact, odd n rejected")


def test_c8_large_frame_performance(capsys):
    spec = next(s for s in standard_catalog() if s.name == "M12x75_HT")
    diag_mm = math.hypot(spec.length_mm, spec.head_width_mm)
    ppm = (2048.0 - 60.0) / diag_mm
    img, _ = render_bolt(spec, RenderParams(
        2048, 2048, PixelPoint(1024, 1024), angle_deg=25.0, px_per_mm=ppm))
    mask = _largest_mask(img)
    extract_features(mask)  # warm caches before timing
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        extract_features(mask)
        times.append((time.perf_counter() - t0) * 1000.0)
    mean_ms = sum(times) / len(times)
    note = "within" if mean_ms <= 105.0 else "over (report-only)"
    ok = mean_ms <= 233.0
    _emit(capsys, 8, ok,
          f"2048x2048 extract mean {mean_ms:.1f}ms, hard gate 233ms, "
          f"{note} the 105ms target")


def test_c9_report_determinism(tmp_path, capsys):
    catalog = standard_catalog()
    names = ["M8x35_HT", "M10x35_FT", "M10x50_HT"]
    lines = ["file,name"]
    for n in names:
        spec = next(s for s in catalog if s.name == n)
        img, _ = _render(spec, 0.0)
        (tmp_path / f"{n}.pgm").write_bytes(write_binary_pgm(img))
        lines.append(f"{n}.pgm,{n}")
    (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
    table = tmp_path / "table.csv"
    assert main(["enroll", "--manifest", str(tmp_path / "manifest.csv"),
                 "--out", str(table)]) == 0

    queries = []
    for i, n in enumerate(names):
        spec = next(s for s in catalog if s.name == n)
        img, _ = _render(spec, 17.0 + 40.0 * i, noise=NOISE, seed=3 + i)
        q = tmp_path / f"q{i}.pgm"
        q.write_bytes(write_binary_pgm(img))
        queries.append(str(q))

    outs = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        rc = main(["identify", *queries, "--table", str(table),
                   "--json", str(out)])
        assert rc == 0
        doc = report_from_json(out.read_bytes())
        doc.pop("timings")
        outs.append(report_to_json(doc))
    ok = outs[0] == outs[1]
    _emit(capsys, 9, ok, "identify reports byte-identical outside timings")


def _fuzz_pgm(rng) -> int:
    good = 0
    for _ in range(200):
        h, w = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        binary = BinaryImage(rng.integers(0, 2, size=(h, w)).astype(bool))
        gray = GrayImage(rng.integers(0, 256, size=(h, w)).astype(np.uint8))
        if (threshold(read_pgm(write_binary_pgm(binary)), 0) == binary
                and read_pgm(write_pgm(gray)) == gray):
            good += 1
    return good


def _fuzz_tables(rng) -> int:
    good = 0
    for case in range(200):
        k = int(rng.integers(1, 9))
        entries = []
        for j in range(k):
            w = float(rng.uniform(1.0, 500.0))
            entries.append(TemplateEntry(
                name=f"t{case}_{j}",
                width_px=w,
                height_px=w + float(rng.uniform(0.0, 1500.0)),
                threading=ThreadingType.FULL if rng.integers(2) else ThreadingType.HALF,
            ))
        table = LookupTable(px_per_mm=float(rng.uniform(0.5, 50.0)),
                            entries=tuple(entries))
        if load_table(save_table(table)) == table:
            good += 1
    return good


def _fuzz_catalogs(rng) -> int:
    good = 0
    for case in range(200):
        specs = []
        for j in range(int(rng.integers(1, 6))):
            diameter = float(rng.uniform(3.0, 14.0))
            length = float(rng.uniform(10.0, 90.0))
            specs.append(BoltSpec(
                name=f"F{case}_{j}",
                length_mm=length,
                diameter_mm=diameter,
                head_width_mm=diameter * float(rng.uniform(1.3, 2.2)),
                head_length_mm=length * float(rng.uniform(0.04, 0.19)),
                pitch_mm=float(rng.uniform(0.5, 3.0)),
                thread_depth_mm=diameter * float(rng.uniform(0.1, 0.49)),
                threading=ThreadingType.FULL if rng.integers(2) else ThreadingType.HALF,
                half_thread_frac=float(rng.uniform(0.35, 0.40)),
            ))
        if load_catalog(save_catalog(specs)) == specs:
            good += 1
    return good


def _rand_json_value(rng, depth: int = 0):
    kinds = 6 if depth < 2 else 4
    k = int(rng.integers(kinds))
    if k == 0:
        return None
    if k == 1:
        return bool(rng.integers(2))
    if k == 2:
        return int(rng.integers(-10**9, 10**9))
    if k == 3:
        return float(rng.standard_normal()) * 10.0 ** int(rng.integers(-3, 6))
    if k == 4:
        chars = "abcXYZ019 _-/.:%é中"
        return "".join(chars[int(rng.integers(len(chars)))]
                       for _ in range(int(rng.integers(0, 12))))
    return [_rand_json_value(rng, depth + 1)
            for _ in range(int(rng.integers(0, 5)))]


def _fuzz_reports(rng) -> int:
    good = 0
    for case in range(200):
        doc = {"schema": "boltvision-report/1", "command": "identify"}
        for j in range(int(rng.integers(1, 8))):
            doc[f"k{j}"] = _rand_json_value(rng)
        if report_from_json(report_to_json(doc)) == doc:
            good += 1
    return good


def test_c10_format_round_trips(capsys):
    rng = np.random.default_rng(1010)
    pgm = _fuzz_pgm(rng)
    tab = _fuzz_tables(rng)
    cat = _fuzz_catalogs(rng)
    rep = _fuzz_reports(rng)
    ok = pgm == tab == cat == rep == 200
    _emit(capsys, 10, ok,
          f"round-trips: PGM {pgm}/200, table {tab}/200, "
          f"catalog {cat}/200, report {rep}/200")
