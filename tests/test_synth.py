from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from boltvision.errors import CsvFormatError, GeometryError, ParameterError
from boltvision.geometry import rect_of_runs
from boltvision.imagecore import (
    AxisRect,
    BinaryImage,
    PixelPoint,
    connected_components,
    white_runs,
    write_binary_pgm,
)
from boltvision.pipeline import ThreadingType
from boltvision.synth import (
    BoltSpec,
    RenderParams,
    add_noise,
    load_catalog,
    render_bolt,
    save_catalog,
    standard_catalog,
)

PPM = 12.42


def spec_named(name: str) -> BoltSpec:
    return next(s for s in standard_catalog() if s.name == name)


def centered_params(spec: BoltSpec, angle: float = 0.0, **kw) -> RenderParams:
    diag = math.hypot(spec.length_mm * PPM, spec.head_width_mm * PPM)
    side = math.ceil(diag) + 10
    return RenderParams(side, side, PixelPoint(side // 2, side // 2),
                        angle_deg=angle, px_per_mm=PPM, **kw)


# -- spec validation ---------------------------------------------------------

def _spec(**overrides) -> BoltSpec:
    base = dict(
        name="T1", length_mm=30.0, diameter_mm=6.0, head_width_mm=10.0,
        head_length_mm=4.0, pitch_mm=1.0, thread_depth_mm=0.62,
        threading=ThreadingType.FULL, half_thread_frac=0.38,
    )
    base.update(overrides)
    return BoltSpec(**base)


def test_spec_accepts_valid():
    _spec()


def test_spec_rejects_long_head():
    with pytest.raises(ParameterError):
        _spec(head_length_mm=6.5)  # > 0.2 * 30


def test_spec_rejects_deep_threads():
    with pytest.raises(ParameterError):
        _spec(thread_depth_mm=3.0)  # >= diameter / 2


def test_spec_rejects_nonpositive_pitch():
    with pytest.raises(ParameterError):
        _spec(pitch_mm=0.0)


def test_spec_rejects_half_frac_outside_band():
    with pytest.raises(ParameterError):
        _spec(half_thread_frac=0.30)
    with pytest.raises(ParameterError):
        _spec(half_thread_frac=0.45)


def test_spec_rejects_narrow_head():
    with pytest.raises(ParameterError):
        _spec(head_width_mm=5.0)


def test_params_reject_heavy_noise():
    with pytest.raises(ParameterError):
        RenderParams(100, 100, PixelPoint(50, 50), noise=0.2)


def test_params_reject_negative_seed():
    with pytest.raises(ParameterError):
        RenderParams(100, 100, PixelPoint(50, 50), noise=0.001, seed=-1)


# -- rendering ---------------------------------------------------------------

def test_render_rejects_tight_canvas():
    spec = spec_named("M8x35_HT")
    with pytest.raises(GeometryError):
        render_bolt(spec, RenderParams(200, 200, PixelPoint(100, 100)))


def test_render_rect_matches_spec_arithmetic():
    # 35 mm x 8 mm at 12.42 px/mm encloses as roughly 435 x 99 px; the
    # head is kept barely wider than the body so it sets the short side
    spec = BoltSpec(
        name="fixture", length_mm=35.0, diameter_mm=8.0, head_width_mm=8.02,
        head_length_mm=5.0, pitch_mm=1.25, thread_depth_mm=0.775,
        threading=ThreadingType.FULL,
    )
    img, _ = render_bolt(spec, RenderParams(500, 500, PixelPoint(250, 250)))
    r = rect_of_runs(*white_runs(img.px))
    assert abs(round(max(r.size_w, r.size_h)) - 435) <= 1
    assert abs(round(min(r.size_w, r.size_h)) - 99) <= 1


def test_render_half_turn_symmetry():
    spec = spec_named("M10x35_FT")
    a, _ = render_bolt(spec, centered_params(spec, 0.0))
    b, _ = render_bolt(spec, centered_params(spec, 180.0))
    assert np.count_nonzero(b.px) == pytest.approx(np.count_nonzero(a.px), rel=0.005)


def test_render_deterministic():
    spec = spec_named("M6x40_HT")
    p = centered_params(spec, 73.0, noise=0.01, seed=5)
    a, _ = render_bolt(spec, p)
    b, _ = render_bolt(spec, p)
    assert write_binary_pgm(a) == write_binary_pgm(b)


def test_render_truth_white_count_and_placement():
    spec = spec_named("M8x20_FT")
    img, truth = render_bolt(spec, centered_params(spec, 40.0))
    assert truth.white_count == np.count_nonzero(img.px)
    comps = connected_components(img)
    assert len(comps) == 1
    assert comps[0].rect == truth.placement


def test_half_thread_left_body_edges_straight():
    # the unthreaded stretch of a half-thread bolt has constant width
    spec = spec_named("M10x50_HT")
    img, truth = render_bolt(spec, centered_params(spec))
    comp = connected_components(img)[0]
    px = comp.mask.px
    lo = int(round(truth.shoulder_col_px)) + 3
    # threads cover the rightmost ~38% of the full length, so everything
    # left of that stretch (past the shoulder) is a straight cylinder
    hi = int((1.0 - spec.half_thread_frac) * spec.length_mm * PPM) - 3
    widths = px[:, lo:hi].sum(axis=0)
    assert widths.max() == widths.min()
    assert widths.max() == pytest.approx(spec.diameter_mm * PPM, abs=1.5)


def test_full_thread_body_edges_vary():
    spec = spec_named("M10x35_FT")
    img, truth = render_bolt(spec, centered_params(spec))
    comp = connected_components(img)[0]
    lo = int(round(truth.shoulder_col_px)) + 3
    widths = comp.mask.px[:, lo : comp.rect.w - 3].sum(axis=0)
    depth_px = spec.thread_depth_mm * PPM
    assert widths.max() - widths.min() == pytest.approx(2.0 * depth_px, abs=3.0)


# -- noise -------------------------------------------------------------------

def test_noise_rate_zero_identity():
    img = BinaryImage(np.eye(20, dtype=bool))
    assert add_noise(img, 0.0, seed=3) == img


def test_noise_deterministic():
    img = BinaryImage(np.zeros((50, 50), bool))
    assert add_noise(img, 0.02, seed=9) == add_noise(img, 0.02, seed=9)


def test_noise_rejects_out_of_range():
    img = BinaryImage(np.zeros((4, 4), bool))
    with pytest.raises(ParameterError):
        add_noise(img, -0.1, seed=0)
    with pytest.raises(ParameterError):
        add_noise(img, 0.06, seed=0)


def test_noise_flip_count_binomial():
    img = BinaryImage(np.zeros((1000, 1000), bool))
    out = add_noise(img, 0.01, seed=12)
    flips = np.count_nonzero(out.px)
    n, p = 1_000_000, 0.01
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(flips - n * p) <= 3 * sigma


# -- catalog -----------------------------------------------------------------

def test_catalog_has_33_unique_entries():
    cat = standard_catalog()
    assert len(cat) == 33
    assert len({s.name for s in cat}) == 33


def test_catalog_contains_reference_bolts():
    by_name = {s.name: s for s in standard_catalog()}
    for name in ("M5x12_FT", "M8x35_HT", "M10x50_HT", "M10x35_FT",
                 "M4x75_FT", "M8x20_FT", "M5x25_HT"):
        assert name in by_name
    m5 = by_name["M5x12_FT"]
    assert m5.diameter_mm == pytest.approx(4.90)
    assert m5.length_mm == pytest.approx(12.06)


def test_catalog_entries_well_separated():
    # identification depends on no two entries sitting within 1.4% in
    # both the length and the diameter at once
    cat = standard_catalog()
    for i, a in enumerate(cat):
        for b in cat[i + 1 :]:
            dl = abs(a.length_mm - b.length_mm) / max(a.length_mm, b.length_mm)
            dd = abs(a.diameter_mm - b.diameter_mm) / max(a.diameter_mm, b.diameter_mm)
            assert max(dl, dd) >= 0.014, (a.name, b.name)


def test_catalog_csv_round_trip():
    cat = standard_catalog()
    assert load_catalog(save_catalog(cat)) == cat


def test_save_catalog_bytes_are_pinned():
    assert hashlib.sha256(save_catalog(standard_catalog())).hexdigest() == (
        "85bb3bfbde098c8159b4aef94ba8c19e39a5f05b060f984ff4c46653c402cf5f"
    )


def test_catalog_csv_errors():
    good = save_catalog(standard_catalog())
    header, rest = good.split(b"\n", 1)

    with pytest.raises(CsvFormatError) as info:
        load_catalog(b"name,length_mm\n" + rest)
    assert info.value.line == 1

    first_row = rest.split(b"\n", 1)[0].decode()
    broken = first_row.replace("FT", "XX").replace("HT", "XX")
    with pytest.raises(CsvFormatError) as info:
        load_catalog(header + b"\n" + broken.encode() + b"\n")
    assert info.value.line == 2

    fields = first_row.split(",")
    fields[1] = "abc"
    with pytest.raises(CsvFormatError) as info:
        load_catalog(header + b"\n" + ",".join(fields).encode() + b"\n")
    assert info.value.line == 2

    dup = header + b"\n" + first_row.encode() + b"\n" + first_row.encode() + b"\n"
    with pytest.raises(CsvFormatError) as info:
        load_catalog(dup)
    assert info.value.line == 3

    # a non-finite length fails on its line, not when the spec is drawn
    for column in range(1, 7):
        fields = first_row.split(",")
        fields[column] = "inf"
        with pytest.raises(CsvFormatError) as info:
            load_catalog(header + b"\n" + ",".join(fields).encode() + b"\n")
        assert info.value.line == 2
