from __future__ import annotations

import math

import numpy as np
import pytest

from boltvision.errors import (
    EmptyInputError,
    InsufficientCrestsError,
    InsufficientDataError,
    ParameterError,
    PitchParityError,
    StageError,
)
from boltvision.imagecore import BinaryImage, PixelPoint, connected_components, count_white
from boltvision.pipeline import (
    BoltFeatures,
    PipelineConfig,
    PitchTrace,
    ThreadingType,
    classify_threading,
    estimate_pitch,
    extract_features,
    measure_axes,
    orient,
    remove_head,
)
from boltvision.synth import RenderParams, render_bolt, standard_catalog

PPM = 12.42


def spec_named(name: str):
    return next(s for s in standard_catalog() if s.name == name)


def render_mask(name: str, angle: float = 0.0, pad: int = 10, *,
                noise: float = 0.0, seed: int = 0) -> tuple:
    spec = spec_named(name)
    diag = math.hypot(spec.length_mm * PPM, spec.head_width_mm * PPM)
    side = math.ceil(diag) + pad
    img, truth = render_bolt(
        spec,
        RenderParams(side, side, PixelPoint(side // 2, side // 2),
                     angle_deg=angle, px_per_mm=PPM, noise=noise, seed=seed),
    )
    return max(connected_components(img), key=lambda c: c.area).mask, truth


def solid_rect(w: int, h: int) -> BinaryImage:
    return BinaryImage(np.ones((h, w), bool))


# -- config ------------------------------------------------------------------

def test_config_defaults_valid():
    cfg = PipelineConfig()
    assert cfg.thresh == 5 and cfg.nudge == 2


def test_config_rejects_bad_values():
    with pytest.raises(ParameterError):
        PipelineConfig(thresh=-1)
    with pytest.raises(ParameterError):
        PipelineConfig(head_frac=0.8)
    with pytest.raises(ParameterError):
        PipelineConfig(fill_frac=0.0)


# -- orient ------------------------------------------------------------------

def test_orient_upright_is_identity():
    mask, _ = render_mask("M8x35_HT")
    bolt = orient(mask)
    assert bolt.img == mask


def test_orient_flips_head_right():
    mask, _ = render_mask("M8x35_HT")
    flipped, _ = render_mask("M8x35_HT", angle=180.0)
    bolt = orient(flipped)
    assert count_white(bolt.img) == count_white(mask)
    half = bolt.img.width // 2
    left = int(bolt.img.px[:, :half].sum())
    right = int(bolt.img.px[:, bolt.img.width - half :].sum())
    assert left >= right


def test_orient_recovers_major_after_rotation():
    upright, _ = render_mask("M10x35_FT")
    tilted, _ = render_mask("M10x35_FT", angle=47.0)
    a = orient(upright)
    b = orient(tilted)
    assert b.major_px == pytest.approx(a.major_px, rel=0.02)


def test_orient_empty_raises():
    with pytest.raises(EmptyInputError):
        orient(BinaryImage(np.zeros((10, 10), bool)))


def test_orient_head_left_all_angles():
    for angle in range(0, 360, 45):
        mask, _ = render_mask("M6x40_HT", angle=float(angle))
        bolt = orient(mask)
        assert bolt.img.width >= bolt.img.height
        half = bolt.img.width // 2
        left = int(bolt.img.px[:, :half].sum())
        right = int(bolt.img.px[:, bolt.img.width - half :].sum())
        assert left >= right, f"head not on the left at {angle} deg"


# -- measure_axes ------------------------------------------------------------

def test_measure_m8x35():
    mask, _ = render_mask("M8x35_HT")
    major, minor = measure_axes(orient(mask))
    assert major == pytest.approx(35.0 * PPM, abs=2.0)
    assert minor == pytest.approx(8.0 * PPM, abs=2.0)


def test_measure_solid_bar():
    # elongated enough that the tip-half refit still sees the short side
    major, minor = measure_axes(orient(solid_rect(200, 50)))
    assert major == pytest.approx(200.0, abs=0.5)
    assert minor == pytest.approx(50.0, abs=0.5)


# -- remove_head -------------------------------------------------------------

def test_shoulder_recovered_no_thresh():
    mask, truth = render_mask("M10x50_HT")
    cut = remove_head(orient(mask), thresh=0)
    assert not cut.no_shoulder
    assert cut.h == pytest.approx(truth.shoulder_col_px, abs=2.0)


def test_shoulder_with_default_thresh():
    mask, truth = render_mask("M10x50_HT")
    cut = remove_head(orient(mask), thresh=5)
    sh = truth.shoulder_col_px
    assert sh <= cut.h <= sh + 7.0
    assert cut.thresh_used == 5


def test_cut_bounded_by_head_frac():
    for name in ("M5x12_FT", "M12x75_HT"):
        mask, _ = render_mask(name)
        bolt = orient(mask)
        cut = remove_head(bolt, thresh=5)
        assert cut.h <= 0.2 * bolt.major_px + 5


def test_headless_cylinder_flagged():
    cut = remove_head(orient(solid_rect(300, 60)), thresh=5)
    assert cut.no_shoulder
    assert cut.body.width >= 300 - 5
    assert cut.head is None or cut.head.width <= 5


def test_remove_head_rejects_negative_thresh():
    mask, _ = render_mask("M8x20_FT")
    with pytest.raises(ParameterError):
        remove_head(orient(mask), thresh=-1)


# -- threading ---------------------------------------------------------------

def _body(name: str, angle: float = 0.0) -> tuple[BinaryImage, float]:
    mask, _ = render_mask(name, angle)
    bolt = orient(mask)
    major, minor = measure_axes(bolt)
    return remove_head(bolt, thresh=5, d=minor).body, minor


def test_full_thread_classified():
    # at these two angles the left half of M4x75_FT's body holds a
    # detached 1-px fragment that comes first in row-major order
    for name, angle in (("M10x35_FT", 0.0), ("M4x75_FT", 33.9), ("M4x75_FT", 147.3)):
        body, d = _body(name, angle)
        assert classify_threading(body, d) is ThreadingType.FULL, (name, angle)


def test_half_thread_classified():
    body, d = _body("M10x50_HT")
    assert classify_threading(body, d) is ThreadingType.HALF


def test_threadless_cylinder_reads_half():
    # documented: a plain cylinder fires the convexity and fill tests
    body = solid_rect(200, 50)
    assert classify_threading(body, 50.0) is ThreadingType.HALF


def test_threading_needs_width():
    with pytest.raises(InsufficientDataError):
        classify_threading(solid_rect(3, 10), 10.0)


# -- pitch -------------------------------------------------------------------

def test_pitch_trace_arithmetic():
    trace = PitchTrace(a=100.0, b=412.0, n=16)
    assert trace.pitch_px == 39.0


def test_pitch_trace_parity_error():
    with pytest.raises(PitchParityError) as info:
        PitchTrace(a=100.0, b=412.0, n=15)
    msg = str(info.value)
    assert "15" in msg and "100" in msg and "412" in msg


def test_pitch_trace_rejects_backwards():
    with pytest.raises(ParameterError):
        PitchTrace(a=10.0, b=5.0, n=4)
    with pytest.raises(ParameterError):
        PitchTrace(a=0.0, b=1.0, n=0)


def test_pitch_identity_on_returned_trace():
    body, _ = _body("M10x50_HT")
    trace = estimate_pitch(body)
    assert trace.pitch_px == (trace.b - trace.a) / (trace.n / 2)


def test_pitch_within_mm_tolerance():
    body, _ = _body("M8x35_HT")
    spec = spec_named("M8x35_HT")
    trace = estimate_pitch(body)
    assert abs(trace.pitch_px / PPM - spec.pitch_mm) <= 0.07


def test_pitch_smooth_cylinder():
    with pytest.raises(InsufficientCrestsError):
        estimate_pitch(solid_rect(400, 60))


# -- extract_features --------------------------------------------------------

def test_extract_matches_renderer_truth():
    mask, truth = render_mask("M10x50_HT")
    f = extract_features(mask)
    assert f.major_px == pytest.approx(truth.major_px, abs=2.0)
    assert f.minor_px == pytest.approx(truth.minor_px, abs=2.0)
    assert f.threading is ThreadingType.HALF
    assert f.pitch_px is not None
    assert f.pitch_px == pytest.approx(truth.pitch_px, abs=0.87)


def test_extract_empty_reports_stage():
    with pytest.raises(StageError) as info:
        extract_features(BinaryImage(np.zeros((8, 8), bool)))
    assert str(info.value) == "empty-input at orient"
    assert info.value.kind == "empty-input"


def test_extract_translation_invariant():
    spec = spec_named("M6x30_FT")
    masks = []
    for center in ((300, 300), (330, 262)):
        img, _ = render_bolt(
            spec, RenderParams(620, 620, PixelPoint(*center), angle_deg=15.0, px_per_mm=PPM)
        )
        masks.append(connected_components(img)[0].mask)
    assert extract_features(masks[0]) == extract_features(masks[1])


def test_extract_deterministic():
    mask, _ = render_mask("M5x25_HT")
    assert extract_features(mask) == extract_features(mask)


def test_extract_skips_pitch_for_short_parts():
    mask, _ = render_mask("M5x12_FT")  # about 150 px long
    f = extract_features(mask)
    assert f.pitch_px is None


def test_extract_area_and_perimeter():
    mask, truth = render_mask("M8x20_FT")
    f = extract_features(mask)
    assert f.area_px == truth.white_count
    # a noisy render whose upright image starts, in row-major order, with a
    # detached speck
    noisy, _ = render_mask("M10x60_FT", 150.0, noise=0.002, seed=310)
    for g in (f, extract_features(noisy)):
        assert g.perimeter_px > 2.0 * g.major_px  # loop at least spans the part twice


FT, HT = ThreadingType.FULL, ThreadingType.HALF

# (spec, angle, noise) -> features; seed 5 for every render
PINNED_FEATURES = {
    ("M4x75_FT", 30.0, 0.0): BoltFeatures(
        933.0, 50.540704744423294, FT, 8.689655172413794, 41394, 4112.1559133593255),
    ("M12x75_HT", 0.0, 0.0): BoltFeatures(
        932.0, 150.00000000000003, HT, 21.75, 142290, 2812.126117170304),
    ("M5x12_FT", 45.0, 0.0): BoltFeatures(
        149.0, 61.811183182043095, FT, None, 9362, 726.7838379715733),
    ("M8x35_HT", 120.0, 0.0): BoltFeatures(
        436.0, 100.34404393698819, HT, 15.5, 45592, 1620.476405595748),
    ("M4x75_FT", 200.0, 0.002): BoltFeatures(
        933.0, 50.60273925227433, FT, 8.689655172413794, 41379, 4167.913272672206),
    ("M12x75_HT", 75.0, 0.002): BoltFeatures(
        932.0, 150.02944089236303, HT, 21.7, 141544, 3037.461253694098),
    ("M6x16_FT", 300.0, 0.002): BoltFeatures(
        200.0, 75.47220930324428, FT, None, 15504, 910.8498551495555),
    ("M10x50_HT", 250.0, 0.002): BoltFeatures(
        622.0, 125.16907440910404, HT, 18.571428571428573, 80611, 2144.7362902255704),
}


def test_features_pinned_on_fixed_renders():
    # exact values, so any change to the measurement chain's output shows
    # here; a deliberate change updates this table
    got = {}
    for name, angle, noise in PINNED_FEATURES:
        spec = spec_named(name)
        side = math.ceil(math.hypot(spec.length_mm * PPM, spec.head_width_mm * PPM)) + 10
        img, _ = render_bolt(spec, RenderParams(
            side, side, PixelPoint(side // 2, side // 2),
            angle_deg=angle, px_per_mm=PPM, noise=noise, seed=5,
        ))
        comp = max(connected_components(img), key=lambda c: count_white(c.mask))
        got[name, angle, noise] = extract_features(comp.mask)
    assert got == PINNED_FEATURES


def test_body_area_below_full_area():
    mask, _ = render_mask("M10x35_FT")
    bolt = orient(mask)
    cut = remove_head(bolt, thresh=5)
    assert count_white(cut.body) <= count_white(bolt.img)


def test_extract_timings_cover_stages():
    mask, _ = render_mask("M10x50_HT")
    timings: dict[str, float] = {}
    extract_features(mask, timings=timings)
    for stage in ("orient", "axes", "area", "perimeter", "head", "threading", "pitch"):
        assert stage in timings
        assert timings[stage] >= 0.0
