from __future__ import annotations

import math

import numpy as np
import pytest

from boltvision.errors import (
    EmptyInputError,
    InsufficientCrestsError,
    ParameterError,
    PitchParityError,
    StageError,
)
from boltvision.geometry import loop_length
from boltvision.imagecore import (
    BinaryImage,
    PixelPoint,
    connected_components,
)
from boltvision.pipeline import (
    STAGES,
    BoltFeatures,
    OrientedBolt,
    PipelineConfig,
    PitchTrace,
    ThreadingType,
    extract_features,
    measure_axes,
    orient,
    read_threads,
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
    # the integer fields take integers only
    for name in ("thresh", "nudge", "min_component_area"):
        for value in (math.nan, math.inf, 2.5):
            with pytest.raises(ParameterError):
                PipelineConfig(**{name: value})


# -- orient ------------------------------------------------------------------

def test_orient_upright_is_identity():
    mask, _ = render_mask("M8x35_HT")
    bolt = orient(mask)
    assert bolt.img == mask


def test_orient_flips_head_right():
    mask, _ = render_mask("M8x35_HT")
    flipped, _ = render_mask("M8x35_HT", angle=180.0)
    bolt = orient(flipped)
    assert np.count_nonzero(bolt.img.px) == np.count_nonzero(mask.px)
    half = bolt.img.width // 2
    left = int(bolt.img.px[:, :half].sum())
    right = int(bolt.img.px[:, bolt.img.width - half :].sum())
    assert left >= right


def test_orient_recovers_major_after_rotation():
    upright, _ = render_mask("M10x35_FT")
    tilted, _ = render_mask("M10x35_FT", angle=47.0)
    a = orient(upright)
    b = orient(tilted)
    assert b.img.width == pytest.approx(a.img.width, rel=0.02)


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
    bolt = orient(mask)
    cut = remove_head(bolt, measure_axes(bolt)[1], PipelineConfig(thresh=0))
    assert not cut.no_shoulder
    assert cut.h == pytest.approx(truth.shoulder_col_px, abs=2.0)


def test_shoulder_with_default_thresh():
    mask, truth = render_mask("M10x50_HT")
    bolt = orient(mask)
    cut = remove_head(bolt, measure_axes(bolt)[1])
    sh = truth.shoulder_col_px
    assert sh <= cut.h <= sh + 7.0


def test_cut_bounded_by_head_frac():
    for name in ("M5x12_FT", "M12x75_HT"):
        mask, _ = render_mask(name)
        bolt = orient(mask)
        cut = remove_head(bolt, measure_axes(bolt)[1])
        assert cut.h <= 0.2 * bolt.img.width + 5


def test_headless_cylinder_flagged():
    bolt = orient(solid_rect(300, 60))
    cut = remove_head(bolt, measure_axes(bolt)[1])
    assert cut.no_shoulder
    assert bolt.img.width - cut.h >= 300 - 5
    assert cut.h == 5


# -- threading ---------------------------------------------------------------

def _body(name: str, angle: float = 0.0) -> tuple[OrientedBolt, int]:
    mask, _ = render_mask(name, angle)
    bolt = orient(mask)
    major, minor = measure_axes(bolt)
    return bolt, remove_head(bolt, minor).h


def test_full_thread_classified():
    # at these two angles the left half of M4x75_FT's body holds a
    # detached 1-px fragment that comes first in row-major order
    for name, angle in (("M10x35_FT", 0.0), ("M4x75_FT", 33.9), ("M4x75_FT", 147.3)):
        bolt, h = _body(name, angle)
        assert read_threads(bolt, h)[0] is ThreadingType.FULL, (name, angle)


def test_half_thread_classified():
    bolt, h = _body("M10x50_HT")
    assert read_threads(bolt, h)[0] is ThreadingType.HALF


def test_reduced_shank_reads_half_threaded():
    # a waisted shank is turned down to the thread root, so its barrel
    # lies below the crest line: most of it shows as one long gap, and
    # the run left at its start is shorter than _PLAIN_PERIODS periods
    mask, _ = render_mask("M10x50_HT")
    bolt = orient(mask)
    h = remove_head(bolt, measure_axes(bolt)[1]).h
    _, top, bot = bolt.profile
    # the barrel runs from the cut to the first column off the crest row
    end = h + int(np.argmax(top[h:] != top[h]))
    depth = round(spec_named("M10x50_HT").thread_depth_mm * PPM)
    px = mask.px.copy()
    px[: top[h] + depth, h - 2 : end] = False
    px[bot[h] - depth + 1 :, h - 2 : end] = False
    assert extract_features(BinaryImage(px)).threading is ThreadingType.HALF


def test_threading_needs_width():
    bolt = orient(solid_rect(30, 10))
    with pytest.raises(InsufficientCrestsError):
        read_threads(bolt, bolt.img.width - 3)


# (spec, angle in degrees, seed): noisy renders on which a speck standing on
# the top edge set the whole body's crest line before the top profile was
# opened
SPECK_POSES = (("M12x30_HT", 120.0, 345), ("M10x70_HT", 157.0, 322))


@pytest.mark.parametrize("name, angle, seed", SPECK_POSES)
def test_speck_does_not_set_the_crest_line(name, angle, seed):
    mask, truth = render_mask(name, angle, noise=0.002, seed=seed)
    bolt = orient(mask)
    threading, trace = read_threads(bolt, remove_head(bolt, measure_axes(bolt)[1]).h)
    assert threading is ThreadingType.HALF
    assert trace is not None
    assert abs(trace.pitch_px - truth.pitch_px) / PPM <= 0.07


def _disc(r_out: float, r_in: float = 0.0) -> BinaryImage:
    yy, xx = np.mgrid[:200, :200] - 99.5
    rr = np.hypot(xx, yy)
    return BinaryImage((rr <= r_out) & (rr >= r_in))


@pytest.mark.parametrize("shape", [_disc(80.0), _disc(80.0, 60.0), solid_rect(200, 50)],
                         ids=["disc", "ring", "rod"])
def test_shapes_without_crests_fail_at_threading(shape):
    with pytest.raises(StageError) as info:
        extract_features(shape)
    assert info.value.stage == "threading"
    assert info.value.kind == "insufficient-crests"


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
    bolt, h = _body("M10x50_HT")
    _, trace = read_threads(bolt, h)
    assert trace.pitch_px == (trace.b - trace.a) / (trace.n / 2)


def test_pitch_within_mm_tolerance():
    bolt, h = _body("M8x35_HT")
    spec = spec_named("M8x35_HT")
    _, trace = read_threads(bolt, h)
    assert abs(trace.pitch_px / PPM - spec.pitch_mm) <= 0.07


def test_pitch_joins_crest_split_by_wide_hole():
    # on this noisy pose a noise hole wider than 1 px splits a crest of
    # the scan row in two, which read one crest too many (41.0 px)
    spec = spec_named("M12x75_HT")
    ppm = 25.774746084496915
    img, truth = render_bolt(spec, RenderParams(
        2048, 2048, PixelPoint(1013, 1044), angle_deg=117.71001957800186,
        px_per_mm=ppm, noise=0.002, seed=378027506,
    ))
    comp = max(connected_components(img, PipelineConfig().min_component_area),
               key=lambda c: c.area)
    f = extract_features(comp.mask)
    assert f.pitch_px is not None
    assert abs(f.pitch_px - truth.pitch_px) / ppm <= 0.07


def test_pitch_smooth_cylinder():
    with pytest.raises(InsufficientCrestsError):
        read_threads(orient(solid_rect(400, 60)), 0)
    # a body one column wide has no crest line
    with pytest.raises(InsufficientCrestsError):
        read_threads(orient(solid_rect(400, 60)), 399)


# (spec, angle in degrees, seed): noisy sweep renders on which a pitch read
# off the tip slice's warped scan row at nudge 1 missed the 0.07 mm gate
NUDGE_1_POSES = (
    ("M8x20_FT", 60.0, 67), ("M5x25_HT", 330.0, 88), ("M8x45_FT", 240.0, 241),
    ("M8x65_FT", 60.0, 259), ("M8x75_HT", 180.0, 275), ("M12x65_FT", 30.0, 378),
)


@pytest.mark.parametrize("name, angle, seed", NUDGE_1_POSES)
def test_pitch_at_nudge_1_on_noisy_renders(name, angle, seed):
    mask, truth = render_mask(name, angle, noise=0.002, seed=seed)
    bolt = orient(mask)
    h = remove_head(bolt, measure_axes(bolt)[1]).h
    _, trace = read_threads(bolt, h, PipelineConfig(nudge=1))
    assert abs(trace.pitch_px - truth.pitch_px) / PPM <= 0.07


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


def test_extract_reads_pitch_for_short_parts():
    mask, truth = render_mask("M5x12_FT")  # about 150 px long
    f = extract_features(mask)
    assert f.pitch_px is not None
    assert abs(f.pitch_px - truth.pitch_px) / PPM <= 0.07


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
        933.0, 50.540704744423294, FT, 8.693169130822124, 41394, 4112.1559133593255),
    ("M12x75_HT", 0.0, 0.0): BoltFeatures(
        932.0, 150.00000000000003, HT, 21.714285714285715, 142290, 2812.126117170304),
    ("M5x12_FT", 45.0, 0.0): BoltFeatures(
        149.0, 61.811183182043095, FT, 9.9, 9362, 726.7838379715733),
    ("M8x35_HT", 120.0, 0.0): BoltFeatures(
        436.0, 100.34404393698819, HT, 15.5625, 45592, 1620.476405595748),
    ("M4x75_FT", 200.0, 0.002): BoltFeatures(
        933.0, 50.60273925227433, FT, 8.693069306930694, 41379, 4167.913272672206),
    ("M12x75_HT", 75.0, 0.002): BoltFeatures(
        932.0, 150.02944089236303, HT, 21.75, 141544, 3037.461253694098),
    ("M6x16_FT", 300.0, 0.002): BoltFeatures(
        200.0, 75.47220930324428, FT, 12.545454545454545, 15504, 910.8498551495555),
    ("M10x50_HT", 250.0, 0.002): BoltFeatures(
        622.0, 125.16907440910404, HT, 18.6, 80611, 2144.7362902255704),
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
        comps = connected_components(img, PipelineConfig().min_component_area)
        comp = max(comps, key=lambda c: c.area)
        got[name, angle, noise] = extract_features(comp.mask)
    assert got == PINNED_FEATURES


def test_body_area_below_full_area():
    mask, _ = render_mask("M10x35_FT")
    bolt = orient(mask)
    cut = remove_head(bolt, measure_axes(bolt)[1])
    assert np.count_nonzero(bolt.img.px[:, cut.h :]) <= np.count_nonzero(bolt.img.px)


def test_extract_passes_config_to_every_stage():
    # non-default values for every field a stage reads; on these renders
    # dropping cfg from any one stage call changes the features
    cfg = PipelineConfig(thresh=0, nudge=3, head_frac=0.3)
    for name, angle in (("M6x30_FT", 60.0), ("M5x50_HT", 30.0),
                        ("M10x35_FT", 30.0), ("M6x16_FT", 0.0)):
        mask, _ = render_mask(name, angle)
        bolt = orient(mask)
        major, minor = measure_axes(bolt)
        h = remove_head(bolt, minor, cfg).h
        threading, trace = read_threads(bolt, h, cfg)
        by_hand = BoltFeatures(
            major, minor, threading, trace.pitch_px,
            int(np.count_nonzero(bolt.img.px)), loop_length(*bolt.profile[1:]),
        )
        assert extract_features(mask, cfg) == by_hand, (name, angle)


def test_extract_timings_cover_stages():
    mask, _ = render_mask("M10x50_HT")
    timings: dict[str, float] = {}
    extract_features(mask, timings=timings)
    assert tuple(timings) == STAGES
    assert all(t >= 0.0 for t in timings.values())
