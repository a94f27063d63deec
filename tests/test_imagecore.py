from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boltvision.errors import BoundsError, EmptyInputError, ParameterError, PgmFormatError
from boltvision.imagecore import (
    AxisRect,
    BinaryImage,
    FixedLevel,
    GrayImage,
    Otsu,
    PixelPoint,
    connected_components,
    count_white,
    crop,
    otsu_level,
    read_binary_pgm,
    read_pgm,
    rotate180,
    threshold,
    write_binary_pgm,
    write_pgm,
)

gray_images = arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12))).map(GrayImage)
binary_images = arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))).map(BinaryImage)


def solid(w: int, h: int, value: bool = True) -> BinaryImage:
    return BinaryImage(np.full((h, w), value, bool))


# -- image types -------------------------------------------------------------

def test_images_validate_shape():
    with pytest.raises(ParameterError):
        GrayImage(np.zeros((0, 4), np.uint8))
    with pytest.raises(ParameterError):
        BinaryImage(np.zeros((4, 0), bool))
    with pytest.raises(ParameterError):
        GrayImage(np.zeros(16, np.uint8))


def test_images_compare_by_content():
    a = BinaryImage(np.eye(3, dtype=bool))
    b = BinaryImage(np.eye(3, dtype=bool))
    assert a == b
    assert a != solid(3, 3)


# -- threshold ---------------------------------------------------------------

def test_fixed_level_all_above():
    img = GrayImage(np.full((4, 4), 200, np.uint8))
    out = threshold(img, FixedLevel(128))
    assert count_white(out) == 16


def test_fixed_level_all_below():
    img = GrayImage(np.zeros((4, 4), np.uint8))
    out = threshold(img, FixedLevel(128))
    assert count_white(out) == 0


def test_fixed_level_validates_range():
    with pytest.raises(ParameterError):
        FixedLevel(-1)
    with pytest.raises(ParameterError):
        FixedLevel(256)


def test_threshold_rejects_unknown_method():
    img = GrayImage(np.zeros((2, 2), np.uint8))
    with pytest.raises(ParameterError):
        threshold(img, method=128)  # type: ignore[arg-type]


def _otsu_oracle(px: np.ndarray) -> int:
    """Exhaustive scan: between-class variance for every candidate level."""
    hist = np.bincount(px.ravel(), minlength=256).astype(float)
    total = px.size
    best_t, best_v = 0, -1.0
    for t in range(256):
        w0 = hist[: t + 1].sum()
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        m0 = (np.arange(t + 1) * hist[: t + 1]).sum() / w0
        m1 = (np.arange(t + 1, 256) * hist[t + 1 :]).sum() / w1
        v = w0 * w1 * (m0 - m1) ** 2
        if v > best_v + 1e-9:
            best_t, best_v = t, v
    return best_t


def test_otsu_bimodal_matches_fixed_level():
    # half the pixels at 40, half at 210: any level between the modes
    # separates them, so the thresholded image equals FixedLevel(124)
    px = np.full((8, 8), 40, np.uint8)
    px[4:] = 210
    img = GrayImage(px)
    level = otsu_level(img)
    assert level == _otsu_oracle(px)
    assert threshold(img, Otsu()) == threshold(img, FixedLevel(124))


@given(gray_images)
def test_otsu_agrees_with_exhaustive_scan(img):
    assert otsu_level(img) == _otsu_oracle(img.px)


@given(gray_images, st.integers(0, 254))
def test_threshold_monotone(img, t):
    # raising the level never turns a black pixel white
    lo = threshold(img, FixedLevel(t)).px
    hi = threshold(img, FixedLevel(t + 1)).px
    assert not np.any(hi & ~lo)


# -- count_white -------------------------------------------------------------

def test_count_all_black():
    assert count_white(solid(10, 10, False)) == 0


def test_count_region():
    assert count_white(solid(10, 10), AxisRect(0, 0, 5, 5)) == 25


def test_count_region_out_of_bounds():
    with pytest.raises(BoundsError):
        count_white(solid(4, 4), AxisRect(2, 2, 4, 4))


def test_count_matches_renderer():
    from boltvision.synth import RenderParams, render_bolt, standard_catalog

    spec = standard_catalog()[0]
    img, truth = render_bolt(spec, RenderParams(900, 900, PixelPoint(450, 450)))
    assert count_white(img) == truth.white_count


# -- connected components ----------------------------------------------------

def test_components_empty_image():
    assert connected_components(solid(6, 6, False)) == []


def test_components_single_pixel():
    px = np.zeros((5, 6), bool)
    px[2, 3] = True
    comps = connected_components(BinaryImage(px))
    assert len(comps) == 1
    assert comps[0].rect == AxisRect(3, 2, 1, 1)
    assert count_white(comps[0].mask) == 1


def test_components_diagonal_connectivity():
    px = np.zeros((4, 4), bool)
    px[0, 0] = px[1, 1] = px[2, 2] = True
    comps = connected_components(BinaryImage(px))
    assert len(comps) == 1


def test_components_two_rendered_bolts():
    from boltvision.synth import RenderParams, render_bolt, standard_catalog

    cat = {s.name: s for s in standard_catalog()}
    canvas = np.zeros((800, 1600), bool)
    placements = {}
    for name, cx in (("M5x12_FT", 400), ("M8x35_HT", 1150)):
        img, truth = render_bolt(
            cat[name], RenderParams(700, 700, PixelPoint(350, 350), angle_deg=20.0)
        )
        x0, y0 = cx - 350, 50
        canvas[y0 : y0 + 700, x0 : x0 + 700] |= img.px
        r = truth.placement
        placements[name] = AxisRect(r.x + x0, r.y + y0, r.w, r.h)
    comps = connected_components(BinaryImage(canvas))
    assert len(comps) == 2
    assert {c.rect for c in comps} == set(placements.values())


@given(binary_images)
def test_components_partition_white_set(img):
    comps = connected_components(img)
    union = np.zeros_like(img.px)
    total = 0
    for c in comps:
        sub = np.zeros_like(img.px)
        sub[c.rect.y : c.rect.y + c.rect.h, c.rect.x : c.rect.x + c.rect.w] = c.mask.px
        assert not np.any(union & sub), "masks overlap"
        union |= sub
        assert c.area == count_white(c.mask)
        total += c.area
    assert np.array_equal(union, img.px)
    assert total == count_white(img)


@given(binary_images)
def test_components_row_major_order(img):
    rects = [c.rect for c in connected_components(img)]
    assert rects == sorted(rects, key=lambda r: (r.y, r.x))


# -- crop / rotate -----------------------------------------------------------

def test_crop_full_extent_is_identity():
    img = BinaryImage(np.eye(5, dtype=bool))
    assert crop(img, AxisRect(0, 0, 5, 5)) == img


def test_crop_single_white():
    assert crop(solid(3, 3), AxisRect(0, 0, 1, 1)) == solid(1, 1)


def test_crop_out_of_bounds():
    with pytest.raises(BoundsError):
        crop(solid(3, 3), AxisRect(1, 1, 3, 3))


def test_crop_right_half_count_matches_region_count():
    from boltvision.synth import RenderParams, render_bolt, standard_catalog

    cat = {s.name: s for s in standard_catalog()}
    img, _ = render_bolt(cat["M8x35_HT"], RenderParams(500, 500, PixelPoint(250, 250)))
    region = AxisRect(250, 0, 250, 500)
    assert count_white(crop(img, region)) == count_white(img, region)


def test_rotate180_corner_pixel():
    px = np.zeros((5, 5), bool)
    px[0, 0] = True
    out = rotate180(BinaryImage(px))
    assert out.px[4, 4] and count_white(out) == 1


def test_rotate180_symmetric_image():
    px = np.zeros((3, 3), bool)
    px[1, 1] = True
    img = BinaryImage(px)
    assert rotate180(img) == img


@given(binary_images)
def test_rotate180_involution(img):
    assert rotate180(rotate180(img)) == img


@given(binary_images)
def test_full_crop_identity(img):
    assert crop(img, AxisRect(0, 0, img.width, img.height)) == img


# -- PGM ---------------------------------------------------------------------

def test_pgm_minimal_loose_header():
    img = read_pgm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
    assert (img.width, img.height) == (2, 2)
    assert img.px[1, 1] == 255


def test_pgm_canonical_header():
    img = GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3))
    data = write_pgm(img)
    assert data.startswith(b"P5\n3 2\n255\n")
    assert read_pgm(data) == img


def test_pgm_rejects_wide_maxval():
    with pytest.raises(PgmFormatError):
        read_pgm(b"P5 2 2 65535 " + bytes(8))


def test_pgm_truncated_payload_reports_offset():
    with pytest.raises(PgmFormatError) as info:
        read_pgm(b"P5\n2 2\n255\n\x00\x00")
    assert "byte offset" in str(info.value)


def test_pgm_bad_magic():
    with pytest.raises(PgmFormatError):
        read_pgm(b"P6 1 1 255 \x00")


def test_binary_pgm_rejects_gray_values():
    with pytest.raises(PgmFormatError):
        read_binary_pgm(b"P5 2 1 255 " + bytes([0, 7]))


@given(gray_images)
def test_pgm_round_trip(img):
    assert read_pgm(write_pgm(img)) == img


@given(binary_images)
def test_binary_pgm_round_trip(img):
    assert read_binary_pgm(write_binary_pgm(img)) == img


@given(gray_images)
@settings(max_examples=30)
def test_pgm_write_is_canonical(img):
    # canonical encoding survives a write/read/write cycle byte-for-byte
    data = write_pgm(img)
    assert write_pgm(read_pgm(data)) == data
