from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boltvision.errors import BoundsError, EmptyInputError, ParameterError, PgmFormatError
from boltvision.imagecore import (
    AxisRect,
    BinaryImage,
    GrayImage,
    PixelPoint,
    connected_components,
    crop,
    otsu_level,
    read_binary_pgm,
    read_pgm,
    rotate180,
    threshold,
    white_runs,
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
    out = threshold(img, level=128)
    assert np.count_nonzero(out.px) == 16


def test_fixed_level_all_below():
    img = GrayImage(np.zeros((4, 4), np.uint8))
    out = threshold(img, level=128)
    assert np.count_nonzero(out.px) == 0


def test_fixed_level_validates_range():
    img = GrayImage(np.zeros((2, 2), np.uint8))
    with pytest.raises(ParameterError):
        threshold(img, level=-1)
    with pytest.raises(ParameterError):
        threshold(img, level=256)


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
    # separates them, so the thresholded image equals level 124
    px = np.full((8, 8), 40, np.uint8)
    px[4:] = 210
    img = GrayImage(px)
    level = otsu_level(img)
    assert level == _otsu_oracle(px)
    assert threshold(img) == threshold(img, level=124)


@given(gray_images)
# levels 121 and 143 split this image equally well; floats ranked 143 higher
@example(GrayImage(np.array([[0, 0, 245, 255], [49, 255, 140, 247], [143, 166, 77, 121]])))
def test_otsu_agrees_with_exhaustive_scan(img):
    assert otsu_level(img) == _otsu_oracle(img.px)


def test_otsu_counts_every_block_of_a_large_frame():
    # 301 x 401 pixels span several histogram blocks, the last one partial;
    # the two modes overlap, so the level moves with every block's counts
    rng = np.random.default_rng(11)
    px = rng.normal(70.0, 30.0, (301, 401))
    px[90:] = rng.normal(170.0, 30.0, (211, 401))
    px = np.clip(px, 0, 255).astype(np.uint8)
    assert otsu_level(GrayImage(px)) == _otsu_oracle(px)


@given(gray_images, st.integers(0, 254))
def test_threshold_monotone(img, t):
    # raising the level never turns a black pixel white
    lo = threshold(img, level=t).px
    hi = threshold(img, level=t + 1).px
    assert not np.any(hi & ~lo)


# -- white count -------------------------------------------------------------

def test_count_region():
    assert np.count_nonzero(crop(solid(10, 10), AxisRect(0, 0, 5, 5)).px) == 25


def test_count_matches_renderer():
    from boltvision.synth import RenderParams, render_bolt, standard_catalog

    spec = standard_catalog()[0]
    img, truth = render_bolt(spec, RenderParams(900, 900, PixelPoint(450, 450)))
    assert np.count_nonzero(img.px) == truth.white_count


# -- connected components ----------------------------------------------------

def test_white_runs_stay_in_their_row():
    # a run ending on the last column must not join one starting on the
    # first column of the next row
    px = np.array([[0, 1, 1, 0, 1], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]], bool)
    rows, starts, ends = white_runs(px)
    assert rows.tolist() == [0, 0, 1, 1]
    assert starts.tolist() == [1, 4, 0, 4]
    assert ends.tolist() == [2, 4, 0, 4]


def test_components_empty_image():
    assert connected_components(solid(6, 6, False)) == []


def test_components_single_pixel():
    px = np.zeros((5, 6), bool)
    px[2, 3] = True
    comps = connected_components(BinaryImage(px))
    assert len(comps) == 1
    assert comps[0].rect == AxisRect(3, 2, 1, 1)
    assert np.count_nonzero(comps[0].mask.px) == 1


def _diagonal() -> np.ndarray:
    px = np.zeros((4, 4), bool)
    px[0, 0] = px[1, 1] = px[2, 2] = True
    return px


def _u_shape(rows: int = 2000) -> np.ndarray:
    # the two arms meet only on the bottom row
    px = np.zeros((rows, 5), bool)
    px[:, 0] = px[:, -1] = px[-1] = True
    return px


def _spiral(n: int = 1000) -> np.ndarray:
    """Square spiral one pixel wide, its turns one pixel apart."""
    px = np.zeros((n, n), bool)
    lo, hi = 0, n - 1
    while lo < hi:
        px[lo, lo : hi + 1] = px[lo : hi + 1, hi] = px[hi, lo : hi + 1] = True
        px[lo + 2 : hi + 1, lo] = True
        # step in to the next turn, which starts one pixel further in
        px[lo + 2, lo : lo + 3] = True
        lo, hi = lo + 2, hi - 2
    return px


@pytest.mark.parametrize("make", [_diagonal, _u_shape, _spiral],
                         ids=["diagonal", "u-2000-rows", "spiral-1000"])
def test_components_single_region(make):
    px = make()
    comps = connected_components(BinaryImage(px))
    assert len(comps) == 1
    assert comps[0].area == np.count_nonzero(px)


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


def _flood_fill(px: np.ndarray) -> list[tuple[AxisRect, int, list]]:
    """8-neighbour BFS from each unseen white pixel in row-major order:
    (rect, area, mask rows) per region, row-major by the rect's corner."""
    h, w = px.shape
    seen = np.zeros_like(px)
    regions = []
    for y in range(h):
        for x in range(w):
            if not px[y, x] or seen[y, x]:
                continue
            seen[y, x] = True
            queue = [(y, x)]
            for cy, cx in queue:
                for ny in range(max(cy - 1, 0), min(cy + 2, h)):
                    for nx in range(max(cx - 1, 0), min(cx + 2, w)):
                        if px[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            ys, xs = np.array(queue).T
            rect = AxisRect(int(xs.min()), int(ys.min()),
                            int(xs.max() - xs.min()) + 1, int(ys.max() - ys.min()) + 1)
            mask = np.zeros((rect.h, rect.w), bool)
            mask[ys - rect.y, xs - rect.x] = True
            regions.append((rect, len(queue), mask.tolist()))
    regions.sort(key=lambda r: (r[0].y, r[0].x))
    return regions


@given(binary_images, st.integers(0, 20))
def test_components_partition_white_set(img, min_area):
    comps = connected_components(img)
    assert [(c.rect, c.area, c.mask.px.tolist()) for c in comps] == _flood_fill(img.px)
    assert connected_components(img, min_area) == [c for c in comps if c.area >= min_area]
    union = np.zeros_like(img.px)
    total = 0
    for c in comps:
        sub = np.zeros_like(img.px)
        sub[c.rect.y : c.rect.y + c.rect.h, c.rect.x : c.rect.x + c.rect.w] = c.mask.px
        assert not np.any(union & sub), "masks overlap"
        union |= sub
        assert c.area == np.count_nonzero(c.mask.px)
        total += c.area
    assert np.array_equal(union, img.px)
    assert total == np.count_nonzero(img.px)


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
    assert np.count_nonzero(crop(img, region).px) == np.count_nonzero(img.px, axis=0)[250:].sum()


def test_rotate180_corner_pixel():
    px = np.zeros((5, 5), bool)
    px[0, 0] = True
    out = rotate180(BinaryImage(px))
    assert out.px[4, 4] and np.count_nonzero(out.px) == 1


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
