from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boltvision.errors import EmptyInputError, GeometryError
from boltvision.geometry import (
    RotatedRect,
    column_profile,
    convex_hull,
    loop_length,
    rect_of_mask,
    warp_to_upright,
)
from boltvision.imagecore import BinaryImage, PixelPoint

binary_images = arrays(bool, st.tuples(st.integers(1, 14), st.integers(1, 14))).map(BinaryImage)
point_clouds = st.lists(
    st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=1, max_size=50, unique=True
)


def as_points(pts) -> np.ndarray:
    return np.asarray(pts, dtype=np.int64).reshape(-1, 2)


def mask_of(pts) -> BinaryImage:
    """Image whose white pixels are exactly the given (x, y) points."""
    arr = as_points(pts)
    px = np.zeros((arr[:, 1].max() + 1, arr[:, 0].max() + 1), bool)
    px[arr[:, 1], arr[:, 0]] = True
    return BinaryImage(px)


def profile_loop(img: BinaryImage) -> float:
    _, top, bot = column_profile(img)
    return loop_length(top, bot)


def hull_tuples(pts) -> list[tuple[float, float]]:
    return [tuple(p) for p in convex_hull(pts).tolist()]


def solid(w: int, h: int) -> BinaryImage:
    return BinaryImage(np.ones((h, w), bool))


def one_pixel(w: int, h: int, x: int, y: int) -> BinaryImage:
    px = np.zeros((h, w), bool)
    px[y, x] = True
    return BinaryImage(px)


def sweep_min_area(points: list[tuple[int, int]], step_deg: float = 0.05) -> float:
    """Brute-force oracle: minimum over sampled orientations of the
    enclosing rectangle of the pixel squares (centers extent plus 1)."""
    pts = np.asarray(points, float) + 0.5
    best = math.inf
    for t in np.arange(0.0, 90.0, step_deg):
        c, s = math.cos(math.radians(t)), math.sin(math.radians(t))
        u = pts[:, 0] * c + pts[:, 1] * s
        v = -pts[:, 0] * s + pts[:, 1] * c
        area = (u.max() - u.min() + 1.0) * (v.max() - v.min() + 1.0)
        if area < best:
            best = area
    return best


def contains_point(r: RotatedRect, x: float, y: float, slack: float = 0.5) -> bool:
    t = math.radians(r.angle)
    dw = (math.cos(t), math.sin(t))
    dh = (-math.sin(t), math.cos(t))
    px, py = x - r.center[0], y - r.center[1]
    u = px * dw[0] + py * dw[1]
    v = px * dh[0] + py * dh[1]
    return abs(u) <= r.size_w / 2 + slack and abs(v) <= r.size_h / 2 + slack


# -- column profile and loop length -----------------------------------------

def test_profile_of_block_with_gap():
    px = np.zeros((6, 5), bool)
    px[1:4, 0] = True
    px[2, 1] = True
    px[0:6, 3:5] = True
    cols, top, bot = column_profile(BinaryImage(px))
    assert cols.tolist() == [0, 1, 3, 4]
    assert top.tolist() == [1, 2, 0, 0]
    assert bot.tolist() == [3, 2, 5, 5]


def test_profile_of_blank_image_is_empty():
    cols, top, bot = column_profile(BinaryImage(np.zeros((4, 4), bool)))
    assert cols.size == top.size == bot.size == 0
    assert loop_length(top, bot) == 0.0


def test_arc_single_point():
    assert profile_loop(one_pixel(5, 5, 3, 3)) == 0.0


def test_arc_3x3_block():
    # the 8-pixel ring steps are all axial: 8 unit moves
    assert profile_loop(solid(3, 3)) == pytest.approx(8.0)


def test_arc_scales_with_render_factor():
    from boltvision.synth import RenderParams, render_bolt, standard_catalog

    spec = next(s for s in standard_catalog() if s.name == "M8x35_HT")
    lengths = []
    for ppm in (6.21, 12.42):
        img, _ = render_bolt(
            spec, RenderParams(700, 700, PixelPoint(350, 350), px_per_mm=ppm)
        )
        lengths.append(profile_loop(img))
    assert lengths[1] / lengths[0] == pytest.approx(2.0, rel=0.02)


def test_loop_matches_moore_walk_on_single_run_columns():
    # where every column is one run, the loop visits the same boundary a
    # Moore walk does; 2812.126... is the walk's length on this render
    from boltvision.synth import RenderParams, render_bolt, standard_catalog

    spec = next(s for s in standard_catalog() if s.name == "M12x75_HT")
    img, _ = render_bolt(spec, RenderParams(968, 968, PixelPoint(484, 484)))
    cols, top, bot = column_profile(img)
    assert (img.px[:, cols].sum(axis=0) == bot - top + 1).all()
    assert loop_length(top, bot) == pytest.approx(2812.1261171702936, abs=1e-6)


@given(binary_images)
def test_loop_length_mirror_invariant(img):
    flipped = [img, BinaryImage(img.px[:, ::-1]), BinaryImage(img.px[::-1])]
    lengths = [profile_loop(f) for f in flipped]
    assert lengths[1] == pytest.approx(lengths[0])
    assert lengths[2] == pytest.approx(lengths[0])


# -- convex hull -------------------------------------------------------------

def test_hull_square_plus_center():
    pts = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0)]
    assert convex_hull(pts).shape == (4, 2)
    hull = hull_tuples(pts)
    assert set(hull) == set(pts[:4])


def test_hull_collinear():
    hull = hull_tuples([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    assert sorted(hull) == [(0.0, 0.0), (3.0, 3.0)]


def test_hull_empty():
    with pytest.raises(EmptyInputError):
        convex_hull([])


def _inside_hull(hull: list[tuple[float, float]], p: tuple[float, float]) -> bool:
    # hull is counter-clockwise on a y-down screen: cross products <= 0
    n = len(hull)
    if n == 1:
        return hull[0] == p
    if n == 2:
        (ax, ay), (bx, by) = hull
        cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
        dot = (p[0] - ax) * (bx - ax) + (p[1] - ay) * (by - ay)
        return abs(cross) < 1e-6 and -1e-6 <= dot <= (bx - ax) ** 2 + (by - ay) ** 2 + 1e-6
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 1e-6:
            return False
    return True


def test_hull_contains_all_inputs():
    rng = np.random.default_rng(7)
    pts = [(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(200, 2))]
    hull = hull_tuples(pts)
    assert all(_inside_hull(hull, p) for p in pts)


@given(point_clouds)
def test_hull_contains_inputs_property(cloud):
    pts = [(float(x), float(y)) for x, y in cloud]
    hull = hull_tuples(pts)
    assert all(_inside_hull(hull, p) for p in pts)


# -- min-area rect -----------------------------------------------------------

def test_rect_of_axis_aligned_block():
    r = rect_of_mask(solid(20, 10))
    assert r.angle == -90.0
    assert (r.size_w, r.size_h) == pytest.approx((10.0, 20.0))
    assert r.center == pytest.approx((10.0, 5.0))


def test_rect_of_single_pixel():
    r = rect_of_mask(one_pixel(4, 4, 1, 2))
    assert (r.size_w, r.size_h) == pytest.approx((1.0, 1.0))
    assert r.center == pytest.approx((1.5, 2.5))


def test_rect_against_sweep_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = [tuple(map(int, p)) for p in rng.integers(0, 80, size=(30, 2))]
        pts = sorted(set(pts))
        r = rect_of_mask(mask_of(pts))
        assert r.size_w * r.size_h <= sweep_min_area(pts) * 1.005


@given(point_clouds)
@settings(max_examples=60)
def test_rect_encloses_and_angle_in_range(cloud):
    r = rect_of_mask(mask_of(cloud))
    assert -90.0 <= r.angle < 0.0
    for x, y in cloud:
        assert contains_point(r, x + 0.5, y + 0.5)


@given(point_clouds)
@settings(max_examples=40)
def test_rect_area_at_most_axis_aligned(cloud):
    xs = [p[0] for p in cloud]
    ys = [p[1] for p in cloud]
    aabb = (max(xs) - min(xs) + 1.0) * (max(ys) - min(ys) + 1.0)
    r = rect_of_mask(mask_of(cloud))
    assert r.size_w * r.size_h <= aabb + 1e-9


def test_rect_area_invariant_under_90_rotation():
    rng = np.random.default_rng(23)
    px = rng.random((40, 60)) < 0.3
    px[20, 30] = True
    a = rect_of_mask(BinaryImage(px))
    b = rect_of_mask(BinaryImage(np.rot90(px)))
    assert a.size_w * a.size_h == pytest.approx(b.size_w * b.size_h, rel=0.01)


def test_rect_of_mask_empty():
    with pytest.raises(EmptyInputError):
        rect_of_mask(BinaryImage(np.zeros((3, 3), bool)))


# -- warp --------------------------------------------------------------------

def test_warp_axis_aligned_equals_crop():
    rng = np.random.default_rng(9)
    px = np.zeros((30, 40), bool)
    px[8:20, 5:30] = rng.random((12, 25)) < 0.7
    px[8, 5] = px[19, 29] = True
    img = BinaryImage(px)
    r = RotatedRect(center=(5 + 12.5, 8 + 6.0), size_w=12.0, size_h=25.0, angle=-90.0)
    out = warp_to_upright(img, r)
    # size_w is vertical at -90, so the region content comes out rotated
    assert np.array_equal(out.px, np.rot90(px[8:20, 5:30], k=3))
    # fitted rects at -90 degrees, where cos(angle) is about 6e-17 rather
    # than 0, on the noisy mask and its quarter turns
    for k in range(4):
        turned = BinaryImage(np.rot90(px, k))
        r = rect_of_mask(turned)
        assert r.angle == -90.0
        ys, xs = np.nonzero(turned.px)
        out = warp_to_upright(turned, r)
        box = turned.px[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
        assert np.array_equal(out.px, np.rot90(box, k=3))


def test_warp_preserves_count_for_upright_rect():
    px = np.zeros((20, 26), bool)
    px[4:16, 3:23] = True
    img = BinaryImage(px)
    out = warp_to_upright(img, rect_of_mask(img))
    assert np.count_nonzero(out.px) == np.count_nonzero(img.px)


def test_warp_disc_area():
    yy, xx = np.mgrid[0:101, 0:101]
    disc = BinaryImage((xx - 50.0) ** 2 + (yy - 50.0) ** 2 <= 40.0**2)
    r = RotatedRect(center=(50.5, 50.5), size_w=90.0, size_h=90.0, angle=-37.0)
    out = warp_to_upright(disc, r)
    assert np.count_nonzero(out.px) == pytest.approx(math.pi * 40.0**2, rel=0.03)


def test_warp_30deg_counts_match_upright():
    from boltvision.synth import RenderParams, render_bolt, standard_catalog

    spec = next(s for s in standard_catalog() if s.name == "M8x35_HT")
    flat, _ = render_bolt(spec, RenderParams(600, 600, PixelPoint(300, 300)))
    tilted, _ = render_bolt(spec, RenderParams(600, 600, PixelPoint(300, 300), angle_deg=30.0))
    up = warp_to_upright(tilted, rect_of_mask(tilted))
    assert np.count_nonzero(up.px) == pytest.approx(np.count_nonzero(flat.px), rel=0.02)


def test_warp_zero_size_rect():
    img = solid(5, 5)
    with pytest.raises(GeometryError):
        warp_to_upright(img, RotatedRect(center=(2.5, 2.5), size_w=0.0, size_h=0.0, angle=-90.0))
