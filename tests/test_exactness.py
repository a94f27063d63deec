"""Four fast kernels against the plain code they replaced.

Each oracle below is the former implementation of its kernel: the
convex hull without the octagon prefilter, the warp over whole-image
coordinate grids, the tip mask filled from np.nonzero and the white runs
found over one padded copy of the whole frame.  The kernels must match
them exactly, not within a tolerance.  The Otsu histogram is checked
against an exhaustive scan in test_imagecore.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boltvision import imagecore, pipeline
from boltvision.errors import MalformedBoltError
from boltvision.geometry import RotatedRect, column_profile, convex_hull, warp_to_upright
from boltvision.imagecore import BinaryImage, PixelPoint, white_runs
from boltvision.pipeline import OrientedBolt, measure_axes, orient
from boltvision.synth import RenderParams, render_bolt, standard_catalog


# -- convex_hull ---------------------------------------------------------------

def _hull_oracle(points) -> np.ndarray:
    uniq = np.unique(np.asarray(points, dtype=np.float64).reshape(-1, 2), axis=0)
    if len(uniq) == 1:
        return uniq
    pts = uniq.tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) > 2:
        hull = [hull[0]] + hull[:0:-1]
    return np.array(hull, dtype=np.float64)


def _centres(pts) -> np.ndarray:
    return np.asarray(pts, dtype=np.float64).reshape(-1, 2) + 0.5


def _assert_same_hull(pts) -> None:
    got, want = convex_hull(pts), _hull_oracle(pts)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# duplicates are frequent on a small grid
grid_points = st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                       min_size=1, max_size=120)
wide_points = st.lists(st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)),
                       min_size=1, max_size=120)


@given(st.one_of(grid_points, wide_points))
@settings(max_examples=300)
def test_hull_equals_oracle_on_pixel_centres(pts):
    _assert_same_hull(_centres(pts))


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.lists(st.integers(-40, 40), min_size=1, max_size=60))
def test_hull_equals_oracle_on_collinear_points(base, step, ts):
    # every point on one line, repeats included: the octagon is flat
    pts = [(base[0] + t * step[0], base[1] + t * step[1]) for t in ts]
    _assert_same_hull(_centres(pts))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=16))
def test_hull_equals_oracle_on_small_sets(pts):
    _assert_same_hull(_centres(pts))


@pytest.mark.parametrize("pts", [
    [(3, 4)] * 40,  # one point repeated: every corner is the same
    [(0, 0)] * 20 + [(5, 9)] * 20,  # two points: two corners
    [(0, 0), (8, 0), (0, 8)] * 10 + [(1, 1)] * 5,  # three corners, one inside
    [(x, 0) for x in range(30)] + [(0, 1)],  # a line and one point off it
    [(x, y) for x in range(9) for y in range(9)],  # a grid: points on every side
], ids=["one", "two", "triangle", "line-plus-one", "grid"])
def test_hull_equals_oracle_on_degenerate_octagons(pts):
    _assert_same_hull(_centres(pts))


def test_hull_equals_oracle_on_a_filled_disc():
    # most of the points lie strictly inside the octagon
    yy, xx = np.mgrid[0:61, 0:61]
    ys, xs = np.nonzero((xx - 30) ** 2 + (yy - 27) ** 2 <= 28 ** 2)
    pts = _centres(np.column_stack([xs, ys]))
    _assert_same_hull(pts)
    _assert_same_hull(pts[::-1])


# -- warp_to_upright -------------------------------------------------------------

def _warp_oracle(img: BinaryImage, r: RotatedRect) -> np.ndarray:
    out_w = int(round(r.size_w))
    out_h = int(round(r.size_h))
    t = math.radians(r.angle)
    c, s = math.cos(t), math.sin(t)
    cx, cy = r.center
    u = (np.arange(out_w) + 0.5 - out_w / 2.0) * (r.size_w / out_w)
    v = (np.arange(out_h)[:, None] + 0.5 - out_h / 2.0) * (r.size_h / out_h)
    sx = np.floor(cx + u * c - v * s).astype(np.int64)
    sy = np.floor(cy + u * s + v * c).astype(np.int64)
    h_src, w_src = img.px.shape
    valid = (sx >= 0) & (sx < w_src) & (sy >= 0) & (sy < h_src)
    out = np.zeros((out_h, out_w), dtype=bool)
    out[valid] = img.px[sy[valid], sx[valid]]
    return out


def _noisy(h: int, w: int, seed: int) -> BinaryImage:
    return BinaryImage(np.random.default_rng(seed).random((h, w)) < 0.5)


EXACT_ANGLES = [0.0, 45.0, -45.0, 90.0, -90.0, 180.0, -180.0, 270.0, -270.0, 360.0]


@pytest.mark.parametrize("angle", EXACT_ANGLES)
def test_warp_equals_oracle_at_exact_angles(angle):
    img = _noisy(90, 110, 4)
    # sizes past 64 rows cross block edges; the larger rects spill past
    # the source on every side
    for center, w, h in [((55.0, 45.0), 40.0, 70.0), ((55.5, 45.5), 150.0, 131.0),
                         ((3.2, 88.7), 65.4, 129.6), ((109.0, 0.0), 1.0, 200.0)]:
        r = RotatedRect(center, w, h, angle)
        assert np.array_equal(warp_to_upright(img, r).px, _warp_oracle(img, r))


@given(st.floats(-400.0, 400.0), st.floats(-30.0, 130.0), st.floats(-30.0, 130.0),
       st.floats(0.6, 170.0), st.floats(0.6, 170.0), st.integers(0, 3))
@example(-90.0, 50.0, 40.0, 64.0, 128.0, 0)
@example(-45.0, 0.0, 0.0, 169.0, 169.0, 1)
def test_warp_equals_oracle_at_random_poses(angle, cx, cy, w, h, seed):
    img = _noisy(80, 100, seed)
    r = RotatedRect((cx, cy), w, h, angle)
    assert np.array_equal(warp_to_upright(img, r).px, _warp_oracle(img, r))


# -- measure_axes: the tip mask ----------------------------------------------------

def _tip_oracle(bolt: OrientedBolt) -> np.ndarray:
    ys, xs = np.nonzero(bolt.src.px)
    ux, uy = bolt.axis_u
    pu = (xs + 0.5) * ux + (ys + 0.5) * uy
    keep = pu >= bolt.axis_c
    tip = np.zeros(bolt.src.px.shape, dtype=bool)
    tip[ys[keep], xs[keep]] = True
    return tip


def _tip_of(bolt: OrientedBolt) -> np.ndarray:
    """The mask measure_axes fits its rect to, or None for an empty tip."""
    seen = []
    real = pipeline.rect_of_mask

    def capture(img):
        seen.append(img.px.copy())
        return real(img)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "rect_of_mask", capture)
        try:
            measure_axes(bolt)
        except MalformedBoltError:
            return None
    return seen[0]


def _bolt(src: BinaryImage, axis_u, axis_c: float) -> OrientedBolt:
    """An OrientedBolt built by hand; measure_axes reads src and the axis."""
    return OrientedBolt(img=src, counts=np.count_nonzero(src.px, axis=0),
                        profile=column_profile(src), src=src,
                        axis_u=axis_u, axis_c=axis_c)


def _assert_same_tip(bolt: OrientedBolt) -> None:
    want = _tip_oracle(bolt)
    got = _tip_of(bolt)
    if not want.any():
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)


def _render_mask(name: str, angle: float) -> BinaryImage:
    spec = next(s for s in standard_catalog() if s.name == name)
    side = math.ceil(math.hypot(spec.length_mm * 12.42, spec.head_width_mm * 12.42)) + 10
    img, _ = render_bolt(spec, RenderParams(side, side, PixelPoint(side // 2, side // 2),
                                            angle_deg=angle, px_per_mm=12.42))
    return img


@pytest.mark.parametrize("angle", [0.0, 17.0, 90.0, 135.0, 180.0, 241.0, 270.0, 333.0])
def test_tip_equals_oracle_on_oriented_renders(angle):
    # -90 degree rects give ux = cos(-pi/2), about 6e-17 rather than 0
    _assert_same_tip(orient(_render_mask("M6x40_HT", angle)))


@pytest.mark.parametrize("axis_u", [(0.0, 1.0), (0.0, -1.0), (-0.0, 1.0), (-0.0, -1.0)])
def test_tip_equals_oracle_when_ux_is_zero(axis_u):
    src = _noisy(40, 30, 7)
    for axis_c in [-25.0, -20.5, 0.0, 12.5, 13.0, 20.0, 39.5, 45.0]:
        _assert_same_tip(_bolt(src, axis_u, axis_c))


@pytest.mark.parametrize("axis_u", [(0.6, 0.8), (-0.6, 0.8), (0.8, -0.6), (-0.8, -0.6),
                                    (1.0, 0.0), (-1.0, 0.0), (6.123e-17, 1.0),
                                    (-6.123e-17, -1.0), (1e-300, 1.0)])
def test_tip_equals_oracle_with_the_cut_through_pixel_centres(axis_u):
    # axis_c is the projection of a pixel centre, so pixels sit exactly
    # on the cut and the >= decides them
    src = _noisy(37, 41, 8)
    ux, uy = axis_u
    for x, y in [(0, 0), (20, 18), (40, 36), (7, 30)]:
        _assert_same_tip(_bolt(src, axis_u, (x + 0.5) * ux + (y + 0.5) * uy))


@given(arrays(bool, st.tuples(st.integers(1, 40), st.integers(1, 40))),
       st.floats(0.0, 2.0 * math.pi), st.floats(-60.0, 60.0))
def test_tip_equals_oracle_at_random_axes(px, theta, axis_c):
    src = BinaryImage(px)
    _assert_same_tip(_bolt(src, (math.cos(theta), math.sin(theta)), axis_c))


def test_empty_tip_still_raises():
    bolt = _bolt(_noisy(20, 20, 1), (1.0, 0.0), 1e6)
    with pytest.raises(MalformedBoltError):
        measure_axes(bolt)


# -- white_runs ------------------------------------------------------------------

def _runs_oracle(px: np.ndarray):
    h, w = px.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = px
    flat = padded.ravel()
    t = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = t[0::2], t[1::2]
    return starts // (w + 2), starts % (w + 2), ends % (w + 2) - 1


def _assert_same_runs(px: np.ndarray) -> None:
    got, want = white_runs(px), _runs_oracle(px)
    for g, o in zip(got, want):
        assert g.dtype == o.dtype and np.array_equal(g, o)


@pytest.mark.parametrize("h, w, blocks", [
    (40, 30, 1),
    (300, 1000, 2),        # the second block is short
    (2048, 2048, 17),      # a large frame
    (3, 300_000, 3),       # each row is wider than a block
    (1, 500, 1),
])
def test_runs_equal_oracle_across_blocks(h, w, blocks):
    step = max(1, imagecore._RUN_BLOCK // (w + 2))
    assert -(-h // step) == blocks
    _assert_same_runs(_noisy(h, w, h + w).px)


@given(arrays(bool, st.tuples(st.integers(1, 30), st.integers(1, 30))),
       st.integers(1, 100))
def test_runs_equal_oracle_at_random_block_sizes(px, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imagecore, "_RUN_BLOCK", block)
        _assert_same_runs(px)
