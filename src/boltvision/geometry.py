"""Column profile, hull, the minimum-area rectangle and the upright warp.

A column profile lists, for each column of a binary image that holds
white, its topmost and bottommost white row; it stands in for the
boundary of an upright part.  Point sets are plain (n, 2) numpy arrays
of (x, y) rows.  Sub-pixel positions use the corner-space convention
from imagecore: pixel (x, y) covers [x, x+1) x [y, y+1) and has its
center at (x+0.5, y+0.5).  Rectangle sizes are pixel extents: caliper
extents over pixel centers plus one, so a single pixel measures 1x1 and
an axis-aligned w x h block measures exactly (w, h).  Polygon
orientation is counter-clockwise as drawn on screen (y down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyInputError, GeometryError
from .imagecore import BinaryImage


class PointF(NamedTuple):
    """Sub-pixel position."""

    x: float
    y: float


@dataclass(frozen=True)
class RotatedRect:
    """Oriented rectangle: center, sizes and an angle in [-90, 0) degrees.

    size_w lies along direction (cos angle, sin angle); it is the edge that
    leaves the lowest corner counter-clockwise.  An axis-aligned enclosure
    therefore reports angle -90 with size_w vertical.
    """

    center: PointF
    size_w: float
    size_h: float
    angle: float

    @property
    def area(self) -> float:
        return self.size_w * self.size_h

    def corners(self) -> list[PointF]:
        """Corner loop, counter-clockwise on screen, lowest corner first."""
        t = math.radians(self.angle)
        wx, wy = math.cos(t), math.sin(t)
        hx, hy = -math.sin(t), math.cos(t)
        cx, cy = self.center
        w2, h2 = self.size_w / 2.0, self.size_h / 2.0
        c0 = PointF(cx - w2 * wx + h2 * hx, cy - w2 * wy + h2 * hy)
        c1 = PointF(c0.x + self.size_w * wx, c0.y + self.size_w * wy)
        c2 = PointF(c1.x - self.size_h * hx, c1.y - self.size_h * hy)
        c3 = PointF(c0.x - self.size_h * hx, c0.y - self.size_h * hy)
        return [c0, c1, c2, c3]


def column_profile(img: BinaryImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, top, bot): the columns that hold white, left to right, and
    each one's topmost and bottommost white row, as int arrays."""
    px = img.px
    cols = np.flatnonzero(px.any(axis=0))
    top = np.argmax(px, axis=0)[cols]
    bot = px.shape[0] - 1 - np.argmax(px[::-1], axis=0)[cols]
    return cols, top, bot


def loop_length(top: np.ndarray, bot: np.ndarray) -> float:
    """Length of the loop round a column profile, counted as a Moore walk
    counts a boundary: along the top and along the bottom, a step to the
    next column costs 1 when flat and sqrt(2) + |dy| - 1 otherwise, and the
    two end columns add their heights.  A lone pixel measures 0.
    """
    if len(top) == 0:
        return 0.0
    dy = np.abs(np.concatenate([np.diff(top), np.diff(bot)]))
    steps = np.where(dy == 0, 1.0, math.sqrt(2.0) + dy - 1.0)
    return float(steps.sum() + (bot[0] - top[0]) + (bot[-1] - top[-1]))


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of (x, y) points as an (m, 2) float array.

    Counter-clockwise on screen, collinear points removed, starting at the
    lexicographically smallest point.  One distinct point hulls to itself;
    collinear input hulls to its two extremes.
    """
    uniq = np.unique(np.asarray(points, dtype=np.float64).reshape(-1, 2), axis=0)
    if len(uniq) == 0:
        raise EmptyInputError("convex_hull of no points")
    if len(uniq) == 1:
        return uniq
    pts = uniq.tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) > 2:
        # monotone chain builds the screen-clockwise cycle; flip it while
        # keeping the smallest point in front
        hull = [hull[0]] + hull[:0:-1]
    return np.array(hull, dtype=np.float64)


def _extents(arr: np.ndarray, ux: float, uy: float) -> tuple[float, float]:
    proj = arr[:, 0] * ux + arr[:, 1] * uy
    return float(proj.min()), float(proj.max())


def _mask_rect_px(px: np.ndarray) -> RotatedRect | None:
    """rect_of_mask on a bool array; None when it is blank."""
    rows = np.flatnonzero(px.any(axis=1))
    if rows.size == 0:
        return None
    sub = px[rows]
    left = np.argmax(sub, axis=1)
    right = px.shape[1] - 1 - np.argmax(sub[:, ::-1], axis=1)
    ys = np.concatenate([rows, rows]).astype(np.float64) + 0.5
    xs = np.concatenate([left, right]).astype(np.float64) + 0.5
    hull = convex_hull(np.column_stack([xs, ys]))
    # candidate angles: every hull edge (a 2-point hull has one), plus 0 so
    # axis-aligned input wins ties deterministically
    m = len(hull)
    edges = (np.roll(hull, -1, axis=0) - hull)[: m if m > 2 else m - 1]
    cands = [0.0] + [math.atan2(dy, dx) for dx, dy in edges.tolist()]
    best_area = math.inf
    best_t = 0.0
    for t in cands:
        c, s = math.cos(t), math.sin(t)
        lo1, hi1 = _extents(hull, c, s)
        lo2, hi2 = _extents(hull, -s, c)
        area = (hi1 - lo1 + 1.0) * (hi2 - lo2 + 1.0)
        if area < best_area - 1e-12:
            best_area = area
            best_t = t
    angle = math.degrees(best_t) % 90.0 - 90.0
    t = math.radians(angle)
    wx, wy = math.cos(t), math.sin(t)
    lo_w, hi_w = _extents(hull, wx, wy)
    lo_h, hi_h = _extents(hull, -wy, wx)
    mw = (lo_w + hi_w) / 2.0
    mh = (lo_h + hi_h) / 2.0
    center = PointF(mw * wx + mh * -wy, mw * wy + mh * wx)
    return RotatedRect(center, hi_w - lo_w + 1.0, hi_h - lo_h + 1.0, angle)


def rect_of_mask(img: BinaryImage) -> RotatedRect:
    """Minimum-area enclosing rectangle of an image's white pixels.

    Rotating calipers on the convex hull of the pixel centers, taken from
    each row's leftmost and rightmost white pixel, which hull the same as
    the whole pixel set; extents are dilated by 1 so the result reads as a
    pixel count.  One edge is flush with a hull edge, the angle lands in
    [-90, 0), and ties prefer the axis-aligned candidate.
    """
    rect = _mask_rect_px(img.px)
    if rect is None:
        raise EmptyInputError("rect_of_mask of an all-black image")
    return rect


def is_contour_convex(c: np.ndarray, tol: float = 1.5) -> bool:
    """True when no point of c dents deeper than tol inside its hull.

    Pixelation puts genuine corners a fraction of a pixel off the hull, so
    the default tolerance accepts deviations up to 1.5 px.  Fewer than 3
    distinct points count as convex.
    """
    pts = np.asarray(c, dtype=np.float64)
    hull = convex_hull(pts)
    if len(hull) < 3:
        return True
    best = np.full(pts.shape[0], np.inf)
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        ab = b - a
        denom = float(ab @ ab)
        t = ((pts - a) @ ab) / denom
        np.clip(t, 0.0, 1.0, out=t)
        closest = a + t[:, None] * ab
        d = np.hypot(pts[:, 0] - closest[:, 0], pts[:, 1] - closest[:, 1])
        np.minimum(best, d, out=best)
    return float(best.max()) <= tol


def warp_to_upright(img: BinaryImage, r: RotatedRect) -> BinaryImage:
    """Resample the rect's content into an upright round(w) x round(h) image.

    Output pixel centers are mapped back into the source by the rect's
    rotation about its center, scaled by size / round(size) so the output
    spans the rect exactly, and sampled nearest-neighbor, so the result
    stays strictly binary; samples outside the source are black.  Output x
    runs along the rect's size_w axis.
    """
    if not (math.isfinite(r.size_w) and math.isfinite(r.size_h)):
        raise GeometryError("rect size is not finite")
    out_w = int(round(r.size_w))
    out_h = int(round(r.size_h))
    if out_w < 1 or out_h < 1:
        raise GeometryError(f"degenerate rect size ({r.size_w}, {r.size_h})")
    t = math.radians(r.angle)
    c, s = math.cos(t), math.sin(t)
    cx, cy = r.center
    # offsets from the rect center along its w axis (columns) and h axis
    # (rows), broadcast to an out_h x out_w grid below
    u = (np.arange(out_w) + 0.5 - out_w / 2.0) * (r.size_w / out_w)
    v = (np.arange(out_h)[:, None] + 0.5 - out_h / 2.0) * (r.size_h / out_h)
    sx = np.floor(cx + u * c - v * s).astype(np.int64)
    sy = np.floor(cy + u * s + v * c).astype(np.int64)
    h_src, w_src = img.px.shape
    valid = (sx >= 0) & (sx < w_src) & (sy >= 0) & (sy < h_src)
    out = np.zeros((out_h, out_w), dtype=bool)
    out[valid] = img.px[sy[valid], sx[valid]]
    return BinaryImage(out)
