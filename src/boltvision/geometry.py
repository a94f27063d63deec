"""Column profile, hull, the minimum-area rectangle and the upright warp.

A column profile lists, for each column of a binary image that holds
white, its topmost and bottommost white row; it stands in for the
boundary of an upright part.  Point sets are plain (n, 2) numpy arrays
of (x, y) rows; the rectangle reads a part's pixels as its white runs
(imagecore.white_runs), of which only each row's two ends matter.
Sub-pixel positions use the corner-space convention from imagecore:
pixel (x, y) covers [x, x+1) x [y, y+1) and has its center at
(x+0.5, y+0.5).  Rectangle sizes are pixel extents: caliper
extents over pixel centers plus one, so a single pixel measures 1x1 and
an axis-aligned w x h block measures exactly (w, h).  Polygon
orientation is counter-clockwise as drawn on screen (y down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, GeometryError
from .imagecore import BinaryImage

# output rows per block in warp_to_upright: the float and index grids of
# a block stay small where whole-image grids of a large part take tens
# of MB
_WARP_ROWS = 64


@dataclass(frozen=True)
class RotatedRect:
    """Oriented rectangle: center, a long and a short side, and the long
    side's unit direction.

    size_w >= size_h, and size_w lies along axis; size_h lies along axis
    turned a quarter, (-axis[1], axis[0]).
    """

    center: tuple[float, float]
    size_w: float
    size_h: float
    axis: tuple[float, float]

    @property
    def area(self) -> float:
        return self.size_w * self.size_h


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


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _outside_octagon(pts: np.ndarray) -> np.ndarray:
    """Mask of the points not strictly inside the octagon spanned by the
    extremes of x, y, x + y and x - y (Akl & Toussaint 1978).

    The extremes are taken in turn around the set, so the octagon is
    convex and lies inside the hull: a point strictly inside it is no
    hull vertex.  Repeated corners are merged; a degenerate octagon
    (fewer than three corners, or all on a line) has no inside.
    """
    x, y = pts[:, 0], pts[:, 1]
    s, d = x + y, x - y
    # the extremes along (1, 0), (1, 1), (0, 1), (-1, 1) and their negations
    picks = [x.argmax(), s.argmax(), y.argmax(), (-d).argmax(),
             x.argmin(), s.argmin(), y.argmin(), d.argmax()]
    corners: list[list[float]] = []
    for p in pts[picks].tolist():
        if not corners or p != corners[-1]:
            corners.append(p)
    if len(corners) > 1 and corners[0] == corners[-1]:
        corners.pop()
    if len(corners) < 3:
        return np.ones(len(pts), dtype=bool)
    inside = np.ones(len(pts), dtype=bool)
    for a, b in zip(corners, corners[1:] + corners[:1]):
        inside &= _cross(a, b, (x, y)) > 0
    return ~inside


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of (x, y) points as an (m, 2) float array.

    Counter-clockwise on screen, collinear points removed, starting at the
    lexicographically smallest point.  One distinct point hulls to itself;
    collinear input hulls to its two extremes.  Points strictly inside the
    octagon of the x, y, x + y and x - y extremes are dropped first; that
    leaves the hull as it was wherever the cross products are exact, as
    they are on pixel centres.  Andrew's monotone chain then runs on the
    sorted distinct points that remain.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) == 0:
        raise EmptyInputError("convex_hull of no points")
    uniq = np.unique(pts[_outside_octagon(pts)], axis=0)
    if len(uniq) == 1:
        return uniq
    pts = uniq.tolist()

    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) > 2:
        # monotone chain builds the screen-clockwise cycle; flip it while
        # keeping the smallest point in front
        hull = [hull[0]] + hull[:0:-1]
    return np.array(hull, dtype=np.float64)


def rect_of_runs(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> RotatedRect:
    """Minimum-area enclosing rectangle of a set of white runs.

    The runs are imagecore.white_runs' (rows, starts, ends), sorted by
    (row, start), so each row's leftmost white pixel starts its first run
    and its rightmost ends its last.  Rotating calipers run on the convex
    hull of those pixels' centres, which hull the same as the whole pixel
    set; extents are dilated by 1 so the result reads as a pixel count.
    The candidate directions are +x, then each hull edge in hull order,
    all projected in one pass, and the first of equal areas wins, so
    axis-aligned input keeps an exact axis.  The winner's longer extent
    is size_w, along its direction or that direction turned a quarter.
    """
    if rows.size == 0:
        raise EmptyInputError("rect_of_runs of no runs")
    new_row = rows[1:] != rows[:-1]
    first = np.r_[True, new_row]
    last = np.r_[new_row, True]
    ys = np.concatenate([rows[first], rows[last]]).astype(np.float64) + 0.5
    xs = np.concatenate([starts[first], ends[last]]).astype(np.float64) + 0.5
    hull = convex_hull(np.column_stack([xs, ys]))
    # a 2-point hull has one edge
    m = len(hull)
    edges = (np.roll(hull, -1, axis=0) - hull)[: m if m > 2 else m - 1]
    cands = np.vstack([[1.0, 0.0], edges / np.hypot(*edges.T)[:, None]])
    c, s = cands[:, :1], cands[:, 1:]
    hx, hy = hull[:, 0], hull[:, 1]
    p1 = hx * c + hy * s
    p2 = hx * (-s) + hy * c
    lo1, hi1 = p1.min(axis=1), p1.max(axis=1)
    lo2, hi2 = p2.min(axis=1), p2.max(axis=1)
    w, h = hi1 - lo1 + 1.0, hi2 - lo2 + 1.0
    best_area = math.inf
    for k, area in enumerate((w * h).tolist()):
        if area < best_area - 1e-12:
            best_area, best = area, k
    c, s = cands[best].tolist()
    w, h = float(w[best]), float(h[best])
    m1, m2 = (lo1[best] + hi1[best]) / 2.0, (lo2[best] + hi2[best]) / 2.0
    center = (float(m1 * c - m2 * s), float(m1 * s + m2 * c))
    if w < h:
        return RotatedRect(center, h, w, (-s, c))
    return RotatedRect(center, w, h, (c, s))


def warp_to_upright(img: BinaryImage, r: RotatedRect) -> BinaryImage:
    """Resample the rect's content into an upright round(w) x round(h) image.

    Output pixel centers are mapped back into the source by the rotation
    that takes +x to the rect's axis, about its center, scaled by size /
    round(size) so the output spans the rect exactly, and sampled
    nearest-neighbor, so the result stays strictly binary; samples outside
    the source are black.  Output x runs along the axis, output y along
    the axis turned a quarter.  The output is filled a block of rows at a
    time: the source coordinates stay floats until the bounds test, and a
    sample inside the source truncates to its pixel, which for a
    non-negative coordinate is its floor.
    """
    if not all(map(math.isfinite, (r.size_w, r.size_h, *r.axis))):
        raise GeometryError("rect size or axis is not finite")
    out_w = int(round(r.size_w))
    out_h = int(round(r.size_h))
    if out_w < 1 or out_h < 1:
        raise GeometryError(f"degenerate rect size ({r.size_w}, {r.size_h})")
    c, s = r.axis
    cx, cy = r.center
    # offsets from the rect center along its w axis (columns) and h axis
    # (rows)
    u = (np.arange(out_w) + 0.5 - out_w / 2.0) * (r.size_w / out_w)
    v = (np.arange(out_h)[:, None] + 0.5 - out_h / 2.0) * (r.size_h / out_h)
    x0, y0 = cx + u * c, cy + u * s
    h_src, w_src = img.px.shape
    src = img.px.ravel()
    out = np.empty((out_h, out_w), dtype=bool)
    for r0 in range(0, out_h, _WARP_ROWS):
        vb = v[r0 : r0 + _WARP_ROWS]
        fx = x0 - vb * s
        fy = y0 + vb * c
        valid = (fx >= 0) & (fx < w_src) & (fy >= 0) & (fy < h_src)
        idx = fy.astype(np.intp)
        idx *= w_src
        idx += fx.astype(np.intp)
        # an index outside the source is clipped to it, then masked off
        out[r0 : r0 + _WARP_ROWS] = src.take(idx, mode="clip") & valid
    out.setflags(write=False)
    return BinaryImage(out)
