"""Raster primitives: image types, thresholding, labelling and PGM I/O.

Coordinates are pixel indices, x to the right and y down.  A pixel (x, y)
covers the unit square [x, x+1) x [y, y+1); code that needs sub-pixel
positions (the geometry module) works with pixel centers at (x+0.5, y+0.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundsError, ParameterError, PgmFormatError

_WHITESPACE = frozenset(b" \t\r\n\x0b\x0c")
# pixels per np.bincount call in otsu_level: bincount widens its input to
# intp, 8 bytes a pixel, so a whole 2048x2048 frame would copy to 32 MB
_HIST_BLOCK = 1 << 16


class PixelPoint(NamedTuple):
    """Integer pixel position."""

    x: int
    y: int


class AxisRect(NamedTuple):
    """Axis-aligned rectangle in pixel units, (x, y) is the top-left pixel."""

    x: int
    y: int
    w: int
    h: int


def _as_2d(px: object, what: str) -> np.ndarray:
    a = np.asarray(px)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ParameterError(f"{what} must be a non-empty 2-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale image. The pixel array is copied and made read-only."""

    px: np.ndarray

    def __post_init__(self):
        a = _as_2d(self.px, "gray image")
        if a.dtype != np.uint8:
            if a.size and (a.min() < 0 or a.max() > 255):
                raise ParameterError("gray pixel values must lie in 0..255")
            a = a.astype(np.uint8)
        else:
            a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "px", a)

    @property
    def width(self) -> int:
        return self.px.shape[1]

    @property
    def height(self) -> int:
        return self.px.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return np.array_equal(self.px, other.px)


@dataclass(frozen=True, eq=False)
class BinaryImage:
    """Binary image, True is foreground (white). Copied and made read-only."""

    px: np.ndarray

    def __post_init__(self):
        a = _as_2d(self.px, "binary image")
        a = a.astype(bool) if a.dtype != np.bool_ else a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "px", a)

    @property
    def width(self) -> int:
        return self.px.shape[1]

    @property
    def height(self) -> int:
        return self.px.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return np.array_equal(self.px, other.px)


class Component(NamedTuple):
    """One connected component: its mask, cropped to the bounding rect, and
    its white pixel count."""

    mask: BinaryImage
    rect: AxisRect
    area: int


def otsu_level(img: GrayImage) -> int:
    """Threshold level maximising between-class variance.

    The level is the largest value still counted as background, so a pixel
    is white iff value > level.  Ties resolve to the lowest level.  On a
    uniform image every split is equally bad and level 0 is returned.
    """
    flat = img.px.ravel()
    counts = np.zeros(256, dtype=np.int64)
    for i in range(0, flat.size, _HIST_BLOCK):
        counts += np.bincount(flat[i : i + _HIST_BLOCK], minlength=256)
    hist = counts.tolist()
    n = sum(hist)
    total = sum(v * c for v, c in enumerate(hist))
    # the variance is num / den; exact integers keep equal splits tied,
    # where floats can round a later level above an earlier one
    best, best_num, best_den = 0, 0, 1
    w0 = cum = 0
    for level, count in enumerate(hist):
        w0 += count
        cum += level * count
        w1 = n - w0
        num, den = (cum * w1 - (total - cum) * w0) ** 2, w0 * w1
        if den and num * best_den > best_num * den:
            best, best_num, best_den = level, num, den
    return best


def threshold(img: GrayImage, level: int | None = None) -> BinaryImage:
    """Binarise: white iff value > level; None picks otsu_level(img)."""
    if level is None:
        level = otsu_level(img)
    elif not 0 <= int(level) <= 255:
        raise ParameterError(f"threshold level must lie in 0..255, got {level}")
    return BinaryImage(img.px > int(level))


def white_runs(px: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal horizontal white runs as (rows, starts, ends), ends inclusive.

    Sorted by (row, start).  A padding column on each side keeps row
    transitions from merging across the raveled row boundary.
    """
    h, w = px.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = px
    flat = padded.ravel()
    # the padding makes every run open and close inside its row, so the
    # changes alternate start, end
    t = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = t[0::2], t[1::2]
    return starts // (w + 2), starts % (w + 2), ends % (w + 2) - 1


def connected_components(img: BinaryImage, min_area: int = 0) -> list[Component]:
    """Label 8-connected foreground regions of at least min_area pixels.

    Returns one Component per such region, each mask cropped to its
    bounding rect, ordered row-major by the rect's top-left corner; ties
    go to the region whose first run comes first.  Smaller regions are
    dropped before their masks are built.
    """
    rows, starts, ends = white_runs(img.px)
    n = rows.size
    if n == 0:
        return []
    # run i touches run j of the row above when their columns overlap or
    # meet diagonally; on keys row * (w + 2) + column the runs of one row
    # are sorted, so those j form the index range lo[i]:hi[i]
    stride = img.width + 2
    row_above = (rows - 1) * stride
    lo = np.searchsorted(rows * stride + ends, row_above + starts - 1)
    hi = np.searchsorted(rows * stride + starts, row_above + ends + 1, side="right")
    counts = hi - lo
    below = np.repeat(np.arange(n), counts)
    offset = np.cumsum(counts) - counts
    upper = np.repeat(lo - offset, counts) + np.arange(below.size)

    # hook the larger root of each pair that spans two roots under the
    # smaller one, then flatten, so every run ends up labelled with the
    # first run of its region
    lab = np.arange(n)
    while True:
        a, b = lab[upper], lab[below]
        spans = a != b
        if not spans.any():
            break
        upper, below, a, b = upper[spans], below[spans], a[spans], b[spans]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            flat = lab[lab]
            if np.array_equal(flat, lab):
                break
            lab = flat

    # group the runs of each region, first run first
    order = np.argsort(lab, kind="stable")
    rows, starts, ends = rows[order], starts[order], ends[order]
    first = np.flatnonzero(np.diff(lab[order], prepend=-1))
    last = np.append(first[1:], n) - 1
    y0s, y1s = rows[first], rows[last]
    x0s = np.minimum.reduceat(starts, first)
    x1s = np.maximum.reduceat(ends, first)
    areas = np.add.reduceat(ends - starts + 1, first)
    keep = np.flatnonzero(areas >= min_area)
    keep = keep[np.lexsort((x0s[keep], y0s[keep]))]

    rows, starts, ends = rows.tolist(), starts.tolist(), ends.tolist()
    comps = []
    for g in keep.tolist():
        x0, y0 = int(x0s[g]), int(y0s[g])
        rect = AxisRect(x0, y0, int(x1s[g]) - x0 + 1, int(y1s[g]) - y0 + 1)
        mask = np.zeros((rect.h, rect.w), dtype=bool)
        for k in range(first[g], last[g] + 1):
            mask[rows[k] - y0, starts[k] - x0 : ends[k] - x0 + 1] = True
        comps.append(Component(BinaryImage(mask), rect, int(areas[g])))
    return comps


def crop(img, rect: AxisRect):
    """Cut rect out of img. The rect must lie fully inside the image."""
    if rect.w <= 0 or rect.h <= 0:
        raise BoundsError(f"crop rect must have positive size, got {rect}")
    if rect.x < 0 or rect.y < 0 or rect.x + rect.w > img.width or rect.y + rect.h > img.height:
        raise BoundsError(f"crop rect {rect} exceeds image {img.width}x{img.height}")
    return type(img)(img.px[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w])


def rotate180(img):
    """Rotate half a turn, preserving the image type."""
    return type(img)(img.px[::-1, ::-1])


def _parse_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Next header token skipping whitespace and # comments.

    Returns (token, token_offset, position_after_token).
    """
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError("unexpected end of header", n)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], start, pos


def _parse_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """Parse P5 bytes into a (pixels, raster_offset) pair."""
    if data[:2] != b"P5":
        raise PgmFormatError("not a P5 file", 0)
    pos = 2
    dims = []
    for what in ("width", "height"):
        token, off, pos = _parse_token(data, pos)
        if not token.isdigit():
            raise PgmFormatError(f"bad {what} token {token!r}", off)
        value = int(token)
        if value == 0:
            raise PgmFormatError(f"{what} must be positive", off)
        dims.append(value)
    token, off, pos = _parse_token(data, pos)
    if not token.isdigit() or int(token) != 255:
        raise PgmFormatError(f"maxval must be 255, got {token!r}", off)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PgmFormatError("expected single whitespace before raster", pos)
    raster = pos + 1
    w, h = dims
    if len(data) - raster < w * h:
        raise PgmFormatError("truncated raster", len(data))
    tail = raster + w * h
    for k in range(tail, len(data)):
        if data[k] not in _WHITESPACE:
            raise PgmFormatError("trailing data after raster", k)
    px = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=raster).reshape(h, w)
    return px, raster


def read_pgm(data: bytes) -> GrayImage:
    """Decode binary PGM (P5). Accepts comments and loose header whitespace."""
    px, _ = _parse_pgm(data)
    return GrayImage(px)


def write_pgm(img: GrayImage) -> bytes:
    """Encode canonical P5: magic, dims and maxval on one line each."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.px.tobytes()


def read_binary_pgm(data: bytes) -> BinaryImage:
    """Decode P5 holding only values 0 and 255; anything else is an error."""
    px, raster = _parse_pgm(data)
    bad = np.flatnonzero((px != 0) & (px != 255))
    if bad.size:
        raise PgmFormatError(f"pixel value {px.ravel()[bad[0]]} is neither 0 nor 255",
                             raster + int(bad[0]))
    return BinaryImage(px == 255)


def write_binary_pgm(img: BinaryImage) -> bytes:
    """Encode canonical P5 with white as 255 and black as 0."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + (img.px.astype(np.uint8) * 255).tobytes()
