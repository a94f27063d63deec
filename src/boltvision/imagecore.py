"""Raster primitives: image types, thresholding, labelling and PGM I/O.

Coordinates are pixel indices, x to the right and y down.  A pixel (x, y)
covers the unit square [x, x+1) x [y, y+1); code that needs sub-pixel
positions (the geometry module) works with pixel centers at (x+0.5, y+0.5).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PgmFormatError

_WHITESPACE = frozenset(b" \t\r\n\x0b\x0c")
# pixel pairs per np.bincount call in otsu_level: bincount widens its
# input to intp, 8 bytes a pair, so a whole 2048x2048 frame would copy to
# 16 MB where a block copies to 512 kB
_HIST_BLOCK = 1 << 16
# padded bytes per block of rows in white_runs: the padded copy and its
# comparison stay this small where whole-frame ones take 4 MB each on a
# 2048x2048 frame
_RUN_BLOCK = 1 << 18


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


def _read_only(a: np.ndarray, dtype) -> np.ndarray:
    """a itself when it is read-only and of dtype, else a read-only copy
    of it in dtype."""
    if a.dtype != dtype or a.flags.writeable:
        a = a.astype(dtype)
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale image with a read-only pixel array.

    A writeable uint8 array is copied, and any other dtype converted, so
    later writes through the caller's array never reach the image.  A
    read-only uint8 array is kept as it is, view or not, so whoever holds
    its base must not change it; a view of immutable bytes, as read_pgm
    makes, never can.
    """

    px: np.ndarray

    def __post_init__(self):
        a = _as_2d(self.px, "gray image")
        if a.dtype != np.uint8 and a.size and (a.min() < 0 or a.max() > 255):
            raise ParameterError("gray pixel values must lie in 0..255")
        object.__setattr__(self, "px", _read_only(a, np.uint8))

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
    """Binary image, True is foreground (white), with a read-only array.

    Copies and conversions follow GrayImage: a writeable bool array is
    copied, another dtype converted, and a read-only bool array kept.
    """

    px: np.ndarray

    def __post_init__(self):
        a = _as_2d(self.px, "binary image")
        object.__setattr__(self, "px", _read_only(a, np.bool_))

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

    The histogram counts the pixels two at a time: the raster read as
    16-bit words is counted into 65,536 bins, one per pair of values, and
    each value's count is its row sum plus its column sum of that 256 x 256
    table; an odd last pixel is added on its own.
    """
    flat = img.px.ravel()
    words = flat[: flat.size & ~1].view(np.uint16)
    pairs = np.zeros(1 << 16, dtype=np.int64)
    for i in range(0, words.size, _HIST_BLOCK):
        pairs += np.bincount(words[i : i + _HIST_BLOCK], minlength=1 << 16)
    pairs = pairs.reshape(256, 256)
    counts = pairs.sum(0) + pairs.sum(1)
    if flat.size & 1:
        counts[flat[-1]] += 1
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
    """Binarise: white iff value > level; None picks otsu_level(img).

    A level must be an integer (Python or numpy) in 0..255.
    """
    if level is None:
        level = otsu_level(img)
    else:
        try:
            level = operator.index(level)
        except TypeError:
            raise ParameterError(f"threshold level must be an integer, got {level!r}") from None
        if not 0 <= level <= 255:
            raise ParameterError(f"threshold level must lie in 0..255, got {level}")
    out = img.px > level
    out.setflags(write=False)
    return BinaryImage(out)


def white_runs(px: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal horizontal white runs as (rows, starts, ends), ends inclusive.

    Sorted by (row, start).  A padding column on each side keeps row
    transitions from merging across the raveled row boundary.  The rows
    are padded and compared a block of about 256 kB at a time (one row at
    least), in one buffer whose padding columns stay black, so no
    frame-sized copy or comparison is made.
    """
    h, w = px.shape
    stride = w + 2
    step = max(1, _RUN_BLOCK // stride)
    padded = np.zeros((min(h, step), stride), dtype=bool)
    rows, starts, ends = [], [], []
    for r0 in range(0, h, step):
        block = px[r0 : r0 + step]
        pad = padded[: block.shape[0]]
        pad[:, 1:-1] = block
        flat = pad.ravel()
        # the padding makes every run open and close inside its row, so
        # the changes alternate start, end
        t = np.flatnonzero(flat[1:] != flat[:-1])
        s, e = t[0::2], t[1::2]
        rows.append(s // stride + r0)
        starts.append(s % stride)
        ends.append(e % stride - 1)
    return np.concatenate(rows), np.concatenate(starts), np.concatenate(ends)


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
        mask.setflags(write=False)
        comps.append(Component(BinaryImage(mask), rect, int(areas[g])))
    return comps


def rotate180(img):
    """Rotate half a turn, preserving the image type; a view of img's
    read-only array."""
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
    """Decode binary PGM (P5). Accepts comments and loose header whitespace.

    The image is a read-only view of data's raster, not a copy.
    """
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
    white = px == 255
    white.setflags(write=False)
    return BinaryImage(white)


def write_binary_pgm(img: BinaryImage) -> bytes:
    """Encode canonical P5 with white as 255 and black as 0."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + (img.px.astype(np.uint8) * 255).tobytes()
