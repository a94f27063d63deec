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


def count_white(img: BinaryImage, region: AxisRect | None = None) -> int:
    """Number of foreground pixels, optionally restricted to a region."""
    if region is None:
        return int(np.count_nonzero(img.px))
    return int(np.count_nonzero(crop(img, region).px))


def otsu_level(img: GrayImage) -> int:
    """Threshold level maximising between-class variance.

    The level is the largest value still counted as background, so a pixel
    is white iff value > level.  Ties resolve to the lowest level.  On a
    uniform image every split is equally bad and level 0 is returned.
    """
    hist = np.bincount(img.px.ravel(), minlength=256).astype(np.float64)
    w0 = np.cumsum(hist)
    w1 = w0[-1] - w0
    cum = np.cumsum(hist * np.arange(256))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = cum / w0
        mu1 = (cum[-1] - cum) / w1
        var = w0 * w1 * (mu0 - mu1) ** 2
    var = np.nan_to_num(var, nan=0.0)
    return int(np.argmax(var))


@dataclass(frozen=True)
class FixedLevel:
    """Threshold at a caller-chosen level."""

    level: int

    def __post_init__(self):
        if not 0 <= int(self.level) <= 255:
            raise ParameterError(
                f"threshold level must lie in 0..255, got {self.level}"
            )


@dataclass(frozen=True)
class Otsu:
    """Threshold at the level picked by otsu_level()."""


def threshold(img: GrayImage, method: FixedLevel | Otsu = Otsu()) -> BinaryImage:
    """Binarise: white iff value > level, the level chosen by the method."""
    if isinstance(method, FixedLevel):
        level = int(method.level)
    elif isinstance(method, Otsu):
        level = otsu_level(img)
    else:
        raise ParameterError(f"unknown threshold method {method!r}")
    return BinaryImage(img.px > level)


def _white_runs(px: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal horizontal white runs as (rows, starts, ends), ends inclusive.

    Sorted by (row, start).  A padding column on each side keeps row
    transitions from merging across the raveled row boundary.
    """
    h, w = px.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = px
    d = np.diff(padded.ravel())
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    rows = starts // (w + 2)
    return rows, starts % (w + 2), ends % (w + 2) - 1


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def connected_components(img: BinaryImage) -> list[Component]:
    """Label 8-connected foreground regions.

    Returns one Component per region, each mask cropped to its bounding
    rect and its area summed from its runs, ordered row-major by the rect's
    top-left corner.
    """
    rows_a, starts_a, ends_a = _white_runs(img.px)
    n = rows_a.size
    if n == 0:
        return []
    rows = rows_a.tolist()
    starts = starts_a.tolist()
    ends = ends_a.tolist()
    row_first = np.searchsorted(rows_a, np.arange(img.height + 1)).tolist()

    parent = list(range(n))
    for r in range(1, img.height):
        i, j = row_first[r - 1], row_first[r]
        i_end, j_end = row_first[r], row_first[r + 1]
        while i < i_end and j < j_end:
            # 8-connectivity: diagonal contact counts, hence the +1 slack
            if starts[i] <= ends[j] + 1 and starts[j] <= ends[i] + 1:
                ri, rj = _find(parent, i), _find(parent, j)
                if ri != rj:
                    parent[rj] = ri
            if ends[i] < ends[j]:
                i += 1
            else:
                j += 1

    groups: dict[int, list[int]] = {}
    for k in range(n):
        groups.setdefault(_find(parent, k), []).append(k)

    comps = []
    for idxs in groups.values():
        y0 = min(rows[k] for k in idxs)
        y1 = max(rows[k] for k in idxs)
        x0 = min(starts[k] for k in idxs)
        x1 = max(ends[k] for k in idxs)
        mask = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
        area = 0
        for k in idxs:
            mask[rows[k] - y0, starts[k] - x0 : ends[k] - x0 + 1] = True
            area += ends[k] - starts[k] + 1
        rect = AxisRect(x0, y0, x1 - x0 + 1, y1 - y0 + 1)
        comps.append(Component(BinaryImage(mask), rect, area))
    comps.sort(key=lambda c: (c.rect.y, c.rect.x))
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
