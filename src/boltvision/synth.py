"""Synthetic bolt rendering with exact ground truth.

The renderer works backwards from geometry to pixels: each pixel center is
tested against the continuous silhouette of a rotated bolt, so there is no
resampling step and the emitted truth values are exact by construction.
The silhouette is a head rectangle plus a shank whose half-width follows a
triangular (60-degree style) thread profile with a flat crest an eighth of
a pitch wide; crests sit flush with the nominal diameter and the outermost
crest is anchored at the tip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvrows import read_rows, write_rows
from .errors import CsvFormatError, GeometryError, ParameterError
from .imagecore import AxisRect, BinaryImage, PixelPoint
from .pipeline import DEFAULT_PX_PER_MM, ThreadingType

# fraction of each pitch spent at full crest width
_CREST_FLAT = 0.125


@dataclass(frozen=True)
class BoltSpec:
    """Nominal bolt geometry in millimetres.

    length_mm is the overall length including the head.  threading FULL
    threads the whole shank; HALF threads only the tip section covered by
    half_thread_frac (rounded down to whole pitches).  Every length is
    finite and positive.
    """

    name: str
    length_mm: float
    diameter_mm: float
    head_width_mm: float
    head_length_mm: float
    pitch_mm: float
    thread_depth_mm: float
    threading: ThreadingType
    half_thread_frac: float = 0.38

    def __post_init__(self):
        if not self.name or not all(
            c.isalnum() or c in "_.-" for c in self.name
        ):
            raise ParameterError(f"bolt name must be a plain token, got {self.name!r}")
        for fld in (
            "length_mm",
            "diameter_mm",
            "head_width_mm",
            "head_length_mm",
            "pitch_mm",
            "thread_depth_mm",
        ):
            value = getattr(self, fld)
            if not (value > 0 and math.isfinite(value)):
                raise ParameterError(f"{fld} must be finite and > 0, got {value}")
        if self.head_width_mm <= self.diameter_mm:
            raise ParameterError(
                f"head_width_mm {self.head_width_mm} must exceed "
                f"diameter_mm {self.diameter_mm}"
            )
        if self.head_length_mm > 0.2 * self.length_mm:
            raise ParameterError(
                f"head_length_mm {self.head_length_mm} exceeds a fifth of "
                f"length_mm {self.length_mm}"
            )
        if self.thread_depth_mm >= self.diameter_mm / 2:
            raise ParameterError(
                f"thread_depth_mm {self.thread_depth_mm} must stay below half "
                f"of diameter_mm {self.diameter_mm}"
            )
        if not isinstance(self.threading, ThreadingType):
            raise ParameterError(f"threading must be a ThreadingType, got {self.threading!r}")
        if not 0.35 <= self.half_thread_frac <= 0.40:
            raise ParameterError(
                f"half_thread_frac must lie in [0.35, 0.40], got {self.half_thread_frac}"
            )


@dataclass(frozen=True)
class RenderParams:
    """Canvas, pose and degradation for one render."""

    canvas_w: int
    canvas_h: int
    center: PixelPoint
    angle_deg: float = 0.0
    px_per_mm: float = DEFAULT_PX_PER_MM
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.canvas_w < 1 or self.canvas_h < 1:
            raise ParameterError(
                f"canvas must be at least 1x1, got {self.canvas_w}x{self.canvas_h}"
            )
        if not self.px_per_mm > 0:
            raise ParameterError(f"px_per_mm must be > 0, got {self.px_per_mm}")
        if not 0.0 <= self.noise <= 0.05:
            raise ParameterError(f"noise must lie in [0, 0.05], got {self.noise}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GroundTruth:
    """Exact expectations for one render.

    Axis lengths and pitch are continuous values (millimetres times
    px_per_mm).  white_count counts the emitted image, noise included;
    placement is the bounding rect of the clean silhouette.
    """

    spec: BoltSpec
    params: RenderParams
    major_px: float
    minor_px: float
    shoulder_col_px: float
    pitch_px: float
    white_count: int
    placement: AxisRect


def _half_width_mm(spec: BoltSpec, u_mm: np.ndarray) -> np.ndarray:
    """Shank half-width at axial position u_mm (0 = head face)."""
    half = np.full(u_mm.shape, spec.diameter_mm / 2.0)
    if spec.threading is ThreadingType.FULL:
        threaded_from = spec.head_length_mm
    else:
        k = math.floor(spec.half_thread_frac * spec.length_mm / spec.pitch_mm)
        threaded_from = spec.length_mm - k * spec.pitch_mm
    t = ((spec.length_mm - u_mm) / spec.pitch_mm) % 1.0
    m = np.abs(2.0 * t - 1.0)
    g = np.clip((1.0 - _CREST_FLAT - m) / (1.0 - _CREST_FLAT), 0.0, 1.0)
    threaded = u_mm >= threaded_from
    half[threaded] -= spec.thread_depth_mm * g[threaded]
    return half


def render_bolt(spec: BoltSpec, params: RenderParams) -> tuple[BinaryImage, GroundTruth]:
    """Rasterise one bolt and return the image with its ground truth.

    A pixel is white when its center falls inside the rotated silhouette.
    The bolt midpoint lands on params.center and the axis points along
    angle_deg (tip side positive x at angle 0).  The silhouette must clear
    the canvas border by 2 px everywhere.
    """
    ppm = params.px_per_mm
    length = spec.length_mm * ppm
    head_w = spec.head_width_mm * ppm
    head_l = spec.head_length_mm * ppm
    alpha = math.radians(params.angle_deg)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cx, cy = float(params.center.x), float(params.center.y)

    ext_x = (length / 2) * abs(ca) + (head_w / 2) * abs(sa)
    ext_y = (length / 2) * abs(sa) + (head_w / 2) * abs(ca)
    if (
        cx - ext_x < 2
        or cy - ext_y < 2
        or cx + ext_x > params.canvas_w - 2
        or cy + ext_y > params.canvas_h - 2
    ):
        raise GeometryError(
            f"bolt {spec.name} does not fit canvas "
            f"{params.canvas_w}x{params.canvas_h} with a 2 px margin"
        )

    x0 = max(0, int(math.floor(cx - ext_x)) - 1)
    x1 = min(params.canvas_w, int(math.ceil(cx + ext_x)) + 1)
    y0 = max(0, int(math.floor(cy - ext_y)) - 1)
    y1 = min(params.canvas_h, int(math.ceil(cy + ext_y)) + 1)
    gx, gy = np.meshgrid(
        np.arange(x0, x1, dtype=np.float64) + 0.5,
        np.arange(y0, y1, dtype=np.float64) + 0.5,
    )
    dx = gx - cx
    dy = gy - cy
    u = dx * ca + dy * sa + length / 2.0
    v = -dx * sa + dy * ca

    head = (u >= 0.0) & (u <= head_l) & (np.abs(v) <= head_w / 2.0)
    in_shank = (u > head_l) & (u <= length)
    half = _half_width_mm(spec, u / ppm) * ppm
    shank = in_shank & (np.abs(v) <= half)

    canvas = np.zeros((params.canvas_h, params.canvas_w), dtype=bool)
    canvas[y0:y1, x0:x1] = head | shank
    canvas.setflags(write=False)
    ys, xs = np.nonzero(canvas)
    placement = AxisRect(
        int(xs.min()),
        int(ys.min()),
        int(xs.max() - xs.min() + 1),
        int(ys.max() - ys.min() + 1),
    )
    img = BinaryImage(canvas)
    if params.noise > 0:
        img = add_noise(img, params.noise, params.seed)
    gt = GroundTruth(
        spec=spec,
        params=params,
        major_px=length,
        minor_px=spec.diameter_mm * ppm,
        shoulder_col_px=head_l,
        pitch_px=spec.pitch_mm * ppm,
        white_count=int(np.count_nonzero(img.px)),
        placement=placement,
    )
    return img, gt


def add_noise(img: BinaryImage, rate: float, seed: int = 0) -> BinaryImage:
    """Flip each pixel independently with probability rate (at most 0.05)."""
    if not 0.0 <= rate <= 0.05:
        raise ParameterError(f"noise rate must lie in [0, 0.05], got {rate}")
    if rate == 0.0:
        return img
    rng = np.random.default_rng(seed)
    flips = rng.random(img.px.shape) < rate
    flips ^= img.px
    flips.setflags(write=False)
    return BinaryImage(flips)


_HEAD_WIDTH_MM = {4: 7.0, 5: 8.0, 6: 10.0, 8: 13.0, 10: 16.0, 12: 18.0}
_PITCH_MM = {4: 0.7, 5: 0.8, 6: 1.0, 8: 1.25, 10: 1.5, 12: 1.75}

# (family, length_mm, threading); the remaining dimensions follow the
# family rules in _family_spec
_FILL_SIZES = [
    (5, 16, "FT"),
    (5, 20, "HT"),
    (5, 35, "FT"),
    (5, 50, "HT"),
    (5, 65, "FT"),
    (6, 16, "FT"),
    (6, 20, "HT"),
    (6, 30, "FT"),
    (6, 40, "HT"),
    (6, 55, "FT"),
    (6, 70, "HT"),
    (8, 25, "HT"),
    (8, 45, "FT"),
    (8, 55, "HT"),
    (8, 65, "FT"),
    (8, 75, "HT"),
    (10, 30, "HT"),
    (10, 40, "FT"),
    (10, 60, "FT"),
    (10, 70, "HT"),
    (12, 25, "FT"),
    (12, 30, "HT"),
    (12, 40, "FT"),
    (12, 50, "HT"),
    (12, 65, "FT"),
    (12, 75, "HT"),
]


def _family_spec(
    name: str, family: int, diameter: float, length: float, threading: str
) -> BoltSpec:
    pitch = _PITCH_MM[family]
    return BoltSpec(
        name=name,
        length_mm=length,
        diameter_mm=diameter,
        head_width_mm=_HEAD_WIDTH_MM[family],
        head_length_mm=min(0.62 * diameter, 0.185 * length),
        pitch_mm=pitch,
        thread_depth_mm=max(0.62 * pitch, 0.62),
        threading=ThreadingType(threading),
    )


def standard_catalog() -> list[BoltSpec]:
    """The built-in 33-entry catalog.

    Seven sizes measured off real parts (the M5x12 runs slightly under its
    nominal diameter) plus a grid of common shelf sizes; every pair is
    separated by well over 1.4% in at least one axis.
    """
    specs = [
        _family_spec("M5x12_FT", 5, 4.90, 12.06, "FT"),
        _family_spec("M8x35_HT", 8, 8.0, 35.0, "HT"),
        _family_spec("M10x50_HT", 10, 10.0, 50.0, "HT"),
        _family_spec("M10x35_FT", 10, 10.0, 35.0, "FT"),
        _family_spec("M4x75_FT", 4, 4.0, 75.0, "FT"),
        _family_spec("M8x20_FT", 8, 8.0, 20.0, "FT"),
        _family_spec("M5x25_HT", 5, 5.0, 25.0, "HT"),
    ]
    for family, length, threading in _FILL_SIZES:
        name = f"M{family}x{length}_{threading}"
        specs.append(_family_spec(name, family, float(family), float(length), threading))
    return specs


_CATALOG_FLOATS = (
    "length_mm", "diameter_mm", "head_width_mm", "head_length_mm", "pitch_mm", "thread_depth_mm"
)
_CATALOG_COLUMNS = ",".join(("name", *_CATALOG_FLOATS, "threading", "half_thread_frac"))


def save_catalog(specs: list[BoltSpec]) -> bytes:
    """Serialise a catalog as UTF-8 CSV; floats keep full precision."""
    rows = [(s.name, *(repr(getattr(s, k)) for k in _CATALOG_FLOATS), s.threading.value,
             repr(s.half_thread_frac)) for s in specs]
    return write_rows(_CATALOG_COLUMNS, rows)


def load_catalog(data: bytes) -> list[BoltSpec]:
    """Parse a catalog CSV; errors carry the 1-based line number."""
    specs: list[BoltSpec] = []
    for line, row in read_rows(data, _CATALOG_COLUMNS)[1]:
        try:
            specs.append(
                BoltSpec(
                    name=row["name"],
                    threading=ThreadingType(row["threading"]),
                    half_thread_frac=float(row["half_thread_frac"]),
                    **{k: float(row[k]) for k in _CATALOG_FLOATS},
                )
            )
        except ValueError as exc:
            raise CsvFormatError(f"bad catalog row: {exc}", line) from exc
    return specs
