"""Feature extraction for single-bolt silhouettes.

The stages mirror the measurement chain: orient the component upright with
the head at the left, measure the two axes, split off the head, classify
the threading and, when the part is long enough, read the thread pitch.
extract_features() runs them in order and wraps any failure in a
StageError naming the stage.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoltVisionError,
    InsufficientCrestsError,
    InsufficientDataError,
    MalformedBoltError,
    ParameterError,
    PitchParityError,
    StageError,
)
from .geometry import (
    column_profile,
    is_contour_convex,
    loop_length,
    rect_of_mask,
    warp_to_upright,
)
from .imagecore import AxisRect, BinaryImage, crop, rotate180, white_runs


# scale of the reference setup: the default wherever pixels meet millimetres
DEFAULT_PX_PER_MM = 12.42


class ThreadingType(enum.Enum):
    """Fully threaded shank (FT) or half threaded with a plain barrel (HT)."""

    FULL = "FT"
    HALF = "HT"


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable pipeline constants; defaults match the reference setup.

    The stages take the config they run under and read their constants
    from it, so each default and range check lives here alone.

    thresh            extra columns discarded past the detected shoulder
    nudge             scan row used by the pitch estimate
    perim_ratio       right/left perimeter ratio that signals half threading
    fill_frac         fill fraction of d x length that signals half threading
    head_frac         fraction of the length searched for the shoulder
    thread_slice_frac fraction of the body, at the tip, used for pitch
    min_pitch_len_px  skip the pitch estimate for shorter parts
    min_component_area connected_components drops regions below this many pixels
    """

    thresh: int = 5
    nudge: int = 2
    perim_ratio: float = 1.15
    fill_frac: float = 0.97
    head_frac: float = 0.2
    thread_slice_frac: float = 0.3
    min_pitch_len_px: float = 200.0
    min_component_area: int = 50

    def __post_init__(self):
        if int(self.thresh) < 0:
            raise ParameterError(f"thresh must be >= 0, got {self.thresh}")
        if int(self.nudge) < 0:
            raise ParameterError(f"nudge must be >= 0, got {self.nudge}")
        if not self.perim_ratio > 0:
            raise ParameterError(f"perim_ratio must be > 0, got {self.perim_ratio}")
        if not 0 < self.fill_frac <= 1:
            raise ParameterError(f"fill_frac must lie in (0, 1], got {self.fill_frac}")
        if not 0 < self.head_frac <= 0.5:
            raise ParameterError(f"head_frac must lie in (0, 0.5], got {self.head_frac}")
        if not 0 < self.thread_slice_frac <= 1:
            raise ParameterError(
                f"thread_slice_frac must lie in (0, 1], got {self.thread_slice_frac}"
            )
        if self.min_pitch_len_px < 0:
            raise ParameterError(
                f"min_pitch_len_px must be >= 0, got {self.min_pitch_len_px}"
            )
        if int(self.min_component_area) < 0:
            raise ParameterError(
                f"min_component_area must be >= 0, got {self.min_component_area}"
            )


@dataclass(frozen=True)
class OrientedBolt:
    """Upright landscape silhouette with the head on the left.

    img is the warped silhouette: its width is the length and its height
    the head width.  counts holds img's white pixel count per column and
    profile its column profile (cols, top, bot); the area, the perimeter,
    the shoulder search and the threading test read these two.  src,
    axis_u and axis_c keep the source frame and the source direction of
    this image's +x axis so measurements can also be taken before
    resampling.
    """

    img: BinaryImage
    counts: np.ndarray
    profile: tuple[np.ndarray, np.ndarray, np.ndarray]
    src: BinaryImage
    axis_u: tuple[float, float]
    axis_c: float


@dataclass(frozen=True)
class HeadCut:
    """Result of the shoulder search: the body is the upright image's
    columns from h on.

    no_shoulder is set when the search saw no head/body transition inside
    its range, in which case h falls back to thresh alone.
    """

    h: int
    no_shoulder: bool = False


@dataclass(frozen=True)
class PitchTrace:
    """Crest scan summary: outermost crest centers a..b and crossing count n.

    pitch_px is derived as (b - a) / (n / 2) and not settable directly.
    n counts half-period crossings strictly inside (a, b); a closed scan
    always yields an even n, so an odd count means the trace is corrupt.
    """

    a: float
    b: float
    n: int
    pitch_px: float = field(init=False)

    def __post_init__(self):
        if self.b < self.a:
            raise ParameterError(f"trace runs backwards (a={self.a}, b={self.b})")
        if self.n < 2:
            raise ParameterError(f"crossing count must be >= 2, got {self.n}")
        if self.n % 2 != 0:
            raise PitchParityError(self.a, self.b, self.n)
        object.__setattr__(self, "pitch_px", (self.b - self.a) / (self.n / 2))


@dataclass(frozen=True)
class BoltFeatures:
    """Everything the matcher consumes, in pixels.

    major_px and minor_px are the length and the shank diameter, area_px
    the white pixel count of the upright silhouette.  perimeter_px is the
    length of the loop round its column profile (see
    geometry.loop_length): holes, and notches that open sideways rather
    than up or down, are not counted.
    """

    major_px: float
    minor_px: float
    threading: ThreadingType
    pitch_px: float | None
    area_px: int
    perimeter_px: float


def _rot90_cw(img: BinaryImage) -> BinaryImage:
    return BinaryImage(np.rot90(img.px, k=-1))


def orient(component: BinaryImage) -> OrientedBolt:
    """Warp a single-component silhouette upright, head at the left.

    The minimum-area rectangle fixes the axes; the warped image is turned
    landscape and flipped so the heavier half (the head) sits left.  Ties
    keep the current orientation.
    """
    rect = rect_of_mask(component)
    up = warp_to_upright(component, rect)
    t = math.radians(rect.angle)
    axis_u = (math.cos(t), math.sin(t))
    axis_v = (-math.sin(t), math.cos(t))
    if up.height > up.width:
        up = _rot90_cw(up)
        axis_u, axis_v = (-axis_v[0], -axis_v[1]), axis_u
    counts = np.count_nonzero(up.px, axis=0)
    half = up.width // 2
    if counts[up.width - half :].sum() > counts[:half].sum():
        up = rotate180(up)
        counts = counts[::-1]
        axis_u = (-axis_u[0], -axis_u[1])
    cx, cy = rect.center
    return OrientedBolt(
        img=up,
        counts=counts,
        profile=column_profile(up),
        src=component,
        axis_u=axis_u,
        axis_c=cx * axis_u[0] + cy * axis_u[1],
    )


def measure_axes(bolt: OrientedBolt) -> tuple[float, float]:
    """(major_px, minor_px) of an oriented bolt.

    The major axis is the upright image width.  The minor axis is the
    short side of a min-area rect fitted to the tip-side half alone, taken
    in the source frame so the resampling never touches it.  The head half
    is excluded because the head is wider than the shank, and the refit
    matters: the whole-part rect can sit a fraction of a degree off the
    true axis (the head dominates it), which would leak a multiple of the
    part length into a fixed-axis cross extent.  Assumes the tip half is
    longer than the part is thick.
    """
    major = float(bolt.img.width)
    ys, xs = np.nonzero(bolt.src.px)
    ux, uy = bolt.axis_u
    pu = (xs + 0.5) * ux + (ys + 0.5) * uy
    keep = pu >= bolt.axis_c
    if not bool(keep.any()):
        raise MalformedBoltError("tip half of the bolt is empty")
    tip = np.zeros(bolt.src.px.shape, dtype=bool)
    tip[ys[keep], xs[keep]] = True
    rect = rect_of_mask(BinaryImage(tip))
    return major, min(rect.size_w, rect.size_h)


def remove_head(
    bolt: OrientedBolt, d: float, cfg: PipelineConfig = PipelineConfig()
) -> HeadCut:
    """Find the head/body shoulder and cut cfg.thresh columns past it.

    A column c counts as body when the cross width of the image right of c,
    the span from the profile's highest top to its lowest bottom there, is
    closer to the shank diameter d than to the head width; the cut is the
    first such column in [0, cfg.head_frac * length].  A headless
    silhouette (or a search that never sees the transition) cuts at
    cfg.thresh and sets no_shoulder.
    """
    l = bolt.img.width
    w = float(bolt.img.height)
    bound = min(int(cfg.head_frac * l), l - 1)
    cols, top, bot = bolt.profile
    lo = np.minimum.accumulate(top[::-1])[::-1]
    hi = np.maximum.accumulate(bot[::-1])[::-1]
    # right of column c lies the suffix from the first white column >= c;
    # past the last one the width is 0
    wp = np.append(hi - lo + 1, 0)[np.searchsorted(cols, np.arange(bound + 1))]
    is_body = np.abs(wp - d) < np.abs(wp - w)
    no_shoulder = bool(is_body[0]) or not bool(is_body[-1])
    h_star = 0 if no_shoulder else int(np.argmax(is_body))
    h = h_star + cfg.thresh
    if h >= l:
        raise MalformedBoltError(f"cut at {h} leaves no body (length {l})")
    return HeadCut(h=h, no_shoulder=no_shoulder)


def classify_threading(
    bolt: OrientedBolt, h: int, d: float, cfg: PipelineConfig = PipelineConfig()
) -> ThreadingType:
    """Classify the body, the upright columns from h on, as fully or half
    threaded.

    Half threading fires on any of three signs read off the column profile
    of the two halves of the body (threads grow toward the tip, so a plain
    barrel occupies the left half): left top and bottom points that form a
    convex contour (geometry.is_contour_convex), a right profile loop more
    than cfg.perim_ratio times as long as the left one, or a left half
    filling at least cfg.fill_frac of its d x length box.
    """
    wdt = bolt.img.width - h
    if wdt < 4:
        raise InsufficientDataError(f"body too narrow to classify ({wdt} px)")
    mid = wdt // 2
    cols, top, bot = bolt.profile
    body = cols >= h
    cols, top, bot = cols[body] - h, top[body], bot[body]
    left = cols < mid
    if left.all() or not left.any():
        raise InsufficientDataError("half of the body is blank")
    lx = cols[left]
    edge = np.column_stack([np.r_[lx, lx], np.r_[top[left], bot[left]]])
    if is_contour_convex(edge):
        return ThreadingType.HALF
    pl = loop_length(top[left], bot[left])
    pr = loop_length(top[~left], bot[~left])
    if pr > cfg.perim_ratio * pl:
        return ThreadingType.HALF
    if bolt.counts[h : h + mid].sum() >= cfg.fill_frac * d * mid:
        return ThreadingType.HALF
    return ThreadingType.FULL


def estimate_pitch(
    bolt: OrientedBolt, h: int, cfg: PipelineConfig = PipelineConfig()
) -> PitchTrace:
    """Read the thread pitch off a scan row near the top of the tip slice.

    The rightmost cfg.thread_slice_frac of the body, the upright columns
    from h on, is squared up on its own rect, then the row cfg.nudge rows
    below the top edge is run-length scanned.  Single-pixel holes are
    filled first: nearest-neighbor resampling can punch them through a
    crest run, splitting it in two, while genuine inter-crest gaps are
    always wider.  A wider noise hole still splits a crest, so runs whose
    gap is under a quarter of the median gap are joined next.  Runs within
    2 px of either slice edge are truncated crests and are dropped; losing
    a whole end crest is harmless because the surviving centers stay
    exactly one pitch apart.  The centers of the m surviving runs give a,
    b and n = 2 * (m - 1); fewer than 3 runs cannot support an estimate.
    """
    l = bolt.img.width
    k = max(1, int(round((l - h) * cfg.thread_slice_frac)))
    sl = crop(bolt.img, AxisRect(l - k, 0, k, bolt.img.height))
    rect = rect_of_mask(sl)
    up = warp_to_upright(sl, rect)
    # keep the thread axis horizontal: the slice can be narrower than the
    # bolt is thick, so pick the rotation by the rect's w direction rather
    # than by the output aspect
    if rect.angle <= -45.0:
        up = _rot90_cw(up)
    if cfg.nudge >= up.height:
        raise InsufficientCrestsError(
            f"scan row {cfg.nudge} lies outside the slice (height {up.height})"
        )
    row = up.px[cfg.nudge].copy()
    if row.size >= 3:
        row[1:-1] |= row[:-2] & row[2:]
    _, starts, ends = white_runs(row[None, :])
    gaps = starts[1:] - ends[:-1] - 1
    if gaps.size:
        join = gaps < np.median(gaps) / 4.0
        starts, ends = starts[np.r_[True, ~join]], ends[np.r_[~join, True]]
    interior = (starts > 2) & (ends < row.size - 3)
    m = int(interior.sum())
    if m < 3:
        raise InsufficientCrestsError(
            f"only {m} interior crest runs on scan row {cfg.nudge}"
        )
    centers = (starts[interior] + ends[interior]) / 2.0
    return PitchTrace(float(centers[0]), float(centers[-1]), 2 * (m - 1))


# extract_features' stage names, in the order they run
STAGES = ("orient", "axes", "area", "perimeter", "head", "threading", "pitch")


def extract_features(
    component: BinaryImage,
    cfg: PipelineConfig = PipelineConfig(),
    *,
    timings: dict[str, float] | None = None,
) -> BoltFeatures:
    """Run the full measurement chain on one component.

    Package errors are re-raised as StageError tagged with the stage name;
    a pitch scan that finds too few crests is not an error (pitch_px is
    None, as it is for parts shorter than min_pitch_len_px).  When a dict
    is passed as timings, per-stage wall time in seconds is accumulated
    into it.
    """

    def run(stage, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        except BoltVisionError as exc:
            raise StageError(stage, exc) from exc
        finally:
            if timings is not None:
                timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0

    bolt = run("orient", lambda: orient(component))
    major, minor = run("axes", lambda: measure_axes(bolt))
    area = run("area", lambda: int(bolt.counts.sum()))
    perimeter = run("perimeter", lambda: loop_length(*bolt.profile[1:]))
    cut = run("head", lambda: remove_head(bolt, minor, cfg))
    threading = run("threading", lambda: classify_threading(bolt, cut.h, minor, cfg))
    pitch = None
    if major > cfg.min_pitch_len_px:
        try:
            pitch = run("pitch", lambda: estimate_pitch(bolt, cut.h, cfg)).pitch_px
        except StageError as exc:
            if not isinstance(exc.cause, InsufficientCrestsError):
                raise
    return BoltFeatures(
        major_px=major,
        minor_px=minor,
        threading=threading,
        pitch_px=pitch,
        area_px=area,
        perimeter_px=perimeter,
    )
