"""Feature extraction for single-bolt silhouettes.

The stages mirror the measurement chain: orient the component upright with
the head at the left, measure the two axes, split off the head, then read
the threading and the thread pitch off one crest scan of the body.
extract_features() runs them in order and wraps any failure in a
StageError naming the stage.
"""

from __future__ import annotations

import enum
import math
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BoltVisionError,
    InsufficientCrestsError,
    MalformedBoltError,
    ParameterError,
    PitchParityError,
    StageError,
)
from .geometry import (
    RotatedRect,
    column_profile,
    convex_hull,
    loop_length,
    rect_of_runs,
    warp_to_upright,
)
from .imagecore import BinaryImage, white_runs


# scale of the reference setup: the default wherever pixels meet millimetres
DEFAULT_PX_PER_MM = 12.42
# a body is half threaded when a stretch without crest structure spans
# more than this many thread periods
_PLAIN_PERIODS = 4


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
    nudge             rows below the crest line a crest may reach
    head_frac         fraction of the length searched for the shoulder
    min_component_area connected_components drops regions below this many pixels
    """

    thresh: int = 5
    nudge: int = 2
    head_frac: float = 0.2
    min_component_area: int = 50

    def __post_init__(self):
        for name in ("thresh", "nudge", "min_component_area"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ParameterError(f"{name} must be an integer, got {value!r}") from None
            if value < 0:
                raise ParameterError(f"{name} must be >= 0, got {value}")
        if not 0 < self.head_frac <= 0.5:
            raise ParameterError(f"head_frac must lie in (0, 0.5], got {self.head_frac}")


@dataclass(frozen=True)
class OrientedBolt:
    """Upright landscape silhouette with the head on the left.

    img is the warped silhouette: its width is the length and its height
    the head width; the area counts its white pixels.  profile is its
    column profile (cols, top, bot), which the perimeter, the shoulder
    search and the crest scan read.  src is the source frame, runs its
    white runs as imagecore.white_runs gives them, and rect the rectangle
    img was warped from, its axis pointing from head to tip, so
    measurements can also be taken before resampling.
    """

    img: BinaryImage
    profile: tuple[np.ndarray, np.ndarray, np.ndarray]
    src: BinaryImage
    runs: tuple[np.ndarray, np.ndarray, np.ndarray]
    rect: RotatedRect


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
    """Crest scan summary: outer crest centers a..b and crossing count n.

    a and b are the centers of the first and last crest the pitch is read
    off (see read_threads), measured along the crest line from the body's
    first column.  n is twice the number of whole periods between them,
    so an odd count means the trace is corrupt.  pitch_px is derived as
    (b - a) / (n / 2) and not settable directly.
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


def orient(component: BinaryImage) -> OrientedBolt:
    """Warp a single-component silhouette upright, head at the left.

    The component's white runs are taken once and kept on the result.
    The minimum-area rectangle of those runs fixes the axes and the warp
    along its long side gives a landscape image; when its right half
    holds more white than its left, the image turns half a turn and the
    rect's axis is negated, so the heavier half (the head) sits left.
    Ties keep the warp as it is.
    """
    runs = white_runs(component.px)
    rect = rect_of_runs(*runs)
    up = warp_to_upright(component, rect)
    half = up.width // 2
    if np.count_nonzero(up.px[:, up.width - half :]) > np.count_nonzero(up.px[:, :half]):
        up = BinaryImage(up.px[::-1, ::-1])
        ux, uy = rect.axis
        rect = replace(rect, axis=(-ux, -uy))
    return OrientedBolt(img=up, profile=column_profile(up), src=component, runs=runs,
                        rect=rect)


def measure_axes(bolt: OrientedBolt) -> tuple[float, float]:
    """(major_px, minor_px) of an oriented bolt.

    The major axis is the upright image width.  The minor axis is
    size_h, the short side, of a min-area rect fitted to the tip-side
    half alone, taken in the source frame so the resampling never
    touches it.  The head half is excluded because the head is wider
    than the shank, and the refit matters: the whole-part rect can sit a
    fraction of a degree off the true axis (the head dominates it), which
    would leak a multiple of the part length into a fixed-axis cross
    extent.  Assumes the tip half is longer than the part is thick.

    A source pixel (x, y) lies on the tip side when its center projects
    onto the rect's axis, which points from head to tip, at or past the
    rect's center: (x + 0.5) * ux + (y + 0.5) * uy >= cut.  In a fixed row
    that test is monotone in x, so the tip of each row is a run of
    columns from one end, and each of the source's white runs is clipped
    at its row's bound rather than any pixel tested.  The bound is a
    searchsorted guess on the column terms, moved a column at a time
    until the test itself holds there and fails one column before, so
    the tip holds exactly the pixels the test passes; with ux == 0 the
    test is the same along a row, which is kept or dropped whole.
    """
    major = float(bolt.img.width)
    h, w = bolt.src.px.shape
    rows, starts, ends = bolt.runs
    ux, uy = bolt.rect.axis
    cx, cy = bolt.rect.center
    cut = cx * ux + cy * uy
    col_term = (np.arange(w) + 0.5) * ux
    row_term = (np.arange(h) + 0.5) * uy
    # terms[1:-1] runs in the order in which the test goes from failing to
    # passing; the infinite ends fail and pass in every row
    inner = col_term if ux >= 0 else col_term[::-1]
    terms = np.r_[-np.inf, inner, np.inf]
    k = np.searchsorted(terms, cut - row_term)
    while True:
        back = terms[k - 1] + row_term >= cut
        if not back.any():
            break
        k -= back
    while True:
        ahead = terms[k] + row_term < cut
        if not ahead.any():
            break
        k += ahead
    # the tip of row y is the inner terms from index k[y] - 1 on
    if ux >= 0:
        starts = np.maximum(starts, k[rows] - 1)
    else:
        ends = np.minimum(ends, w - k[rows])
    keep = starts <= ends
    if not bool(keep.any()):
        raise MalformedBoltError("tip half of the bolt is empty")
    rect = rect_of_runs(rows[keep], starts[keep], ends[keep])
    return major, rect.size_h


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


def read_threads(
    bolt: OrientedBolt, h: int, cfg: PipelineConfig = PipelineConfig()
) -> tuple[ThreadingType, PitchTrace | None]:
    """Read the threading and the pitch off one crest scan of the body,
    the upright columns from h on.

    The crest line is the widest edge of the top chain of the hull of the
    body's (column, top row) points, taken after a width-3 grayscale
    opening of the top profile (the max over each column and its two
    neighbours, then the min of that), so a speck up to 2 columns wide
    cannot set it; the points inside a level stretch of the opened top
    are collinear and only its end columns are hulled.  A column is crest
    when its raw top lies within cfg.nudge rows below that line (to the
    nearest row).  Single-pixel holes in that row of crest flags are
    filled first: nearest-neighbor resampling can punch them through a
    crest run, splitting it in two, while genuine inter-crest gaps are
    always wider.  A wider noise hole still splits a crest, so runs whose
    gap is under a quarter of the median gap are joined next.  Fewer than
    3 runs, or no crest line, raise InsufficientCrestsError.

    The period is the median spacing of the run centers.  The body is
    half threaded when its longest stretch without crest structure, a
    crest run or a gap (the body's ends included), spans more than
    _PLAIN_PERIODS periods: a plain barrel lies on the crest line as one
    long run, a rolled-thread barrel below it as one long gap.

    The pitch is read off the interior runs, those not within 2 px of
    either body edge, and on a half-threaded body only those past the
    plain stretch.  Their centers, taken along the crest line, give a and
    b, and each gap between neighbours counts as a whole number of median
    gaps, so a crest lost to noise leaves the period count as it was.
    Fewer than 3 such runs give no pitch.
    """
    k = bolt.img.width - h
    cols, top, _ = bolt.profile
    body = cols >= h
    x, top = cols[body] - h, top[body]
    opened = top
    for f in (np.maximum, np.minimum):
        t = np.pad(opened, 1, mode="edge")
        opened = f(f(t[:-2], t[1:-1]), t[2:])
    step = opened[1:] != opened[:-1]
    keep = np.r_[True, step] | np.r_[step, True]
    hull = convex_hull(np.column_stack([x[keep], opened[keep]]))
    # the hull runs counter-clockwise on screen from its leftmost point, so
    # its top chain is the edges that run right to left
    dx, dy = (np.roll(hull, -1, axis=0) - hull).T
    e = int(np.argmin(dx))
    if not dx[e] < 0:
        raise InsufficientCrestsError(f"body of {k} columns has no crest line")
    slope = dy[e] / dx[e]
    line = hull[e, 1] + slope * (x - hull[e, 0])
    row = np.zeros(k, dtype=bool)
    row[x] = top <= np.floor(line + cfg.nudge + 0.5)
    row[1:-1] |= row[:-2] & row[2:]
    _, starts, ends = white_runs(row[None, :])
    gaps = starts[1:] - ends[:-1] - 1
    if gaps.size:
        join = gaps < np.median(gaps) / 4.0
        starts, ends = starts[np.r_[True, ~join]], ends[np.r_[~join, True]]
    m = starts.size
    if m < 3:
        raise InsufficientCrestsError(
            f"only {m} crest runs {cfg.nudge} rows below the crest line"
        )

    period = np.median(np.diff(starts + ends)) / 2.0
    # stretch i is the gap before run i for i < m, the gap after the last
    # run for i == m, and run i - m - 1 past that
    stretches = np.r_[np.r_[starts, k] - np.r_[-1, ends] - 1, ends - starts + 1]
    i = int(np.argmax(stretches))
    plain = bool(stretches[i] > _PLAIN_PERIODS * period)
    usable = (starts > 2) & (ends < k - 3)
    if plain:
        usable[: i if i <= m else i - m] = False
    threading = ThreadingType.HALF if plain else ThreadingType.FULL
    if int(usable.sum()) < 3:
        return threading, None
    centers = (starts[usable] + ends[usable]) / 2.0 * math.hypot(1.0, slope)
    steps = np.diff(centers)
    periods = int(np.rint(steps / np.median(steps)).sum())
    return threading, PitchTrace(float(centers[0]), float(centers[-1]), 2 * periods)


# extract_features' stage names, in the order they run
STAGES = ("orient", "axes", "area", "perimeter", "head", "threading")


def extract_features(
    component: BinaryImage,
    cfg: PipelineConfig = PipelineConfig(),
    *,
    timings: dict[str, float] | None = None,
) -> BoltFeatures:
    """Run the full measurement chain on one component.

    Package errors are re-raised as StageError tagged with the stage name.
    The threading stage's crest scan also reads the pitch; a body with too
    few interior crests past its plain stretch keeps its threading and
    gets pitch_px None.  When a dict is passed as timings, per-stage wall
    time in seconds is accumulated into it.
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
    area = run("area", lambda: int(np.count_nonzero(bolt.img.px)))
    perimeter = run("perimeter", lambda: loop_length(*bolt.profile[1:]))
    cut = run("head", lambda: remove_head(bolt, minor, cfg))
    threading, trace = run("threading", lambda: read_threads(bolt, cut.h, cfg))
    return BoltFeatures(
        major_px=major,
        minor_px=minor,
        threading=threading,
        pitch_px=None if trace is None else trace.pitch_px,
        area_px=area,
        perimeter_px=perimeter,
    )
