"""Lookup-table enrollment and nearest-match identification.

Templates store the oriented bounding-box dimensions of known bolts in
pixels.  A query is matched by Euclidean distance in (major, minor)
space; threading type only breaks exact dimensional ties, since two
catalog entries practically never share both dimensions.  Matching
stays in pixel space throughout: converting to millimeters first and
rounding would merge neighboring sizes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .csvrows import read_rows, write_rows
from .errors import CsvFormatError, EnrollmentError, ParameterError, StageError
from .imagecore import BinaryImage
from .pipeline import (
    DEFAULT_PX_PER_MM,
    BoltFeatures,
    PipelineConfig,
    ThreadingType,
    extract_features,
)

log = logging.getLogger(__name__)

# Two templates closer than this in both dimensions are at risk of
# being confused by perspective shortening across the work area.
COLLISION_FRAC = 0.014

# A match further than this fraction of the query's major axis is unknown.
REJECT_FRAC = 0.1

_TABLE_COLUMNS = "name,width_px,height_px,threading"


@dataclass(frozen=True)
class TemplateEntry:
    """One enrolled bolt: its name and oriented dimensions in pixels."""

    name: str
    width_px: float
    height_px: float
    threading: ThreadingType

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("template name must be nonempty")
        if not 0.0 < self.width_px <= self.height_px:
            raise ParameterError(
                f"template '{self.name}' needs height_px >= width_px > 0, "
                f"got {self.width_px} x {self.height_px}"
            )


@dataclass(frozen=True)
class LookupTable:
    """Immutable ordered template table plus the mm conversion factor."""

    px_per_mm: float
    entries: tuple[TemplateEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.px_per_mm > 0.0:
            raise ParameterError(f"px_per_mm must be > 0, got {self.px_per_mm}")
        if not self.entries:
            raise ParameterError("lookup table needs at least one entry")
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)[0]
            raise ParameterError(f"duplicate template name '{dup}'")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one identification.

    ``name`` is None when the nearest template is too far away to
    trust.  ``threading_agreed`` records whether the measured threading
    matches the chosen entry.
    """

    name: str | None
    distance_px: float
    threading_agreed: bool


def nearest_match(
    features: BoltFeatures,
    table: LookupTable,
    *,
    reject_frac: float = REJECT_FRAC,
) -> MatchResult:
    """Match measured features against the table by Euclidean distance.

    Distance is computed over raw pixel dimensions.  Entries tied on
    distance are narrowed to those agreeing with the measured
    threading; the lowest table index wins any remaining tie.  When the
    winning distance exceeds ``reject_frac`` of the query's major axis
    the part is reported as unknown (name None).  Pass ``math.inf`` to
    always return the nearest name.
    """
    if not reject_frac > 0.0:
        raise ParameterError(f"reject_frac must be > 0, got {reject_frac}")

    dists = [
        math.hypot(features.major_px - e.height_px, features.minor_px - e.width_px)
        for e in table.entries
    ]
    best = min(dists)
    tied = [i for i, d in enumerate(dists) if d <= best + 1e-9]
    agreeing = [i for i in tied if table.entries[i].threading is features.threading]
    idx = (agreeing or tied)[0]

    chosen = table.entries[idx]
    name: str | None = chosen.name
    if dists[idx] > reject_frac * features.major_px:
        name = None
    return MatchResult(
        name=name,
        distance_px=dists[idx],
        threading_agreed=chosen.threading is features.threading,
    )


def enroll(
    samples: Sequence[tuple[str, BinaryImage]],
    cfg: PipelineConfig = PipelineConfig(),
    *,
    px_per_mm: float = DEFAULT_PX_PER_MM,
) -> LookupTable:
    """Measure one image per name and build a lookup table.

    Each sample runs extract_features with the pitch stage skipped, since
    pitch is not needed for identification.  A failure on any sample
    aborts enrollment with an error naming it and the stage.  Pairs of
    templates closer than 1.4% in both dimensions are logged as
    collisions but still accepted.  LookupTable rejects an empty sample
    list and a px_per_mm that is not positive.
    """
    no_pitch = replace(cfg, min_pitch_len_px=math.inf)
    entries: list[TemplateEntry] = []
    seen: set[str] = set()
    for name, img in samples:
        if name in seen:
            raise EnrollmentError(name, "duplicate sample name")
        seen.add(name)
        try:
            f = extract_features(img, no_pitch)
        except StageError as exc:
            raise EnrollmentError(name, str(exc)) from exc
        entries.append(
            TemplateEntry(
                name=name,
                width_px=f.minor_px,
                height_px=f.major_px,
                threading=f.threading,
            )
        )

    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            dh = abs(a.height_px - b.height_px) / max(a.height_px, b.height_px)
            dw = abs(a.width_px - b.width_px) / max(a.width_px, b.width_px)
            if dh < COLLISION_FRAC and dw < COLLISION_FRAC:
                log.warning(
                    "templates '%s' and '%s' differ by under %.1f%% in both "
                    "dimensions and may be confused",
                    a.name,
                    b.name,
                    100.0 * COLLISION_FRAC,
                )

    return LookupTable(px_per_mm=px_per_mm, entries=tuple(entries))


def save_table(table: LookupTable) -> bytes:
    """Encode a table as CSV, the scale in its comment line."""
    rows = [(e.name, repr(e.width_px), repr(e.height_px), e.threading.value)
            for e in table.entries]
    return write_rows(_TABLE_COLUMNS, rows, comment=f"px_per_mm={table.px_per_mm!r}")


def load_table(data: bytes) -> LookupTable:
    """Parse the CSV produced by save_table.

    The leading ``# px_per_mm=<value>`` comment is optional; without it
    the factor defaults to DEFAULT_PX_PER_MM.  Errors carry the 1-based
    line number of the offending line.
    """
    comment, rows = read_rows(data, _TABLE_COLUMNS)
    px_per_mm = DEFAULT_PX_PER_MM
    if comment is not None:
        key, _, value = comment.partition("=")
        if key != "px_per_mm":
            raise CsvFormatError("unrecognized comment, expected px_per_mm=<value>", 1)
        try:
            px_per_mm = float(value)
        except ValueError as exc:
            raise CsvFormatError("px_per_mm is not numeric", 1) from exc

    entries: list[TemplateEntry] = []
    for line, row in rows:
        try:
            entries.append(
                TemplateEntry(
                    name=row["name"],
                    width_px=float(row["width_px"]),
                    height_px=float(row["height_px"]),
                    threading=ThreadingType(row["threading"]),
                )
            )
        except ValueError as exc:
            raise CsvFormatError(f"bad template row: {exc}", line) from exc
    try:
        return LookupTable(px_per_mm=px_per_mm, entries=tuple(entries))
    except ParameterError as exc:  # rows are checked, so the scale is bad
        raise CsvFormatError(str(exc), 1) from exc
