"""Exception types shared across the package.

Every error carries a short machine-readable ``kind`` so callers (and the
CLI) can report failures as "<kind> at <stage>" without string matching.
"""

from __future__ import annotations


class BoltVisionError(Exception):
    """Base class for all errors raised by this package."""

    kind = "error"


class ParameterError(BoltVisionError, ValueError):
    """A value passed by the caller is outside its documented range."""

    kind = "parameter"


class EmptyInputError(BoltVisionError):
    """An operation that needs foreground pixels received none."""

    kind = "empty-input"


class PgmFormatError(BoltVisionError):
    """Malformed PGM data. ``offset`` is the byte position of the problem."""

    kind = "format"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CsvFormatError(BoltVisionError):
    """Malformed CSV table data. ``line`` is 1-based."""

    kind = "format"

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class ReportFormatError(BoltVisionError):
    """A JSON run report does not match the expected schema."""

    kind = "format"


class ConfigError(BoltVisionError):
    """Bad configuration file or command-line usage. CLI exits 2 on this."""

    kind = "config"


class GeometryError(BoltVisionError):
    """Requested geometry cannot be realised (e.g. shape exceeds canvas)."""

    kind = "geometry"


class MalformedBoltError(BoltVisionError):
    """A silhouette lacks the structure the measurement step relies on."""

    kind = "malformed-bolt"


class InsufficientCrestsError(BoltVisionError):
    """The crest scan found no crest line or fewer than three crest runs."""

    kind = "insufficient-crests"


class PitchParityError(BoltVisionError):
    """The pitch scan produced an odd crossing count.

    The offending trace values are kept for diagnosis.
    """

    kind = "parity"

    def __init__(self, a: float, b: float, n: int):
        super().__init__(f"odd crossing count n={n} (trace a={a}, b={b})")
        self.a = a
        self.b = b
        self.n = n


class EnrollmentError(BoltVisionError):
    """A template sample could not be measured. Names the sample."""

    kind = "enrollment"

    def __init__(self, sample: str, message: str):
        super().__init__(f"sample {sample!r}: {message}")
        self.sample = sample


class StageError(BoltVisionError):
    """Wraps an error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BoltVisionError):
        super().__init__(f"{cause.kind} at {stage}")
        self.stage = stage
        self.cause = cause
        self.kind = cause.kind
