"""The one CSV format of lookup tables, catalogs and manifests.

UTF-8, LF line ends (a CR before an LF is dropped), an optional first
line starting with '#' as a comment, then a header and rows of fields
split on ',' with no quoting.  Callers read their columns by name, so a
file may carry more columns after the ones they need.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import CsvFormatError, ParameterError


def read_rows(data: bytes, columns: str) -> tuple[str | None, list[tuple[int, dict[str, str]]]]:
    """(comment, rows) of CSV bytes whose header begins with columns.

    comment is the first line's text after '#', stripped, or None.  A row
    is (line, {column: field}) with its 1-based line number.  A blank
    line, a row whose field count differs from the header's and a first
    field seen before raise CsvFormatError at their line; a missing or
    wrong header and a file with no rows raise it at the header's line.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"not valid UTF-8: {exc}", 1) from exc
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    comment = lines[0][1:].strip() if lines and lines[0].startswith("#") else None
    at = 1 if comment is None else 2  # the header's line
    if len(lines) < at:
        raise CsvFormatError("missing header line", at)
    header = lines[at - 1].split(",")
    want = columns.split(",")
    if header[: len(want)] != want:
        raise CsvFormatError(f"header must begin with '{columns}'", at)

    rows: list[tuple[int, dict[str, str]]] = []
    seen: set[str] = set()
    for line, raw in enumerate(lines[at:], start=at + 1):
        if raw == "":
            raise CsvFormatError("blank line", line)
        fields = raw.split(",")
        if len(fields) != len(header):
            raise CsvFormatError(f"expected {len(header)} fields, got {len(fields)}", line)
        if fields[0] in seen:
            raise CsvFormatError(f"duplicate {header[0]} '{fields[0]}'", line)
        seen.add(fields[0])
        rows.append((line, dict(zip(header, fields))))
    if not rows:
        raise CsvFormatError("no rows below the header", at)
    return comment, rows


def write_rows(columns: str, rows: Iterable[Sequence[str]], comment: str | None = None) -> bytes:
    """CSV bytes of rows of text fields, as read_rows reads them back.

    A field holding a ',' or a line end raises ParameterError.
    """
    lines = [columns] if comment is None else [f"# {comment}", columns]
    for fields in rows:
        if any("," in f or "\n" in f or "\r" in f for f in fields):
            raise ParameterError(f"CSV fields {fields!r} hold a ',' or a line end")
        lines.append(",".join(fields))
    return ("\n".join(lines) + "\n").encode("utf-8")
