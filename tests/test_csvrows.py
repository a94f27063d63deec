from __future__ import annotations

import pytest

from boltvision.csvrows import read_rows, write_rows
from boltvision.errors import CsvFormatError, ParameterError


def test_rows_are_read_by_column_with_their_lines():
    comment, rows = read_rows(b"# scale 3\nfile,name,noise\na.pgm,x,0.0\nb.pgm,y,0.5\n",
                              "file,name")
    assert comment == "scale 3"
    assert rows == [
        (3, {"file": "a.pgm", "name": "x", "noise": "0.0"}),
        (4, {"file": "b.pgm", "name": "y", "noise": "0.5"}),
    ]


def test_no_comment_no_final_newline_and_crlf():
    assert read_rows(b"a,b\r\n1,2", "a") == (None, [(2, {"a": "1", "b": "2"})])


@pytest.mark.parametrize(
    "data, line, words",
    [
        (b"\xff\n", 1, "UTF-8"),
        (b"", 1, "missing header"),
        (b"# only a comment\n", 2, "missing header"),
        (b"name,file\nx,a.pgm\n", 1, "file,name"),
        (b"# c\nfile\na.pgm\n", 2, "file,name"),
        (b"file,name\n", 1, "no rows"),
        (b"file,name\na.pgm,x\n\nb.pgm,y\n", 3, "blank"),
        (b"file,name\na.pgm,x,extra\n", 2, "expected 2 fields, got 3"),
        (b"file,name,noise\na.pgm,x\n", 2, "expected 3 fields, got 2"),
        (b"file,name\na.pgm,x\nb.pgm,y\na.pgm,z\n", 4, "duplicate file 'a.pgm'"),
    ],
)
def test_format_errors_carry_line(data, line, words):
    with pytest.raises(CsvFormatError) as info:
        read_rows(data, "file,name")
    assert info.value.line == line
    assert words in str(info.value)


def test_write_reads_back():
    data = write_rows("file,name", [("a.pgm", "x"), ("b.pgm", "y")], comment="k=1")
    assert data == b"# k=1\nfile,name\na.pgm,x\nb.pgm,y\n"
    assert read_rows(data, "file,name") == (
        "k=1", [(3, {"file": "a.pgm", "name": "x"}), (4, {"file": "b.pgm", "name": "y"})]
    )


@pytest.mark.parametrize("field", ["a,b", "a\nb", "a\r"])
def test_write_rejects_fields_that_would_not_read_back(field):
    with pytest.raises(ParameterError):
        write_rows("file,name", [("a.pgm", field)])
