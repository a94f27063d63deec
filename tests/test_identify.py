from __future__ import annotations

import hashlib
import logging
import math

import numpy as np
import pytest

from boltvision.errors import CsvFormatError, EnrollmentError, ParameterError
from boltvision.identify import (
    LookupTable,
    MatchResult,
    TemplateEntry,
    enroll,
    load_table,
    nearest_match,
    save_table,
)
from boltvision.imagecore import BinaryImage, PixelPoint, connected_components
from boltvision.pipeline import BoltFeatures, ThreadingType, extract_features
from boltvision.synth import RenderParams, render_bolt, standard_catalog

PPM = 12.42

# oriented template dimensions of four reference bolts at 12.42 px/mm
REFERENCE_DIMS = {
    "M8x35_HT": (147.0, 407.0, ThreadingType.HALF),
    "M10x50_HT": (181.0, 577.0, ThreadingType.HALF),
    "M10x35_FT": (179.0, 426.0, ThreadingType.FULL),
    "M4x75_FT": (75.0, 781.0, ThreadingType.FULL),
}


def reference_table(px_per_mm: float = PPM) -> LookupTable:
    entries = tuple(
        TemplateEntry(name=n, width_px=w, height_px=h, threading=t)
        for n, (w, h, t) in REFERENCE_DIMS.items()
    )
    return LookupTable(px_per_mm=px_per_mm, entries=entries)


def features(major: float, minor: float, threading=ThreadingType.HALF) -> BoltFeatures:
    return BoltFeatures(
        major_px=major,
        minor_px=minor,
        threading=threading,
        pitch_px=None,
        area_px=int(major * minor * 0.8),
        perimeter_px=2.0 * (major + minor),
    )


def render_component(name: str, angle: float = 0.0) -> BinaryImage:
    spec = next(s for s in standard_catalog() if s.name == name)
    diag = math.hypot(spec.length_mm * PPM, spec.head_width_mm * PPM)
    side = math.ceil(diag) + 10
    img, _ = render_bolt(
        spec,
        RenderParams(side, side, PixelPoint(side // 2, side // 2),
                     angle_deg=angle, px_per_mm=PPM),
    )
    return connected_components(img)[0].mask


# -- construction ------------------------------------------------------------

def test_entry_rejects_empty_name():
    with pytest.raises(ParameterError):
        TemplateEntry(name="", width_px=10.0, height_px=20.0,
                      threading=ThreadingType.FULL)


def test_entry_rejects_inverted_dims():
    with pytest.raises(ParameterError):
        TemplateEntry(name="x", width_px=30.0, height_px=20.0,
                      threading=ThreadingType.FULL)
    with pytest.raises(ParameterError):
        TemplateEntry(name="x", width_px=0.0, height_px=20.0,
                      threading=ThreadingType.FULL)


def test_table_rejects_duplicates_and_empties():
    e = TemplateEntry(name="a", width_px=10.0, height_px=20.0,
                      threading=ThreadingType.FULL)
    with pytest.raises(ParameterError):
        LookupTable(px_per_mm=PPM, entries=(e, e))
    with pytest.raises(ParameterError):
        LookupTable(px_per_mm=PPM, entries=())
    with pytest.raises(ParameterError):
        LookupTable(px_per_mm=0.0, entries=(e,))


# -- nearest_match -----------------------------------------------------------

def test_match_reference_query():
    # (major, minor) = (410, 148) sits sqrt(10) px from the M8x35_HT entry
    m = nearest_match(features(410.0, 148.0), reference_table())
    assert m.name == "M8x35_HT"
    assert m.distance_px == pytest.approx(math.sqrt(10.0))
    assert m.threading_agreed


def test_match_exact_hit():
    m = nearest_match(features(577.0, 181.0), reference_table())
    assert m.name == "M10x50_HT"
    assert m.distance_px == 0.0


def test_tie_broken_by_threading():
    entries = (
        TemplateEntry(name="ft", width_px=100.0, height_px=400.0,
                      threading=ThreadingType.FULL),
        TemplateEntry(name="ht", width_px=100.0, height_px=400.0,
                      threading=ThreadingType.HALF),
    )
    table = LookupTable(px_per_mm=PPM, entries=entries)
    assert nearest_match(features(400.0, 100.0, ThreadingType.HALF), table).name == "ht"
    assert nearest_match(features(400.0, 100.0, ThreadingType.FULL), table).name == "ft"


def test_tie_without_agreement_takes_first():
    entries = (
        TemplateEntry(name="first", width_px=100.0, height_px=400.0,
                      threading=ThreadingType.FULL),
        TemplateEntry(name="second", width_px=100.0, height_px=400.0,
                      threading=ThreadingType.FULL),
    )
    table = LookupTable(px_per_mm=PPM, entries=entries)
    m = nearest_match(features(400.0, 100.0, ThreadingType.HALF), table)
    assert m.name == "first"
    assert not m.threading_agreed


def test_far_query_rejected():
    table = reference_table()
    # nearest entry is ~100 px away, over 10% of the 300 px major axis
    m = nearest_match(features(300.0, 150.0), table)
    assert m.name is None
    assert m.distance_px > 0.1 * 300.0
    kept = nearest_match(features(300.0, 150.0), table, reject_frac=math.inf)
    assert kept.name is not None
    assert kept.distance_px == m.distance_px


def test_reject_frac_validation():
    table = reference_table()
    for bad in (0.0, -0.1):
        with pytest.raises(ParameterError):
            nearest_match(features(400.0, 100.0), table, reject_frac=bad)


# -- enroll ------------------------------------------------------------------

def test_enroll_and_identify_round_trip():
    names = ["M8x35_HT", "M10x50_HT", "M10x35_FT", "M4x75_FT", "M5x12_FT"]
    table = enroll([(n, render_component(n)) for n in names])
    assert [e.name for e in table.entries] == names
    for name in names:
        comp = render_component(name, angle=30.0)
        f_query = extract_features(comp)
        m = nearest_match(f_query, table)
        assert m.name == name
        assert m.distance_px <= 0.02 * f_query.major_px


def test_enroll_dims_recover_catalog_mm():
    table = enroll([("M8x35_HT", render_component("M8x35_HT"))])
    e = table.entries[0]
    assert e.height_px / table.px_per_mm == pytest.approx(35.0, abs=0.2)
    assert e.width_px / table.px_per_mm == pytest.approx(8.0, abs=0.2)
    assert e.threading is ThreadingType.HALF


def test_enroll_rejects_duplicate_name():
    img = render_component("M8x35_HT")
    with pytest.raises(EnrollmentError) as info:
        enroll([("bolt", img), ("bolt", img)])
    assert info.value.sample == "bolt"


def test_enroll_names_failing_sample():
    blank = BinaryImage(np.zeros((20, 20), bool))
    with pytest.raises(EnrollmentError) as info:
        enroll([("ok", render_component("M8x35_HT")), ("broken", blank)])
    assert info.value.sample == "broken"
    assert "broken" in str(info.value)
    assert "empty-input at orient" in str(info.value)


def test_enroll_validates_arguments():
    with pytest.raises(ParameterError):
        enroll([])
    with pytest.raises(ParameterError):
        enroll([("a", render_component("M5x12_FT"))], px_per_mm=0.0)


def test_enroll_warns_on_collision(caplog):
    img = render_component("M8x35_HT")
    with caplog.at_level(logging.WARNING, logger="boltvision.identify"):
        table = enroll([("a", img), ("b", img)])
    assert len(table.entries) == 2
    assert "may be confused" in caplog.text
    assert "'a'" in caplog.text and "'b'" in caplog.text


def test_enroll_silent_for_separated_catalog(caplog):
    names = ["M8x35_HT", "M10x50_HT", "M4x75_FT"]
    with caplog.at_level(logging.WARNING, logger="boltvision.identify"):
        enroll([(n, render_component(n)) for n in names])
    assert not caplog.records


# -- CSV serialization -------------------------------------------------------

def test_save_format():
    table = reference_table()
    text = save_table(table).decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == f"# px_per_mm={PPM!r}"
    assert lines[1] == "name,width_px,height_px,threading"
    assert lines[2] == "M8x35_HT,147.0,407.0,HT"
    assert lines[-1] == ""  # trailing newline
    assert "\r" not in text


def test_round_trip_exact():
    table = reference_table(px_per_mm=9.871)
    assert load_table(save_table(table)) == table


def test_load_defaults_px_per_mm():
    data = b"name,width_px,height_px,threading\na,10.0,20.0,FT\n"
    table = load_table(data)
    assert table.px_per_mm == 12.42
    assert table.entries[0] == TemplateEntry(
        name="a", width_px=10.0, height_px=20.0, threading=ThreadingType.FULL
    )


def test_load_reference_fixture():
    rows = "\n".join(
        f"{n},{w!r},{h!r},{t.value}" for n, (w, h, t) in REFERENCE_DIMS.items()
    )
    data = f"name,width_px,height_px,threading\n{rows}\n".encode()
    table = load_table(data)
    assert len(table.entries) == 4
    m = nearest_match(features(410.0, 148.0), table)
    assert m.name == "M8x35_HT"


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xff\xfe\x00", 1),  # not UTF-8
        (b"# scale=3\nname,width_px,height_px,threading\na,1.0,2.0,FT\n", 1),
        (b"# px_per_mm=abc\nname,width_px,height_px,threading\na,1.0,2.0,FT\n", 1),
        (b"# px_per_mm=-4\nname,width_px,height_px,threading\na,1.0,2.0,FT\n", 1),
        (b"", 1),  # missing header
        (b"name,width_px,height_px\na,1.0,2.0\n", 1),  # wrong header
        (b"# px_per_mm=12.42\nwrong,header\na,1.0,2.0,FT\n", 2),
        (b"name,width_px,height_px,threading\na,1.0,2.0\n", 2),  # short row
        (b"name,width_px,height_px,threading\na,1.0,2.0,FT\na,3.0,4.0,HT\n", 3),
        (b"name,width_px,height_px,threading\na,x,2.0,FT\n", 2),
        (b"name,width_px,height_px,threading\na,1.0,2.0,XT\n", 2),
        (b"name,width_px,height_px,threading\na,5.0,2.0,FT\n", 2),  # w > h
        (b"name,width_px,height_px,threading\n", 1),  # no entries
        (b"name,width_px,height_px,threading\n\na,1.0,2.0,FT\n", 2),  # blank line
        # non-finite numbers
        (b"# px_per_mm=inf\nname,width_px,height_px,threading\na,1.0,2.0,FT\n", 1),
        (b"# px_per_mm=nan\nname,width_px,height_px,threading\na,1.0,2.0,FT\n", 1),
        (b"name,width_px,height_px,threading\na,1.0,2.0,FT\nb,1.0,inf,FT\n", 3),
        (b"name,width_px,height_px,threading\na,inf,inf,HT\n", 2),
        (b"name,width_px,height_px,threading\na,nan,2.0,FT\n", 2),
    ],
)
def test_load_errors_carry_line(data, line):
    with pytest.raises(CsvFormatError) as info:
        load_table(data)
    assert info.value.line == line


def test_save_table_bytes_are_pinned():
    table = LookupTable(9.5, (
        TemplateEntry("A", 10.25, 40.5, ThreadingType.FULL),
        TemplateEntry("B", 12.0, 12.0, ThreadingType.HALF),
        TemplateEntry("C_x", 1 / 3, 2 / 3, ThreadingType.FULL),
    ))
    assert hashlib.sha256(save_table(table)).hexdigest() == (
        "33995687f02300511986939b6ef27d1e9ee2a05f68bbe59c340d489bcff7a6f4"
    )


def test_match_result_is_plain_record():
    m = MatchResult(name="x", distance_px=1.0, threading_agreed=True)
    assert m == MatchResult("x", 1.0, True)
