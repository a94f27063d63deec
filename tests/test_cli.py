from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest

from boltvision.cli import (
    REPORT_SCHEMA,
    build_config,
    main,
    parse_config_text,
    report_from_json,
    report_to_json,
)
from boltvision.errors import ConfigError, ReportFormatError
from boltvision.identify import load_table
from boltvision.imagecore import BinaryImage, PixelPoint, write_binary_pgm
from boltvision.pipeline import PipelineConfig
from boltvision.synth import (
    RenderParams,
    render_bolt,
    save_catalog,
    standard_catalog,
)

PPM = 12.42


def spec_named(name: str):
    return next(s for s in standard_catalog() if s.name == name)


def write_render(path, name: str, angle: float = 0.0, center=None) -> None:
    spec = spec_named(name)
    diag = math.hypot(spec.length_mm * PPM, spec.head_width_mm * PPM)
    side = math.ceil(diag) + 20
    if center is None:
        center = (side // 2, side // 2)
    img, _ = render_bolt(
        spec,
        RenderParams(side, side, PixelPoint(*center), angle_deg=angle, px_per_mm=PPM),
    )
    with open(path, "wb") as fh:
        fh.write(write_binary_pgm(img))


def write_black(path, side: int = 64) -> None:
    with open(path, "wb") as fh:
        fh.write(write_binary_pgm(BinaryImage(np.zeros((side, side), bool))))


def write_specks(path) -> None:
    """A 300x300 frame holding only three specks below the area floor."""
    px = np.zeros((300, 300), bool)
    px[20:25, 20:25] = True  # 25 px
    px[150:156, 140:146] = True  # 36 px
    px[270:275, 260:268] = True  # 40 px
    assert PipelineConfig().min_component_area > 40
    with open(path, "wb") as fh:
        fh.write(write_binary_pgm(BinaryImage(px)))


@pytest.fixture(scope="module")
def enrolled(tmp_path_factory):
    """Three labeled renders, their manifest, and an enrolled table."""
    root = tmp_path_factory.mktemp("enrolled")
    names = ["M8x35_HT", "M10x50_HT", "M10x35_FT"]
    lines = ["file,name"]
    for n in names:
        write_render(root / f"{n}.pgm", n)
        lines.append(f"{n}.pgm,{n}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    table = root / "table.csv"
    rc = main(["enroll", "--manifest", str(root / "manifest.csv"),
               "--out", str(table)])
    assert rc == 0
    return root, table, names


# -- config ------------------------------------------------------------------

def test_parse_config_text():
    text = "thresh = 3   # cut margin\n\n# full line comment\nnudge=1\n"
    assert parse_config_text(text) == {"thresh": "3", "nudge": "1"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("volume=11\n")
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")


def test_build_config_precedence(tmp_path):
    f = tmp_path / "pipeline.cfg"
    f.write_text("thresh=3\nhead_frac=0.3\n")
    cfg = build_config(str(f), ["thresh=7"])
    assert cfg.thresh == 7  # --set beats the file
    assert cfg.head_frac == 0.3
    assert cfg.nudge == PipelineConfig().nudge  # untouched default


def test_build_config_type_errors():
    with pytest.raises(ConfigError):
        build_config(None, ["thresh=2.5"])  # int key
    with pytest.raises(ConfigError):
        build_config(None, ["head_frac=lots"])
    with pytest.raises(ConfigError):
        build_config(None, ["head_frac=0"])  # violates the config invariant
    with pytest.raises(ConfigError):
        build_config(None, ["bogus"])


def test_config_errors_name_their_place(tmp_path):
    f = tmp_path / "pipeline.cfg"
    f.write_text("thresh=3\nvolume=11\n")
    with pytest.raises(ConfigError, match="line 2: unknown config key 'volume'"):
        build_config(str(f), [])
    with pytest.raises(ConfigError, match="--set: unknown config key 'volume'"):
        build_config(None, ["volume=11"])
    with pytest.raises(ConfigError, match="--set: expected key=value"):
        build_config(None, ["bogus"])


def _measure_with_config(tmp_path, via: str, item: str) -> int:
    """Exit code of measure on a black frame, given item by --set or in a file."""
    frame = tmp_path / "black.pgm"
    write_black(frame)
    argv = ["measure", str(frame)]
    if via == "--set":
        argv += ["--set", item]
    else:
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(item + "\n")
        argv += ["--config", str(cfg)]
    return main(argv)


@pytest.mark.parametrize("via", ["--set", "file"])
@pytest.mark.parametrize("item", ["head_frac=nan", "head_frac=inf", "head_frac=-inf",
                                  "head_frac=NaN"])
def test_non_finite_config_values_exit_2(tmp_path, capsys, via, item):
    # a NaN slips past every range check
    assert _measure_with_config(tmp_path, via, item) == 2
    err = capsys.readouterr().err
    assert f"config key '{item.split('=')[0]}' expects a finite number" in err


@pytest.mark.parametrize("via", ["--set", "file"])
def test_fill_frac_is_unknown(tmp_path, capsys, via):
    assert _measure_with_config(tmp_path, via, "fill_frac=0.97") == 2
    assert "unknown config key 'fill_frac'" in capsys.readouterr().err


def test_build_config_missing_file():
    with pytest.raises(ConfigError):
        build_config("/no/such/file.cfg", [])


# -- enroll ------------------------------------------------------------------

def test_enroll_writes_loadable_table(enrolled):
    _, table_path, names = enrolled
    table = load_table(table_path.read_bytes())
    assert [e.name for e in table.entries] == names
    assert table.px_per_mm == 12.42


def test_enroll_missing_image_exits_2(tmp_path, capsys):
    (tmp_path / "manifest.csv").write_text("file,name\nghost.pgm,ghost\n")
    rc = main(["enroll", "--manifest", str(tmp_path / "manifest.csv"),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "missing file" in capsys.readouterr().err


def test_enroll_duplicate_name_exits_2(tmp_path, capsys):
    write_render(tmp_path / "a.pgm", "M8x35_HT")
    (tmp_path / "manifest.csv").write_text("file,name\na.pgm,x\na.pgm,x\n")
    rc = main(["enroll", "--manifest", str(tmp_path / "manifest.csv"),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


def test_enroll_bad_manifest_header_exits_2(tmp_path, capsys):
    (tmp_path / "manifest.csv").write_text("image,label\na.pgm,x\n")
    rc = main(["enroll", "--manifest", str(tmp_path / "manifest.csv"),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "file,name" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["enroll", "identify"])
@pytest.mark.parametrize(
    "text, line",
    [
        ("file,name\na.pgm,x\n\nb.pgm,y\n", 3),  # blank line
        ("file,name\na.pgm,x,extra\n", 2),  # three fields under two columns
        ("file,name\na.pgm,x\na.pgm,y\n", 3),  # the same file twice
        ("file,name\na.pgm,x\n./a.pgm,y\n", 3),  # the same file by another path
        ("file,name\nb.pgm,x\nsub/../b.pgm,y\n", 3),
    ],
    ids=["blank", "fields", "repeat", "repeat-dot", "repeat-dotdot"],
)
def test_manifest_rules_exit_2(enrolled, tmp_path, capsys, verb, text, line):
    _, table, _ = enrolled
    for f in ("a.pgm", "b.pgm"):
        write_render(tmp_path / f, "M8x35_HT")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(text)
    argv = {
        "enroll": ["enroll", "--manifest", str(manifest), "--out", str(tmp_path / "t.csv")],
        "identify": ["identify", str(tmp_path / "a.pgm"), "--table", str(table),
                     "--truth", str(manifest)],
    }[verb]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"manifest {manifest}:" in captured.err
    assert f"(line {line})" in captured.err
    assert captured.out == ""


# -- identify ----------------------------------------------------------------

def test_identify_names_known_part(enrolled, tmp_path, capsys):
    root, table, _ = enrolled
    query = tmp_path / "query.pgm"
    write_render(query, "M10x50_HT", angle=25.0)
    out = tmp_path / "report.json"
    rc = main(["identify", str(query), "--table", str(table),
               "--json", str(out)])
    assert rc == 0
    assert "M10x50_HT" in capsys.readouterr().out
    report = report_from_json(out.read_bytes())
    assert report["command"] == "identify"
    (rec,) = report["images"]
    assert rec["match"]["name"] == "M10x50_HT"
    assert rec["error"] is None
    assert rec["features"]["threading"] == "HT"
    assert report["summary"]["identified"] == 1
    assert report["timings"]["per_component"][0]["path"] == str(query)


def test_identify_two_parts_in_one_frame(enrolled, tmp_path):
    root, table, _ = enrolled
    a = spec_named("M8x35_HT")
    b = spec_named("M10x35_FT")
    canvas = 1300
    img_a, _ = render_bolt(a, RenderParams(
        canvas, canvas, PixelPoint(300, 300), angle_deg=10.0, px_per_mm=PPM))
    img_b, _ = render_bolt(b, RenderParams(
        canvas, canvas, PixelPoint(800, 800), angle_deg=100.0, px_per_mm=PPM))
    frame = BinaryImage(img_a.px | img_b.px)
    path = tmp_path / "pair.pgm"
    path.write_bytes(write_binary_pgm(frame))
    out = tmp_path / "report.json"
    rc = main(["identify", str(path), "--table", str(table), "--json", str(out)])
    assert rc == 0
    report = report_from_json(out.read_bytes())
    got = {r["match"]["name"] for r in report["images"]}
    assert got == {"M8x35_HT", "M10x35_FT"}
    assert report["summary"]["components"] == 2


def test_identify_far_part_reported_unknown(enrolled, tmp_path, capsys):
    root, table, _ = enrolled
    query = tmp_path / "odd.pgm"
    write_render(query, "M4x75_FT")  # not among the three enrolled
    rc = main(["identify", str(query), "--table", str(table)])
    assert rc == 0
    assert "unknown" in capsys.readouterr().out


def test_identify_missing_image_is_record_not_crash(enrolled, tmp_path, capsys):
    root, table, _ = enrolled
    ok = tmp_path / "ok.pgm"
    write_render(ok, "M8x35_HT")
    out = tmp_path / "report.json"
    rc = main(["identify", str(tmp_path / "nope.pgm"), str(ok),
               "--table", str(table), "--json", str(out)])
    assert rc == 0  # one image still succeeded
    report = report_from_json(out.read_bytes())
    errors = [r for r in report["images"] if r["error"] is not None]
    assert len(errors) == 1
    assert report["summary"]["errors"] == 1


def test_identify_all_images_unreadable_exits_1(enrolled, tmp_path):
    root, table, _ = enrolled
    rc = main(["identify", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               "--table", str(table)])
    assert rc == 1


def test_identify_empty_frame_warns(enrolled, tmp_path, capsys):
    root, table, _ = enrolled
    blank = tmp_path / "blank.pgm"
    write_black(blank)
    out = tmp_path / "report.json"
    rc = main(["identify", str(blank), "--table", str(table), "--json", str(out)])
    assert rc == 0
    assert "no components" in capsys.readouterr().err
    report = report_from_json(out.read_bytes())
    assert report["images"] == []


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_identify_rejects_bad_reject_frac(enrolled, tmp_path, capsys, value):
    # checked when the arguments are parsed, before any frame is read: a
    # blank frame would otherwise never reach the match
    root, table, _ = enrolled
    blank = tmp_path / "blank.pgm"
    write_black(blank)
    with pytest.raises(SystemExit) as info:
        main(["identify", str(blank), "--table", str(table), f"--reject-frac={value}"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--reject-frac" in captured.err and "number > 0 or inf" in captured.err
    assert captured.out == ""


def test_identify_reject_frac_inf_keeps_far_part(enrolled, tmp_path, capsys):
    root, table, _ = enrolled
    query = tmp_path / "odd.pgm"
    write_render(query, "M4x75_FT")  # not among the three enrolled
    rc = main(["identify", str(query), "--table", str(table), "--reject-frac", "inf"])
    assert rc == 0
    assert "1 identified, 0 unknown" in capsys.readouterr().out


def test_identify_truth_accuracy(enrolled, tmp_path, capsys):
    root, table, _ = enrolled
    q = tmp_path / "q.pgm"
    write_render(q, "M8x35_HT", angle=50.0)
    (tmp_path / "truth.csv").write_text("file,name\nq.pgm,M8x35_HT\n")
    out = tmp_path / "report.json"
    rc = main(["identify", str(q), "--table", str(table),
               "--truth", str(tmp_path / "truth.csv"), "--json", str(out)])
    assert rc == 0
    report = report_from_json(out.read_bytes())
    assert report["summary"]["truth_total"] == 1
    assert report["summary"]["truth_correct"] == 1
    assert report["summary"]["accuracy"] == 1.0
    assert "accuracy 100.0%" in capsys.readouterr().out


def test_identify_truth_keys_by_path_not_file_name(enrolled, tmp_path, capsys):
    # da/x.pgm and db/x.pgm share a file name; only the first is listed
    # with its true name, so only it may count toward the accuracy
    root, table, _ = enrolled
    for d, name in (("da", "M8x35_HT"), ("db", "M10x35_FT")):
        (tmp_path / d).mkdir()
        write_render(tmp_path / d / "x.pgm", name, angle=50.0)
    (tmp_path / "truth.csv").write_text("file,name\nda/x.pgm,M8x35_HT\ndb/x.pgm,OTHER\n")
    out = tmp_path / "report.json"
    rc = main(["identify", str(tmp_path / "da" / "x.pgm"), "--table", str(table),
               "--truth", str(tmp_path / "truth.csv"), "--json", str(out)])
    assert rc == 0
    summary = report_from_json(out.read_bytes())["summary"]
    assert (summary["truth_total"], summary["truth_correct"]) == (1, 1)
    assert "accuracy 100.0%" in capsys.readouterr().out
    # db/x.pgm is checked against its own row
    rc = main(["identify", str(tmp_path / "db" / "x.pgm"), "--table", str(table),
               "--truth", str(tmp_path / "truth.csv"), "--json", str(out)])
    assert rc == 0
    summary = report_from_json(out.read_bytes())["summary"]
    assert (summary["truth_total"], summary["truth_correct"]) == (1, 0)


def test_identify_missing_table_exits_2(tmp_path, capsys):
    q = tmp_path / "q.pgm"
    write_render(q, "M8x35_HT")
    rc = main(["identify", str(q), "--table", str(tmp_path / "none.csv")])
    assert rc == 2


def test_identify_malformed_table_exits_2(tmp_path, capsys):
    q = tmp_path / "q.pgm"
    write_render(q, "M8x35_HT")
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n")
    rc = main(["identify", str(q), "--table", str(bad)])
    assert rc == 2
    assert "table" in capsys.readouterr().err


# -- measure -----------------------------------------------------------------

def test_measure_prints_dimensions(tmp_path, capsys):
    img = tmp_path / "part.pgm"
    write_render(img, "M8x35_HT", angle=12.0)
    out = tmp_path / "report.json"
    rc = main(["measure", str(img), "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "major:" in text and "mm" in text
    assert "threading: HT" in text
    assert "pitch:" in text
    report = report_from_json(out.read_bytes())
    assert report["command"] == "measure"
    (rec,) = report["images"]
    assert rec["features"]["major_mm"] == pytest.approx(35.0, abs=0.3)
    assert rec["features"]["minor_mm"] == pytest.approx(8.0, abs=0.3)
    assert rec["features"]["pitch_mm"] == pytest.approx(1.25, abs=0.07)


def test_measure_black_frame_exits_1(tmp_path, capsys):
    img = tmp_path / "black.pgm"
    write_black(img)
    rc = main(["measure", str(img)])
    assert rc == 1
    assert "no component above the area floor" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["measure", "enroll", "bench"])
def test_speck_only_frame_exits_1(tmp_path, capsys, verb):
    # the frame holds no part, so no verb may measure the specks or the
    # whole frame in its place
    frame = tmp_path / "specks.pgm"
    write_specks(frame)
    (tmp_path / "manifest.csv").write_text("file,name\nspecks.pgm,x\n")
    argv = {
        "measure": ["measure", str(frame)],
        "enroll": ["enroll", "--manifest", str(tmp_path / "manifest.csv"),
                   "--out", str(tmp_path / "t.csv")],
        "bench": ["bench", str(frame), "--reps", "1"],
    }[verb]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"no component above the area floor in {frame}" in captured.err
    assert captured.out == ""


def test_measure_px_per_mm_override(tmp_path, capsys):
    img = tmp_path / "part.pgm"
    write_render(img, "M5x12_FT")
    rc = main(["measure", str(img), "--px-per-mm", "6.21"])
    assert rc == 0
    line = capsys.readouterr().out.split("major:")[1].split("\n")[0]
    mm = float(line.split("=")[1].replace("mm", ""))
    # half the factor doubles the reported length
    assert mm == pytest.approx(24.0, abs=0.4)


@pytest.mark.parametrize("value", ["0", "-5", "nan"])
def test_measure_rejects_bad_px_per_mm(tmp_path, capsys, value):
    img = tmp_path / "part.pgm"
    write_render(img, "M5x12_FT")
    with pytest.raises(SystemExit) as info:
        main(["measure", str(img), f"--px-per-mm={value}"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--px-per-mm" in captured.err and "finite number > 0" in captured.err
    assert captured.out == ""


# -- gen ---------------------------------------------------------------------

def test_gen_sweep_writes_images_and_manifest(tmp_path):
    cat = tmp_path / "cat.csv"
    cat.write_bytes(save_catalog([spec_named("M5x12_FT"), spec_named("M6x40_HT")]))
    out = tmp_path / "out"
    rc = main(["gen", "--out", str(out), "--catalog", str(cat), "--angles", "3"])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.csv" in files
    pgms = [f for f in files if f.endswith(".pgm")]
    assert len(pgms) == 6
    assert "M5x12_FT_a000.pgm" in pgms and "M6x40_HT_a240.pgm" in pgms
    lines = (out / "manifest.csv").read_text().strip().split("\n")
    assert lines[0] == "file,name,angle_deg,noise"
    assert len(lines) == 7


def test_gen_sweep_above_360_angles_names_every_frame(tmp_path):
    # whole degrees repeat above 360 angles; no render may overwrite another
    cat = tmp_path / "cat.csv"
    cat.write_bytes(save_catalog([spec_named("M5x12_FT")]))
    out = tmp_path / "out"
    rc = main(["gen", "--out", str(out), "--catalog", str(cat), "--angles", "720"])
    assert rc == 0
    pgms = [p.name for p in out.iterdir() if p.suffix == ".pgm"]
    assert len(pgms) == 720
    rows = (out / "manifest.csv").read_text().strip().split("\n")[1:]
    files = [r.split(",")[0] for r in rows]
    assert len(files) == 720 and len(set(files)) == 720
    assert set(files) == set(pgms)


def test_gen_random_mode(tmp_path):
    cat = tmp_path / "cat.csv"
    cat.write_bytes(save_catalog([spec_named("M5x12_FT"), spec_named("M8x20_FT")]))
    out = tmp_path / "rand"
    rc = main(["gen", "--out", str(out), "--catalog", str(cat),
               "--count", "4", "--seed", "9", "--noise", "0.002"])
    assert rc == 0
    pgms = sorted(p.name for p in out.iterdir() if p.suffix == ".pgm")
    assert len(pgms) == 4
    assert all(p.split("_")[0].isdigit() for p in pgms)
    manifest = (out / "manifest.csv").read_text()
    assert "0.002" in manifest


def test_gen_same_seed_same_bytes(tmp_path):
    cat = tmp_path / "cat.csv"
    cat.write_bytes(save_catalog([spec_named("M6x30_FT")]))
    outs = []
    for d in ("one", "two"):
        out = tmp_path / d
        rc = main(["gen", "--out", str(out), "--catalog", str(cat),
                   "--count", "3", "--seed", "4", "--noise", "0.01"])
        assert rc == 0
        outs.append({
            p.name: p.read_bytes() for p in out.iterdir()
        })
    assert outs[0] == outs[1]


# sha256 of every file of one sweep and one random run; a change to the
# draw order, the canvas or the file format shows here
GEN_SHA256 = {
    "sweep": {
        "M5x12_FT_a000.pgm": "89a49e638cd5ecbcefc6845b8cd9fe5521ac7701f154aca098c496296b2cd51a",
        "M5x12_FT_a180.pgm": "e3472c8c4cf501e4d12b2774cf2fdaf27f3f60dd5bb27eeaa440c1fcb13b3a09",
        "M6x40_HT_a000.pgm": "3e5e89bcfe748f6eff8c7dbec203c2234e1d7f0957f581b75730cd556bc8143c",
        "M6x40_HT_a180.pgm": "d3003da785711e701c0a2ee2347f44abd5f9dbac7acfac66324ccdf4870c7561",
        "manifest.csv": "172586f541edf7d80cf76f27a6825bd15c58c182d603965bff3e3b674e9c2882",
    },
    "random": {
        "0000_M10x30_HT.pgm": "0b10de7229297d77ea8df1a1b53b4b9b31372dbecd410c23b9d8914cbcda08eb",
        "0001_M12x75_HT.pgm": "4ca364eab12df9073c2bbbac9d81bde455028ba4f91604b02cbfaf8a0534a696",
        "0002_M8x55_HT.pgm": "e0626758174bc59b85f9dbef491ba82abb8b3619e5749fccdbb07acbef79ae5b",
        "manifest.csv": "94ce92d1ca6339176c93c13879d7e8bb9c857e3a27df5caa97726d64ef3170e9",
    },
}


def test_gen_bytes_are_pinned(tmp_path):
    cat = tmp_path / "cat.csv"
    cat.write_bytes(save_catalog([spec_named("M5x12_FT"), spec_named("M6x40_HT")]))
    runs = {
        "sweep": ["--catalog", str(cat), "--angles", "2"],
        "random": ["--count", "3", "--noise", "0.002", "--seed", "4"],
    }
    for mode, argv in runs.items():
        out = tmp_path / mode
        assert main(["gen", "--out", str(out), *argv]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == GEN_SHA256[mode], mode


def test_gen_bad_angles_exits_2(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "x"), "--angles", "0"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["--count", "2", "--seed", "-1"],
    ["--angles", "1", "--noise", "0.001", "--seed", "-5"],
])
def test_gen_negative_seed_exits_2_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as info:
        main(["gen", "--out", str(out), *argv])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["0.5", "nan"])
def test_gen_bad_noise_exits_2_before_writing(tmp_path, capsys, noise):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as info:
        main(["gen", "--out", str(out), "--angles", "1", "--noise", noise])
    assert info.value.code == 2
    assert "--noise" in capsys.readouterr().err
    assert not out.exists()


def test_gen_missing_catalog_exits_2(tmp_path):
    rc = main(["gen", "--out", str(tmp_path / "x"),
               "--catalog", str(tmp_path / "none.csv")])
    assert rc == 2


# -- bench -------------------------------------------------------------------

def test_bench_reports_stage_lines(tmp_path, capsys):
    img = tmp_path / "part.pgm"
    write_render(img, "M8x35_HT")
    rc = main(["bench", str(img), "--reps", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 7
    stages = []
    for line in lines:
        stage, mean_s, p95_s = line.split(",")
        stages.append(stage)
        assert float(mean_s) >= 0.0
        assert float(p95_s) >= float(mean_s) * 0.0  # both parse
    assert stages == ["orient", "axes", "area", "perimeter", "head",
                      "threading", "total"]


def test_bench_zero_reps_exits_2(tmp_path, capsys):
    img = tmp_path / "part.pgm"
    write_render(img, "M5x12_FT")
    rc = main(["bench", str(img), "--reps", "0"])
    assert rc == 2


def test_bench_takes_no_px_per_mm(tmp_path, capsys):
    # bench prints pixel-free stage timings, so a scale has nothing to set
    img = tmp_path / "part.pgm"
    write_render(img, "M5x12_FT")
    with pytest.raises(SystemExit) as info:
        main(["bench", str(img), "--px-per-mm", "5"])
    assert info.value.code == 2
    assert "--px-per-mm" in capsys.readouterr().err


def test_bench_blank_image_exits_1(tmp_path, capsys):
    img = tmp_path / "blank.pgm"
    write_black(img)
    rc = main(["bench", str(img)])
    assert rc == 1


# -- report serialization ----------------------------------------------------

def test_report_round_trip():
    report = {
        "schema": REPORT_SCHEMA,
        "command": "identify",
        "config": {"thresh": 5},
        "px_per_mm": 12.42,
        "images": [],
        "summary": {"images": 0},
        "timings": {"per_component": [], "total_ms": 0.0},
    }
    assert report_from_json(report_to_json(report)) == report


def test_report_rejects_bad_documents():
    with pytest.raises(ReportFormatError):
        report_from_json(b"{not json")
    with pytest.raises(ReportFormatError):
        report_from_json(b'{"schema": "other/9"}')
    with pytest.raises(ReportFormatError):
        report_from_json(json.dumps([1, 2]).encode())


def test_report_json_is_stable_text():
    doc = {"schema": REPORT_SCHEMA, "b": 1, "a": 2}
    assert report_to_json(doc) == report_to_json(dict(doc))
    assert report_to_json(doc).endswith(b"}\n")
