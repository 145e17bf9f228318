"""End-to-end tests of the command line interface.

All commands are exercised in-process through main(argv), which returns the
exit code; stdout/stderr are captured with capsys.  Determinism tests compare
output files byte for byte.
"""

import json
import math
import os
import re
import subprocess
import sys
import typing
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from conftest import full_grid_report
from references import (
    angular_points_per_point,
    read_csv_per_line,
    scan_per_row,
    sweep_points_per_point,
)

from bumpscatter import cli, oracle
from bumpscatter.cli import (
    AngleNudgeWarning,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    RECIPROCITY_ANGLES_DEG,
    RECIPROCITY_CASES,
    _f17,
    _parse_couplings,
    _parse_floats,
    _parse_grid,
    main,
)
from bumpscatter.defects import DefectSet, InputError, Kinematics
from bumpscatter.geoamp import (
    SingularAngleError,
    cross_section,
    delta_ray_offset,
    f1_arrays,
    f1_geometric,
)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _rows(path):
    out = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            out.append([float(v) for v in line.strip().split(",")])
    return out


def _headers(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, val = line[2:].strip().partition("=")
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# Small parser helpers


def test_parse_grid():
    g = _parse_grid("0.5:2:4", "--kgrid")
    np.testing.assert_allclose(g, [0.5, 1.0, 1.5, 2.0])
    assert len(_parse_grid("1:179:179", "--thetagrid")) == 179
    for bad in ("1:2", "2:1:0", "a:b:c", "1:2:2.5"):
        with pytest.raises(Exception):
            _parse_grid(bad, "--kgrid")


def test_parse_floats_and_couplings():
    assert _parse_floats("", "--defects") == []
    assert _parse_floats("-3,3", "--defects") == [-3.0, 3.0]
    assert _parse_couplings(None, 2) == [1.0 + 0.0j, 1.0 + 0.0j]
    assert _parse_couplings("2,1+1i", 2) == [2.0 + 0.0j, 1.0 + 1.0j]
    with pytest.raises(Exception):
        _parse_couplings("1", 2)  # wrong count


def test_nudge_theta(tmp_path):
    # angular moves a point within SINGULAR_ANGLE_TOL of either ray
    # (theta0 = 10 deg and its mirror, by geoamp.delta_ray_offset) NUDGE_DEG
    # off the ray on the side it lies, and leaves every other point alone.
    out = tmp_path / "a.csv"
    for grid, want in (("10:170:5", [10.0 + 1e-5, 50.0, 90.0, 130.0, 170.0 + 1e-5]),
                       ("9.9999995:170.0000005:2", [10.0 - 1e-5, 170.0 + 1e-5])):
        with pytest.warns(AngleNudgeWarning, match="nudged") as nudges:
            assert main(["angular", "--theta0-deg=10", "--ksigma=1", f"--thetagrid={grid}",
                         "--out", str(out)]) == EXIT_OK
        assert len(nudges) == 2
        thetas = [r[1] for r in _rows(out)]
        np.testing.assert_allclose(thetas, want, rtol=0.0, atol=1e-12)
        offsets = [abs(delta_ray_offset(math.radians(10.0), math.radians(th)))
                   for th in thetas]
        near = [o for o in offsets if o < 0.1]
        assert near == pytest.approx([math.radians(cli.NUDGE_DEG)] * 2, rel=1e-6)


def test_f17_round_trips_doubles():
    for x in (1.0 / 3.0, math.pi, 1e-300, -2.5e17, 0.1):
        assert float(_f17(x)) == x


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0


def test_distribution_metadata_matches_package():
    # The distribution, the import package and the CLI share one name, so
    # importlib.metadata.version("bumpscatter") finds an installed copy.
    import bumpscatter

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1]
    assert re.search(r'^name = "bumpscatter"$', project, re.M)
    assert re.search(rf'^version = "{re.escape(bumpscatter.__version__)}"$', project, re.M)


def test_sweep_rejects_delta_supported_angle(tmp_path, capsys):
    code = main([
        "sweep", "--theta-deg", "0", "--kgrid", "0.5:1:2",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_USAGE
    assert "delta-supported" in capsys.readouterr().err


@pytest.mark.parametrize("theta0_deg, special_deg", [(10.0, 10.0), (10.0, 170.0)])
def test_sweep_and_cross_section_share_the_delta_supported_window(
        tmp_path, capsys, theta0_deg, special_deg):
    # One window, geoamp.SINGULAR_ANGLE_TOL (1e-6 deg), decides both the
    # sweep rejection and the cross_section refusal, on the incidence ray
    # and on its mirror.
    ds = DefectSet([3.0], [1.0])

    def sweep(theta_deg):
        return main(["sweep", f"--theta0-deg={theta0_deg}", "--defects=3",
                     f"--theta-deg={theta_deg!r}", "--kgrid=1:1:1",
                     "--out", str(tmp_path / "x.csv")])

    def xsec(theta_deg):
        kin = Kinematics(1.0, math.radians(theta0_deg), math.radians(theta_deg))
        return cross_section(kin, ds, 0.1, 0.5, -0.5)

    inside = special_deg + 5e-7
    assert sweep(inside) == EXIT_USAGE
    assert "delta-supported" in capsys.readouterr().err
    with pytest.raises(SingularAngleError):
        xsec(inside)
    outside = special_deg + 2e-6
    assert sweep(outside) == EXIT_OK
    assert math.isfinite(xsec(outside))


def test_option_value_starting_with_dash_needs_equals_form(tmp_path, capsys):
    # argparse cannot treat "-3,3" after a space as a value; the documented
    # workaround is --defects=-3,3.
    base = [
        "sweep", "--theta-deg", "30", "--kgrid", "0.5:1:2",
        "--out", str(tmp_path / "x.csv"),
    ]
    assert main(base + ["--defects", "-3,3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(base + ["--defects=-3,3"]) == EXIT_OK


@pytest.mark.parametrize(
    "command, flag",
    [
        ("sweep", "--eta=nan"),
        ("sweep", "--eta=-1"),
        ("sweep", "--theta0-deg=95"),
        ("sweep", "--defects=1,1"),
        ("sweep", "--lambda1=nan"),
        ("sweep", "--lambda2=inf"),
        ("angular", "--ksigma=nan"),
    ],
)
def test_bad_engine_flag_is_usage_error(tmp_path, capsys, command, flag):
    # f1_arrays checks every engine input before it evaluates any point and
    # raises InputError, so a bad value ends as a usage error and no CSV is
    # written.
    out = tmp_path / "x.csv"
    scan = (["--theta-deg", "30", "--kgrid", "0.5:1:2"] if command == "sweep"
            else ["--ksigma", "1", "--thetagrid", "10:170:3"])
    assert main([command, *scan, "--out", str(out), flag]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("sweep", "--kgrid=0:1:2"),
        ("sweep", "--kgrid=-1:1:3"),
        ("sweep", "--theta-deg=inf"),
        ("sweep", "--theta-deg=-inf"),
        ("sweep", "--theta-deg=30,inf"),
        ("sweep", "--theta0-deg=inf"),
        ("sweep", "--defects=nan"),
        ("angular", "--ksigma=0"),
        ("angular", "--ksigma=-1"),
        ("angular", "--ksigma=inf"),
        ("angular", "--theta0-deg=-inf"),
    ],
)
def test_out_of_domain_grid_or_angle_is_usage_error(tmp_path, capsys, command, flag):
    # K <= 0 is refused by Kinematics inside f1_arrays, a non-finite angle by
    # the flag parser or by delta_ray_offset: one InputError, exit 1, no file.
    out = tmp_path / "x.csv"
    scan = (["--theta-deg=30", "--kgrid=0.5:1:2"] if command == "sweep"
            else ["--ksigma=1", "--thetagrid=10:170:3"])
    assert main([command, *scan, "--out", str(out), flag]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_only_input_errors_are_usage_errors(tmp_path, monkeypatch):
    # main maps InputError to exit 1 and nothing else: a plain ValueError
    # from the engine is a fault of the program and propagates.
    def broken(*args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "f1_arrays", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["sweep", "--theta-deg=30", "--kgrid=0.5:1:2",
              "--out", str(tmp_path / "x.csv")])
    assert not (tmp_path / "x.csv").exists()


def test_singular_angle_error_from_rows_stays_numerical(tmp_path, capsys, monkeypatch):
    # SingularAngleError is a ValueError, but only InputError is a usage
    # error: SingularAngleError is one of the numerical failures main names,
    # while a plain ValueError propagates (see the test above).
    def refuse(*args):
        raise SingularAngleError("on a delta-supported ray")

    monkeypatch.setattr(cli, "f1_arrays", refuse)
    code = main(["sweep", "--theta-deg", "30", "--kgrid", "0.5:1:2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    code = main([
        "sweep", "--defects", "30", "--theta-deg", "30",
        "--kgrid", "0.5:1:2", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_far_defect_is_a_numerical_failure(tmp_path, capsys):
    # A defect far past the window (1e200, whose square overflows) is
    # refused by the window check before any point is evaluated.
    code = main(["angular", "--defects=1e200", "--ksigma=1", "--thetagrid=10:170:5",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_NUMERICAL
    assert "exceeds the validated stable window" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# sweep / angular CSV output


def test_sweep_csv_structure_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv_tail = [
        "--defects=-3,3", "--theta-deg", "30,60", "--kgrid", "0.5:2:4",
    ]
    assert main(["sweep", *argv_tail, "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", *argv_tail, "--out", str(out2)]) == EXIT_OK
    assert _read(out1) == _read(out2)
    h = _headers(out1)
    assert h["mode"] == "kscan"
    assert h["columns"] == "ksigma,theta_deg,theta0_deg,re_f1,im_f1,xsec"
    assert h["defects"] == "-3,3"
    rows = _rows(out1)
    assert len(rows) == 8  # 2 angles x 4 wavenumbers
    ks = sorted({r[0] for r in rows})
    np.testing.assert_allclose(ks, [0.5, 1.0, 1.5, 2.0])


def test_sweep_rows_match_engine_exactly(tmp_path):
    out = tmp_path / "a.csv"
    assert main([
        "sweep", "--defects=-3,3", "--theta-deg", "50",
        "--kgrid", "1:1:1", "--out", str(out),
    ]) == EXIT_OK
    (row,) = _rows(out)
    k, th, th0, re_f1, im_f1, xsec = row
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.radians(50.0))
    ds = DefectSet([-3.0, 3.0], [1.0, 1.0])
    f1 = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    # %.17g round-trips doubles, so the file stores the exact values.
    assert re_f1 == f1.real and im_f1 == f1.imag
    assert xsec == cross_section(kin, ds, 0.1, 0.5, -0.5)


def test_scan_is_one_engine_call(tmp_path, monkeypatch):
    # sweep and angular hand every point of the command to one f1_arrays call.
    calls = []

    def counted(bigK, theta0, theta, *rest):
        calls.append(len(theta))
        return f1_arrays(bigK, theta0, theta, *rest)

    monkeypatch.setattr(cli, "f1_arrays", counted)
    out = tmp_path / "a.csv"
    assert main(["sweep", "--defects=-3,3", "--theta-deg", "30,90",
                 "--kgrid", "0.5:2:4", "--out", str(out)]) == EXIT_OK
    assert main(["angular", "--defects=-3,3", "--ksigma", "1",
                 "--thetagrid", "10:170:9", "--out", str(out)]) == EXIT_OK
    assert calls == [8, 9]


def test_angular_nudges_delta_supported_angles(tmp_path):
    out = tmp_path / "a.csv"
    with pytest.warns(AngleNudgeWarning, match="nudged") as nudges:
        code = main([
            "angular", "--defects=-3,3", "--ksigma", "1",
            "--thetagrid", "0:180:3", "--out", str(out),
        ])
    assert code == EXIT_OK
    assert [str(w.message).split(" deg")[0] for w in nudges] == [
        "warning: theta = 0", "warning: theta = 180"]
    rows = _rows(out)
    thetas = [r[1] for r in rows]
    np.testing.assert_allclose(thetas, [1e-5, 90.0, 180.0 + 1e-5])
    assert all(np.isfinite(r[5]) for r in rows)


def test_nonzero_theta0_marks_extrapolation(tmp_path):
    out = tmp_path / "a.csv"
    assert main([
        "sweep", "--theta0-deg", "20", "--defects", "1",
        "--theta-deg", "80", "--kgrid", "1:1:1", "--out", str(out),
    ]) == EXIT_OK
    h = _headers(out)
    assert "note" in h and "extrapolation" in h["note"]
    # theta0 = 0 carries no such note.
    out2 = tmp_path / "b.csv"
    assert main([
        "sweep", "--defects", "1", "--theta-deg", "80",
        "--kgrid", "1:1:1", "--out", str(out2),
    ]) == EXIT_OK
    assert "note" not in _headers(out2)


@pytest.mark.parametrize("argv", [
    ["sweep", "--theta-deg=5,30,90,175", "--kgrid=0.025:5:40"],
    ["sweep", "--defects=3", "--theta-deg=30,-0,0,60", "--kgrid=0.5:2:7",
     "--theta0-deg=20"],
    ["sweep", "--defects=-1,2.5", "--couplings=0.8-0.3i,1.2+0.5i",
     "--theta-deg=45,90", "--kgrid=0.1:3:25", "--lambda1=0.25"],
    ["angular", "--ksigma=1", "--thetagrid=1:179:179"],
    ["angular", "--defects=-3,0", "--ksigma=0.7", "--thetagrid=-180:180:61"],
    ["angular", "--defects=-3,3", "--couplings=1+0.2i,0.6-0.4i", "--ksigma=1.3",
     "--thetagrid=0:180:181", "--lambda2=0.5"],
], ids=["N0-kscan", "N1-kscan-signed-zero-angles", "N2-kscan-averaged-complex",
        "N0-angle", "N1-angle-wrapped", "N2-angle-averaged-nudged-complex"])
def test_scan_writes_the_per_row_builders_bytes(tmp_path, argv):
    # sweep and angular build their rows and curves as columns and format
    # each distinct K, theta and theta0 once; the CSV and SVG bytes are those
    # of the per-row builder (a tuple and one format per row, curves
    # grouped in a dict).  The cases cover N = 0, 1 and 2, averaged
    # theta = 90 deg points, points nudged off a ray and complex couplings.
    got = [tmp_path / "got.csv", tmp_path / "got.svg"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AngleNudgeWarning)
        assert main([*argv, f"--out={got[0]}", f"--svg={got[1]}"]) == EXIT_OK
        ref = [tmp_path / "ref.csv", tmp_path / "ref.svg"]
        args = cli._build_parser().parse_args([*argv, f"--out={ref[0]}", f"--svg={ref[1]}"])
        if args.command == "sweep":
            points = sweep_points_per_point(args)
            thetas = cli._parse_floats(args.theta_deg, "--theta-deg")
            keys = {"kgrid": args.kgrid, "thetas_deg": ",".join(map(_f17, thetas))}
        else:
            points = angular_points_per_point(args)
            keys = {"ksigma": _f17(args.ksigma), "thetagrid": args.thetagrid}
    scan_per_row(args, "kscan" if args.command == "sweep" else "anglescan", points, keys)
    for g, r in zip(got, ref):
        assert g.read_bytes() == r.read_bytes(), g.name


def test_angle_preset_plots_the_tables_it_computed(tmp_path, monkeypatch):
    # An angle preset writes what its four angular commands and one plot
    # command write, and plots its tables without reading its CSVs back.
    hand = tmp_path / "hand"
    csvs = []
    for l1, l2 in cli._LAMBDA_COMBOS:
        csvs.append(str(hand / f"fig4-right.lam_{l1:g}_{l2:g}.csv"))
        assert main(["angular", "--defects=-3,3", f"--lambda1={l1!r}", f"--lambda2={l2!r}",
                     "--ksigma=1", "--thetagrid=1:179:179", f"--out={csvs[-1]}"]) == EXIT_OK
    assert main(["plot", *csvs, f"--out={hand / 'fig4-right.svg'}"]) == EXIT_OK

    def refuse(path):
        raise AssertionError(f"preset read {path} back")

    monkeypatch.setattr(cli, "_read_csv", refuse)
    assert main(["preset", "fig4-right", "--out", str(tmp_path / "preset")]) == EXIT_OK
    names = sorted(os.listdir(hand))
    assert names == sorted(os.listdir(tmp_path / "preset")) and len(names) == 5
    for name in names:
        assert (tmp_path / "preset" / name).read_bytes() == (hand / name).read_bytes(), name


_ROWS = "0.5,30,0,1,1,2\n0.6,30,0,1,1,3\n"


@pytest.mark.parametrize("content, message", [
    (_ROWS + "0.7,30,0,1,1\n0.8,30,0,1,1,5\n",
     "cannot read {path}: row '0.7,30,0,1,1' does not have the columns " + cli.COLUMNS),
    (_ROWS + "0.7,30,0,1,1,4,9\n0.8,30,0,1,1\n",
     "cannot read {path}: row '0.7,30,0,1,1,4,9' does not have the columns " + cli.COLUMNS),
    (_ROWS + "0.7,30,0,1,x,4\n0.8,30,0\n",
     "cannot read {path}: could not convert string to float: 'x'"),
    (_ROWS + "0.7,30,0\n0.8,30,0,1,x,4\n",
     "cannot read {path}: row '0.7,30,0' does not have the columns " + cli.COLUMNS),
    (_ROWS + "0.7,30,0,1,,4\n", "cannot read {path}: could not convert string to float: ''"),
    ("# mode=kscan\n# columns=" + cli.COLUMNS + "\n\n", "{path}: no data rows"),
    ("", "{path}: no data rows"),
], ids=["short-row-3", "long-row-3", "not-a-float", "short-row-before-not-a-float",
        "empty-field", "headers-only", "empty"])
def test_read_csv_keeps_its_error_text(tmp_path, content, message):
    # The one-pass parse names the first bad row as the line-by-line reader
    # did; a well-formed file reads as the same table.
    path = tmp_path / "in.csv"
    path.write_text(content)
    with pytest.raises(InputError) as err:
        cli._read_csv(str(path))
    assert str(err.value) == message.format(path=path)
    if not message.endswith("no data rows"):
        with pytest.raises(ValueError) as ref:
            read_csv_per_line(str(path))
        assert str(err.value) == f"cannot read {path}: {ref.value}"


def test_read_csv_reads_the_line_by_line_table(tmp_path):
    # Headers anywhere, blank lines, spaces, CRLF line ends and float
    # spellings: the same headers and the same values, bit for bit.
    path = tmp_path / "in.csv"
    path.write_bytes(b"# mode = anglescan\r\n# lambda1=0.5\n\n  0.5, 30 ,-0,1e-320,-inf,nan \n"
                     b"#lambda1=0.25\r\n# note\n0.6,3_0,0,1,1,3\n\n")
    headers, rows = cli._read_csv(str(path))
    ref_headers, ref_rows = read_csv_per_line(str(path))
    assert headers == ref_headers == {"mode": "anglescan", "lambda1": "0.25"}
    assert [x.hex() for x in rows.ravel().tolist()] == [
        x.hex() for row in ref_rows for x in row]


# ---------------------------------------------------------------------------
# plot


def test_plot_kscan_csv_to_svg(tmp_path):
    csv = tmp_path / "a.csv"
    svg = tmp_path / "a.svg"
    assert main([
        "sweep", "--defects=-3,3", "--theta-deg", "30,60",
        "--kgrid", "0.5:2:6", "--out", str(csv),
    ]) == EXIT_OK
    assert main(["plot", str(csv), "--out", str(svg)]) == EXIT_OK
    text = _read(svg).decode()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "theta = 30 deg" in text and "theta = 60 deg" in text
    assert "k sigma" in text


def test_plot_multiple_angular_csvs(tmp_path):
    csvs = []
    for l1, l2 in ((0.5, -0.5), (0.0, -0.5)):
        p = tmp_path / f"l_{l1}_{l2}.csv"
        assert main([
            "angular", "--defects", "1", "--ksigma", "1",
            "--thetagrid", "10:170:5", "--lambda1", str(l1),
            "--lambda2", str(l2), "--out", str(p),
        ]) == EXIT_OK
        csvs.append(str(p))
    svg = tmp_path / "combo.svg"
    assert main(["plot", *csvs, "--out", str(svg)]) == EXIT_OK
    text = _read(svg).decode()
    assert text.count("<polyline") >= 2
    assert "theta (deg)" in text


@pytest.mark.parametrize("content", [
    None,
    "",
    "# mode=kscan\n",
    "0.5,30,0,1,1,x\n0.6,30,0,1,1,2\n",
    "0.5,30,0\n0.6,30,0\n",
    "0.5,30,0,1,1,2\n",
], ids=["missing", "empty", "headers-only", "not-a-number", "short-row", "one-row"])
def test_plot_bad_input_is_usage_error(tmp_path, capsys, content):
    csv, svg = tmp_path / "in.csv", tmp_path / "out.svg"
    if content is not None:
        csv.write_text(content)
    assert main(["plot", str(csv), "--out", str(svg)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not svg.exists()


def test_plot_escapes_label_text(tmp_path):
    csv, svg = tmp_path / "in.csv", tmp_path / "out.svg"
    csv.write_text("# mode=anglescan\n# lambda1=<0.5&\n# lambda2=-0.5\n"
                   "10,10,0,1,1,2\n20,20,0,1,1,3\n")
    assert main(["plot", str(csv), "--out", str(svg)]) == EXIT_OK
    doc = xml.dom.minidom.parse(str(svg))
    texts = ["".join(node.data for node in text.childNodes)
             for text in doc.getElementsByTagName("text")]
    assert "l1 = <0.5&, l2 = -0.5" in texts


def test_sweep_inline_svg(tmp_path):
    csv, svg = tmp_path / "a.csv", tmp_path / "a.svg"
    assert main([
        "sweep", "--defects", "3", "--theta-deg", "30",
        "--kgrid", "0.5:2:6", "--out", str(csv), "--svg", str(svg),
    ]) == EXIT_OK
    assert svg.exists() and _read(svg).decode().startswith("<svg")


@pytest.mark.parametrize("command, scan", [
    ("sweep", ["--theta-deg", "30,60", "--kgrid", "1:1:1"]),
    ("angular", ["--ksigma", "1", "--thetagrid", "30:30:1"]),
])
def test_inline_svg_of_one_point_curves_is_usage_error(tmp_path, capsys, monkeypatch,
                                                       command, scan):
    # A line plot needs two points per curve: refused before the engine
    # runs, and neither the CSV nor the SVG is written.
    def refuse(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(cli, "f1_arrays", refuse)
    csv, svg = tmp_path / "one.csv", tmp_path / "one.svg"
    assert main([command, *scan, "--out", str(csv), "--svg", str(svg)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not csv.exists() and not svg.exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_the_acceptance_grid(tmp_path, capsys):
    # verify is one fixed check: every record of the acceptance grid passes.
    report_path = tmp_path / "verify.txt"
    code = main(["verify", "--out", str(report_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert re.search("^summary records=4800 failed=0 all_passed=True ", out, re.M)
    assert "reciprocity f(K; theta0->theta; alpha, z)" in out
    assert "  N=0 alphas= z=: " in out
    text = report_path.read_text()
    assert "coefficient=Immnn" in text
    assert "pass=False" not in text


def test_verify_json_round_trips_every_record_bit_for_bit(tmp_path):
    # Every field of every record reads back from the JSON report bit for
    # bit (complex values as [re, im]), with the summary counts.
    grid = {"s": (0.0, 0.7), "bigK": (1.0,), "lambdas": ((0.5, -0.5),),
            "alphas": (-3.0, 0.0), "eta": 0.1}
    report = oracle.verify_all(grid)
    data = json.loads(report.to_json())
    fields = typing.get_type_hints(oracle.VerificationRecord)

    def restored(d):
        return oracle.VerificationRecord(**{
            name: complex(*d[name]) if fields[name] is complex
            else tuple(d[name]) if fields[name] is tuple else d[name]
            for name in fields})

    back = [restored(d) for d in data["records"]]
    assert len(back) == len(report.records) == data["summary"]["records"]
    for got, want in zip(back, report.records):
        assert repr(got) == repr(want)
        for name in fields:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b), name
            if isinstance(a, (float, complex)):
                assert [x.hex() for x in (a.real, a.imag)] == [
                    x.hex() for x in (b.real, b.imag)], name
    assert data["summary"] == {
        "records": len(report.records), "failed": report.n_failed,
        "all_passed": report.all_passed,
        "resolution_judged": sum(r.judged == "resolution" for r in report.records),
        "resolution_failed": sum(r.judged == "resolution" and not r.passed
                                 for r in report.records),
        "worst_rel_err": report.worst()}


def test_verify_json_flag_writes_the_report(tmp_path, capsys):
    path = tmp_path / "sub" / "verify.json"
    assert main(["verify", "--json", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    summary = json.loads(path.read_text())["summary"]
    assert (f"summary records={summary['records']} failed={summary['failed']} "
            f"all_passed={summary['all_passed']} ") in out
    assert f"JSON report written to {path}" in out


def test_verify_reports_both_symmetry_checks(tmp_path, capsys):
    # After the records and the summary, verify states the reciprocity and
    # then the y-mirror defect of every layout and angle pair, in its output
    # and at the end of --out; --json holds the same numbers under
    # "symmetry", beside the report's own JSON, unchanged.
    txt, path = tmp_path / "v.txt", tmp_path / "v.json"
    assert main(["verify", "--out", str(txt), "--json", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    data = json.loads(path.read_text())
    symmetry = data.pop("symmetry")
    assert json.dumps(data) + "\n" == full_grid_report()[0].to_json()
    assert list(symmetry) == ["reciprocity", "y_mirror"]
    lines = []
    for name, title in (("reciprocity", "reciprocity f(K; theta0->theta; alpha, z) vs "
                                        "f(K; -theta->-theta0; -alpha, z)"),
                        ("y_mirror", "y-mirror f(K; theta0->theta; alpha, z) vs "
                                     "f(K; -theta0->-theta; alpha, z)")):
        lines.append(f"{title}, measured, K=1, N=0 the control:")
        cases = symmetry[name]
        assert [(c["alphas"], c["z"]) for c in cases] == [
            (list(a), list(z)) for a, z in RECIPROCITY_CASES]
        for case in cases:
            assert [(p["theta0_deg"], p["theta_deg"]) for p in case["pairs"]] == list(
                RECIPROCITY_ANGLES_DEG)
            lines.append(
                f"  N={len(case['alphas'])} alphas={','.join(f'{a:g}' for a in case['alphas'])}"
                f" z={','.join(f'{z:g}' for z in case['z'])}: " + " ".join(
                    f"({p['theta0_deg']:g},{p['theta_deg']:g})={p['defect']:.3e}"
                    for p in case["pairs"]))
    assert out[-len(lines):] == lines
    assert txt.read_text().splitlines()[-len(lines):] == lines
    assert max(p["defect"] for p in symmetry["y_mirror"][0]["pairs"]) <= 1e-15


def test_verify_absurd_tolerance_exit_code(capsys, monkeypatch):
    # A verification failure exits 3: verify_all run with a tolerance no
    # record can meet.
    monkeypatch.setattr(oracle, "VERIFY_RTOL", 1e-18)
    code = main(["verify"])
    assert code == EXIT_VERIFY
    assert "all_passed=False" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [
    "--rtol=nan", "--rtol=-1", "--rtol=inf", "--atol=nan", "--atol=-1e-10",
    "--full", "--rtol=1e-6", "--atol=1e-10",
])
def test_bad_verify_tolerance_is_usage_error(capsys, monkeypatch, flag):
    # verify takes no grid or tolerance flag, whatever its value: argparse
    # refuses it before the grid runs.
    def refuse(*args, **kwargs):
        raise AssertionError("verify_all ran on a removed flag")

    monkeypatch.setattr(cli, "verify_all", refuse)
    assert main(["verify", flag]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


# ---------------------------------------------------------------------------
# feasibility


def test_feasibility_reference_point(capsys):
    code = main([
        "feasibility", "--v0", "1eV", "--rho", "1nm",
        "--energy", "1e-3eV", "--mass-ratio", "0.01",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    vals = {}
    for line in out.splitlines():
        if "=" in line and ":" not in line:
            key, _, rest = line.partition("=")
            vals[key.strip()] = float(rest.split()[0])
    assert 0.015 <= vals["k_rho"] <= 0.025
    assert vals["energy_over_v0"] == pytest.approx(1e-3)
    assert out.count(": ok") == 3


def test_feasibility_rejects_unknown_units(capsys):
    code = main([
        "feasibility", "--v0", "1parsec", "--rho", "1nm",
        "--energy", "1e-3eV", "--mass-ratio", "0.01",
    ])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    # sigma_z overflows to inf
    ["--v0", "1e300J", "--rho", "1e300m", "--energy", "1e-3eV",
     "--mass-ratio", "0.01", "--sigma", "1e301m"],
    # k underflows to 0
    ["--v0", "1eV", "--rho", "1nm", "--energy", "1e-320J", "--mass-ratio", "0.01"],
])
def test_feasibility_rejects_non_finite_scales(capsys, argv):
    assert main(["feasibility", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert captured.out == ""


@pytest.mark.parametrize("bad", [["--mass-ratio", "nan"], ["--v0", "1e400eV"]])
def test_feasibility_rejects_non_finite_inputs(capsys, bad):
    # 1e400eV parses to inf; neither it nor NaN may pass as a valid scale.
    argv = ["feasibility", "--v0", "1eV", "--rho", "1nm", "--energy", "1e-3eV",
            "--mass-ratio", "0.01", *bad]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# presets


def test_preset_unknown_name(tmp_path, capsys):
    assert main(["preset", "fig9-left", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "available" in capsys.readouterr().err


def test_preset_free_bump_angular(tmp_path, capsys):
    # The cheapest preset: no defects, four curvature settings vs angle.
    code = main(["preset", "fig5-right", "--out", str(tmp_path)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    csvs = sorted(p for p in os.listdir(tmp_path) if p.endswith(".csv"))
    assert len(csvs) == 4
    svg = tmp_path / "fig5-right.svg"
    assert svg.exists()
    assert len(printed) == 5
    h = _headers(tmp_path / csvs[0])
    assert h["mode"] == "anglescan"
    assert h["defects"] == "none"
    assert len(_rows(tmp_path / csvs[0])) == 179


def test_preset_free_bump_kscan_matches_golden_bytes(tmp_path):
    # Visual and numerical regression: the no-defect K-scan preset must
    # reproduce the stored golden CSV and SVG byte for byte.
    golden = os.path.join(os.path.dirname(__file__), "golden")
    code = main(["preset", "fig5-left", "--out", str(tmp_path)])
    assert code == EXIT_OK
    for name in ("fig5-left.csv", "fig5-left.svg"):
        with open(os.path.join(golden, name), "rb") as fh:
            want = fh.read()
        got = (tmp_path / name).read_bytes()
        assert got == want, f"{name} drifted from the golden copy"
    svg = (tmp_path / "fig5-left.svg").read_text()
    assert svg.count("<polyline") == 6


def test_preset_runs_without_scipy(tmp_path):
    # The package needs numpy only: with scipy made unimportable, a fresh
    # interpreter imports the CLI and runs a two-defect preset.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from bumpscatter import cli\n"
        f"code = cli.main(['preset', 'fig2-right', '--out', {str(tmp_path)!r}])\n"
        "print('scipy.special' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == EXIT_OK, res.stderr
    assert res.stdout.splitlines()[-1] == "False"
    assert sorted(os.listdir(tmp_path)) == ["fig2-right.csv", "fig2-right.svg"]


def _ray_grids():
    """(grid, points nudged) for two-point angle grids at theta0 = 20 deg
    and at its mirror 160 deg, exactly and at +-1e-9, +-1e-7 and +-2e-6 rad
    from them, and for one grid of whole degrees through both: only the
    points within SINGULAR_ANGLE_TOL (1.7e-8 rad) of a ray are nudged."""
    grids = [("0:180:181", 2)]
    for off in (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 2e-6, -2e-6):
        lo, hi = 20.0 + math.degrees(off), 160.0 + math.degrees(off)
        grids.append((f"{lo!r}:{hi!r}:2", 2 if abs(off) < 1e-8 else 0))
    return grids


@pytest.mark.parametrize("grid, nudged", _ray_grids())
def test_ray_prefilter_decides_like_the_scalar_rule(tmp_path, grid, nudged):
    # angular applies delta_ray_offset to all its points in one array call:
    # it nudges, warns and writes exactly what the per-point
    # math.remainder rule applied to every point does.
    argv = ["angular", "--theta0-deg=20", "--defects=-3,3", "--ksigma=1",
            f"--thetagrid={grid}", "--out", str(tmp_path / "got.csv")]
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_OK
    args = cli._build_parser().parse_args([*argv[:-1], str(tmp_path / "ref.csv")])
    with warnings.catch_warnings(record=True) as ref_warnings:
        warnings.simplefilter("always")
        points = angular_points_per_point(args)
    ks, thetas = np.array(points).T
    cli._scan(args, "anglescan", ks, thetas,
              {"ksigma": _f17(args.ksigma), "thetagrid": args.thetagrid})
    assert [(w.category, str(w.message)) for w in got_warnings] == [
        (w.category, str(w.message)) for w in ref_warnings]
    assert sum(w.category is AngleNudgeWarning for w in got_warnings) == nudged
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("theta0", ["inf", "-inf", "nan"])
def test_angular_with_a_non_finite_theta0_writes_nothing(tmp_path, theta0):
    out = tmp_path / "a.csv"
    assert main(["angular", f"--theta0-deg={theta0}", "--ksigma=1",
                 "--thetagrid=0:180:7", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


# ---------------------------------------------------------------------------
# output files


@pytest.mark.parametrize("argv", [
    ["angular", "--ksigma=1", "--thetagrid=1:2:2", "--out={d}"],
    ["angular", "--ksigma=1", "--thetagrid=1:2:2", "--out={tmp}/a.csv", "--svg={d}"],
    ["preset", "fig5-left", "--out={f}"],
], ids=["out-is-a-directory", "svg-is-a-directory", "preset-out-is-a-file"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    # Exit 1 with a usage-error line and no traceback; a file the command
    # wrote before the failing one stays.
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    paths = {"tmp": tmp_path, "d": tmp_path / "d", "f": tmp_path / "f"}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write ")
    assert "Traceback" not in err
    assert (tmp_path / "a.csv").exists() == ("--svg={d}" in argv)


_SMALL_SCAN = ["angular", "--defects=-3,3", "--ksigma=1", "--thetagrid=10:170:9"]


def _fresh_bytes(tmp_path):
    """The CSV the small scan writes to a new file."""
    fresh = tmp_path / "fresh.csv"
    assert main([*_SMALL_SCAN, "--out", str(fresh)]) == EXIT_OK
    return fresh.read_bytes()


def test_rerun_over_a_longer_file_writes_exactly_the_new_bytes(tmp_path):
    # A rewrite in place leaves no tail of the old text, and keeps the
    # file's inode and mode.
    want = _fresh_bytes(tmp_path)
    out = tmp_path / "out.csv"
    out.write_bytes(want + b"old tail\n" * 1000)
    out.chmod(0o640)
    before = out.stat()
    assert main([*_SMALL_SCAN, "--out", str(out)]) == EXIT_OK
    after = out.stat()
    assert out.read_bytes() == want
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


@pytest.mark.skipif(not hasattr(os, "symlink") or sys.platform == "win32",
                    reason="needs POSIX symlinks")
def test_symlinked_output_stays_a_link(tmp_path):
    want = _fresh_bytes(tmp_path)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"x" * 100_000)
    link.symlink_to(target)
    assert main([*_SMALL_SCAN, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == want


def test_output_to_the_null_device_exits_0(capsys):
    assert main([*_SMALL_SCAN, "--out", os.devnull, "--svg", os.devnull]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_new_output_is_created_as_open_w_creates_it(tmp_path):
    made = tmp_path / "made.csv"
    with open(tmp_path / "reference", "w"):
        pass
    cli._write_out(str(made), "text\n")
    assert made.read_bytes() == b"text\n"
    assert made.stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_no_cli_write_truncates(tmp_path, monkeypatch):
    # Every output is opened without O_TRUNC, so a rerun rewrites it in
    # place: the sweep and angular CSV and SVG, the plot SVG, the verify
    # report and its JSON, and the presets' files.
    opened = []
    real_open = os.open

    def recorded(path, flags, *args, **kwargs):
        opened.append((os.path.basename(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recorded)
    out, svg = str(tmp_path / "a.csv"), str(tmp_path / "a.svg")
    for argv in ([*_SMALL_SCAN, "--out", out, "--svg", svg],
                 ["plot", out, "--out", str(tmp_path / "p.svg")],
                 ["verify", "--out", str(tmp_path / "v.txt"), "--json", str(tmp_path / "v.json")],
                 ["preset", "fig5-left", "--out", str(tmp_path)],
                 ["preset", "fig5-right", "--out", str(tmp_path)]):
        assert main(argv) == EXIT_OK
    assert sorted(name for name, _ in opened) == sorted([
        "a.csv", "a.svg", "p.svg", "v.txt", "v.json", "fig5-left.csv", "fig5-left.svg",
        "fig5-right.svg", *(f"fig5-right.lam_{l1:g}_{l2:g}.csv"
                            for l1, l2 in cli._LAMBDA_COMBOS)])
    assert not [name for name, flags in opened if flags & os.O_TRUNC]
