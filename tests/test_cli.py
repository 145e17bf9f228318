"""End-to-end tests of the command line interface.

All commands are exercised in-process through main(argv), which returns the
exit code; stdout/stderr are captured with capsys.  Determinism tests compare
output files byte for byte.
"""

import math
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from bumpscatter import cli
from bumpscatter.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _f17,
    _parse_couplings,
    _parse_floats,
    _parse_grid,
    main,
)
from bumpscatter.defects import DefectSet, Kinematics
from bumpscatter.geoamp import (
    SingularAngleError,
    cross_section,
    delta_ray_offset,
    f1_geometric,
    f1_scan,
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


def test_nudge_theta(tmp_path, capsys):
    # angular moves a point within SINGULAR_ANGLE_TOL of either ray
    # (theta0 = 10 deg and its mirror, by geoamp.delta_ray_offset) NUDGE_DEG
    # off the ray on the side it lies, and leaves every other point alone.
    out = tmp_path / "a.csv"
    for grid, want in (("10:170:5", [10.0 + 1e-5, 50.0, 90.0, 130.0, 170.0 + 1e-5]),
                       ("9.9999995:170.0000005:2", [10.0 - 1e-5, 170.0 + 1e-5])):
        assert main(["angular", "--theta0-deg=10", "--ksigma=1", f"--thetagrid={grid}",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.count("nudged") == 2
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
    # f1_scan checks every engine input before it evaluates any point and
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
    # K <= 0 is refused by Kinematics inside f1_scan, a non-finite angle by
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

    monkeypatch.setattr(cli, "f1_scan", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["sweep", "--theta-deg=30", "--kgrid=0.5:1:2",
              "--out", str(tmp_path / "x.csv")])
    assert not (tmp_path / "x.csv").exists()


def test_singular_angle_error_from_rows_stays_numerical(tmp_path, capsys, monkeypatch):
    # SingularAngleError is a ValueError; only the input constructors'
    # ValueError is a usage error.
    def refuse(*args):
        raise SingularAngleError("on a delta-supported ray")

    monkeypatch.setattr(cli, "f1_scan", refuse)
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
    # sweep and angular hand every point of the command to one f1_scan call.
    calls = []

    def counted(bigK, theta0, theta, *rest):
        calls.append(len(theta))
        return f1_scan(bigK, theta0, theta, *rest)

    monkeypatch.setattr(cli, "f1_scan", counted)
    out = tmp_path / "a.csv"
    assert main(["sweep", "--defects=-3,3", "--theta-deg", "30,90",
                 "--kgrid", "0.5:2:4", "--out", str(out)]) == EXIT_OK
    assert main(["angular", "--defects=-3,3", "--ksigma", "1",
                 "--thetagrid", "10:170:9", "--out", str(out)]) == EXIT_OK
    assert calls == [8, 9]


def test_angular_nudges_delta_supported_angles(tmp_path, capsys):
    out = tmp_path / "a.csv"
    code = main([
        "angular", "--defects=-3,3", "--ksigma", "1",
        "--thetagrid", "0:180:3", "--out", str(out),
    ])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("nudged") == 2  # theta = 0 and theta = 180
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

    monkeypatch.setattr(cli, "f1_scan", refuse)
    csv, svg = tmp_path / "one.csv", tmp_path / "one.svg"
    assert main([command, *scan, "--out", str(csv), "--svg", str(svg)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not csv.exists() and not svg.exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_reduced_grid_passes(tmp_path, capsys):
    report_path = tmp_path / "verify.txt"
    code = main(["verify", "--out", str(report_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "all_passed=True" in out
    assert "reciprocity f(K; theta0->theta; alpha, z)" in out
    assert "  N=0 alphas= z=: " in out
    text = report_path.read_text()
    assert "coefficient=Immnn" in text
    assert "pass=False" not in text


def test_verify_absurd_tolerance_exit_code(capsys):
    code = main(["verify", "--rtol", "1e-18"])
    assert code == EXIT_VERIFY
    assert "all_passed=False" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag", ["--rtol=nan", "--rtol=-1", "--rtol=inf", "--atol=nan", "--atol=-1e-10"]
)
def test_bad_verify_tolerance_is_usage_error(capsys, monkeypatch, flag):
    # A tolerance no record can meet is refused before the grid runs.
    def refuse(*args, **kwargs):
        raise AssertionError("verify_all ran on a bad tolerance")

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
