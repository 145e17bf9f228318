"""Command-line interface: sweeps, verification, feasibility, plots, presets.

Commands
--------
sweep        cross section vs k*sigma at fixed scattering angle(s)
angular      cross section vs scattering angle at fixed k*sigma
verify       closed forms vs quadrature oracle: the acceptance grid under
             verify_all's one pass rule; nonzero exit on mismatch; also
             reports the measured reciprocity and y-mirror defects of f1
             (--json PATH writes every record, rel_err included, the
             summary counts and both symmetry checks as JSON)
feasibility  SI-unit validity estimates for the delta-line idealization
plot         render sweep/angular CSV file(s) to a deterministic SVG
preset       canned parameter sets reproducing the standard figure family

Conventions: angles cross the CLI boundary in degrees and are converted to
radians immediately; all lengths are in units of the bump width sigma; all
couplings are the dimensionless sigma-scaled strengths.  CSV output starts
with '# key=value' header lines followed by rows

    ksigma,theta_deg,theta0_deg,re_f1,im_f1,xsec

with every float printed to 17 significant digits, so reruns are
byte-identical (no timestamps).  A rerun rewrites each output file in
place (see _write_out).  Exit codes: 0 success, 1 usage error (a
defects.InputError: a flag, a CSV or an engine input outside its domain,
where no file is written, or an output that cannot be written, where the
files the command wrote before the failing one stay), 2 numerical failure
(non-convergence, singular matrix, overflow), 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
import warnings
from collections import Counter
from itertools import repeat

import numpy as np

from . import __version__
from .defects import DefectSet, InputError, Kinematics, SingularMatrixError
from .feasibility import assess, parse_energy, parse_length
from .geoamp import (
    SINGULAR_ANGLE_TOL,
    SingularAngleError,
    delta_ray_offset,
    f1_arrays,
    f1_geometric,
    modulus_squared,
)
from .oracle import (
    QuadratureConvergenceError,
    default_verification_grid,
    verify_all,
)
from .svgplot import render_svg

__all__ = ["AngleNudgeWarning", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

# Angle-scan points with |geoamp.delta_ray_offset| below
# geoamp.SINGULAR_ANGLE_TOL are moved this far off the ray (degrees).
NUDGE_DEG = 1e-5


class AngleNudgeWarning(UserWarning):
    """An angle-scan point sat on a delta-supported ray and was moved
    NUDGE_DEG off it.  Python's default filter shows each distinct message
    once per process."""


COLUMNS = "ksigma,theta_deg,theta0_deg,re_f1,im_f1,xsec"
# One CSV row from the text of its first three columns and the values of
# the other three, each as _f17 writes it.
_ROW = "%s,%s,%s,%.17g,%.17g,%.17g"


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems as InputError (exit 1), not
    argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _parse_grid(text: str, what: str):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InputError(f"{what} must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"bad {what} {text!r}")
    return np.linspace(lo, hi, n)


def _parse_floats(text: str, what: str):
    if text is None or str(text).strip() == "":
        return []
    try:
        values = [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"bad {what} {text!r}: values must be finite")
    return values


def _parse_couplings(text: str, count: int):
    if text is None or str(text).strip() == "":
        return [1.0 + 0.0j] * count
    out = []
    for tok in str(text).split(","):
        try:
            out.append(complex(tok.strip().replace("i", "j")))
        except ValueError as exc:
            raise InputError(f"bad coupling {tok!r}: {exc}") from exc
    if len(out) != count:
        raise InputError(
            f"{count} defect position(s) but {len(out)} coupling(s)"
        )
    return out


def _format_complex(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}i"


def _formatted(values: np.ndarray) -> list:
    """Every element of a float array as _ROW formats it, each distinct
    value formatted once.  np.unique takes -0.0 and 0.0 for one value, so
    the zeros get their signs afterwards."""
    distinct, at = np.unique(values, return_inverse=True)
    text = np.array(list(map("%.17g".__mod__, distinct.tolist())), dtype=object)[at]
    zero = values == 0.0
    text[zero] = np.where(np.signbit(values[zero]), "-0", "0")
    return text.tolist()


def _csv_text(headers: dict, rows: np.ndarray) -> str:
    """The CSV of a table: its headers, then one line per row of the float
    array rows (a column per name of COLUMNS)."""
    lines = [f"# {k}={v}" for k, v in headers.items()]
    lines.append(f"# columns={COLUMNS}")
    cols = rows.T
    lines += map(_ROW.__mod__, zip(*map(_formatted, cols[:3]), *cols[3:].tolist()))
    return "\n".join(lines) + "\n"


def _common_headers(args, mode, positions, couplings):
    headers = {
        "tool": "bumpscatter",
        "version": __version__,
        "mode": mode,
        "theta0_deg": _f17(args.theta0_deg),
        "defects": ",".join(_f17(p) for p in positions) or "none",
        "couplings": ",".join(_format_complex(z) for z in couplings) or "none",
        "eta": _f17(args.eta),
        "lambda1": _f17(args.lambda1),
        "lambda2": _f17(args.lambda2),
        # constant: nothing is selected by it, since one kernel computes
        # every kink coefficient; kept only so CSV bytes stay as they were
        # until ROADMAP item 1(e) replaces the header
        "kmmnn_variant": "kappa2",
    }
    if args.theta0_deg != 0.0:
        headers["note"] = (
            "nonzero theta0: first-order coefficients validated on the "
            "theta0=0 family; treat as extrapolation"
        )
    return headers


def _write_out(path: str, text: str):
    """Write text to path as UTF-8, making its directory if needed.

    An existing file is rewritten in place, not truncated first: truncating
    a file to zero and writing it again makes some filesystems (ext4's
    auto_da_alloc) start writeback on close.  Only a regular file is then
    cut to the new length, so /dev/null, FIFOs and terminals work too.  An
    OSError is a usage error."""
    data = text.encode("utf-8")
    try:
        d = os.path.dirname(path)
        if d:
            os.makedirs(d, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate(len(data))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# sweep / angular
# ---------------------------------------------------------------------------


def _scan(args, mode: str, ks: np.ndarray, thetas: np.ndarray, keys: dict) -> tuple:
    """Body of sweep and angular: one engine call for the points
    (ks[i], thetas[i]) (thetas in degrees), written as one CSV row per
    point under the run headers plus the command's own keys, and the
    optional SVG.  Returns the table (headers, rows): rows is a float array
    with one row per point and a column per name of COLUMNS."""
    if args.svg:
        # The curves of _curves: one per angle for a K scan, else one.
        sizes = Counter(thetas.tolist()).values() if mode == "kscan" else [thetas.size]
        if min(sizes) < 2:
            raise InputError(f"--svg needs at least 2 points per curve, got {min(sizes)}")
    positions = _parse_floats(args.defects, "--defects")
    couplings = _parse_couplings(args.couplings, len(positions))
    defects = DefectSet(positions, couplings)
    re, im = f1_arrays(ks, math.radians(args.theta0_deg), np.radians(thetas),
                       defects, args.eta, args.lambda1, args.lambda2)
    rows = np.column_stack([ks, thetas, np.full(ks.size, args.theta0_deg), re, im,
                            modulus_squared(re, im)])
    headers = {**_common_headers(args, mode, positions, couplings), **keys}
    _write_out(args.out, _csv_text(headers, rows))
    if args.svg:
        _write_out(args.svg, _svg(mode, _curves(headers, rows)))
    return headers, rows


def _cmd_sweep(args) -> int:
    thetas = _parse_floats(args.theta_deg, "--theta-deg")
    if not thetas:
        raise InputError("sweep needs --theta-deg (one or more, comma separated)")
    theta0 = math.radians(args.theta0_deg)
    on_ray = np.abs(delta_ray_offset(theta0, np.radians(thetas))) < SINGULAR_ANGLE_TOL
    if on_ray.any():
        raise InputError(
            f"theta = {thetas[int(on_ray.argmax())]} deg lies on a "
            f"delta-supported direction (theta0 = {args.theta0_deg}, mirror = "
            f"{180 - args.theta0_deg}); the first-order cross section "
            "is not defined there"
        )
    kgrid = _parse_grid(args.kgrid, "--kgrid")
    keys = {"kgrid": args.kgrid, "thetas_deg": ",".join(_f17(t) for t in thetas)}
    _scan(args, "kscan", np.tile(kgrid, len(thetas)), np.repeat(thetas, kgrid.size), keys)
    return EXIT_OK


def _angular(args) -> tuple:
    """The angular command: its table (see _scan), after writing it."""
    theta0 = math.radians(args.theta0_deg)
    thetas = _parse_grid(args.thetagrid, "--thetagrid")
    rays = delta_ray_offset(theta0, np.radians(thetas))
    for i in np.flatnonzero(np.abs(rays) < SINGULAR_ANGLE_TOL).tolist():
        th, ray = thetas[i].item(), rays[i].item()
        nudged = th - math.degrees(ray) + (NUDGE_DEG if ray >= 0.0 else -NUDGE_DEG)
        warnings.warn(
            f"warning: theta = {th:g} deg sits on a delta-supported "
            f"direction; nudged to {nudged:.10g} deg",
            AngleNudgeWarning,
        )
        thetas[i] = nudged
    keys = {"ksigma": _f17(args.ksigma), "thetagrid": args.thetagrid}
    return _scan(args, "anglescan", np.full(thetas.size, args.ksigma), thetas, keys)


def _cmd_angular(args) -> int:
    _angular(args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotting (from rows or from CSV files)
# ---------------------------------------------------------------------------


def _curves(headers: dict, rows: np.ndarray) -> list:
    """Plot curves (label, xs, ys) of one sweep or angular table: one per
    angle for a K scan, in the order the angles first appear, and one per
    table for an angle scan."""
    k, theta, xsec = rows[:, 0], rows[:, 1], rows[:, 5]
    if headers.get("mode", "kscan") == "kscan":
        return [(f"theta = {th:g} deg", k[theta == th], xsec[theta == th])
                for th in dict.fromkeys(theta.tolist())]
    label = (
        f"l1 = {headers.get('lambda1', '?')}, "
        f"l2 = {headers.get('lambda2', '?')}"
    )
    return [(label, theta, xsec)]


def _svg(mode: str, curves: list) -> str:
    xlabel = "k sigma" if mode == "kscan" else "theta (deg)"
    return render_svg(curves, xlabel, "|f1|^2 / sigma")


def _read_csv(path: str) -> tuple:
    """The table (headers, rows) of a sweep or angular CSV, rows as _scan
    returns them; an input that is missing, unreadable, malformed or empty
    is a usage error.

    Lines starting with '#' are headers, wherever they stand.  The data
    lines are parsed in one float map when each has the columns; otherwise
    the lines are parsed one at a time, to name the first bad one."""
    columns = len(COLUMNS.split(","))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in map(str.strip, fh.read().split("\n")) if line]
        data = [line for line in lines if line[0] != "#"]
        values = None
        if set(map(str.count, data, repeat(","))) == {columns - 1}:
            with contextlib.suppress(ValueError):
                values = np.array(list(map(float, ",".join(data).split(","))))
        if values is None:  # name the first bad line
            for line in data:
                if len(tuple(map(float, line.split(",")))) != columns:
                    raise ValueError(f"row {line!r} does not have the columns {COLUMNS}")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not data:
        raise InputError(f"{path}: no data rows")
    heads = (line[1:].split("=", 1) for line in lines if line[0] == "#" and "=" in line)
    return {k.strip(): v.strip() for k, v in heads}, values.reshape(-1, columns)


def _plot(out: str, names: list, tables) -> None:
    """Render the curves of sweep or angular tables (headers, rows), all of
    one mode, to the SVG out; names are the tables' sources, in order."""
    curves = []
    mode = None
    for name, (headers, rows) in zip(names, tables):
        m = headers.get("mode", "kscan")
        if mode is None:
            mode = m
        elif m != mode:
            raise InputError(
                f"cannot mix modes in one plot: {mode} vs {m} ({name})"
            )
        curves += _curves(headers, rows)
    try:
        svg = _svg(mode, curves)
    except ValueError as exc:
        raise InputError(f"cannot plot {', '.join(names)}: {exc}") from exc
    _write_out(out, svg)


def _cmd_plot(args) -> int:
    # lazily, so that a mode mismatch is reported before a later file is read
    _plot(args.out, args.inputs, map(_read_csv, args.inputs))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Cases and (theta0, theta) pairs in degrees of the symmetry sections of
# the verify report: N = 0 is the control.
RECIPROCITY_CASES = (((), ()), ((3.0,), (1.0,)), ((-1.0, 3.0), (1.0, 0.7)))
RECIPROCITY_ANGLES_DEG = ((0.0, 30.0), (20.0, -30.0), (-10.0, 60.0), (45.0, 10.0))

# The symmetry checks of the verify report: name, header, and the
# (theta0, theta, alphas) of the partner side of (theta0, theta, alphas).
_SYMMETRIES = (
    ("reciprocity", "reciprocity f(K; theta0->theta; alpha, z) vs f(K; -theta->-theta0; "
     "-alpha, z)", lambda th0, th, alphas: (-th, -th0, [-a for a in alphas])),
    ("y_mirror", "y-mirror f(K; theta0->theta; alpha, z) vs f(K; -theta0->-theta; "
     "alpha, z)", lambda th0, th, alphas: (-th0, -th, list(alphas))),
)


def _symmetry_defects() -> dict:
    """Measured (not gated) symmetry defects of f1, per check, layout of
    RECIPROCITY_CASES and angle pair of RECIPROCITY_ANGLES_DEG.

    Each is |f - f'| / max(|f|, |f'|) of the two sides at K = 1,
    eta = 0.1, lambda = (0.5, -0.5).  With the defect lines fixed at
    x = alpha_n, reciprocity composed with the mirror x -> -x gives
    f(K; theta0 -> theta; alpha, z) = f(K; -theta -> -theta0; -alpha, z).
    The model is symmetric under y -> -y (the bump is round and each line
    x = alpha_n maps to itself), so the y-mirror gives
    f(K; theta0 -> theta; alpha, z) = f(K; -theta0 -> -theta; alpha, z).
    """
    def f(th0, th, alphas, couplings):
        return f1_geometric(Kinematics(1.0, math.radians(th0), math.radians(th)),
                            DefectSet(alphas, couplings), 0.1, 0.5, -0.5)

    out = {name: [] for name, *_ in _SYMMETRIES}
    for alphas, couplings in RECIPROCITY_CASES:
        here = [f(th0, th, alphas, couplings) for th0, th in RECIPROCITY_ANGLES_DEG]
        for name, _, partner in _SYMMETRIES:
            pairs = []
            for (th0, th), a in zip(RECIPROCITY_ANGLES_DEG, here):
                b = f(*partner(th0, th, alphas), couplings)
                pairs.append({"theta0_deg": th0, "theta_deg": th,
                              "defect": abs(a - b) / max(abs(a), abs(b))})
            out[name].append({"alphas": list(alphas), "z": list(couplings), "pairs": pairs})
    return out


def _symmetry_lines(defects: dict) -> list:
    """The symmetry sections of the verify report: per check a header,
    then one line per layout with the defect of every angle pair."""
    out = []
    for name, header, _ in _SYMMETRIES:
        out.append(header + ", measured, K=1, N=0 the control:")
        for case in defects[name]:
            out.append(f"  N={len(case['alphas'])} "
                       f"alphas={','.join(f'{a:g}' for a in case['alphas'])} "
                       f"z={','.join(f'{z:g}' for z in case['z'])}: "
                       + " ".join(f"({p['theta0_deg']:g},{p['theta_deg']:g})={p['defect']:.3e}"
                                  for p in case["pairs"]))
    return out


def _cmd_verify(args) -> int:
    report = verify_all(default_verification_grid())
    symmetry = _symmetry_defects()
    extra = "\n".join(_symmetry_lines(symmetry))
    if args.out:
        _write_out(args.out, report.to_text() + "\n" + extra + "\n")
        print(f"report written to {args.out}")
    if args.json:
        import json  # here, so that verify runs without --json do not load it

        # the report's JSON object with one more key, written before its
        # closing brace: to parse and write the 4,800 records again would
        # cost more than writing them once
        text = report.to_json().rstrip()
        _write_out(args.json, f'{text[:-1]}, "symmetry": {json.dumps(symmetry)}}}\n')
        print(f"JSON report written to {args.json}")
    print("\n".join(report.summary_lines()))
    print(extra)
    if not report.all_passed:
        print("VERIFICATION FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def _cmd_feasibility(args) -> int:
    try:
        rep = assess(
            v0_joule=parse_energy(args.v0),
            rho_m=parse_length(args.rho),
            energy_joule=parse_energy(args.energy),
            mass_ratio=float(args.mass_ratio),
            sigma_m=parse_length(args.sigma),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for line in rep.lines():
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_SIX_THETAS = "5,30,45,60,90,175"
_LAMBDA_COMBOS = ((0.5, -0.5), (0.0, -0.5), (0.5, 0.0), (0.5, 0.5))
_KGRID = "0.025:5:200"
_THETAGRID = "1:179:179"

_PRESET_DEFECTS = {
    "fig1-left": "-3", "fig1-mid": "0", "fig1-right": "3",
    "fig2-left": "-3,0", "fig2-mid": "0,3", "fig2-right": "-3,3",
    "fig3-left": "-3", "fig3-mid": "0", "fig3-right": "3",
    "fig4-left": "-3,0", "fig4-mid": "0,3", "fig4-right": "-3,3",
    "fig5-left": "", "fig5-right": "",
}

PRESET_NAMES = tuple(sorted(_PRESET_DEFECTS))


def _preset_is_kscan(name: str) -> bool:
    return name.startswith(("fig1", "fig2")) or name == "fig5-left"


def _cmd_preset(args) -> int:
    name = args.name
    if name not in _PRESET_DEFECTS:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    outdir = args.out
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {outdir}: {exc}") from exc
    engine = [f"--defects={_PRESET_DEFECTS[name]}"]
    svg = os.path.join(outdir, f"{name}.svg")
    parser = _build_parser()
    if _preset_is_kscan(name):
        csv = os.path.join(outdir, f"{name}.csv")
        _cmd_sweep(parser.parse_args(["sweep", *engine, f"--theta-deg={_SIX_THETAS}",
                                      f"--kgrid={_KGRID}", f"--out={csv}", f"--svg={svg}"]))
        written = [csv, svg]
    else:
        # the four angle scans, plotted from the tables they return as
        # `plot` would from their CSVs
        written = [os.path.join(outdir, f"{name}.lam_{l1:g}_{l2:g}.csv")
                   for l1, l2 in _LAMBDA_COMBOS]
        tables = [_angular(parser.parse_args(
            ["angular", *engine, f"--lambda1={l1!r}", f"--lambda2={l2!r}",
             "--ksigma=1", f"--thetagrid={_THETAGRID}", f"--out={csv}"]))
            for (l1, l2), csv in zip(_LAMBDA_COMBOS, written)]
        _plot(svg, written, tables)
        written.append(svg)
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_engine_flags(p):
    p.add_argument("--theta0-deg", type=float, default=0.0,
                   help="incidence angle in degrees (default 0)")
    p.add_argument("--defects", default="",
                   help="comma-separated defect positions in units of sigma")
    p.add_argument("--couplings", default=None,
                   help="comma-separated couplings (complex a+bi); default 1 each")
    p.add_argument("--eta", type=float, default=0.1,
                   help="(delta/sigma)^2 of the bump (default 0.1)")
    p.add_argument("--lambda1", type=float, default=0.5,
                   help="Gaussian-curvature weight (default 0.5)")
    p.add_argument("--lambda2", type=float, default=-0.5,
                   help="squared-mean-curvature weight (default -0.5)")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process."""
    p = _Parser(prog="bumpscatter",
                description="Geometric scattering from a Gaussian bump with "
                            "parallel line defects")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sweep", help="cross section vs k*sigma")
    _add_engine_flags(ps)
    ps.add_argument("--theta-deg", required=True,
                    help="observation angle(s) in degrees, comma separated")
    ps.add_argument("--kgrid", required=True, help="lo:hi:n in k*sigma")
    ps.add_argument("--out", required=True, help="output CSV path")
    ps.add_argument("--svg", default=None, help="also write an SVG plot here")
    ps.set_defaults(func=_cmd_sweep)

    pa = sub.add_parser("angular", help="cross section vs angle")
    _add_engine_flags(pa)
    pa.add_argument("--ksigma", type=float, required=True, help="fixed k*sigma")
    pa.add_argument("--thetagrid", required=True, help="lo:hi:n in degrees")
    pa.add_argument("--out", required=True, help="output CSV path")
    pa.add_argument("--svg", default=None, help="also write an SVG plot here")
    pa.set_defaults(func=_cmd_angular)

    pv = sub.add_parser("verify", help="closed forms vs quadrature oracle")
    pv.add_argument("--out", default=None, help="write the full record report here")
    pv.add_argument("--json", default=None,
                    help="write every record, the summary counts and the symmetry "
                    "checks here as JSON")
    pv.set_defaults(func=_cmd_verify)

    pf = sub.add_parser("feasibility", help="delta-line validity estimates (SI)")
    pf.add_argument("--v0", required=True, help="defect depth, e.g. 1eV")
    pf.add_argument("--rho", required=True, help="defect width, e.g. 1nm")
    pf.add_argument("--energy", required=True, help="particle energy, e.g. 1e-3eV")
    pf.add_argument("--mass-ratio", required=True,
                    help="effective mass / electron mass, e.g. 0.01")
    pf.add_argument("--sigma", default="50nm",
                    help="bump width (default 50nm)")
    pf.set_defaults(func=_cmd_feasibility)

    pp = sub.add_parser("plot", help="CSV file(s) -> SVG")
    pp.add_argument("inputs", nargs="+", help="CSV files from sweep/angular")
    pp.add_argument("--out", required=True, help="output SVG path")
    pp.set_defaults(func=_cmd_plot)

    pr = sub.add_parser("preset", help="canned figure-family parameter sets")
    pr.add_argument("name", help=f"one of: {', '.join(PRESET_NAMES)}")
    pr.add_argument("--out", required=True, help="output directory")
    pr.set_defaults(func=_cmd_preset)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        QuadratureConvergenceError,
        SingularMatrixError,
        SingularAngleError,
        OverflowError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
