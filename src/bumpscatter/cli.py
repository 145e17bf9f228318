"""Command-line interface: sweeps, verification, feasibility, plots, presets.

Commands
--------
sweep        cross section vs k*sigma at fixed scattering angle(s)
angular      cross section vs scattering angle at fixed k*sigma
verify       closed forms vs quadrature oracle; nonzero exit on mismatch;
             also reports the measured reciprocity defect of f1
feasibility  SI-unit validity estimates for the delta-line idealization
plot         render sweep/angular CSV file(s) to a deterministic SVG
preset       canned parameter sets reproducing the standard figure family

Conventions: angles cross the CLI boundary in degrees and are converted to
radians immediately; all lengths are in units of the bump width sigma; all
couplings are the dimensionless sigma-scaled strengths.  CSV output starts
with '# key=value' header lines followed by rows

    ksigma,theta_deg,theta0_deg,re_f1,im_f1,xsec

with every float printed to 17 significant digits, so reruns are
byte-identical (no timestamps).  Exit codes: 0 success, 1 usage error (a
defects.InputError: a flag, a CSV or an engine input outside its domain;
no file is written), 2 numerical failure (non-convergence, singular
matrix, overflow), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import Counter

import numpy as np

from . import __version__
from .defects import DefectSet, InputError, Kinematics, SingularMatrixError
from .feasibility import assess, parse_energy, parse_length
from .geoamp import (
    SINGULAR_ANGLE_TOL,
    SingularAngleError,
    delta_ray_offset,
    f1_geometric,
    f1_scan,
)
from .oracle import (
    QuadratureConvergenceError,
    default_verification_grid,
    reduced_verification_grid,
    verify_all,
)
from .svgplot import render_svg

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

# Angle-scan points with |geoamp.delta_ray_offset| below
# geoamp.SINGULAR_ANGLE_TOL are moved this far off the ray (degrees).
NUDGE_DEG = 1e-5

COLUMNS = "ksigma,theta_deg,theta0_deg,re_f1,im_f1,xsec"
# One CSV row: every column as _f17 writes it, in one %-format.
_ROW = ",".join(["%.17g"] * len(COLUMNS.split(",")))


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


def _csv_text(headers: dict, rows) -> str:
    lines = [f"# {k}={v}" for k, v in headers.items()]
    lines.append(f"# columns={COLUMNS}")
    lines += [_ROW % row for row in rows]
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
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# sweep / angular
# ---------------------------------------------------------------------------


def _scan(args, mode: str, points, keys: dict) -> int:
    """Body of sweep and angular: one engine call for every (K, theta_deg)
    point, one CSV row per point, the run headers plus the command's own
    keys, and the optional SVG."""
    if args.svg:
        # The curves of _curves: one per angle for a K scan, else one.
        sizes = Counter(th for _, th in points).values() if mode == "kscan" else [len(points)]
        if min(sizes) < 2:
            raise InputError(f"--svg needs at least 2 points per curve, got {min(sizes)}")
    positions = _parse_floats(args.defects, "--defects")
    couplings = _parse_couplings(args.couplings, len(positions))
    defects = DefectSet(positions, couplings)
    f1 = f1_scan([k for k, _ in points], math.radians(args.theta0_deg),
                 [math.radians(th) for _, th in points],
                 defects, args.eta, args.lambda1, args.lambda2)
    rows = [(k, th, args.theta0_deg, f.real, f.imag, abs(f) ** 2)
            for (k, th), f in zip(points, f1)]
    headers = {**_common_headers(args, mode, positions, couplings), **keys}
    _write_out(args.out, _csv_text(headers, rows))
    if args.svg:
        _write_out(args.svg, _svg(mode, _curves(headers, rows)))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    thetas = _parse_floats(args.theta_deg, "--theta-deg")
    if not thetas:
        raise InputError("sweep needs --theta-deg (one or more, comma separated)")
    for th in thetas:
        ray = delta_ray_offset(math.radians(args.theta0_deg), math.radians(th))
        if abs(ray) < SINGULAR_ANGLE_TOL:
            raise InputError(
                f"theta = {th} deg lies on a delta-supported direction "
                f"(theta0 = {args.theta0_deg}, mirror = "
                f"{180 - args.theta0_deg}); the first-order cross section "
                "is not defined there"
            )
    kgrid = _parse_grid(args.kgrid, "--kgrid")
    points = [(float(k), th) for th in thetas for k in kgrid]
    keys = {"kgrid": args.kgrid, "thetas_deg": ",".join(_f17(t) for t in thetas)}
    return _scan(args, "kscan", points, keys)


def _cmd_angular(args) -> int:
    points = []
    for th in _parse_grid(args.thetagrid, "--thetagrid"):
        th = float(th)
        ray = delta_ray_offset(math.radians(args.theta0_deg), math.radians(th))
        if abs(ray) < SINGULAR_ANGLE_TOL:
            nudged = th - math.degrees(ray) + (NUDGE_DEG if ray >= 0.0 else -NUDGE_DEG)
            print(
                f"warning: theta = {th:g} deg sits on a delta-supported "
                f"direction; nudged to {nudged:.10g} deg",
                file=sys.stderr,
            )
            th = nudged
        points.append((args.ksigma, th))
    keys = {"ksigma": _f17(args.ksigma), "thetagrid": args.thetagrid}
    return _scan(args, "anglescan", points, keys)


# ---------------------------------------------------------------------------
# plotting (from rows or from CSV files)
# ---------------------------------------------------------------------------


def _curves(headers: dict, rows) -> list:
    """Plot curves (label, xs, ys) of one sweep or angular table: one per
    angle for a K scan, one per table for an angle scan."""
    if headers.get("mode", "kscan") == "kscan":
        groups = {}
        for (k, th, _, _, _, xsec) in rows:
            ks, ys = groups.setdefault(th, ([], []))
            ks.append(k)
            ys.append(xsec)
        return [(f"theta = {th:g} deg", ks, ys) for th, (ks, ys) in groups.items()]
    label = (
        f"l1 = {headers.get('lambda1', '?')}, "
        f"l2 = {headers.get('lambda2', '?')}"
    )
    return [(label, [r[1] for r in rows], [r[5] for r in rows])]


def _svg(mode: str, curves: list) -> str:
    xlabel = "k sigma" if mode == "kscan" else "theta (deg)"
    return render_svg(curves, xlabel, "|f1|^2 / sigma")


def _read_csv(path: str):
    """Headers and rows of a sweep or angular CSV; an input that is missing,
    unreadable, malformed or empty is a usage error."""
    headers = {}
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        k, v = body.split("=", 1)
                        headers[k.strip()] = v.strip()
                    continue
                row = tuple(float(v) for v in line.split(","))
                if len(row) != len(COLUMNS.split(",")):
                    raise ValueError(f"row {line!r} does not have the columns {COLUMNS}")
                rows.append(row)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    return headers, rows


def _cmd_plot(args) -> int:
    curve_list = []
    mode = None
    for path in args.inputs:
        headers, rows = _read_csv(path)
        m = headers.get("mode", "kscan")
        if mode is None:
            mode = m
        elif m != mode:
            raise InputError(
                f"cannot mix modes in one plot: {mode} vs {m} ({path})"
            )
        curve_list += _curves(headers, rows)
    try:
        svg = _svg(mode, curve_list)
    except ValueError as exc:
        raise InputError(f"cannot plot {', '.join(args.inputs)}: {exc}") from exc
    _write_out(args.out, svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Cases and (theta0, theta) pairs in degrees of the reciprocity section of
# the verify report: N = 0 is the control.
RECIPROCITY_CASES = (((), ()), ((3.0,), (1.0,)), ((-1.0, 3.0), (1.0, 0.7)))
RECIPROCITY_ANGLES_DEG = ((0.0, 30.0), (20.0, -30.0), (-10.0, 60.0), (45.0, 10.0))


def _reciprocity_lines():
    """Measured (not gated) reciprocity defect of f1.

    With the defect lines fixed at x = alpha_n, reciprocity composed with
    the mirror x -> -x gives f(K; theta0 -> theta; alpha, z) =
    f(K; -theta -> -theta0; -alpha, z).  Each line states
    |f - f'| / max(|f|, |f'|) of the two sides at K = 1, eta = 0.1,
    lambda = (0.5, -0.5) for every angle pair.
    """
    out = ["reciprocity f(K; theta0->theta; alpha, z) vs f(K; -theta->-theta0; "
           "-alpha, z), measured, K=1, N=0 the control:"]
    for positions, couplings in RECIPROCITY_CASES:
        there, back = DefectSet(positions, couplings), DefectSet(
            [-a for a in positions], couplings)
        cells = []
        for th0, th in RECIPROCITY_ANGLES_DEG:
            f = f1_geometric(Kinematics(1.0, math.radians(th0), math.radians(th)),
                             there, 0.1, 0.5, -0.5)
            f_rev = f1_geometric(Kinematics(1.0, math.radians(-th), math.radians(-th0)),
                                 back, 0.1, 0.5, -0.5)
            cells.append(f"({th0:g},{th:g})={abs(f - f_rev) / max(abs(f), abs(f_rev)):.3e}")
        out.append(f"  N={len(positions)} alphas={','.join(f'{a:g}' for a in positions)} "
                   f"z={','.join(f'{z.real:g}' for z in there.couplings)}: "
                   + " ".join(cells))
    return out


def _cmd_verify(args) -> int:
    for flag, value in (("--rtol", args.rtol), ("--atol", args.atol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise InputError(f"{flag} must be finite and non-negative, got {value!r}")
    grid = default_verification_grid() if args.full else reduced_verification_grid()
    report = verify_all(grid, rtol=args.rtol, atol=args.atol)
    extra = "\n".join(_reciprocity_lines())
    if args.out:
        _write_out(args.out, report.to_text() + "\n" + extra + "\n")
        print(f"report written to {args.out}")
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
    os.makedirs(outdir, exist_ok=True)
    engine = [f"--defects={_PRESET_DEFECTS[name]}"]
    svg = os.path.join(outdir, f"{name}.svg")
    if _preset_is_kscan(name):
        csv = os.path.join(outdir, f"{name}.csv")
        runs = [["sweep", *engine, f"--theta-deg={_SIX_THETAS}", f"--kgrid={_KGRID}",
                 f"--out={csv}", f"--svg={svg}"]]
        written = [csv, svg]
    else:
        written = [os.path.join(outdir, f"{name}.lam_{l1:g}_{l2:g}.csv")
                   for l1, l2 in _LAMBDA_COMBOS]
        runs = [["angular", *engine, f"--lambda1={l1!r}", f"--lambda2={l2!r}",
                 "--ksigma=1", f"--thetagrid={_THETAGRID}", f"--out={csv}"]
                for (l1, l2), csv in zip(_LAMBDA_COMBOS, written)]
        runs.append(["plot", f"--out={svg}", "--", *written])
        written.append(svg)
    parser = _build_parser()
    for argv in runs:
        sub = parser.parse_args(argv)
        sub.func(sub)
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
    pv.add_argument("--full", action="store_true",
                    help="full acceptance grid (default: reduced grid)")
    pv.add_argument("--rtol", type=float, default=1e-6,
                    help="pass when |closed - oracle| / max(|oracle|, atol) <= rtol; "
                         "oracle values within the quadrature's roundoff floor R "
                         "are judged by |closed - oracle| <= R instead")
    pv.add_argument("--atol", type=float, default=1e-10,
                    help="floor on the relative-error denominator (not a "
                         "numpy-style absolute tolerance)")
    pv.add_argument("--out", default=None, help="write the full record report here")
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
