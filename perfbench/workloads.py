"""Seeded inputs of the three benchmark workloads.

Every workload is a fixed list of commands built from the seed alone, so the
same seed always gives the same inputs.  The scan workloads are argv lists
for ``bumpscatter.cli.main``; ``oracle-verify`` is one ``verify_all`` call on
the fixed acceptance grid.

The stock preset table below is a copy of the configurations ``bumpscatter
preset`` runs.  It is copied, not imported, so that the benchmark's inputs do
not move when the program changes.  Seed 0 reproduces the stock presets byte
for byte, which ``run.py`` checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

# K-scan presets sweep KGRID at the six STOCK_THETAS; angle-scan presets sweep
# THETAGRID at K = 1 for each of the four curvature weight settings and plot
# the four CSVs into one SVG.
KSCAN_PRESETS = (
    ("fig1-left", (-3.0,)), ("fig1-mid", (0.0,)), ("fig1-right", (3.0,)),
    ("fig2-left", (-3.0, 0.0)), ("fig2-mid", (0.0, 3.0)),
    ("fig2-right", (-3.0, 3.0)), ("fig5-left", ()),
)
ANGLE_PRESETS = (
    ("fig3-left", (-3.0,)), ("fig3-mid", (0.0,)), ("fig3-right", (3.0,)),
    ("fig4-left", (-3.0, 0.0)), ("fig4-mid", (0.0, 3.0)),
    ("fig4-right", (-3.0, 3.0)), ("fig5-right", ()),
)
STOCK_THETAS = (5.0, 30.0, 45.0, 60.0, 90.0, 175.0)
KGRID = "0.025:5:200"
THETAGRID = "1:179:179"
LAMBDA_COMBOS = ((0.5, -0.5), (0.0, -0.5), (0.5, 0.0), (0.5, 0.5))
ETA = 0.1

# many-defects: N = 8 unit defects 2 sigma apart, scanned at K = 1 over an
# odd angle grid whose middle point is theta = 90 deg.
MANY_DEFECTS_N = 8
MANY_DEFECTS_SPACING = 2.0
MANY_DEFECTS_THETAGRID = "1:179:9"

# The full acceptance grid of oracle.default_verification_grid: 48 points,
# 100 records each.
ACCEPTANCE_GRID = {
    "s": (0.0, 0.3, 0.7, 1.0),
    "bigK": (0.5, 1.0, 2.0),
    "lambdas": ((0.5, -0.5), (0.0, -0.5), (0.5, 0.0), (0.5, 0.5)),
    "alphas": (-3.0, 0.0, 3.0),
    "eta": 0.1,
}


def f17(x: float) -> str:
    """The 17-digit text the CLI writes, so numbers parse back exactly."""
    return format(float(x), ".17g")


@dataclass
class ScanCommand:
    """One ``cli.main`` call.  kind is "kscan", "anglescan" or "plot"."""

    kind: str
    argv: list
    outputs: list
    rows: int = 0
    defects: tuple = ()
    lambdas: tuple = (0.5, -0.5)


@dataclass
class Workload:
    """A pass issues every command in order, or the one verify_all call."""

    name: str
    commands: list = field(default_factory=list)
    verify_grid: dict | None = None

    @property
    def items(self) -> int:
        """CSV rows of one pass, or verification records for oracle-verify."""
        if self.verify_grid is None:
            return sum(c.rows for c in self.commands)
        g = self.verify_grid
        n = len(g["alphas"])
        return len(g["s"]) * len(g["bigK"]) * len(g["lambdas"]) * (1 + 2 * n * n + n**4)


def evenly_spaced(n: int) -> tuple:
    """n defect positions MANY_DEFECTS_SPACING apart, centred on the bump."""
    return tuple(MANY_DEFECTS_SPACING * (i - 0.5 * (n - 1)) for i in range(n))


def _engine_args(defects, lambdas=(0.5, -0.5)) -> list:
    return ["--defects=" + ",".join(f17(p) for p in defects), f"--eta={ETA}",
            f"--lambda1={f17(lambdas[0])}", f"--lambda2={f17(lambdas[1])}"]


def _jitter(rng: random.Random, positions, amount: float) -> tuple:
    return tuple(p + rng.uniform(-amount, amount) for p in positions)


def _jitter_thetagrid(rng: random.Random, grid: str) -> str:
    """Move both ends of an odd grid symmetric about 90 deg inwards.

    The offset is redrawn until the middle point is exactly 90 deg again, so
    the rows that take the theta = 90 deg averaging path are kept.
    """
    lo, hi, n = grid.split(":")
    n = int(n)
    while True:
        off = rng.uniform(0.0, 0.5)
        lo_s, hi_s = f17(float(lo) + off), f17(float(hi) - off)
        if np.linspace(float(lo_s), float(hi_s), n)[n // 2] == 90.0:
            return f"{lo_s}:{hi_s}:{n}"


def figures(seed: int, outdir: str) -> Workload:
    """The 14 stock presets as the equivalent sweep / angular / plot calls.

    Seed 0 is the stock configuration.  Other seeds shift the K grid, the
    sweep angles other than 90 deg, the angle-grid ends and every defect
    position, and keep N, the row counts and the theta = 90 deg rows.
    """
    rng = random.Random(seed)
    wl = Workload("figures")
    for name, defects in KSCAN_PRESETS:
        thetas, kgrid = STOCK_THETAS, KGRID
        if seed:
            lo, hi, n = KGRID.split(":")
            off = rng.uniform(0.0, 0.025)
            kgrid = f"{f17(float(lo) + off)}:{f17(float(hi) + off)}:{n}"
            thetas = tuple(t if t == 90.0 else t + rng.uniform(-2.0, 2.0)
                           for t in STOCK_THETAS)
            defects = _jitter(rng, defects, 0.5)
        csv, svg = f"{outdir}/{name}.csv", f"{outdir}/{name}.svg"
        wl.commands.append(ScanCommand(
            kind="kscan",
            argv=["sweep", *_engine_args(defects),
                  "--theta-deg=" + ",".join(f17(t) for t in thetas),
                  f"--kgrid={kgrid}", f"--out={csv}", f"--svg={svg}"],
            outputs=[csv, svg], rows=len(thetas) * int(kgrid.split(":")[2]),
            defects=defects,
        ))
    for name, defects in ANGLE_PRESETS:
        grid = THETAGRID
        if seed:
            grid = _jitter_thetagrid(rng, THETAGRID)
            defects = _jitter(rng, defects, 0.5)
        csvs = []
        for lambdas in LAMBDA_COMBOS:
            csv = f"{outdir}/{name}.lam_{lambdas[0]:g}_{lambdas[1]:g}.csv"
            csvs.append(csv)
            wl.commands.append(ScanCommand(
                kind="anglescan",
                argv=["angular", *_engine_args(defects, lambdas), "--ksigma=1",
                      f"--thetagrid={grid}", f"--out={csv}"],
                outputs=[csv], rows=int(grid.split(":")[2]), defects=defects,
                lambdas=lambdas,
            ))
        svg = f"{outdir}/{name}.svg"
        wl.commands.append(ScanCommand(
            kind="plot", argv=["plot", *csvs, f"--out={svg}"], outputs=[svg],
        ))
    return wl


def many_defects(seed: int, outdir: str) -> Workload:
    """Angle scan at K = 1 with N = 8 evenly spaced unit defects.

    Other seeds move the grid ends symmetrically, keeping theta = 90 deg on
    the grid, and move each defect by up to 0.3 sigma.
    """
    rng = random.Random(seed)
    defects, grid = evenly_spaced(MANY_DEFECTS_N), MANY_DEFECTS_THETAGRID
    if seed:
        defects = _jitter(rng, defects, 0.3)
        grid = _jitter_thetagrid(rng, grid)
    csv = f"{outdir}/many-defects.csv"
    return Workload("many-defects", commands=[ScanCommand(
        kind="anglescan",
        argv=["angular", *_engine_args(defects), "--ksigma=1",
              f"--thetagrid={grid}", f"--out={csv}"],
        outputs=[csv], rows=int(grid.split(":")[2]), defects=defects,
    )])


def oracle_verify(seed: int, outdir: str) -> Workload:
    """verify_all on the fixed acceptance grid; the seed does not change it."""
    return Workload("oracle-verify", verify_grid=dict(ACCEPTANCE_GRID))


BUILDERS = {
    "figures": figures,
    "many-defects": many_defects,
    "oracle-verify": oracle_verify,
}


def first_call(workload: str, outdir: str) -> None:
    """The smallest call of a workload; set-up time includes it."""
    from bumpscatter import cli, oracle

    if workload == "oracle-verify":
        oracle.verify_all(dict(ACCEPTANCE_GRID, s=(0.3,), bigK=(1.0,),
                               lambdas=((0.5, -0.5),), alphas=(0.0,)))
        return
    n = MANY_DEFECTS_N if workload == "many-defects" else 2
    code = cli.main(["angular", *_engine_args(evenly_spaced(n)), "--ksigma=1",
                     "--thetagrid=30:30:1", f"--out={outdir}/first.csv"])
    if code != 0:
        raise RuntimeError(f"first call exited with code {code}")
