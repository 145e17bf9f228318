"""Benchmark of the bumpscatter engine.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Workloads (inputs in workloads.py, built from --seed):

* figures: the 14 stock presets as sweep / angular / plot calls, 13,412 CSV
  rows.  Time goes to specfun, defects and cli / svgplot.
* oracle-verify: verify_all on the full acceptance grid, 4,800 records.
  Time goes to oracle and surface; a scan-side change should not move it.
* many-defects: an angle scan at K = 1 with N = 8 defects, theta = 90 deg on
  the grid.  The O(N^4) coefficient assembly in geoamp dominates.  It is
  left out of BENCHMARK.json so that the two listed workloads can measure
  50 s per run within the benchmark's time budget.  Run it by name or with
  --workload all.

One process, one caller in a closed loop (each command waits for the one
before), no worker processes, BLAS and OpenMP pools capped at one thread.
Only calls into the public API and ``cli.main`` are timed.

A run measures set-up first: SETUP_REPEATS fresh interpreters each import
bumpscatter and make the workload's smallest call, and setup_s is their
median.  It then repeats the workload's command list, untraced, as often as
fits in --seconds (at least MIN_PASSES times); wall_s is the median pass.
Both are scaled to a reference host speed (hostspeed.py): on a shared host
the raw times of the same pass drift by up to 1.8x between minutes, and no
choice of pass (median, fastest, sum of per-command medians or minimums)
kept ten-seed spreads under 25 %.  The raw median pass is printed as well.

Correctness is checked outside the timed passes: repeated passes must write
byte-identical output, sampled rows must match the quadrature oracle, seed 0
of figures must match ``bumpscatter preset`` byte for byte, and a
verification record counts as failed when its ``passed`` is False.  Failed
items are never dropped: they are the result's ``failed`` out of
``attempted``, printed as failed_frac.

With --trace 1 one more pass runs with every layer wrapped (tracing.py), and
the per-layer metrics replace the end-to-end ones.  Spans and counters are
written to .perfbench/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Cap native thread pools before numpy is imported.
THREAD_CAPS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_PASSES = 2
ORACLE_RTOL = 1e-6
# theta = 90 deg rows with N >= 2 are averaged over theta +- 1e-6 rad by the
# engine; the oracle has no such path, so those rows are not sampled.
AVERAGED_TOL_DEG = 1e-6

# Layer numbers reported separately for the K-scan and the angle-scan commands,
# so that a cache of incident-side work shows where it applies.
SPLIT_KEYS = ("wall_s", "specfun.calls", "specfun.self_s", "defects.build_calls",
              "defects.self_s", "geoamp.f1_calls", "geoamp.self_s",
              "geoamp.regularized_share", "cli.self_s", "svgplot.self_s")


@dataclass
class PassResult:
    unit_s: list          # seconds of each command, or of the verify_all call
    failed: int
    digest: str
    records: int = 0
    scale: float = 1.0    # hostspeed.scale over the pass

    @property
    def wall_s(self) -> float:
        return sum(self.unit_s)

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


# ---------------------------------------------------------------------------
# set-up and provenance
# ---------------------------------------------------------------------------


def measure_setup(workload: str, workdir: Path) -> tuple[float, float]:
    """Median seconds for a fresh interpreter to import bumpscatter and make
    the workload's first call: raw, and each run scaled to the reference host
    speed by its own probe samples.  One unmeasured run fills the bytecode
    cache."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import hostspeed\n"
        "with hostspeed.sampling() as samples:\n"
        "    t0 = time.perf_counter()\n"
        "    import bumpscatter.cli, workloads\n"
        f"    workloads.first_call({workload!r}, {str(workdir)!r})\n"
        "    t = time.perf_counter() - t0\n"
        "print(t, t * hostspeed.scale(samples))\n"
    )
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=os.environ,
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            t, ts = out.stdout.strip().splitlines()[-1].split()
            raw.append(float(t))
            scaled.append(float(ts))
    return statistics.median(raw), statistics.median(scaled)


def provenance() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "bumpscatter").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "workers": 1,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one pass of a workload
# ---------------------------------------------------------------------------


def _csv_rows(path: str):
    with open(path, encoding="utf-8") as fh:
        return [tuple(float(v) for v in line.split(","))
                for line in fh if line.strip() and not line.startswith("#")]


def run_scan_pass(wl: workloads.Workload, cli, tracer=None) -> PassResult:
    """Issue every command once; failed counts rows of commands that raised or
    exited non-zero and rows holding a non-finite number."""
    gc.collect()
    codes, unit_s = [], []
    for i, cmd in enumerate(wl.commands):
        if tracer is not None:
            # Plot calls belong to the angle-scan presets.
            tracer.select("kscan" if cmd.kind == "kscan" else "anglescan")
            tracer.request = i
        t0 = time.perf_counter()
        try:
            code = cli.main(cmd.argv)
        except Exception:  # a raising command fails its rows; the run goes on
            traceback.print_exc()
            code = -1
        unit_s.append(time.perf_counter() - t0)
        codes.append(code)
    failed = 0
    digest = hashlib.sha256()
    for cmd, code in zip(wl.commands, codes):
        if code != 0:
            failed += cmd.rows
            continue
        for path in cmd.outputs:
            digest.update(Path(path).read_bytes())
        if cmd.rows:
            rows = _csv_rows(cmd.outputs[0])
            bad = sum(1 for r in rows if not all(math.isfinite(v) for v in r))
            failed += bad + max(0, cmd.rows - len(rows))
    return PassResult(unit_s, failed, digest.hexdigest())


def run_verify_pass(wl: workloads.Workload, oracle, tracer=None) -> PassResult:
    """The verify_all call; failed counts records whose passed is False."""
    gc.collect()
    if tracer is not None:
        tracer.select("verify")
    t0 = time.perf_counter()
    records = oracle.verify_all(wl.verify_grid).records
    unit_s = [time.perf_counter() - t0]
    digest = hashlib.sha256()
    for r in records:
        digest.update(repr((r.coefficient, r.indices, r.oracle, r.closed, r.passed)).encode())
    failed = sum(1 for r in records if not r.passed) + max(0, wl.items - len(records))
    return PassResult(unit_s, failed, digest.hexdigest(), len(records))


# ---------------------------------------------------------------------------
# correctness checks outside the timed region
# ---------------------------------------------------------------------------


def oracle_sample_failures(wl: workloads.Workload, seed: int) -> tuple[int, list]:
    """Recompute one row per defect count N with assemble_f1_oracle.

    Returns the number of sampled rows off by more than ORACLE_RTOL and a
    description of every sampled row.
    """
    from bumpscatter.defects import DefectSet, Kinematics
    from bumpscatter.oracle import assemble_f1_oracle

    rng = random.Random(seed)
    by_n: dict = {}
    for cmd in wl.commands:
        if not cmd.rows:
            continue
        n = len(cmd.defects)
        for row in _csv_rows(cmd.outputs[0]):
            if n >= 2 and abs(row[1] - 90.0) < AVERAGED_TOL_DEG:
                continue
            by_n.setdefault(n, []).append((cmd, row))
    bad = 0
    notes = []
    for n in sorted(by_n):
        cmd, row = rng.choice(by_n[n])
        k, theta, theta0, re_f1, im_f1 = row[:5]
        kin = Kinematics(k, math.radians(theta0), math.radians(theta))
        ref = assemble_f1_oracle(kin, DefectSet(cmd.defects, [1.0] * n),
                                 workloads.ETA, *cmd.lambdas).value
        rel = abs(complex(re_f1, im_f1) - ref) / abs(ref)
        bad += int(rel > ORACLE_RTOL)
        notes.append(f"N={n} K={k:.6g} theta={theta:.6g} rel_err={rel:.3e}")
    return bad, notes


def matches_presets(wl: workloads.Workload, refdir: Path) -> bool:
    """Seed 0 of figures must write what ``bumpscatter preset`` writes."""
    from bumpscatter import cli

    refdir.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        for name, _ in workloads.KSCAN_PRESETS + workloads.ANGLE_PRESETS:
            if cli.main(["preset", name, f"--out={refdir}"]) != 0:
                return False
    ours = [Path(p) for c in wl.commands for p in c.outputs]
    return (sorted(p.name for p in ours) == sorted(os.listdir(refdir))
            and all(filecmp.cmp(p, refdir / p.name, shallow=False) for p in ours))


# ---------------------------------------------------------------------------
# traced pass and per-layer metrics
# ---------------------------------------------------------------------------


def _per_call(fn, args_list, min_time=0.05, repeats=5) -> float:
    """Median seconds per call over `repeats` timed loops of args_list."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            for a in args_list:
                fn(*a)
        if time.perf_counter() - t0 >= min_time / repeats or loops >= 1 << 16:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            for a in args_list:
                fn(*a)
        samples.append((time.perf_counter() - t0) / (loops * len(args_list)))
    return statistics.median(samples)


def microbenchmarks() -> dict:
    """Per-call cost of the kernels, the defect matrix and f1 at fixed inputs."""
    from bumpscatter import specfun
    from bumpscatter.defects import DefectSet, Kinematics, build_defect_matrix
    from bumpscatter.geoamp import f1_geometric

    rng = random.Random(1234)
    # Exponents and arguments in the range the closed forms produce.
    xs = [complex(-rng.uniform(0.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(64)]
    ws = [complex(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(64)]
    out = {
        "specfun.eexp_us": 1e6 * _per_call(specfun.eexp, [(x,) for x in xs]),
        "specfun.exp_erf_us": 1e6 * _per_call(specfun.exp_erf, list(zip(xs, ws))),
        "specfun.exp_erfc_us": 1e6 * _per_call(specfun.exp_erfc, list(zip(xs, ws))),
        "specfun.erfcx_us": 1e6 * _per_call(specfun.erfcx_c, [(w,) for w in ws]),
    }
    for n in (2, 8):
        ds = DefectSet(workloads.evenly_spaced(n), [1.0] * n)
        out[f"defects.build_us_N{n}"] = 1e6 * _per_call(build_defect_matrix, [(0.7, ds)])
    kin = Kinematics(1.0, 0.0, math.radians(30.0))
    for n in (0, 1, 2, 4, 8):
        ds = DefectSet(workloads.evenly_spaced(n), [1.0] * n)
        args = [(kin, ds, workloads.ETA, 0.5, -0.5)]
        out[f"geoamp.f1_ms_N{n}"] = 1e3 * _per_call(f1_geometric, args, min_time=0.3,
                                                    repeats=3)
    return out


def regularized_share(f1_inputs) -> float:
    """Share of f1 calls that take the theta = 90 deg averaging path, decided
    from the inputs as f1_geometric decides it."""
    from bumpscatter.defects import SingularMatrixError, build_defect_matrix
    from bumpscatter.geoamp import REG_COND_LIMIT

    if not f1_inputs:
        return 0.0
    hits = 0
    for kin, defects in f1_inputs:
        if defects.n < 2:
            continue
        try:
            hits += build_defect_matrix(kin.kx_out, defects).cond > REG_COND_LIMIT
        except SingularMatrixError:
            hits += 1
    return hits / len(f1_inputs)


def layer_metrics(counts, f1_inputs, wall_s: float) -> dict:
    """End-to-end-facing layer numbers from one bucket of the traced pass."""
    from tracing import COEFFICIENT_FUNCTIONS, layer_sum

    f1_calls = counts["geoamp.f1_geometric.calls"]
    share = regularized_share(f1_inputs)
    coeff = sum(counts[f"geoamp.{f}.calls"] for f in COEFFICIENT_FUNCTIONS)
    evals = f1_calls * (1.0 + share)
    return {
        "wall_s": wall_s,
        "specfun.calls": layer_sum(counts, "specfun", "calls"),
        "specfun.elements": counts["specfun.elements"],
        "specfun.self_s": counts["specfun.self_s"],
        "defects.build_calls": counts["defects.build_defect_matrix.calls"],
        "defects.self_s": counts["defects.self_s"],
        "geoamp.f1_calls": f1_calls,
        "geoamp.coeff_calls": coeff,
        "geoamp.coeff_calls_per_eval": coeff / evals if evals else 0.0,
        "geoamp.regularized_share": share,
        "geoamp.self_s": counts["geoamp.self_s"],
        "surface.calls": layer_sum(counts, "surface", "calls"),
        "surface.points": counts["surface.elements"],
        "surface.self_s": counts["surface.self_s"],
        "oracle.self_s": counts["oracle.self_s"],
        "cli.self_s": counts["cli.self_s"],
        "svgplot.calls": counts["svgplot.render_svg.calls"],
        "svgplot.self_s": counts["svgplot.self_s"],
    }


def traced_pass(wl: workloads.Workload, cli, oracle, untraced_wall: float,
                trace_path: Path, stamp: dict) -> dict:
    """One pass with every layer wrapped; returns the per-layer metrics."""
    from tracing import LAYERS, ORACLE_FAMILIES, Tracer

    with Tracer() as tracer:
        if wl.verify_grid is not None:
            res = run_verify_pass(wl, oracle, tracer)
        else:
            res = run_scan_pass(wl, cli, tracer)
    totals = tracer.totals()
    metrics = layer_metrics(totals, [(k, d) for _, k, d in tracer.f1_inputs], res.wall_s)
    del metrics["wall_s"]
    for kind in ("kscan", "anglescan"):
        wall = sum(t for c, t in zip(wl.commands, res.unit_s)
                   if (c.kind == "kscan") == (kind == "kscan"))
        part = layer_metrics(tracer.buckets.get(kind, Counter()),
                             [(k, d) for b, k, d in tracer.f1_inputs if b == kind], wall)
        for key in SPLIT_KEYS:
            metrics[f"{kind}.{key}"] = part[key]
    metrics["oracle.records"] = res.records
    metrics["oracle.records_failed"] = res.failed if wl.verify_grid is not None else 0
    for fam in ORACLE_FAMILIES:
        n = totals[f"oracle.integrals_{fam}"]
        metrics[f"oracle.panels_{fam}"] = totals[f"oracle.panels_{fam}"]
        metrics[f"oracle.ms_{fam}"] = 1e3 * totals[f"oracle.integral_s_{fam}"] / n if n else 0.0
    evaluated = totals["oracle.panels_evaluated"]
    metrics["oracle.panel_yield"] = totals["oracle.panels_kept"] / evaluated if evaluated else 0.0
    metrics["cli.bytes_written"] = sum(os.path.getsize(p) for c in wl.commands
                                       for p in c.outputs)
    metrics["trace.overhead_frac"] = res.wall_s / untraced_wall - 1.0
    metrics["trace.subtracted_s"] = sum(totals[f"{layer}.wrapper_s"] for layer in LAYERS)
    trace_path.write_text(json.dumps({
        "stamp": stamp,
        "wrapper_cost_s": tracer.costs,
        "spans": [dict(zip(("name", "layer", "start", "end", "parent", "request"), s))
                  for s in tracer.spans],
        "buckets": {b: dict(c) for b, c in tracer.buckets.items()},
        "missing_hooks": tracer.missing_hooks,
    }))
    return metrics


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_workload(args, spec: dict, workdir: Path) -> dict:
    stamp = provenance()
    print("stamp " + json.dumps(stamp), flush=True)
    setup_raw_s, setup_s = measure_setup(args.workload, workdir)

    from bumpscatter import cli, oracle

    wl = workloads.BUILDERS[args.workload](args.seed, str(workdir))
    workloads.first_call(args.workload, str(workdir))
    run_pass, module = ((run_verify_pass, oracle) if wl.verify_grid is not None
                        else (run_scan_pass, cli))
    passes = []
    deadline = time.perf_counter() + args.seconds
    with hostspeed.sampling() as samples:
        # No pass starts that would, at the median pace so far, end after the deadline.
        while (len(passes) < MIN_PASSES
               or time.perf_counter() + statistics.median(p.wall_s for p in passes) <= deadline):
            first = len(samples)
            res = run_pass(wl, module)
            res.scale = hostspeed.scale(samples[first:])
            passes.append(res)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p.wall_s for p in passes]
    raw_wall_s = statistics.median(walls)
    wall_s = statistics.median(p.scaled_wall_s for p in passes)

    notes = []
    correct = len({p.digest for p in passes}) == 1
    if not correct:
        notes.append("repeated passes wrote different output")
    failed = sum(p.failed for p in passes)
    if wl.verify_grid is None:
        bad, sampled = oracle_sample_failures(wl, args.seed)
        notes += [f"oracle sample {s}" for s in sampled]
        failed += bad * len(passes)
        correct = correct and not bad
        if args.workload == "figures" and args.seed == 0:
            same = matches_presets(wl, workdir / "presets")
            notes.append(f"seed 0 matches bumpscatter preset: {same}")
            correct = correct and same
    attempted = wl.items * len(passes)

    if args.trace:
        metrics = traced_pass(wl, cli, oracle, raw_wall_s,
                              OUT / f"trace-{args.workload}-seed{args.seed}.json", stamp)
        metrics.update(microbenchmarks())
        names = spec["per_layer"]
    else:
        metrics = {"wall_s": wall_s, "items_per_s": wl.items / wall_s,
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{wl.items} items; raw pass seconds min {min(walls):.4f} median "
          f"{raw_wall_s:.4f} max {max(walls):.4f}; host speed scale "
          + " ".join(f"{p.scale:.3f}" for p in passes)
          + f"; raw setup seconds {setup_raw_s:.4f}")
    for note in notes:
        print("check", note)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for m in names:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in names},
    }


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        if not total["metrics"]:
            print(next(ln for ln in lines if ln.startswith("stamp ")))
        res = json.loads(lines[-1])
        frac = res["failed"] / res["attempted"]
        print(f"{name:14s} {'failed_frac':32s} {frac:14.6g} 1")
        for metric, v in res["metrics"].items():
            print(f"{name:14s} {metric:32s} {v['value']:14.6g} {v['unit']}")
            total["metrics"][f"{name}.{metric}"] = v
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bumpscatter" / "__init__.py").is_file():
        print(f"no bumpscatter sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run_workload(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
