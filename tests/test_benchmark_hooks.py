"""The benchmark in perfbench/ reaches into the package by name.

Its tracer wraps private oracle helpers and reads the labels they are
called with, and its driver calls kernels and entry points by name.  If a
refactor deletes or renames one of them, the benchmark keeps running but
the per-layer metric that depends on it silently reads 0.  These checks
fail instead.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("tracing")
    yield module
    sys.modules.pop("tracing", None)


def test_tracer_finds_every_oracle_hook(tracing):
    with tracing.Tracer() as tracer:
        assert tracer.missing_hooks == []


def _package_names_used(source: str):
    """(module, name) for every `from bumpscatter.<module> import name` and
    every `<module>.name` on a module bound by `from bumpscatter import`."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "bumpscatter":
            modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bumpscatter."):
            for alias in node.names:
                yield node.module.split(".", 1)[1], alias.name
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield node.value.id, node.attr


def test_benchmark_driver_names_exist():
    used = set(_package_names_used((PERFBENCH / "run.py").read_text(encoding="utf-8")))
    # the driver's microbenchmarks and correctness checks reach these layers
    assert {m for m, _ in used} >= {"specfun", "geoamp", "defects"}
    missing = [f"{m}.{name}" for m, name in sorted(used)
               if not hasattr(importlib.import_module(f"bumpscatter.{m}"), name)]
    assert missing == []


def test_tracer_counts_pair_integrals_by_their_label(tracing):
    # The tracer reads an _integrate_pair call's label from its fifth
    # positional argument or from what=; every caller passes it by keyword.
    from bumpscatter import oracle
    from bumpscatter.geoamp import GeoCoefficientInputs

    g = GeoCoefficientInputs(s=0.7, bigK=1.0, alphas=(0.0,), eta=0.1, lambda1=0.5, lambda2=-0.5)
    with tracing.Tracer() as tracer:
        ov = oracle._integrate_pair(0.0, None, g, what="Imn[0]")
    counts = tracer.totals()
    assert counts["oracle.integrals_Imn"] == 1
    assert counts["oracle.panels_Imn"] == ov.panels > 0
    assert counts["oracle.integrals_other"] == 0
