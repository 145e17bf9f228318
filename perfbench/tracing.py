"""Per-layer tracing by wrapping the functions each bumpscatter module binds.

A layer is one module of the package.  Every public function of a layer is
replaced, in every module that binds it, by a wrapper: ``geoamp`` imports
the ``specfun`` kernels by name, ``oracle`` imports the closed forms and
``operator_coeffs_first_order``, and ``cli`` imports ``f1_geometric``,
``render_svg`` and ``verify_all``, so a wrapper on the defining module alone
would miss those calls.

A call is counted and timed where it enters a layer from another one: the
wrapper pushes a frame, and a layer's self time is the frame's duration
minus the time of the frames it encloses and minus the wrapper's own cost
(see below).  Calls that stay inside one layer (``exp_erfc`` calling
``eexp``) pass straight through, which keeps the million-odd kernel calls
of a ``figures`` pass cheap to trace.  The one
exception is the closed-form coefficient functions, which ``_f1_direct``
calls from inside geoamp: those calls are counted, not timed.  Calls from
``f1_geometric`` and ``verify_all`` upwards are also kept as spans.

Counters go to the current bucket, so one traced pass can be split by
command kind (K scans against angle scans).

The wrapper's bookkeeping (counting, the span, pushing and popping its
frame) runs outside the callee's timed interval, so it would land in the
caller's self time; reading the clock lands partly in the callee's.  On
entry, ``calibrate`` times the wrappers around a no-op function, and every
wrapped call then subtracts that cost from the layer that paid it.  The
amount subtracted is kept per layer as ``<layer>.wrapper_s``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

PACKAGE = "bumpscatter"
LAYERS = ("cli", "svgplot", "geoamp", "defects", "specfun", "surface", "oracle")

# Functions recorded as spans, from the amplitude and verification calls up.
SPAN_FUNCTIONS = {"main", "f1_geometric", "cross_section", "verify_all",
                  "render_svg", "assemble_f1_oracle"}

# Coefficient functions whose calls make up geoamp.coeff_calls.
COEFFICIENT_FUNCTIONS = ("I0_closed", "Imn_closed", "Jmn_closed", "Immnn_closed")

# Integral labels of the oracle's private pair integrator, by coefficient family.
_FAMILY_OF_LABEL = {"I0": "I0", "Imn": "Imn", "Jmn": "Jmn", "Immnn": "Immnn",
                    "I4 base": "Immnn"}
ORACLE_FAMILIES = ("I0", "Imn", "Jmn", "Immnn")

# Wrapped no-op calls per calibration loop, and loops per median.
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 7


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the package's layer functions while active; see the module doc."""

    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        # Every loaded module of the package, the package itself included, may
        # bind a layer function under its own name.
        self.binders = [m for n, m in sorted(sys.modules.items())
                        if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.buckets: dict[str, Counter] = {}
        self.current = self.select("all")
        # A frame is [layer, time of enclosed frames, span id, wrapper cost].
        self.stack = [["bench", 0.0, None, 0.0]]
        self.costs: dict[str, float] = {}
        self.spans: list = []
        self.request = 0
        self.f1_inputs: list = []
        self.missing_hooks: list = []
        self._patched: list = []

    def select(self, bucket: str) -> Counter:
        """Send the counters of the following calls to the named bucket."""
        self.current = self.buckets.setdefault(bucket, Counter())
        self.bucket = bucket
        return self.current

    def totals(self) -> Counter:
        out = Counter()
        for counts in self.buckets.values():
            out.update(counts)
        return out

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        self.calibrate()
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                self._replace_everywhere(fn, self._layer_wrapper(fn, layer, name, self.costs))
        self._hook_oracle_panels()
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        return False

    def _replace_everywhere(self, fn, wrapper):
        for module in self.binders:
            for name, obj in list(vars(module).items()):
                if obj is fn:
                    self._patched.append((module, name, fn))
                    setattr(module, name, wrapper)

    def _layer_wrapper(self, fn, layer, name, costs):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        calls_key = f"{layer}.{name}.calls"
        self_key = f"{layer}.self_s"
        wrapper_key = f"{layer}.wrapper_s"
        count_inside = name in COEFFICIENT_FUNCTIONS
        sized = layer in ("specfun", "surface")
        span = name in SPAN_FUNCTIONS
        keep_f1_inputs = name == "f1_geometric"
        # Wrapper cost charged to the caller's frame, and to the callee's own.
        inside_cost = costs.get("inside_counted" if count_inside else "inside", 0.0)
        outer_cost = costs.get("outer_sized" if sized else "outer", 0.0)
        inner_cost = costs.get("inner", 0.0)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                parent[3] += inside_cost
                if count_inside:
                    tracer.current[calls_key] += 1
                return fn(*args, **kwargs)
            parent[3] += outer_cost
            counts = tracer.current
            counts[calls_key] += 1
            if sized:
                counts[layer + ".elements"] += getattr(args[0], "size", 1)
            if keep_f1_inputs:
                tracer.f1_inputs.append((tracer.bucket, args[0], args[1]))
            span_id = parent[2]
            if span:
                span_id = len(tracer.spans)
                tracer.spans.append([name, layer, 0.0, 0.0, parent[2], tracer.request])
            frame = [layer, 0.0, span_id, inner_cost]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                counts[self_key] += dur - frame[1] - frame[3]
                counts[wrapper_key] += frame[3]
                stack[-1][1] += dur
                if span:
                    tracer.spans[span_id][2:4] = (t0, t1)

        return wrapper

    def calibrate(self):
        """Set self.costs: median seconds per call that a wrapper adds around
        a no-op function, beyond calling it directly, by who is charged.

        outer / outer_sized: the caller, when a call enters another layer
        (the part outside the callee's timed interval); for an unsized layer,
        and for specfun / surface, which also count elements.
        inner: the callee, for the part inside its timed interval.
        inside / inside_counted: the layer itself, for a call within one
        layer, plain or counted as a coefficient call.
        """
        def noop(x):
            return x

        def loop_s(fn, frame):
            self.stack.append(frame)
            try:
                t0 = time.perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    fn(1.0)
                return time.perf_counter() - t0
            finally:
                self.stack.pop()

        saved = self.current, self.bucket
        self.select("calibration")
        samples: dict[str, list] = {}
        try:
            for _ in range(CALIBRATION_REPEATS):
                direct = loop_s(noop, ["caller", 0.0, None, 0.0])
                for key, layer in (("outer", "defects"), ("outer_sized", "specfun")):
                    frame = ["caller", 0.0, None, 0.0]
                    total = loop_s(self._layer_wrapper(noop, layer, "noop", {}), frame)
                    samples.setdefault(key, []).append(total - frame[1] - direct)
                    if key == "outer":
                        samples.setdefault("inner", []).append(frame[1])
                for key, name in (("inside", "noop"), ("inside_counted", "I0_closed")):
                    total = loop_s(self._layer_wrapper(noop, "geoamp", name, {}),
                                   ["geoamp", 0.0, None, 0.0])
                    samples.setdefault(key, []).append(total - direct)
        finally:
            del self.buckets["calibration"]
            self.current, self.bucket = saved
        self.costs = {k: max(0.0, statistics.median(v)) / CALIBRATION_CALLS
                      for k, v in samples.items()}

    def _hook_oracle_panels(self):
        """Count panels kept and evaluated per family in the oracle integrator.

        These are private helpers of bumpscatter.oracle.  If a later version
        drops them, the panel metrics read 0 and the hook is listed in
        missing_hooks.
        """
        oracle = next(m for m in self.modules if m.__name__.endswith(".oracle"))
        tracer = self
        clock = time.perf_counter

        def counting(fn):
            def wrapper(*args, **kwargs):
                tracer.current["oracle.panels_evaluated"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def per_family(fn):
            def wrapper(*args, **kwargs):
                label = args[4] if len(args) > 4 else kwargs.get("what", "")
                family = _FAMILY_OF_LABEL.get(label.split("[")[0].strip(), "other")
                t0 = clock()
                out = fn(*args, **kwargs)
                counts = tracer.current
                counts[f"oracle.integral_s_{family}"] += clock() - t0
                counts[f"oracle.integrals_{family}"] += 1
                counts[f"oracle.panels_{family}"] += out.panels
                counts["oracle.panels_kept"] += out.panels
                return out
            return wrapper

        for name, make in (("_eval_panel_2d", counting), ("_eval_panel_1d", counting),
                           ("_integrate_pair", per_family)):
            fn = getattr(oracle, name, None)
            if fn is None:
                self.missing_hooks.append(f"oracle.{name}")
                continue
            self._patched.append((oracle, name, fn))
            setattr(oracle, name, make(fn))


def layer_sum(counts: Counter, layer: str, suffix: str) -> float:
    """Sum of per-function counters ``<layer>.<function>.<suffix>``."""
    prefix = layer + "."
    tail = "." + suffix
    return sum(v for k, v in counts.items() if k.startswith(prefix) and k.endswith(tail)
               and k.count(".") == 2)
