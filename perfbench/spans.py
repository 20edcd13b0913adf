"""Spans around the calls into each module of socle_verify.

The tracer wraps public functions and methods from outside the program:
it swaps the wrapped object into every module namespace and class dict of
the package that holds the original, so aliases such as
`pipeline.verify_theorem` or `cli.sweep` are traced too.  Spans are
aggregated as they close (calls, self time, total time); self time is a
span's duration minus the durations of its direct child spans.

Invariants checked on every traced unit: each span closes in the order it
opened and starts no earlier than its parent, no self time is negative,
and the self times of all spans sum to the duration of the root span.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "socle_verify"

LAYERS = (
    "ffield",
    "linalg",
    "pgroup",
    "groupalgebra",
    "jennings",
    "automorphisms",
    "truncsym",
    "pipeline",
    "cli",
)

LINALG_FUNCS = (
    "matmul", "matvec", "rref", "det", "nullspace", "solve",
    "reduce_rows", "decode", "encode", "add", "sub", "mul",
)

FIELD_ARITH = (
    "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "inverse", "__truediv__", "__rtruediv__", "__pow__",
)

# (module, attribute path, span name); the span name starts with the layer
SPANS = tuple(
    [("ffield", "FieldSpec.element_from_code", "ffield.element_from_code")]
    + [("ffield", f"FieldElement.{m}", "ffield.FieldElement.arith") for m in FIELD_ARITH]
    + [("linalg", f"FieldOps.{f}", f"linalg.{f}") for f in LINALG_FUNCS]
    + [
        ("pgroup", "PcGroup.__init__", "pgroup.PcGroup"),
        ("pgroup", "PcGroup.group_automorphism", "pgroup.group_automorphism"),
        ("groupalgebra", "radical_filtration", "groupalgebra.radical_filtration"),
        ("groupalgebra", "GroupAlgebra.socle_vector", "groupalgebra.socle_vector"),
        ("groupalgebra", "GroupAlgebra.unit_inverse", "groupalgebra.unit_inverse"),
        ("groupalgebra", "GroupAlgebra.multiply_codes", "groupalgebra.multiply_codes"),
        ("groupalgebra", "GroupAlgebra.gr_coordinates", "groupalgebra.gr_coordinates"),
        ("groupalgebra", "GroupAlgebra.in_radical_power", "groupalgebra.in_radical_power"),
        ("jennings", "build_jennings_basis", "jennings.build_jennings_basis"),
        ("jennings", "JenningsBasis.socle_product", "jennings.socle_product"),
        ("jennings", "JenningsBasis.jq_dimension_check", "jennings.jq_dimension_check"),
        ("automorphisms", "AlgebraAutomorphism.__init__", "automorphisms.AlgebraAutomorphism"),
        ("automorphisms", "AlgebraAutomorphism.graded_action", "automorphisms.graded_action"),
        ("automorphisms", "AlgebraAutomorphism.socle_scalar", "automorphisms.socle_scalar"),
        ("automorphisms", "verify_theorem", "automorphisms.verify_theorem"),
        ("automorphisms", "random_inner", "automorphisms.random_inner"),
        ("automorphisms", "random_substitution", "automorphisms.random_substitution"),
        ("automorphisms", "parse_automorphism_specs", "automorphisms.parse_automorphism_specs"),
        ("truncsym", "TruncatedPolynomialRing.top_monomial_scalar", "truncsym.top_monomial_scalar"),
        ("truncsym", "TruncatedPolynomial.__mul__", "truncsym.TruncatedPolynomial.mul"),
        ("pipeline", "sweep", "pipeline.sweep"),
        ("pipeline", "run", "pipeline.run"),
        ("pipeline", "prepare", "pipeline.prepare"),
        ("pipeline", "gl_check", "pipeline.gl_check"),
        ("pipeline", "render_json", "pipeline.render_json"),
        ("cli", "main", "cli.main"),
    ]
)

# constructors counted without a span: their time stays with the caching
# function that calls them, and builds / calls gives the cache hit ratio
BUILDS = (
    ("groupalgebra", "RadicalFiltration.__init__", "groupalgebra.radical_filtration.builds"),
    ("jennings", "JenningsBasis.__init__", "jennings.build_jennings_basis.builds"),
)

ROOT = "bench.unit"
_FIELD_SPLIT = "linalg."
_DURATIONS_KEPT = {"automorphisms.AlgebraAutomorphism"}


class TraceError(AssertionError):
    """A span invariant failed."""


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.children: dict[tuple[str, str], int] = defaultdict(int)
        self.record: list[tuple] | None = None  # (id, parent id, name, start, end) when set
        self._stack: list[list] = []  # frames: [name, start, child time, id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id]
        stack.append(frame)
        frame[1] = start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if stack.pop() is not frame:
                raise TraceError(f"span {name} closed out of order")
            dur = end - start
            self_time = dur - frame[2]
            if self_time < -1e-9:
                raise TraceError(f"span {name} has negative self time {self_time}")
            st = self.stats[name]
            st[0] += 1
            st[1] += self_time
            st[2] += dur
            if name in _DURATIONS_KEPT:
                self.durations[name].append(dur)
            if parent is not None:
                if start < parent[1]:
                    raise TraceError(f"span {name} starts before its parent {parent[0]}")
                parent[2] += dur
                self.children[(parent[0], name)] += 1
            if self.record is not None:
                self.record.append((frame[3], parent[3] if parent else 0, name, start, end))

    def wrap(self, name: str, fn):
        tracer = self
        if name.startswith(_FIELD_SPLIT):
            gfp, gfq = f"{name}.gfp", f"{name}.gfq"
            extra = _LINALG_EXTRA.get(name)

            @functools.wraps(fn)
            def field_wrapper(ops, *args, **kwargs):
                label = gfp if ops.n == 1 else gfq
                if extra is not None:
                    tracer.counts[f"{label}.{extra[0]}"] += extra[1](ops, *args)
                return tracer.call(label, fn, (ops,) + args, kwargs)

            return field_wrapper

        if name == "automorphisms.AlgebraAutomorphism":

            @functools.wraps(fn)
            def auto_init(auto, *args, **kwargs):
                tracer.call(name, fn, (auto,) + args, kwargs)
                tracer.counts[f"automorphisms.pair_check.{auto.pair_check}"] += 1

            return auto_init

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def root(self, fn, *args, **kwargs):
        """Run fn under the root span; check that the self times add up."""
        if self._stack:
            raise TraceError("root span opened inside another span")
        before = {k: v[1] for k, v in self.stats.items()}
        before_root = self.stats[ROOT][2]
        result = self.call(ROOT, fn, args, kwargs)
        root_dur = self.stats[ROOT][2] - before_root
        self_sum = sum(v[1] - before.get(k, 0.0) for k, v in self.stats.items())
        if abs(self_sum - root_dur) > 1e-6 * max(root_dur, 1.0):
            raise TraceError(f"self times sum to {self_sum}, root span lasted {root_dur}")
        return result

    # -- installing into the package -------------------------------------------

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        modules.append(importlib.import_module(PACKAGE))
        owners = list(modules)
        for mod in modules:
            owners.extend(
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__.startswith(PACKAGE)
            )
        replacements: dict[int, tuple] = {}
        self.missing = []
        for module, path, name in SPANS + BUILDS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{path}")
                continue
            if id(fn) in replacements:
                continue
            is_build = (module, path, name) in BUILDS
            wrapped = self.counter(name, fn) if is_build else self.wrap(name, fn)
            replacements[id(fn)] = (fn, wrapped)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, key, value))
                    setattr(owner, key, hit[1])
        for owner in owners:
            for key, value in vars(owner).items():
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    raise TraceError(f"{owner.__name__}.{key} still holds an unwrapped target")

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def layer_calls(self, layer: str) -> int:
        return sum(v[0] for k, v in self.stats.items() if k.startswith(layer + "."))


def _mults(ops, a, b) -> int:
    """R*K*C*n^2 for an (R x K) @ (K x C) product over GF(p^n)."""
    rows, inner = np.shape(a)
    return rows * inner * np.shape(b)[-1] * ops.n * ops.n


def _cells(ops, m) -> int:
    return int(np.size(m))


_LINALG_EXTRA = {"linalg.matmul": ("mults", _mults), "linalg.rref": ("cells", _cells)}


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []

    def timed(span: str, *extra: tuple[str, str, str]) -> None:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
        out.extend((f"{span}.{stat}", unit, better) for stat, unit, better in extra)

    for name in dict.fromkeys(name for _, _, name in SPANS):
        if name.startswith(_FIELD_SPLIT):
            extra = _LINALG_EXTRA.get(name)
            for fld in ("gfp", "gfq"):
                more = [(extra[0], "count", "lower")] if extra else []
                timed(f"{name}.{fld}", *more)
        elif name == "automorphisms.AlgebraAutomorphism":
            timed(name, ("total_s", "s", "lower"), ("p50_s", "s", "lower"),
                  ("matmuls", "count", "lower"))
            out.append(("automorphisms.pair_check.full", "count", "lower"))
            out.append(("automorphisms.pair_check.sampled", "count", "lower"))
        elif name in ("groupalgebra.radical_filtration", "jennings.build_jennings_basis"):
            timed(name, ("builds", "count", "lower"), ("hit_ratio", "ratio", "higher"))
        elif name == "groupalgebra.unit_inverse":
            timed(name, ("matvecs", "count", "lower"))
        else:
            timed(name)
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("trace.units", "count", "higher"))
    return out


def per_layer_values(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-unit values of every per-layer metric except the trace.* ones."""
    values: dict[str, float] = {}
    for name, _, _ in per_layer_metric_names():
        span, _, stat = name.rpartition(".")
        if span == "trace":
            continue
        if stat == "calls":
            values[name] = tracer.calls(span) / units
        elif stat == "self_s":
            values[name] = tracer.stats[span][1] / units if span in tracer.stats else 0.0
        elif stat == "total_s":
            values[name] = tracer.stats[span][2] / units if span in tracer.stats else 0.0
        elif stat == "p50_s":
            durs = tracer.durations.get(span)
            values[name] = statistics.median(durs) if durs else 0.0
        elif stat == "hit_ratio":
            calls = tracer.calls(span)
            values[name] = (calls - tracer.counts[f"{span}.builds"]) / calls if calls else 0.0
        elif stat in ("matvecs", "matmuls"):  # kernel calls made directly inside the span
            kernel = f"linalg.{stat[:-1]}"
            kids = sum(tracer.children[(span, f"{kernel}.{f}")] for f in ("gfp", "gfq"))
            values[name] = kids / units
        else:  # builds, mults, cells, pair_check modes
            values[name] = tracer.counts[name] / units
    return values


def selftest() -> None:
    """Check the span invariants on a synthetic call tree with known shape."""
    tracer = Tracer()
    tracer.record = []

    def spin(seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def leaf():
        spin(0.0005)

    leaf_w = tracer.wrap("t.leaf", leaf)

    def mid():
        spin(0.0002)
        leaf_w()
        leaf_w()

    mid_w = tracer.wrap("t.mid", mid)

    def top():
        mid_w()
        spin(0.0002)
        mid_w()

    tracer.root(tracer.wrap("t.top", top))
    expected = {ROOT: 1, "t.top": 1, "t.mid": 2, "t.leaf": 4}
    got = {k: v[0] for k, v in tracer.stats.items()}
    if got != expected:
        raise TraceError(f"self-test call counts {got} != {expected}")
    by_id = {sid: (parent, name, start, end) for sid, parent, name, start, end in tracer.record}
    for parent, name, start, end in by_id.values():
        if parent:
            _, pname, pstart, pend = by_id[parent]
            if not (pstart <= start <= end <= pend):
                raise TraceError(f"self-test span {name} is not nested in {pname}")
    if any(v[1] < 0 for v in tracer.stats.values()):
        raise TraceError("self-test produced a negative self time")
    if tracer.stats["t.leaf"][1] < 4 * 0.0005:
        raise TraceError("self-test leaf self time is shorter than its busy wait")
