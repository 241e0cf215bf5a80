"""Spans around calls into e8jac's layers, for the traced benchmark pass.

The tracer wraps the boundary functions named in ``SPANS`` and rebinds every
reference to them inside the loaded ``e8jac`` modules, including names that
other modules bound at import time (``from .e8 import orbit_array``) and the
registry's ``builder=`` references. Each call records a span: its name,
start, end and parent span. Spans stay in memory until the pass ends.
Counters are bumped at the same boundaries.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path)
SPANS = {
    "e8.orbit_array": ("e8", "orbit_array"),
    "e8.batch_reduce": ("e8", "_batch_reduce"),
    "e8.coset_min_norm": ("e8", "coset_min_norm"),
    "e8.max_coset_min_norm": ("e8", "max_coset_min_norm"),
    "e8.shell": ("e8", "shell"),
    "invring.inv_mul": ("invring", "inv_mul"),
    "jacobi.validate": ("jacobi", "JacobiQExpansion.__init__"),
    "jacobi.jf_mul": ("jacobi", "jf_mul"),
    "jacobi.jf_scale": ("jacobi", "jf_scale"),
    "jacobi.jf_div_modular": ("jacobi", "jf_div_modular"),
    "jacobi.heat": ("jacobi", "heat"),
    "jacobi.hecke_t_minus": ("jacobi", "hecke_t_minus"),
    "jacobi.check_quasi_periodicity": ("jacobi", "check_quasi_periodicity"),
    "catalog.build": ("catalog", "build"),
    "catalog.build_phi16_4": ("catalog", "build_phi16_4"),
    "catalog.verify_free_module": ("catalog", "verify_free_module"),
    "catalog.holomorphic_subspace": ("catalog", "holomorphic_subspace"),
    "linalg.rref": ("linalg", "rref"),
    "qseries.eisenstein": ("qseries", "eisenstein"),
    "qseries.delta": ("qseries", "delta"),
    "qseries.series_mul": ("qseries", "series_mul"),
    "cli.main": ("cli", "main"),
}

MODULES = ("e8", "invring", "jacobi", "catalog", "linalg", "qseries", "cli")

# Spans that must fire at least once on each workload. A span missing here
# means a rebinding was missed (or the program no longer calls that layer),
# and the traced run fails instead of reporting a silent zero.
REQUIRED = {
    "verify_core": (
        "e8.orbit_array", "e8.batch_reduce", "e8.coset_min_norm",
        "e8.max_coset_min_norm", "e8.shell", "invring.inv_mul",
        "jacobi.validate", "jacobi.jf_mul", "jacobi.jf_scale",
        "jacobi.jf_div_modular", "jacobi.heat", "jacobi.hecke_t_minus",
        "catalog.build", "catalog.build_phi16_4",
        "catalog.verify_free_module", "catalog.holomorphic_subspace",
        "linalg.rref", "qseries.eisenstein", "qseries.delta",
        "qseries.series_mul", "cli.main",
    ),
    "expand_deep": (
        "e8.orbit_array", "e8.batch_reduce", "invring.inv_mul",
        "jacobi.validate", "catalog.build", "cli.main",
    ),
    "qp_index2": (
        "e8.orbit_array", "jacobi.check_quasi_periodicity", "catalog.build",
    ),
}


class Tracer:
    """Records spans and counters. ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; ``count(tracer, args, kwargs, result)``
        runs inside the span after fn returns."""
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, kwargs, result)
                return result
            finally:
                self.ends[idx] = clock()
                self._stack.pop()

        traced.__wrapped_span__ = name
        return traced

    def first(self, family: str, key) -> bool:
        """True the first time ``key`` is seen in ``family``."""
        seen = self.seen[family]
        if key in seen:
            return False
        seen.add(key)
        return True

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def span_records(self) -> list[list]:
        return [
            [n, p, s, e]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]


# -- counters ---------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_orbit_array(tr, args, kwargs, result):
    tr.counters["e8.orbit_array.calls"] += 1
    if tr.first("orbit", _arg(args, kwargs, 0, "m")):
        tr.counters["e8.orbit_array.misses"] += 1
        tr.counters["e8.orbit_array.rows_closed"] += len(result)


def _count_batch_reduce(tr, args, kwargs, result):
    tr.counters["e8.batch_reduce.rows"] += len(result)


def _count_coset_min_norm(tr, args, kwargs, result):
    tr.counters["e8.coset_min_norm.calls"] += 1


def _count_max_coset_min_norm(tr, args, kwargs, result):
    t = _arg(args, kwargs, 0, "t")
    tr.counters["e8.max_coset_min_norm.cosets"] += t**8 if t > 1 else 0


def _count_inv_mul(tr, args, kwargs, result):
    tr.counters["invring.inv_mul.calls"] += 1
    x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
    for m1 in x.terms:
        for m2 in y.terms:
            tr.counters["invring.pair.calls"] += 1
            key = (m1, m2) if m1.v.d <= m2.v.d else (m2, m1)
            if tr.first("pair", key):
                tr.counters["invring.pair.misses"] += 1


def _count_validate(tr, args, kwargs, result):
    tr.counters["jacobi.validate.calls"] += 1


def _count_build(tr, args, kwargs, result):
    tr.counters["catalog.build.calls"] += 1
    if tr.first("build", (_arg(args, kwargs, 0, "name"), result.order)):
        tr.counters["catalog.build.misses"] += 1


def _count_rref(tr, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    tr.counters["linalg.rref.calls"] += 1
    tr.counters["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


COUNTERS = {
    "e8.orbit_array": _count_orbit_array,
    "e8.batch_reduce": _count_batch_reduce,
    "e8.coset_min_norm": _count_coset_min_norm,
    "e8.max_coset_min_norm": _count_max_coset_min_norm,
    "invring.inv_mul": _count_inv_mul,
    "jacobi.validate": _count_validate,
    "catalog.build": _count_build,
    "linalg.rref": _count_rref,
}

COUNT_METRICS = (
    "e8.orbit_array.calls", "e8.orbit_array.misses",
    "e8.orbit_array.rows_closed", "e8.batch_reduce.rows",
    "e8.coset_min_norm.calls", "e8.max_coset_min_norm.cosets",
    "invring.inv_mul.calls", "invring.pair.misses",
    "jacobi.validate.calls", "catalog.build.calls", "catalog.build.misses",
    "linalg.rref.calls", "linalg.rref.cells",
)


# -- installation -----------------------------------------------------------


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every span target and rebind all references to it.

    Returns, per span, how many bindings were replaced. Every loaded module
    of the package is scanned for attributes that are the original function
    object, and registry entries whose builder is one are replaced.
    """
    for mod_name in MODULES:
        importlib.import_module(f"e8jac.{mod_name}")
    mods = {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "e8jac" or name.startswith("e8jac."))
    }
    rebound: dict[str, int] = {}
    originals = {}
    for span, (mod_name, path) in SPANS.items():
        mod = mods[f"e8jac.{mod_name}"]
        owner_path, _, attr = path.rpartition(".")
        owner = mod
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        wrapper = tracer.wrap(span, fn, COUNTERS.get(span))
        originals[id(fn)] = (span, fn, wrapper)
        rebound[span] = 0
        if owner is not mod:  # a method: the class attribute is the only binding
            setattr(owner, attr, wrapper)
            rebound[span] += 1
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                setattr(mod, attr, hit[2])
                rebound[hit[0]] += 1
    catalog = mods["e8jac.catalog"]
    for name, entry in list(catalog.REGISTRY.items()):
        hit = originals.get(id(entry.builder))
        if hit is not None and hit[1] is entry.builder:
            catalog.REGISTRY[name] = dataclasses.replace(entry, builder=hit[2])
            rebound[hit[0]] += 1
    return rebound


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-span self times, per-module self times, counters and ratios."""
    selfs = tracer.self_times()
    per_span: dict[str, float] = defaultdict(float)
    for name, s in zip(tracer.names, selfs):
        per_span[name] += s
    out: dict[str, float] = {}
    for span in SPANS:
        out[f"{span}.self_s"] = per_span.get(span, 0.0)
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(
            (v for k, v in per_span.items() if k.startswith(mod + ".")), 0.0)
    out["other.self_s"] = wall_s - sum(selfs)
    for key in COUNT_METRICS:
        out[key] = tracer.counters.get(key, 0)
    rows = out["e8.orbit_array.rows_closed"]
    t = out["e8.orbit_array.self_s"]
    out["e8.orbit_array.rows_per_s"] = rows / t if t > 0 else 0.0
    pairs = tracer.counters.get("invring.pair.calls", 0)
    out["invring.pair.hit_ratio"] = (
        1 - out["invring.pair.misses"] / pairs if pairs else 0.0)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s") and not metric.endswith("_per_s"):
        return "s"
    if metric.endswith("rows_per_s"):
        return "rows/s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
