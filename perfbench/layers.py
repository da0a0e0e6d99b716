"""Per-layer spans for latsamp, recorded from outside the package.

``install()`` replaces each traced callable with a timing wrapper in every
``latsamp`` module that binds it: ``from .x import y`` gives each importing
module its own binding, so replacing only the defining module would miss
calls made through the copies.  Methods are replaced once, on their class.

Each call opens a span.  Spans nest on a stack, so a layer's self time is its
duration minus the durations of the traced calls made inside it.  Alongside
time, each layer records a work count taken from its arguments or result
(panels built, points evaluated, solver iterations).  Statistics are kept in
memory, aggregated per layer; nothing is written until the caller asks.

The benchmark runs latsamp serially (``LATSAMP_THREADS`` unset), so one stack
serves the whole process.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (owner, attribute, time stat, work counters).  The owner is a module, or a
# module-level class for methods.  "self_s" is reported for leaf-like layers
# whose own code is the cost; "total_s" for orchestrating layers whose cost
# is their children.
LAYERS = [
    ("model", "build_cache", "self_s", ("panels",)),
    ("model", "ensure_window_resolution", None, ("refines",)),
    ("model.DenseGridCache", "antiderivative", "self_s", ("points",)),
    ("trigpoly.TrigPoly", "at", "self_s", ("terms",)),
    ("trigpoly", "subtract_poly", "total_s", ()),
    ("trigpoly", "fourier_coefficients", "self_s", ("terms",)),
    ("trigpoly.TrigPoly", "on_uniform_grid", "self_s", ()),
    ("trigpoly", "analyze", "self_s", ()),
    ("steklov", "steklov_values", "self_s", ("points",)),
    ("steklov", "steklov_chain", "total_s", ()),
    ("steklov", "i_minus_a_pow", "total_s", ()),
    ("steklov", "i_minus_a_pow_at", "total_s", ()),
    ("norms", "norm", "self_s", ()),
    ("norms", "poly_norm", "self_s", ()),
    ("norms", "discrete_seminorm", "self_s", ()),
    ("norms", "weight_cell_integrals", "self_s", ("cells",)),
    ("norms", "luxemburg", "self_s", ("modular_evals",)),
    ("smoothness", "semidiscrete_modulus", "total_s", ()),
    ("operators", "approx_error", "total_s", ()),
    ("bestapprox", "best_approx", "total_s", ()),
    ("bestapprox", "besov_sum", "total_s", ()),
    ("bestapprox", "one_sided_best", "total_s", ("duality_gap_max",)),
    ("bestapprox", "linprog", "self_s", ("nit", "nonoptimal")),
    ("bestapprox", "minimize_scalar", "self_s", ("nfev",)),
    ("harness", "parallel_map", None, ("items",)),
]

#: Span wrapped around each function that ``parallel_map`` maps: one
#: ``(f, n)`` task of a study.
TASK = "harness.task"


def layer_name(owner: str, attr: str) -> str:
    return f"{owner}.{attr}"


def metric_names() -> list:
    """Per-layer metric names in report order, with their units."""
    out = []
    for owner, attr, time_stat, counters in LAYERS:
        name = layer_name(owner, attr)
        out.append((f"{name}.calls", "count"))
        if time_stat:
            out.append((f"{name}.{time_stat}", "s"))
        for c in counters:
            out.append((f"{name}.{c}", "1" if c.endswith("_max") else "count"))
    out.append((f"{TASK}.max_s", "s"))
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _CountingCallable:
    """Counts calls of a callable passed into a traced layer."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class Recorder:
    """Nested spans aggregated per layer name."""

    def __init__(self):
        self.stats = {}
        self.top_level_s = 0.0
        self._stack = []  # child-time accumulators of the open spans

    def _entry(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "max_s": 0.0}
        return entry

    def call(self, name, fn, args, kwargs):
        children = [0.0]
        self._stack.append(children)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            else:
                self.top_level_s += duration
            entry = self._entry(name)
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children[0]
            entry["max_s"] = max(entry["max_s"], duration)

    def count(self, name, counter, amount):
        entry = self._entry(name)
        if counter.endswith("_max"):
            entry[counter] = max(entry.get(counter, 0.0), float(amount))
        else:
            entry[counter] = entry.get(counter, 0) + int(amount)

    def snapshot(self) -> dict:
        """Every per-layer metric of :func:`metric_names`, zero if unused."""
        out = {}
        for metric, _unit in metric_names():
            layer, stat = metric.rsplit(".", 1)
            out[metric] = self.stats.get(layer, {}).get(stat, 0)
        return out


def _make_wrapper(rec: Recorder, name: str, fn):
    """Timing wrapper for one layer, with its work count."""

    if name == "norms.luxemburg":
        def wrapper(*args, **kwargs):
            modular = _CountingCallable(_arg(args, kwargs, 0, "modular"))
            rest = args[1:]
            kw = {k: v for k, v in kwargs.items() if k != "modular"}
            try:
                return rec.call(name, fn, (modular,) + rest, kw)
            finally:
                rec.count(name, "modular_evals", modular.calls)
    elif name == "harness.parallel_map":
        def wrapper(*args, **kwargs):
            task = _arg(args, kwargs, 0, "fn")
            items = list(_arg(args, kwargs, 1, "items"))
            rec.count(name, "items", len(items))

            def timed_task(item):
                return rec.call(TASK, task, (item,), {})

            return rec.call(name, fn, (timed_task, items), {})
    else:
        work = _WORK.get(name)

        def wrapper(*args, **kwargs):
            result = rec.call(name, fn, args, kwargs)
            if work is not None:
                for counter, amount in work(args, kwargs, result).items():
                    rec.count(name, counter, amount)
            return result

    return functools.update_wrapper(wrapper, fn)


def _fourier_terms(args, kwargs, result):
    from latsamp.model import DenseGridCache
    source = _arg(args, kwargs, 0, "source")
    kmax = _arg(args, kwargs, 1, "kmax")
    # only cache sources run the direct sum; polynomials are copied and bare
    # functions are cached first (that cache build is its own span)
    if isinstance(source, DenseGridCache):
        return {"terms": (2 * int(kmax) + 1) * source.gl_values.size}
    return {}


_WORK = {
    "model.build_cache": lambda a, k, r: {"panels": r.panel_count},
    "model.ensure_window_resolution":
        lambda a, k, r: {"refines": int(r is not _arg(a, k, 0, "cache"))},
    "model.DenseGridCache.antiderivative":
        lambda a, k, r: {"points": np.size(_arg(a, k, 1, "y"))},
    "trigpoly.TrigPoly.at":
        lambda a, k, r: {"terms": np.size(_arg(a, k, 1, "x")) * a[0].coeffs.size},
    "trigpoly.fourier_coefficients": _fourier_terms,
    "steklov.steklov_values":
        lambda a, k, r: {"points": np.size(_arg(a, k, 2, "points"))},
    "norms.weight_cell_integrals":
        lambda a, k, r: {"cells": np.size(_arg(a, k, 0, "lefts"))},
    "bestapprox.one_sided_best":
        lambda a, k, r: {"duality_gap_max": np.nan_to_num(r.duality_gap)},
    "bestapprox.linprog":
        lambda a, k, r: {"nit": r.nit, "nonoptimal": int(r.status != 0)},
    "bestapprox.minimize_scalar": lambda a, k, r: {"nfev": r.nfev},
}


def _resolve(owner: str):
    """The module or class an ``owner`` string names inside latsamp."""
    parts = owner.split(".")
    obj = sys.modules[f"latsamp.{parts[0]}"]
    for part in parts[1:]:
        obj = getattr(obj, part)
    return obj


def latsamp_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "latsamp" or name.startswith("latsamp."))]


def targets() -> dict:
    """The callable each layer of :data:`LAYERS` names, before wrapping."""
    import latsamp  # noqa: F401  (loads every traced module)
    return {layer_name(owner, attr): getattr(_resolve(owner), attr)
            for owner, attr, _time_stat, _counters in LAYERS}


def install() -> tuple:
    """Wrap every layer of :data:`LAYERS`; return ``(recorder, originals)``.

    ``originals`` maps each layer name to the callable it replaced, so a
    caller can check that no module still binds an unwrapped copy.
    """
    rec = Recorder()
    originals = targets()
    modules = latsamp_modules()
    for owner, attr, _time_stat, _counters in LAYERS:
        name = layer_name(owner, attr)
        fn = originals[name]
        wrapper = _make_wrapper(rec, name, fn)
        target = _resolve(owner)
        if isinstance(target, type):
            setattr(target, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return rec, originals


def unwrapped_bindings(originals: dict) -> list:
    """``module.key`` bindings that still hold an original callable."""
    left = []
    ids = {id(fn): name for name, fn in originals.items()}
    for module in latsamp_modules():
        for key, value in vars(module).items():
            if id(value) in ids:
                left.append(f"{module.__name__}.{key}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("latsamp"):
                for key, attr in vars(value).items():
                    if id(attr) in ids:
                        left.append(f"{value.__module__}.{value.__name__}.{key}")
    return sorted(set(left))
