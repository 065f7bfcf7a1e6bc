"""Span tracing of the nhfields package, applied from outside it.

A traced call records one span per call of a public nhfields function or
method: qualified name, layer (the defining module), start, end and the
index of the enclosing span.  Wrapping replaces every binding of a wrapped
object in the module dicts and class dicts of the package, so aliases made
by ``from .x import f`` are traced too; leaving the patch restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "nhfields"

# dunder methods that are part of the public behaviour of a class: the dual
# number arithmetic and callable models/forms
ARITHMETIC = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__call__",
})


@dataclass(frozen=True)
class Target:
    """One function to wrap, with its span name and layer."""

    fn: types.FunctionType
    name: str
    layer: str


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def inclusive_time(spans, names) -> float:
    """Wall time inside spans named in ``names``; a span nested in another
    span of the set is not counted again."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


# ---------------------------------------------------------------------------
# finding and patching bindings

def package_modules() -> list[types.ModuleType]:
    """The package and every submodule, imported."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _own(obj) -> bool:
    return (getattr(obj, "__module__", None) or "").startswith(PACKAGE)


def package_classes(modules) -> list[type]:
    seen = {}
    for mod in modules:
        for obj in vars(mod).values():
            if isinstance(obj, type) and _own(obj):
                seen[id(obj)] = obj
    return list(seen.values())


def _unwrap_raw(raw):
    """The plain function behind a class-dict entry, or None."""
    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    return fn if isinstance(fn, types.FunctionType) else None


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def public_targets(modules) -> list[Target]:
    """Every public function and method defined in the package, plus the
    arithmetic dunders.  Properties are left alone."""
    found = {}
    for mod in modules:
        for obj in vars(mod).values():
            if (isinstance(obj, types.FunctionType) and _own(obj)
                    and not obj.__name__.startswith(("_", "<"))):
                found[id(obj)] = obj
    for cls in package_classes(modules):
        for raw in vars(cls).values():
            fn = _unwrap_raw(raw)
            if fn is None or not _own(fn):
                continue
            if not fn.__name__.startswith("_") or fn.__name__ in ARITHMETIC:
                found[id(fn)] = fn
    return [Target(fn, f"{_layer(fn)}.{fn.__qualname__}", _layer(fn))
            for fn in found.values()]


def named_target(module: str, name: str) -> Target:
    """A single function looked up by module and attribute name."""
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    fn = getattr(mod, name)
    return Target(fn, f"{module}.{fn.__qualname__}", _layer(fn))


class NamespacePatch:
    """Context manager replacing every binding of the targets.

    ``wrap(target)`` builds the replacement for one target; all bindings of
    the same function get the same replacement.  On exit the original
    objects (including staticmethod/classmethod wrappers) are put back.
    """

    def __init__(self, modules, targets, wrap: Callable[[Target], Callable]):
        self.modules = list(modules)
        self.targets = {id(t.fn): t for t in targets}
        self.wrap = wrap
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        repl = {key: self.wrap(t) for key, t in self.targets.items()}
        for mod in self.modules:
            for key, val in list(vars(mod).items()):
                t = self.targets.get(id(val))
                if t is not None and t.fn is val:
                    self.saved.append((mod, key, val))
                    setattr(mod, key, repl[id(val)])
        for cls in package_classes(self.modules):
            for key, raw in list(vars(cls).items()):
                fn = _unwrap_raw(raw)
                t = self.targets.get(id(fn))
                if fn is None or t is None or t.fn is not fn:
                    continue
                new = repl[id(fn)]
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(new)
                self.saved.append((cls, key, raw))
                setattr(cls, key, new)
        return self

    def __exit__(self, *exc):
        while self.saved:
            ns, key, raw = self.saved.pop()
            setattr(ns, key, raw)
        return False


# ---------------------------------------------------------------------------
# span recording

class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self, dual_types=()):
        self._records: list[list] = []
        self._stack: list[int] = []
        self._dual_types = tuple(dual_types)
        self._last_dual = [None]

    def reset(self):
        self._records.clear()
        self._stack.clear()
        self._last_dual[0] = None

    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self._records]

    def _annotator(self, target: Target):
        if target.layer == "autodiff" and self._dual_types:
            last = self._last_dual
            duals = self._dual_types

            def dual_info(res):
                # a result handed up unchanged from a child call (det, and
                # division built on multiplication) is not a new operation
                if not isinstance(res, duals):
                    return None
                fresh = res is not last[0]
                last[0] = res
                hess = getattr(res, "hess", None)
                return (type(res).__name__, hess.nbytes if hess is not None else 0,
                        fresh)
            return dual_info
        if target.name == "lagrangian.derivative_bundle_arrays":
            return lambda bundle: int(np.size(bundle.L))
        return None

    def wrap(self, target: Target) -> Callable:
        records, stack = self._records, self._stack
        name, layer, fn = target.name, target.layer, target.fn
        annotate = self._annotator(target)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(records))
            records.append(rec)
            rec[2] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if annotate is not None:
                rec[5] = annotate(res)
            return res

        return traced


def timer_wrap(acc: list) -> Callable[[Target], Callable]:
    """Wrapper factory adding each call's wall time to ``acc[0]``."""

    def wrap(target: Target):
        fn = target.fn
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += clock() - t0

        return timed

    return wrap


# ---------------------------------------------------------------------------
# per-layer metrics of one traced task call

DIAGNOSTICS = ("cauchy.energy", "cauchy.holonomy_defect", "cauchy.tilde_eta_contract")
OMEGA = ("lagrangian.omega_eval_batch", "lagrangian.omega_L_eval", "lagrangian.omega_form")
NEWTON = ("cli.sample_constraint_point", "cli.build_initial_state")
LAYERS = ("autodiff", "lagrangian", "cauchy", "projector", "constraint", "ddw",
          "exterior", "fluid", "jet", "cli")


def layer_metrics(spans, stages_needed: int) -> dict:
    """Per-layer counts and times of one traced call.

    ``stages_needed`` is the number of field evaluations the integrator
    needs (steps times stages); the ratio to the evaluations made is
    ``cauchy.sode_useful_frac``.  A layer the call never reaches reads 0.
    """
    st = self_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    ad = {"Dual2": [0, 0.0, 0], "Dual": [0, 0.0, 0]}  # ops, self s, hess bytes
    by_name: dict[str, list[int]] = {}
    for i, (s, t) in enumerate(zip(spans, st)):
        self_s[s.layer] = self_s.get(s.layer, 0.0) + t
        calls[s.layer] = calls.get(s.layer, 0) + 1
        by_name.setdefault(s.name, []).append(i)
        if s.layer == "autodiff" and s.info is not None:
            kind, hess_bytes, fresh = s.info
            ad[kind][1] += t
            if fresh:
                ad[kind][0] += 1
                ad[kind][2] += hess_bytes

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    sode = named("cauchy.sode_vector_field")
    sode_ms = [s.duration * 1e3 for s in sode]
    bundles = named("lagrangian.derivative_bundle_arrays")
    return {
        "autodiff.dual2_ops": ad["Dual2"][0],
        "autodiff.dual2_s": ad["Dual2"][1],
        "autodiff.hess_mb": ad["Dual2"][2] / 1e6,
        "autodiff.dual_ops": ad["Dual"][0],
        "autodiff.dual_s": ad["Dual"][1],
        "lagrangian.bundle_calls": len(bundles),
        "lagrangian.bundle_points": sum(s.info for s in bundles),
        "lagrangian.bundle_s": inclusive_time(spans, ["lagrangian.derivative_bundle_arrays"]),
        "lagrangian.self_s": self_s["lagrangian"],
        "lagrangian.omega_eval_s": inclusive_time(spans, OMEGA),
        "cauchy.sode_calls": len(sode),
        "cauchy.sode_useful_frac": stages_needed / len(sode) if sode else 0.0,
        "cauchy.sode_self_s": sum(st[i] for i in by_name.get("cauchy.sode_vector_field", [])),
        "cauchy.sode_ms_p50": float(np.percentile(sode_ms, 50)) if sode else 0.0,
        "cauchy.sode_ms_p90": float(np.percentile(sode_ms, 90)) if sode else 0.0,
        "cauchy.grid_derivative_calls": len(named("cauchy.grid_derivative")),
        "cauchy.grid_derivative_s": inclusive_time(spans, ["cauchy.grid_derivative"]),
        "cauchy.diagnostics_s": inclusive_time(spans, DIAGNOSTICS),
        "projector.zeta_calls": len(named("projector.solve_zeta_flat")),
        "projector.zeta_s": inclusive_time(spans, ["projector.solve_zeta_flat"]),
        "projector.self_s": self_s["projector"],
        "constraint.calls": calls["constraint"],
        "constraint.self_s": self_s["constraint"],
        "ddw.calls": calls["ddw"],
        "ddw.self_s": self_s["ddw"],
        "exterior.calls": calls["exterior"],
        "exterior.self_s": self_s["exterior"],
        "fluid.self_s": self_s["fluid"],
        "jet.self_s": self_s["jet"],
        "cli.self_s": self_s["cli"],
        "cli.newton_s": inclusive_time(spans, NEWTON),
    }
