"""Per-layer spans for the traced benchmark run, recorded from outside ucont.

The tracer wraps public ucont functions and the library entry points that
ucont calls by attribute (``sympy.lambdify``, ``sympy.simplify`` and the
``numpy.fft`` transforms).  Each wrapper is installed wherever a caller
looks the name up: on the defining module, on every ``ucont`` module that
imported the name, and on the class for methods.  Nothing inside ucont is
edited, so private helpers can change freely without breaking the trace.

Spans are kept in memory, one stack per thread (``carleman_sweep`` runs the
sides on a thread pool), and summarised when the pass ends.  A span's self
time is its duration minus the durations of its direct children on the
same thread.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# numpy.fft entry points that transform data (frequency helpers excluded)
FFT_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                  "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft",
                  "ihfft")

SIMPLIFY_PARENT = "operators.coeff_is_zero"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_time: float = 0.0
    count: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counter=None):
        """Return ``fn`` wrapped in a span called ``name`` (a string, or a
        callable of the current stack giving the name).  ``counter`` maps
        (args, kwargs, result) to a dict of counts stored on the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name(stack) if callable(name) else name,
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_time += span.end - span.start
                with tracer._lock:
                    tracer.spans.append(span)
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, counter=None):
        """Wrap ``module.attr`` and every ucont-module global bound to it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, counter)
        self._set(module, attr, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or mod is None or not (
                    mod_name == "ucont" or mod_name.startswith("ucont.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr, name, counter=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name,
                                                       counter)))
        else:
            self._set(cls, attr, self.wrap(raw, name, counter))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _arg(fn, name):
    """Counter helper: the bound value of parameter ``name`` of ``fn``."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


def install(tracer: Tracer) -> None:
    """Install every layer wrapper on the imported ucont package."""
    import numpy as np
    import sympy
    import ucont.analysis as analysis
    import ucont.carleman as carleman
    import ucont.coefficients as coefficients
    import ucont.diagnostics as diagnostics
    import ucont.evolution as evolution
    import ucont.experiments as experiments
    import ucont.grids as grids
    import ucont.operators as operators

    def simplify_name(stack):
        inside = any(s.name == SIMPLIFY_PARENT for s in stack)
        return "operators.simplify" if inside else "sympy.simplify.other"

    def settled(args, kwargs, result):
        return {"settled": int(result == 0)}

    tracer.patch_function(sympy, "simplify", simplify_name, settled)
    tracer.patch_function(sympy, "lambdify", "expressions.lambdify")

    def fft_points(args, kwargs, result):
        return {"points": int(np.size(args[0] if args else kwargs["a"]))}
    for attr in FFT_TRANSFORMS:
        tracer.patch_function(np.fft, attr, "grids.fft", fft_points)

    ops = operators.ConjugatedGridOps
    tracer.patch_method(ops, "build", "operators.build")
    tracer.patch_method(ops, "apply_S", "operators.apply")
    tracer.patch_method(ops, "apply_A", "operators.apply")
    tracer.patch_method(operators.DiffOperator, "compose", "operators.compose")
    tracer.patch_function(operators, "coeff_is_zero", "operators.coeff_is_zero")
    tracer.patch_function(operators, "probe_max_abs", "operators.probe")
    tracer.patch_function(operators, "t_decomposition_terms",
                          "operators.t_terms")

    tracer.patch_function(grids, "check_resolved", "grids.check_resolved")
    tracer.patch_function(grids, "band_limited_noise", "grids.noise")

    tracer.patch_function(carleman, "make_test_function",
                          "carleman.test_function")
    tracer.patch_function(carleman, "carleman_sides_cubic", "carleman.sides")
    tracer.patch_function(carleman, "carleman_sides_translated",
                          "carleman.sides")

    tracer.patch_function(coefficients, "ellipticity_bounds",
                          "coefficients.bounds")
    tracer.patch_function(coefficients, "decay_smallness",
                          "coefficients.bounds")
    tracer.patch_method(coefficients.CoefficientField, "m1_norm",
                        "coefficients.bounds")

    steps_of = _arg(evolution.propagate, "steps")
    tracer.patch_function(
        evolution, "propagate", "evolution.propagate",
        lambda args, kwargs, result: {"steps": int(steps_of(args, kwargs))})
    ckpt_path = _arg(evolution.write_checkpoint, "path")
    tracer.patch_function(
        evolution, "write_checkpoint", "evolution.checkpoint",
        lambda args, kwargs, result: {
            "bytes": os.path.getsize(ckpt_path(args, kwargs))})

    tracer.patch_function(diagnostics, "weighted_norm",
                          "diagnostics.weighted_norm")
    tracer.patch_function(diagnostics, "logconvexity_check",
                          "diagnostics.logconvexity")
    tracer.patch_function(diagnostics, "annulus_mass_profile",
                          "diagnostics.annulus")

    tracer.patch_function(analysis, "poincare_weighted_check",
                          "analysis.poincare")

    tracer.patch_function(experiments, "run", "experiments.run")
    csv_path = _arg(experiments.write_csv, "path")
    tracer.patch_function(
        experiments, "write_csv", "experiments.csv",
        lambda args, kwargs, result: {
            "bytes": os.path.getsize(csv_path(args, kwargs))})


# metric name -> (span name, what): 'calls', 'self_s' or a count key
LAYER_METRICS = {
    "operators.build.calls": ("operators.build", "calls"),
    "operators.build.self_s": ("operators.build", "self_s"),
    "operators.apply.calls": ("operators.apply", "calls"),
    "operators.apply.self_s": ("operators.apply", "self_s"),
    "operators.coeff_is_zero.calls": ("operators.coeff_is_zero", "calls"),
    "operators.coeff_is_zero.self_s": ("operators.coeff_is_zero", "self_s"),
    "operators.simplify.calls": ("operators.simplify", "calls"),
    "operators.simplify.settled": ("operators.simplify", "settled"),
    "operators.simplify.self_s": ("operators.simplify", "self_s"),
    "operators.probe.calls": ("operators.probe", "calls"),
    "operators.probe.self_s": ("operators.probe", "self_s"),
    "operators.compose.calls": ("operators.compose", "calls"),
    "operators.compose.self_s": ("operators.compose", "self_s"),
    "operators.t_terms.self_s": ("operators.t_terms", "self_s"),
    "expressions.lambdify.calls": ("expressions.lambdify", "calls"),
    "expressions.lambdify.self_s": ("expressions.lambdify", "self_s"),
    "grids.fft.calls": ("grids.fft", "calls"),
    "grids.fft.points": ("grids.fft", "points"),
    "grids.fft.self_s": ("grids.fft", "self_s"),
    "grids.check_resolved.calls": ("grids.check_resolved", "calls"),
    "grids.check_resolved.self_s": ("grids.check_resolved", "self_s"),
    "grids.noise.calls": ("grids.noise", "calls"),
    "grids.noise.self_s": ("grids.noise", "self_s"),
    "carleman.test_function.calls": ("carleman.test_function", "calls"),
    "carleman.test_function.self_s": ("carleman.test_function", "self_s"),
    "carleman.sides.calls": ("carleman.sides", "calls"),
    "carleman.sides.self_s": ("carleman.sides", "self_s"),
    "coefficients.bounds.calls": ("coefficients.bounds", "calls"),
    "coefficients.bounds.self_s": ("coefficients.bounds", "self_s"),
    "evolution.propagate.calls": ("evolution.propagate", "calls"),
    "evolution.propagate.self_s": ("evolution.propagate", "self_s"),
    "evolution.steps": ("evolution.propagate", "steps"),
    "evolution.checkpoint.bytes": ("evolution.checkpoint", "bytes"),
    "evolution.checkpoint.self_s": ("evolution.checkpoint", "self_s"),
    "diagnostics.weighted_norm.calls": ("diagnostics.weighted_norm", "calls"),
    "diagnostics.weighted_norm.self_s": ("diagnostics.weighted_norm",
                                         "self_s"),
    "diagnostics.logconvexity.self_s": ("diagnostics.logconvexity", "self_s"),
    "diagnostics.annulus.self_s": ("diagnostics.annulus", "self_s"),
    "analysis.poincare.calls": ("analysis.poincare", "calls"),
    "analysis.poincare.self_s": ("analysis.poincare", "self_s"),
    "experiments.run.calls": ("experiments.run", "calls"),
    "experiments.run.self_s": ("experiments.run", "self_s"),
    "experiments.csv.bytes": ("experiments.csv", "bytes"),
}

# counts that repeat exactly between traced runs, whatever the seed (byte
# counts of CSV files depend on the digits of the seeded results)
EXACT_METRICS = tuple(m for m, (_, what) in LAYER_METRICS.items()
                      if what in ("calls", "points", "steps", "settled"))


def summarise(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of one traced pass (``LAYER_METRICS`` keys)."""
    agg: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (s.end - s.start) - s.child_time
        for key, val in s.count.items():
            entry[key] = entry.get(key, 0) + val
    return {metric: agg.get(span, {}).get(what, 0)
            for metric, (span, what) in LAYER_METRICS.items()}
