"""Traced mode: per-layer spans recorded from outside the program.

The public functions below are wrapped in every ncgauss module namespace that
holds them, and numpy.linalg's dense kernels are wrapped in place. Each call
records a span (name, start, end, parent) in flat arrays kept in memory; they
are written out when the run ends. Self time is a span's duration minus the
durations of its direct children. Names the program no longer defines read
as zero calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "cli": ("main",),
    "scan": ("scan_grid", "emit_fig2_data", "emit_fig1_data", "eval_point", "numeric_invariants",
             "records_to_csv", "records_to_json", "fig1_to_csv", "fig1_to_json"),
    "family": ("build_covariance", "family_form", "closed_form_invariants"),
    "phase_space": ("build_darboux_map", "build_planar_form"),
    "separability": ("classify", "partial_transpose_map", "partial_transpose_covariance",
                     "primed_form"),
    "core": ("nc_williamson_spectrum", "validate_covariance", "validate_skew_form"),
}
LINALG = ("eigh", "eigvalsh", "solve", "det", "inv")
FALLBACK = "family.closed_form_invariants"
UNTRACED_SHARE = 1.0 / 3.0  # of the run measured untraced, for the overhead figure


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            out += [(f"{module}.{fn}.calls_per_point", "count"),
                    (f"{module}.{fn}.self_us_per_point", "us")]
    out += [(f"{FALLBACK}.fallback_frac", "fraction"), ("linalg.calls_per_point", "count"),
            ("linalg.self_us_per_point", "us"), ("trace.overhead_pct", "%")]
    return out


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self, fallback_error: type):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.raised = array("b")  # 1: any exception, 2: the closed-form fallback error
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._fallback_error = fallback_error

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, raised = (self.name_of, self.start, self.end, self.parent,
                                               self.raised)
        stack, clock, fallback_error = self._stack, time.perf_counter, self._fallback_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[idx] = 2 if isinstance(exc, fallback_error) else 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for module, functions in LAYERS.items():
            home = sys.modules.get(f"{package.__name__}.{module}")
            for fn in functions:
                original = getattr(home, fn, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for fn in LINALG:
            self._patch(np.linalg, fn, self._wrap(f"linalg.{fn}", getattr(np.linalg, fn)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name_of, np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int64),
                 raised=np.frombuffer(self.raised, np.int8))

    def layer_metrics(self, points: int) -> dict[str, float]:
        """Per-point calls and self time of every span name, from the stored spans."""
        name_of = np.frombuffer(self.name_of, np.uint16).astype(np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, np.int64)
        child = parent >= 0
        children = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        own = duration - children
        count = len(self.names)
        calls = np.bincount(name_of, minlength=count)
        self_s = np.bincount(name_of, weights=own, minlength=count)
        fallbacks = np.bincount(name_of[np.frombuffer(self.raised, np.int8) == 2], minlength=count)
        index = {name: k for k, name in enumerate(self.names)}
        out = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                k = index.get(f"{module}.{fn}")
                out[f"{module}.{fn}.calls_per_point"] = 0.0 if k is None else calls[k] / points
                out[f"{module}.{fn}.self_us_per_point"] = (
                    0.0 if k is None else self_s[k] * 1e6 / points)
        k = index.get(FALLBACK)
        out[f"{FALLBACK}.fallback_frac"] = (
            float(fallbacks[k] / calls[k]) if k is not None and calls[k] else 0.0)
        linalg = [index[f"linalg.{fn}"] for fn in LINALG]
        out["linalg.calls_per_point"] = float(calls[linalg].sum() / points)
        out["linalg.self_us_per_point"] = float(self_s[linalg].sum() * 1e6 / points)
        return out


def traced_rounds(runner, sink, seconds: float, package, save_path, timed_rounds):
    """Untraced rounds for a third of the time, then traced rounds for the rest.

    ``timed_rounds`` is run.py's round loop. Returns the calibrated and raw (seconds, completed) samples and the
    per-layer metrics; the overhead figure compares the median completed
    operation of the two parts.
    """
    per_round = len(runner.ops)
    untraced, untraced_raw = timed_rounds(runner, sink, seconds * UNTRACED_SHARE)
    tracer = Tracer(package.errors.FormulaDomainError)
    tracer.install(package)
    try:
        traced, traced_raw = timed_rounds(runner, sink, seconds * (1.0 - UNTRACED_SHARE))
    finally:
        tracer.uninstall()
    tracer.save(save_path)
    points = sum(runner.ops[i % per_round].points for i, (_, ok) in enumerate(traced) if ok)
    layer = tracer.layer_metrics(points)
    base = statistics.median(t for t, ok in untraced if ok)
    layer["trace.overhead_pct"] = (statistics.median(t for t, ok in traced if ok) / base - 1) * 100
    units = dict(metric_names())
    return (untraced + traced, untraced_raw + traced_raw,
            {name: (float(layer[name]), units[name]) for name, _ in metric_names()})
