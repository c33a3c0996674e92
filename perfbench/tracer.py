"""Per-layer tracing of g2flow from outside the program.

The layers are the package's modules.  ``Tracer.install`` replaces each
public module-level function of a layer (plus the trajectory writers) by a
wrapper, in every ``g2flow`` namespace that bound it, including the ones
that imported it with ``from .x import y``.  A wrapper keeps a span per
call on a per-thread stack: the span's duration is added to its parent's
child time, and its self time is its duration minus its child time.

``count_calls`` is the independent check on coverage: it counts calls of
the same functions by code object with ``sys.settrace``, without wrappers.
A function that the untraced code calls more often than its wrapper saw
has a binding the tracer missed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import Counter

LAYERS = ("cli", "experiments", "fixtures", "flows", "g2core", "liealg", "exterior")
# Public methods that are layer boundaries of their own.
METHODS = (("flows", "Trajectory", "write_jsonl"), ("flows", "Trajectory", "write_csv"))

RECOVERY = "g2core.phi_of_psi"
METRIC = "g2core.metric_from_phi"
RHS = ("flows.coflow_rhs", "flows.laplacian_flow_rhs")
INTEGRATE = "flows.integrate"
WRITERS = ("flows.Trajectory.write_jsonl", "flows.Trajectory.write_csv")
SAMPLE = "experiments.sample_initial"
# Spans whose per-call durations are kept for percentiles.
TIMED_CALLS = (RECOVERY,) + RHS


def targets():
    """Map of traced name ("layer.function") to the original function."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"g2flow.{layer}")
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                out[f"{layer}.{name}"] = obj
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"g2flow.{layer}"), cls_name, None)
        fn = getattr(cls, meth, None)
        if inspect.isfunction(fn):
            out[f"{layer}.{cls_name}.{meth}"] = fn
    return out


class ThreadStats:
    """Counters of one thread; merged after the run."""

    def __init__(self):
        self.stack = []
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.durations = {name: [] for name in TIMED_CALLS}
        self.integrate_cpu_s = 0.0
        self.integrate_wall = []
        self.recovering = 0
        self.metric_in_recovery = 0
        self.residual_max = 0.0
        self.write_bytes = 0
        self.halvings = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []

    def _stats(self):
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def reset(self):
        with self._lock:
            self._threads = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def install(self, funcs):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in funcs.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "g2flow" or mod_name.startswith("g2flow.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"g2flow.{layer}"), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is not None and id(fn) in wrappers:
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, wrappers[id(fn)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        tracer = self
        is_recovery = name == RECOVERY
        is_metric = name == METRIC
        is_integrate = name == INTEGRATE
        is_writer = name in WRITERS
        is_sample = name == SAMPLE
        keep_duration = name in TIMED_CALLS
        perf = time.perf_counter
        thread_time = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stats()
            frame = [0.0]
            st.stack.append(frame)
            if is_recovery:
                st.recovering += 1
            elif is_metric and st.recovering:
                st.metric_in_recovery += 1
            cpu0 = thread_time() if is_integrate else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors[name] += 1
                raise
            finally:
                dt = perf() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                st.calls[name] += 1
                st.self_s[name] += dt - frame[0]
                if keep_duration:
                    st.durations[name].append(dt)
                if is_recovery:
                    st.recovering -= 1
                if is_integrate:
                    st.integrate_cpu_s += thread_time() - cpu0
                    st.integrate_wall.append(dt)
            # Bookkeeping on the result runs after the span closed; its cost
            # lands in the parent's self time and in trace.overhead_frac.
            if is_recovery:
                psi = args[0] if args else kwargs["psi"]
                diff = result.psi.coeffs - psi.coeffs
                st.residual_max = max(st.residual_max, float((diff @ diff) ** 0.5))
            elif is_writer:
                path = args[1] if len(args) > 1 else kwargs["path"]
                st.write_bytes += os.path.getsize(path)
            elif is_sample:
                st.halvings += result[2]
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def merged(self):
        """One ThreadStats summing every thread that ran traced code."""
        out = ThreadStats()
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            out.calls.update(st.calls)
            out.self_s.update(st.self_s)
            out.errors.update(st.errors)
            for name in TIMED_CALLS:
                out.durations[name].extend(st.durations[name])
            out.integrate_cpu_s += st.integrate_cpu_s
            out.integrate_wall.extend(st.integrate_wall)
            out.metric_in_recovery += st.metric_in_recovery
            out.residual_max = max(out.residual_max, st.residual_max)
            out.write_bytes += st.write_bytes
            out.halvings += st.halvings
        return out


def count_calls(funcs, run):
    """Call ``run()`` with no wrappers and count calls of ``funcs`` by code
    object, in this thread and in threads started during the run."""
    codes = {fn.__code__: name for name, fn in funcs.items()}
    counts = Counter()
    lock = threading.Lock()

    def trace(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                with lock:
                    counts[name] += 1
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return counts
