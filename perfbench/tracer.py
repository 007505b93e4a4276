"""Spans around the calls into each rqit module, recorded from outside.

``Tracer.install`` replaces every listed function, in every ``rqit.*``
namespace that binds it, with a wrapper that records a span: function,
start, end, parent span and the CLI invocation it belongs to.  The modules
import each other with ``from .x import y``, so one function can have
several bindings; all of them are replaced.  Spans stay in memory until
``write`` is called at the end of the run.

A few wrappers also record an attribute of the call (state size, matrix
dimension, sample count).  They do so after the span's end time is taken,
so the cost lands in the parent span's self time; the traced run's
overhead metric includes it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict

MODULES = ("cli", "channel", "entanglement", "linalg", "teleportation",
           "distinguishability", "geometry")

FUNCTIONS = (
    "cli.main",
    "channel.entangled_state", "channel.effective_qubit", "channel.small_r_qubit",
    "entanglement.negativity_sweep", "entanglement.log_negativity",
    "linalg.partial_transpose", "linalg.trace_norm", "linalg.eigh", "linalg.matrix_sqrt",
    "teleportation.average_fidelity_exact", "teleportation.average_fidelity_mc",
    "teleportation.build_protocol", "teleportation.apply_protocol",
    "teleportation.haar_qubit_unitaries",
    "distinguishability.angle_sweep", "distinguishability.bures_angle",
    "geometry.root_fidelity", "geometry.generalized_bures_distance",
    "geometry.numeric_metric", "geometry.metric_cartesian", "geometry.metric_polar_pullback",
    "geometry.scalar_curvature_numeric", "geometry.scalar_curvature_closed_form",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _state_attrs(args, kwargs, result):
    e = result.entries
    return {"bytes": e.nbytes, "nnz": int((e != 0).sum()), "size": e.size}


def _dim_attrs(args, kwargs, result):
    return {"dim": _arg(args, kwargs, 0, "op").dim}


def _points_attrs(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 1, "xi_grid"))}


def _samples_attrs(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 0, "samples"))}


ATTRS = {
    "channel.entangled_state": _state_attrs,
    "linalg.partial_transpose": _dim_attrs,
    "linalg.trace_norm": _dim_attrs,
    "linalg.eigh": _dim_attrs,
    "linalg.matrix_sqrt": _dim_attrs,
    "entanglement.negativity_sweep": _points_attrs,
    "distinguishability.angle_sweep": _points_attrs,
    "teleportation.haar_qubit_unitaries": _samples_attrs,
}


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans = []    # [function index, start, end, parent span or -1, invocation]
        self.attrs = {}    # span index -> dict
        self.errors = Counter()
        self.invocation = -1
        self._local = threading.local()

    def install(self) -> None:
        for index, qual in enumerate(FUNCTIONS):
            module, name = qual.split(".")
            original = getattr(importlib.import_module(f"rqit.{module}"), name)
            wrapped = self._wrap(index, qual, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "rqit" and not mod_name.startswith("rqit."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, index, qual, fn):
        module = qual.split(".")[0]
        attrs = ATTRS.get(qual)
        clock = time.perf_counter
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            pos = len(spans)
            spans.append(span)
            stack.append(pos)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                self.errors[module] += 1
                raise
            else:
                span[2] = clock()
                if attrs is not None:
                    self.attrs[pos] = attrs(args, kwargs, result)
                return result
            finally:
                stack.pop()

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self, passes: int, invocations: dict) -> dict:
        """Per-layer metrics per pass; ``invocations`` maps id -> (command, points)."""
        n = len(FUNCTIONS)
        calls, self_s = [0] * n, [0.0] * n
        calls_by_inv = defaultdict(Counter)
        for (f, _, _, _, inv), own in zip(self.spans, self.self_times()):
            calls[f] += 1
            self_s[f] += own
            calls_by_inv[f][inv] += 1
        out = {}
        for f, qual in enumerate(FUNCTIONS):
            out[f"{qual}.calls"] = (calls[f] / passes, "count")
            out[f"{qual}.self_s"] = (self_s[f] / passes, "s")
        for module in MODULES:
            own = sum(self_s[f] for f, q in enumerate(FUNCTIONS) if q.split(".")[0] == module)
            out[f"{module}.self_s"] = (own / passes, "s")
            out[f"{module}.errors"] = (self.errors[module] / passes, "count")

        def per_point(qual):
            by_inv = calls_by_inv[FUNCTIONS.index(qual)]
            points = sum(invocations[inv][1] for inv in by_inv)
            return sum(by_inv.values()) / points if points else 0.0

        out["channel.entangled_state.per_point"] = (per_point("channel.entangled_state"), "ratio")
        out["channel.effective_qubit.per_point"] = (per_point("channel.effective_qubit"), "ratio")

        def values(qual, key):
            f = FUNCTIONS.index(qual)
            return [self.attrs[i][key] for i, span in enumerate(self.spans)
                    if span[0] == f and i in self.attrs]

        for qual in ("entanglement.negativity_sweep", "distinguishability.angle_sweep"):
            pts = values(qual, "points")
            out[f"{qual}.points_per_call"] = (sum(pts) / len(pts) if pts else 0.0, "ratio")
        nnz, size = (values("channel.entangled_state", k) for k in ("nnz", "size"))
        out["channel.entangled_state.nnz_frac"] = (
            sum(a / b for a, b in zip(nnz, size)) / len(nnz) if nnz else 0.0, "ratio")
        out["channel.entangled_state.bytes"] = (
            max(values("channel.entangled_state", "bytes"), default=0), "B")
        dims = [d for q in FUNCTIONS if q.startswith("linalg.") for d in values(q, "dim")]
        out["linalg.max_dim"] = (max(dims, default=0), "count")
        samples = sum(values("teleportation.haar_qubit_unitaries", "samples"))
        out["teleportation.haar_qubit_unitaries.samples"] = (samples / passes, "count")
        mc = FUNCTIONS.index("teleportation.average_fidelity_mc")
        mc_s = sum(end - start for f, start, end, _, _ in self.spans if f == mc)
        out["teleportation.samples_per_s"] = (samples / mc_s if mc_s else 0.0, "1/s")
        return out

    def per_command_per_point(self, invocations: dict) -> dict:
        """{function: {command: calls per point}} for the two per_point ratios."""
        out = {}
        for qual in ("channel.entangled_state", "channel.effective_qubit"):
            f = FUNCTIONS.index(qual)
            calls, points = Counter(), Counter()
            for inv in {span[4] for span in self.spans if span[0] == f}:
                points[invocations[inv][0]] += invocations[inv][1]
            for span in self.spans:
                if span[0] == f:
                    calls[invocations[span[4]][0]] += 1
            out[qual] = {cmd: calls[cmd] / points[cmd] for cmd in sorted(points)}
        return out

    def write(self, path: str, invocations: dict, origin: float) -> None:
        """Spans as gzipped JSON lines, times in seconds from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"invocations": {str(k): v for k, v in invocations.items()}}) + "\n")
            for i, (f, start, end, parent, inv) in enumerate(self.spans):
                rec = {"span": i, "name": FUNCTIONS[f], "start": start - origin,
                       "end": end - origin, "parent": parent, "invocation": inv}
                rec.update(self.attrs.get(i, {}))
                fh.write(json.dumps(rec) + "\n")
