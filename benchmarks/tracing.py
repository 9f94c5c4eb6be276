"""In-memory span tracing installed at the call sites of lyapcert's layers.

The package binds names with ``from .x import y``, so each function is
wrapped where it is looked up (``lyapcert.analysis.fit_dissipation``, and
``lyapcert.dissipation.simulate_mild`` as seen from ``dini_derivative``).
Nothing under ``src/`` changes: the wrappers are installed for the traced
run and removed afterwards.

A span records its name, start, end, parent span and request id.  Spans
stay in memory; ``Tracer.summary`` turns them into per-function totals,
self times (duration minus the time covered by child spans) and exact call
counts, and ``Tracer.save`` writes the raw spans when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module the name is looked up in, attribute, span name "<layer>.<function>").
# Layers are lyapcert's modules; expm and svd are counted in the layers the
# ROADMAP assigns them to, whichever module calls them.
CALL_SITES = (
    ("lyapcert.cli", "run_analyze", "analysis.run_analyze"),
    ("lyapcert.analysis", "operator_class_scan", "admissibility.operator_class_scan"),
    ("lyapcert.analysis", "admissibility_trend", "admissibility.admissibility_trend"),
    ("lyapcert.admissibility", "admissibility_constant",
     "admissibility.admissibility_constant"),
    ("numpy.linalg", "svd", "admissibility.svd"),
    ("lyapcert.analysis", "default_sample_cloud", "dissipation.default_sample_cloud"),
    ("lyapcert.analysis", "fit_dissipation", "dissipation.fit_dissipation"),
    ("lyapcert.dissipation", "dini_derivative", "dissipation.dini_derivative"),
    ("lyapcert.dissipation", "simulate_mild", "dissipation.simulate_mild"),
    ("lyapcert.analysis", "build_half_norm", "lyapunov.build_half_norm"),
    ("lyapcert.analysis", "build_v_half", "lyapunov.build_v_half"),
    ("lyapcert.analysis", "build_w_plain", "lyapunov.build_w_plain"),
    ("lyapcert.analysis", "build_w_q", "lyapunov.build_w_q"),
    ("lyapcert.analysis", "contraction_similarity", "lyapunov.contraction_similarity"),
    ("lyapcert.analysis", "decay_bound_estimate", "systems.decay_bound_estimate"),
    ("lyapcert.systems", "matrix_neg_power", "systems.matrix_neg_power"),
    ("scipy.linalg", "expm", "systems.expm"),
)

ROOT = "cli.main"
LAYERS = ("cli", "analysis", "dissipation", "admissibility", "lyapunov", "systems")


class Tracer:
    """Collects spans of wrapped calls; one tracer per traced run."""

    def __init__(self):
        self.names = {}
        self.name_index = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.request = -1
        self.svd_elements = 0
        self._stack = [-1]

    def wrap(self, name, fn):
        """``fn`` wrapped so that every call records one span named ``name``."""
        name_id = self.names.setdefault(name, len(self.names))
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self.starts, self.ends

        def traced(*args, **kwargs):
            index = len(starts)
            self.name_index.append(name_id)
            self.parents.append(stack[-1])
            self.requests.append(self.request)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _count_svd(self, fn):
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            self.svd_elements += int(np.prod(shape[-2:]))
            return fn(a, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Install the call-site wrappers; restore the original bindings on exit."""
        saved = []
        try:
            for module_name, attr, span in CALL_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                fn = self._count_svd(original) if span == "admissibility.svd" else original
                setattr(module, attr, self.wrap(span, fn))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, requests):
        """Per-span-name totals and layer self times, each divided by ``requests``."""
        name_ix = np.array(self.name_index, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        durations = np.array(self.ends) - np.array(self.starts)
        covered = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        self_times = durations - covered
        scale = 1.0 / max(requests, 1)
        per_name = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, name_id in self.names.items():
            mask = name_ix == name_id
            # A nested call of the same function is already inside its caller's total.
            outer = mask & ~np.isin(parents, np.nonzero(mask)[0])
            self_s = float(self_times[mask].sum())
            layers[name.split(".", 1)[0]] += self_s
            per_name[name] = {"calls": int(mask.sum()) * scale,
                              "total_s": float(durations[outer].sum()) * scale,
                              "self_s": self_s * scale}
        return {
            "functions": per_name,
            "layer_self_s": {k: v * scale for k, v in layers.items()},
            "root_s": float(durations[~has_parent].sum()) * scale,
            "svd_elements": self.svd_elements * scale,
            "spans": len(durations),
        }

    def call_sites(self, requests):
        """Call counts per (caller span, callee span) pair, divided by ``requests``."""
        name_ix = np.array(self.name_index, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        callers = np.where(parents >= 0, name_ix[np.maximum(parents, 0)], -1)
        pairs, counts = np.unique(np.stack([callers, name_ix]), axis=1, return_counts=True)
        names = list(self.names)
        return {
            f"{names[a] if a >= 0 else 'harness'} -> {names[b]}": int(c) / requests
            for (a, b), c in zip(pairs.T, counts)
        }

    def save(self, path):
        """Write the raw spans (times relative to the first span) as an ``.npz`` file."""
        starts = np.array(self.starts)
        origin = starts.min() if starts.size else 0.0
        np.savez(
            path,
            names=np.array(list(self.names)),
            name=np.array(self.name_index, dtype=np.int32),
            start=starts - origin,
            end=np.array(self.ends) - origin,
            parent=np.array(self.parents, dtype=np.int32),
            request=np.array(self.requests, dtype=np.int32),
        )
