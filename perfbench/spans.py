"""Spans around the public functions of the ``sdnlw`` modules, installed
from outside the package.

A function is traced by rebinding it, in every loaded ``sdnlw`` module
namespace that holds it, to a wrapper that records one span per call.
Rebinding every namespace matters because ``from .x import y`` copies the
binding: a caller in another module would otherwise keep calling the
original.  Observables are traced through the ``ergodics`` registry and
``TauMMonitor.update`` on its class.

Spans (function id, start, end, parent span) stay in memory in typed
arrays and are aggregated, and written out at the end.  A
span's self time is its duration minus the durations of its child spans.
Counts derived from call arguments (FFT grid points, X^alpha grid
evaluations, normals drawn, bytes written) are computed, not measured.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

import numpy as np

# module -> public functions that get a span
TRACED = {
    "spectral": ("to_physical", "to_spectral", "dealiased_product", "lp_norm"),
    "propagator": ("xalpha_norm", "apply_tables", "kick_tables"),
    "noise": ("sample_increment",),
    "dynamics": ("v_step", "nonlinearity_field"),
    "coupling": ("coupling_step", "epsilon_scale", "TauMMonitor.update",
                 "coupling_distance", "shifted_flow_check"),
    "ergodics": ("time_averages", "ensemble_summary"),
    "runner": ("write_series_csv", "write_summary_json", "sha256_file"),
    "checkpoint": ("write_checkpoint", "read_checkpoint"),
}
OBSERVABLES = "ergodics.observables"
MODULES = tuple(TRACED)


def _sdnlw_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sdnlw" or name.startswith("sdnlw."))]


def rebind(fn, wrapper) -> list:
    """Replace every module-level binding of ``fn`` in the sdnlw package by
    ``wrapper``; returns the undo list for :func:`restore`."""
    undo = []
    for mod in _sdnlw_modules():
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))
    return undo


def restore(undo: list) -> None:
    for obj, attr, val in reversed(undo):
        if isinstance(obj, dict):
            obj[attr] = val
        else:
            setattr(obj, attr, val)


def _batch(arr: np.ndarray, trailing: int) -> int:
    return math.prod(arr.shape[:-trailing])


# -- computed counts, from call arguments -----------------------------------

def _count_to_physical(counts, a, kw):
    coeffs = a[0]
    M = a[1] if len(a) > 1 else kw.get("M")
    if M is None:
        M = 3 * ((coeffs.shape[-1] - 1) // 2) + 2
    counts["spectral.fft_points"] += _batch(coeffs, 2) * M * M


def _count_to_spectral(counts, a, kw):
    counts["spectral.fft_points"] += a[0].size


def _count_xalpha(counts, a, kw):
    from sdnlw.propagator import default_time_grid
    t_star = a[2] if len(a) > 2 else kw.get("t_star", 40.0)
    dt_grid = a[3] if len(a) > 3 else kw.get("dt_grid", 0.25)
    points = default_time_grid(t_star, dt_grid).size
    counts["propagator.xalpha_norm.grid_evals"] += _batch(a[0], 3) * points


def _count_increment(counts, a, kw):
    N = a[0]
    seed = a[2] if len(a) > 2 else kw["seed"]
    paths = 1 if np.isscalar(seed) else int(np.size(seed))
    counts["noise.normals_drawn"] += paths * (2 * N + 1) ** 2
    counts["noise.stream_resets"] += paths


def _count_file(name, pos):
    key = name + ".bytes"

    def count(counts, a, kw):
        counts[key] += os.path.getsize(a[pos] if len(a) > pos else kw["path"])
    return count


# position of the path argument of the functions that write or read files
FILE_ARG = {"runner.write_series_csv": 0, "runner.write_summary_json": 0,
            "runner.sha256_file": 0, "checkpoint.write_checkpoint": 1,
            "checkpoint.read_checkpoint": 0}

COUNTERS = {
    "spectral.to_physical": _count_to_physical,
    "spectral.to_spectral": _count_to_spectral,
    "propagator.xalpha_norm": _count_xalpha,
    "noise.sample_increment": _count_increment,
    **{name: _count_file(name, pos) for name, pos in FILE_ARG.items()},
}


class Tracer:
    """Records spans for the functions in TRACED while installed; may be
    installed and uninstalled repeatedly, accumulating into one record."""

    def __init__(self):
        # every traced name has an id from the start, so a function that a
        # later version of the package drops reads as zero calls
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.names.append(OBSERVABLES)
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {"spectral.fft_points": 0, "propagator.xalpha_norm.grid_evals": 0,
                       "noise.normals_drawn": 0, "noise.stream_resets": 0}
        self.counts.update({name + ".bytes": 0 for name in FILE_ARG})
        self._stack: list[int] = []
        self._undo: list = []
        # traced names not found in the package: they read as zero calls
        # and must be reported as absent, not as free
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        fid = self.names.index(name)
        count = COUNTERS.get(name)
        fids, parents, starts, ends, stack = (self.fid, self.parent, self.start,
                                              self.end, self._stack)
        counts = self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*a, **kw):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*a, **kw)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if count is not None:
                count(counts, a, kw)
            return out
        return span

    def install(self) -> None:
        import sdnlw.cli  # noqa: F401  (loads every module that holds bindings)
        for mod_name, fns in TRACED.items():
            mod = sys.modules.get("sdnlw." + mod_name)
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                owner_name, _, attr = fn_name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = getattr(owner, attr, None)
                if orig is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                if owner_name:  # a method: rebind it on its class
                    setattr(owner, attr, self._wrap(name, orig))
                    self._undo.append((owner, attr, orig))
                else:
                    self._undo += rebind(orig, self._wrap(name, orig))
        registry = getattr(sys.modules.get("sdnlw.ergodics"), "_REGISTRY", None)
        if not registry and OBSERVABLES not in self.missing:
            self.missing.append(OBSERVABLES)
        for key, fn in list((registry or {}).items()):
            registry[key] = self._wrap(OBSERVABLES, fn)
            self._undo.append((registry, key, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def aggregate(self) -> dict:
        """Per function: calls, self seconds and inclusive seconds."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) \
            - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=fid.size)
        own = dur - child
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        self_s = np.bincount(fid, weights=own, minlength=n)
        incl_s = np.bincount(fid, weights=dur, minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "incl_s": float(incl_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
