"""Span tracing of the mgm modules from outside, and the per-layer table.

The code under test binds functions with `from .x import y`, so a call site
resolves the name in its own module. install() therefore replaces a target
function at every attribute of every mgm module that holds it, with one
wrapper per function. Each call records a span (function, parent span,
start, end) in per-thread buffers; nothing is written until save().

A span's parent is the innermost traced call open in the same thread. A
span started in a worker thread has no parent.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time
from array import array

import numpy as np

# Layer is the module; each target is "<module>.<function>" in mgm.
TARGETS = (
    "cli.main",
    "config.load_config",
    "data.load_matrix",
    "data.load_labels",
    "data.preprocess",
    "scales.sample_scales",
    "mdr.pca_reduce",
    "mdr.build_stack",
    "mdr.laplacian_eigenmaps",
    "pipeline.run_mgm",
    "pipeline.build_subspaces",
    "pipeline.distance_matrix",
    "grassmann.orthonormalize",
    "grassmann.distance",
    "clustering.cluster_distances",
    "clustering.spectral_cluster",
    "clustering.classical_mds",
    "clustering.kmeans",
    "clustering.kmeans_euclidean",
    "metrics.evaluate",
    "experiment.run_experiment",
    "experiment.save_distance_matrix",
)

LAYERS = tuple(dict.fromkeys(t.split(".")[0] for t in TARGETS))


class _Buffer:
    """Spans of one thread; only that thread appends to it."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self) -> None:
        self.missing: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, name_id: int, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.starts)
            buf.names.append(name_id)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.ends.append(0.0)
            buf.stack.append(idx)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                buf.stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at every mgm module attribute bound to it.
        Targets that no longer exist are recorded in self.missing."""
        package = importlib.import_module("mgm")
        modules = [package] + [
            importlib.import_module(f"mgm.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for name_id, target in enumerate(TARGETS):
            module_name, func_name = target.split(".")
            try:
                module = importlib.import_module(f"mgm.{module_name}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, func_name, None)
            if not callable(fn):
                self.missing.append(target)
                continue
            wrappers[id(fn)] = (fn, self._wrap(name_id, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def save(self, path) -> None:
        parents, offset = [], 0
        for buf in self._buffers:
            p = np.asarray(buf.parents, dtype=np.int64)
            parents.append(np.where(p >= 0, p + offset, -1))
            offset += len(p)

        def joined(field, dtype):
            parts = [np.asarray(getattr(b, field), dtype=dtype) for b in self._buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        np.savez(
            path,
            targets=np.array(TARGETS),
            missing=np.array(self.missing, dtype=str),
            names=joined("names", np.int64),
            parents=np.concatenate(parents) if parents else np.zeros(0, np.int64),
            starts=joined("starts", float),
            ends=joined("ends", float),
        )


def layer_table(path) -> tuple[dict[str, float], list[str], int]:
    """Per-function and per-module calls, total and self seconds from a
    saved span file.

    `.s` counts only spans with no open span of the same function (or, for a
    module, of the same module) above them, so nesting is not counted twice.
    `.self_s` is a span's duration minus that of its direct children.
    Missing targets get no entry.
    """
    with np.load(path) as data:
        targets = [str(t) for t in data["targets"]]
        missing = [str(t) for t in data["missing"]]
        names, parents = data["names"], data["parents"]
        dur = data["ends"] - data["starts"]
    n = len(names)
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    layer_of = np.array([LAYERS.index(t.split(".")[0]) for t in targets], dtype=np.int64)
    layers = layer_of[names]
    nested_same_fn = np.zeros(n, dtype=bool)
    nested_same_layer = np.zeros(n, dtype=bool)
    anc = parents.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        safe = np.where(live, anc, 0)
        nested_same_fn |= live & (names[safe] == names)
        nested_same_layer |= live & (layers[safe] == layers)
        anc = np.where(live, parents[safe], -1)

    table: dict[str, float] = {}
    for name_id, target in enumerate(targets):
        if target in missing:
            continue
        sel = names == name_id
        table[f"{target}.calls"] = int(np.count_nonzero(sel))
        table[f"{target}.s"] = float(dur[sel & ~nested_same_fn].sum())
        table[f"{target}.self_s"] = float(self_time[sel].sum())
    for layer_id, layer in enumerate(LAYERS):
        sel = layers == layer_id
        table[f"{layer}.s"] = float(dur[sel & ~nested_same_layer].sum())
        table[f"{layer}.self_s"] = float(self_time[sel].sum())
    return table, missing, n
