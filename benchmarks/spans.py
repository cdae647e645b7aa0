"""Spans around calls into txspanner, recorded from outside the package.

A `Tracer` rebinds a public function in the module that calls it (or a
method on its class) to a wrapper that records a span: name, start,
end, parent span and the top-level benchmark operation it ran under.
Spans stay in flat in-memory arrays until `save` writes them out.
Wrappers are installed only for traced rounds and removed afterwards,
so untraced rounds run the original code.
"""

from __future__ import annotations

import gc
import json
import time
from array import array

import numpy as np

import txspanner
import txspanner.geom_query as geom_query_mod
import txspanner.reachability as reach_mod
import txspanner.spanner as spanner_mod


def _len(result):
    return len(result)


def _nodes(decomp):
    return len(decomp.nodes)


# (owner, attribute, span name, counter name, counter function).
# Functions are rebound in the module that calls them (the package
# namespace for the benchmark's own calls); methods on their class,
# which every caller shares.
WRAPPED = (
    (txspanner, "load_sites", "core.load_sites", None, None),
    (txspanner, "build_spanner_radius_ratio", "spanner.build", None, None),
    (txspanner, "build_spanner_general", "spanner.build", None, None),
    (txspanner, "bfs_tree", "bfs.bfs_tree", None, None),
    (spanner_mod, "normalize", "core.normalize", None, None),
    (spanner_mod, "partition_components",
     "decomposition.partition_components", None, None),
    (spanner_mod, "build_quadforest", "decomposition.hierarchy", None, None),
    (spanner_mod, "build_compressed_quadtree", "decomposition.hierarchy",
     None, None),
    (spanner_mod, "compute_wspd", "decomposition.compute_wspd",
     "decomposition.wspd_pairs", _len),
    (spanner_mod, "augment_with_wspd", "decomposition.augment_with_wspd",
     None, None),
    (spanner_mod, "derive_decomposition", "decomposition.derive_decomposition",
     "decomposition.nodes", _nodes),
    (spanner_mod, "cone_assignments", "decomposition.cone_assignments",
     "decomposition.cone_rows", _len),
    (spanner_mod, "select_edges_envelope", "spanner.select_edges_envelope",
     None, None),
    (spanner_mod, "euclidean_spanner", "spanner.euclidean_spanner",
     None, None),
    (geom_query_mod.DynamicNN, "insert", "geom_query.nn", None, None),
    (geom_query_mod.DynamicNN, "delete", "geom_query.nn", None, None),
    (geom_query_mod.DynamicNN, "nearest", "geom_query.nn", None, None),
    (geom_query_mod.DiskContainment, "__init__", "geom_query.disk_build",
     None, None),
    (geom_query_mod.DiskContainment, "query", "geom_query.disk_query",
     None, None),
    (reach_mod, "materialize", "oracle.materialize", None, None),
    (reach_mod, "normalize", "core.normalize", None, None),
    (reach_mod, "build_quadforest", "decomposition.hierarchy", None, None),
    (reach_mod, "derive_decomposition", "decomposition.derive_decomposition",
     "decomposition.nodes", _nodes),
    (reach_mod, "cone_range_for_cell", "core.cone_range", None, None),
    (reach_mod, "cover_set", "reachability.cover_set",
     "reachability.cover_sites", _len),
    (reach_mod.BaseOracle, "__init__", "reachability.base_oracle", None, None),
    (reach_mod.BaseOracle, "reach", "reachability.base_reach", None, None),
    (reach_mod.GeomOracle, "__init__", "reachability.geom_oracle", None, None),
)


class Tracer:
    """In-memory span recorder with reversible wrappers."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = {}
        self._stack = []
        self._root = -1
        self._patches = []
        self._gc_start = None

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.root.append(self._root if self._stack else idx)
        self.t0.append(time.perf_counter())
        self.t1.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def _op_name(self):
        return self.names[self.name[self._root]] if self._stack else None

    def add(self, key, value):
        """Add `value` to counter `key` of the operation now running."""
        k = (self._op_name(), key)
        self.counts[k] = self.counts.get(k, 0) + value

    def op(self, name, fn, *args):
        """Run fn(*args) as a top-level operation span."""
        idx = self._open(self._nid(name))
        prev_root, self._root = self._root, idx
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._root = prev_root

    def _wrapper(self, orig, nid, counter, count_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.add(counter, count_fn(result))
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.add("python.gc_s", time.perf_counter() - self._gc_start)
            self.add("python.gc_collections", 1)
            self._gc_start = None

    def install(self):
        for owner, attr, name, counter, count_fn in WRAPPED:
            orig = owner.__dict__[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr,
                    self._wrapper(orig, self._nid(name), counter, count_fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def arrays(self):
        """(name id, parent, root, duration, self time) as numpy arrays."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        root = np.array(self.root, dtype=np.int32)
        dur = np.array(self.t1) - np.array(self.t0)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, parent, root, dur, dur - child

    def save(self, path):
        """Write every span as compressed arrays plus the name table."""
        np.savez_compressed(
            path, name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            root=np.array(self.root, dtype=np.int32),
            t0=np.array(self.t0), t1=np.array(self.t1),
            names=np.array(json.dumps(self.names)))
