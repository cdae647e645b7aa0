"""Reachability oracles: exact site-to-site plus the geometric extension.

The base oracle answers "can site s reach site q" exactly via strongly
connected components and condensation bitsets. The geometric oracle
answers "can site s reach the plane point t", by reducing t to a small
cover set of sites: any disk containing t also contains a cover member,
so s reaches t exactly when it reaches some member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .core import (EPS, cell_of, cone_range_for_cell, disk_contains,
                   normalize, spanner_parameters)
from .decomposition import (NORMALIZE_MODE, VARIANT_RATIO,
                            annulus_cell_count, build_quadforest,
                            derive_decomposition, near_cell_count)
from .geom_query import DiskContainment
from .oracle import materialize


class BaseOracle:
    """Exact transitive reachability over the transmission graph.

    Strongly connected components are condensed; each component keeps a
    bitset of reachable components, filled in reverse topological order.
    """

    def __init__(self, sites):
        graph = materialize(sites)
        self.n = graph.n
        if self.n == 0:
            self.comp = np.zeros(0, dtype=np.int64)
            self._bits = []
            return
        ncomp, labels = connected_components(graph.csr, directed=True,
                                             connection="strong")
        self.comp = labels
        # Python ints: the bitsets below shift by component labels
        labels = labels.tolist()
        succ = [set() for _ in range(ncomp)]
        indeg = [0] * ncomp
        for u in range(self.n):
            cu = labels[u]
            for v in graph.neighbors(u):
                cv = labels[int(v)]
                if cu != cv and cv not in succ[cu]:
                    succ[cu].add(cv)
                    indeg[cv] += 1
        order = [c for c in range(ncomp) if indeg[c] == 0]
        topo = []
        while order:
            c = order.pop()
            topo.append(c)
            for d in succ[c]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    order.append(d)
        bits = [0] * ncomp
        for c in reversed(topo):
            b = 1 << c
            for d in succ[c]:
                b |= bits[d]
            bits[c] = b
        self._bits = bits

    def reach(self, s, q):
        """True iff a directed path s to q exists (s reaches itself)."""
        cs = int(self.comp[s])
        cq = int(self.comp[q])
        return bool((self._bits[cs] >> cq) & 1)


@dataclass
class CoverSet:
    """Constant-size site set covering a query point: every disk that
    contains the point also contains a member."""

    sites: list
    phase1: list = field(default_factory=list)

    def __len__(self):
        return len(self.sites)


class GeomOracle:
    """Quadforest whose nodes carry disk-containment structures, plus a
    base oracle; answers site-to-point reachability."""

    def __init__(self, sites, base=None, t=2.0):
        if t > 2.0 + 1e-12:
            raise ValueError(f"geometric oracle needs stretch <= 2, got t={t}")
        self.sites = list(sites)
        if not self.sites:
            raise ValueError("geometric oracle needs at least one site")
        self.params = spanner_parameters(t)
        self.base = base if base is not None else BaseOracle(sites)
        norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_RATIO],
                                        self.params.c)
        self.norm = norm
        self.scale = scale
        self.offset = offset
        roots = build_quadforest(norm, self.params)
        self.decomp = derive_decomposition(roots, self.params, VARIANT_RATIO,
                                           norm, materialize_neighbors=False)
        # containment structures hold original coordinates so membership
        # verdicts match the brute-force oracle exactly
        self.pd = {v.id: DiskContainment([self.sites[i] for i in v.sites])
                   for v in self.decomp.nodes}
        self.depth = max(v.cell.level for v in self.decomp.nodes)
        # bounding box of all disks, padded past the containment tolerance
        # and float rounding, so points outside it lie in no disk
        box = (min(s.x - s.radius for s in sites),
               min(s.y - s.radius for s in sites),
               max(s.x + s.radius for s in sites),
               max(s.y + s.radius for s in sites))
        pad = EPS + 1e-9 * max(abs(b) for b in box)
        self.disk_box = (box[0] - pad, box[1] - pad, box[2] + pad,
                         box[3] + pad)

    @property
    def stored_site_refs(self):
        return sum(len(v.sites) for v in self.decomp.nodes)


def cover_set_bound(params):
    """Explicit cap on |cover_set(t)| as a function of (k, c) only."""
    return near_cell_count(params.c) + params.k * annulus_cell_count(params.c)


def cover_set(oracle, point):
    """Cover set for an arbitrary plane point.

    Phase 1 queries every nonempty level-0 cell within gap (c-2) of the
    point's cell. Phase 2, per cone, climbs the levels and queries the
    annulus cells inside the doubled cone, stopping the cone at the first
    level that contributes a site. A point outside the bounding box of all
    disks gets an empty cover; a non-finite point raises ValueError.
    """
    c = oracle.params.c
    k = oracle.params.k
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"query point must be finite, got ({x}, {y})")
    x0, y0, x1, y1 = oracle.disk_box
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        return CoverSet([])
    tx = x * oracle.scale + oracle.offset[0]
    ty = y * oracle.scale + oracle.offset[1]
    lo2 = 2 * (c - 2) * (c - 2)
    hi2 = 8 * c * c
    found = set()
    phase1 = []
    pd_cache = {}

    def probe(node_id):
        if node_id not in pd_cache:
            s = oracle.pd[node_id].query(x, y)
            pd_cache[node_id] = None if s is None else s.id
        return pd_cache[node_id]

    arrays = oracle.decomp.level_arrays
    if 0 in arrays:
        ids, ix, iy, _ = arrays[0]
        sigma = cell_of(tx, ty, 0)
        gx = np.maximum(np.abs(ix - sigma.ix) - 1, 0)
        gy = np.maximum(np.abs(iy - sigma.iy) - 1, 0)
        g2 = gx * gx + gy * gy
        for node_id in ids[g2 <= lo2].tolist():
            q = probe(node_id)
            if q is not None:
                found.add(q)
                phase1.append(q)

    per_level = []
    for lvl in range(oracle.depth + 1):
        if lvl not in arrays:
            per_level.append([])
            continue
        ids, ix, iy, _ = arrays[lvl]
        sigma = cell_of(tx, ty, lvl)
        gx = np.maximum(np.abs(ix - sigma.ix) - 1, 0)
        gy = np.maximum(np.abs(iy - sigma.iy) - 1, 0)
        g2 = gx * gx + gy * gy
        mask = (g2 >= lo2) & (g2 < hi2)
        apex = sigma.center()
        cands = []
        for node_id in ids[mask].tolist():
            tau = oracle.decomp.nodes[node_id]
            j_lo, j_hi = cone_range_for_cell(tau.cell, apex, k)
            if j_lo <= j_hi:
                cands.append((node_id, j_lo % k, j_hi - j_lo))
        per_level.append(cands)

    for cone in range(k):
        for cands in per_level:
            added = False
            for node_id, j_lo, width in cands:
                if (cone - j_lo) % k > width:
                    continue
                q = probe(node_id)
                if q is not None:
                    found.add(q)
                    added = True
            if added:
                break
    return CoverSet(sorted(found), phase1)


def geom_reach(oracle, s, point, explain=False):
    """Whether site s can reach the plane point, i.e. reach some site
    whose disk contains it."""
    cover = cover_set(oracle, point)
    hit = any(oracle.base.reach(s, q) for q in cover.sites)
    if explain:
        return hit, cover
    return hit


def geom_reach_bruteforce(oracle, s, point):
    """Reference answer using the base oracle over all sites directly."""
    x, y = point
    return any(oracle.base.reach(s, q) for q in range(len(oracle.sites))
               if disk_contains(oracle.sites[q], x, y))
