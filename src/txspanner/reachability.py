"""Reachability oracles: exact site-to-site plus the geometric extension.

The base oracle answers "can site s reach site q" exactly via strongly
connected components and condensation bitsets, over the transmission
graph G enumerated by kd-tree fixed-radius searches per radius class, so
it has no size cap. The geometric oracle answers "can site s reach the
plane point t", by reducing t to a small cover set of sites: any disk
containing t also contains a cover member, so s reaches t exactly when it
reaches some member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

# cone_range_for_cell and materialize are unused here but stay in this
# namespace: the benchmark's trace mode wraps them in this module by name
from .core import (EPS, cell_of, cone_range_for_cell, cone_ranges,
                   disk_contains, normalize, spanner_parameters)
from .decomposition import (NORMALIZE_MODE, VARIANT_RATIO,
                            annulus_cell_count, build_quadforest,
                            derive_decomposition, near_cell_count,
                            site_array)
from .oracle import materialize
from .spanner import _expand

# sources per chunk of `transmission_edges`: bounds the candidate pairs
# held at once; at most 2**16, so a chunk's edges sort by 16-bit offsets
_G_CHUNK = 2048


def transmission_edges(sites):
    """All directed edges (src, dst) of the transmission graph, q in D(p)
    and p != q, sorted by src (the dst of one src in no particular order).

    Sites are taken in chunks of `_G_CHUNK` consecutive indices. Per chunk
    and power-of-two radius class, one kd-tree fixed-radius search
    (Bentley, 1975) against all sites yields the candidates within the
    largest padded radius of the chunk's class members; a candidate is
    kept iff dx^2 + dy^2 <= (r + EPS)^2, the arithmetic of `materialize`
    and `disk_contains`. Memory grows with the edges, not with n^2, so
    there is no size cap.
    """
    xyr = site_array(sites)
    x, y, r = xyr[:, 0], xyr[:, 1], xyr[:, 2]
    rr = (r + EPS) ** 2
    cls = np.frexp(r)[1]
    tree = cKDTree(xyr[:, :2])
    srcs, dsts = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for lo in range(0, len(xyr), _G_CHUNK):
        ccls = cls[lo:lo + _G_CHUNK]
        src, dst = [], []
        for k in np.unique(ccls):
            members = lo + np.flatnonzero(ccls == k)
            reach = (float(np.max(r[members])) + EPS) * (1.0 + 1e-9)
            pairs = cKDTree(xyr[members, :2]).sparse_distance_matrix(
                tree, reach, output_type="ndarray")
            s = members[pairs["i"]]
            d = pairs["j"]
            dx = x[s] - x[d]
            dy = y[s] - y[d]
            keep = (s != d) & (dx * dx + dy * dy <= rr[s])
            src.append(s[keep])
            dst.append(d[keep])
        src = np.concatenate(src)
        dst = np.concatenate(dst)
        # a radix sort: numpy sorts 16-bit keys stably in linear time
        order = np.argsort((src - lo).astype(np.uint16), kind="stable")
        srcs.append(src[order])
        dsts.append(dst[order])
    return np.concatenate(srcs), np.concatenate(dsts)


class BaseOracle:
    """Exact transitive reachability over the transmission graph.

    G comes from `transmission_edges`, with no size cap. Strongly
    connected components are condensed and numbered in topological order,
    so every condensation edge goes from a lower to a higher number; `comp`
    holds each site's number. Component p keeps a bitset of the components
    it reaches, bit j standing for component p + j, filled in reverse
    topological order: an isolated component costs one bit, not p.
    """

    def __init__(self, sites):
        src, dst = transmission_edges(sites)
        self.n = n = len(sites)
        if n == 0:
            self.comp = np.zeros(0, dtype=np.int64)
            self._bits = []
            return
        # the edges come sorted by src: a CSR without sorting or summing
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        graph = csr_matrix((np.ones(len(dst)), dst, indptr), shape=(n, n))
        ncomp, labels = connected_components(graph, directed=True,
                                             connection="strong")
        del graph
        # condensation edges: distinct (source, target) component pairs
        src = labels[src]
        dst = labels[dst]
        cross = src != dst
        cu, cv = np.divmod(
            np.unique(src[cross].astype(np.int64) * ncomp + dst[cross]), ncomp)
        indeg = np.bincount(cv, minlength=ncomp).tolist()
        succ = [[] for _ in range(ncomp)]
        for a, b in zip(cu.tolist(), cv.tolist()):
            succ[a].append(b)
        order = [c for c in range(ncomp) if indeg[c] == 0]
        topo = []
        while order:
            c = order.pop()
            topo.append(c)
            for d in succ[c]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    order.append(d)
        pos = [0] * ncomp
        for p, c in enumerate(topo):
            pos[c] = p
        self.comp = np.asarray(pos, dtype=np.int64)[labels]
        # Python ints: bit j of bits[p] is component p + j
        bits = [0] * ncomp
        for p in range(ncomp - 1, -1, -1):
            b = 1
            for d in succ[topo[p]]:
                q = pos[d]
                b |= bits[q] << (q - p)
            bits[p] = b
        self._bits = bits

    def reach(self, s, q):
        """True iff a directed path s to q exists (s reaches itself).
        Raises ValueError unless 0 <= s, q < n."""
        if not (0 <= s < self.n and 0 <= q < self.n):
            raise ValueError(f"site pair ({s}, {q}) out of range for "
                             f"{self.n} sites")
        cs = self.comp.item(s)
        cq = self.comp.item(q)
        return cq >= cs and bool((self._bits[cs] >> (cq - cs)) & 1)


@dataclass
class CoverSet:
    """Constant-size site set covering a query point: every disk that
    contains the point also contains a member."""

    sites: list
    phase1: list = field(default_factory=list)

    def __len__(self):
        return len(self.sites)


class GeomOracle:
    """Quadforest over the sites plus a base oracle; answers site-to-point
    reachability.

    `decomp` is the ratio variant's annulus decomposition of the
    normalized sites, held as arrays (see AnnulusDecomposition); building
    it creates no QuadNode. Per level, `level_sites[level]` is a CSR (ptr,
    members) of the site indices of each node, in `decomp.level_arrays`
    node order: a slice of the decomposition's site CSR, since a level is
    one contiguous id range. Probes read the original coordinates
    (`site_x`, `site_y`), the padded radii `site_rr` = r + EPS and the ids
    `site_id`, so their containment verdicts are those of `disk_contains`.
    """

    def __init__(self, sites, base=None, t=2.0):
        if t > 2.0 + 1e-12:
            raise ValueError(f"geometric oracle needs stretch <= 2, got t={t}")
        self.sites = list(sites)
        if not self.sites:
            raise ValueError("geometric oracle needs at least one site")
        if base is not None and base.n != len(self.sites):
            raise ValueError(f"base oracle covers {base.n} sites, the "
                             f"geometric oracle {len(self.sites)}")
        self.params = spanner_parameters(t)
        self.base = base if base is not None else BaseOracle(sites)
        norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_RATIO],
                                        self.params.c)
        self.norm = norm
        self.scale = scale
        self.offset = offset
        xyr = site_array(norm)
        forest = build_quadforest(xyr, self.params)
        self.decomp = derive_decomposition(forest, self.params, VARIANT_RATIO,
                                           xyr)
        ptr, ids = self.decomp.site_ptr, self.decomp.site_ids
        self.level_sites = {}
        for lvl, (node_ids, _, _, _) in self.decomp.level_arrays.items():
            lo, hi = int(node_ids[0]), int(node_ids[-1]) + 1
            self.level_sites[lvl] = (ptr[lo:hi + 1] - ptr[lo],
                                     ids[ptr[lo]:ptr[hi]])
        orig = site_array(self.sites)
        self.site_x = orig[:, 0].copy()
        self.site_y = orig[:, 1].copy()
        self.site_rr = orig[:, 2] + EPS
        self.site_id = np.array([s.id for s in self.sites], dtype=np.int64)
        self.depth = int(self.decomp.level[0])
        # bounding box of all disks, padded past the containment tolerance
        # and float rounding, so points outside it lie in no disk
        box = (float(np.min(orig[:, 0] - orig[:, 2])),
               float(np.min(orig[:, 1] - orig[:, 2])),
               float(np.max(orig[:, 0] + orig[:, 2])),
               float(np.max(orig[:, 1] + orig[:, 2])))
        pad = EPS + 1e-9 * max(abs(b) for b in box)
        self.disk_box = (box[0] - pad, box[1] - pad, box[2] + pad,
                         box[3] + pad)

    @property
    def stored_site_refs(self):
        return sum(len(members) for _, members in self.level_sites.values())

    def probe(self, level, pos, x, y):
        """Per node at positions `pos` of `level`, the id of a site whose
        disk contains (x, y), or -1.

        Each node answers with its maximizer of ((r + EPS)^2 - d^2, -id),
        accepted iff d^2 <= (r + EPS)^2: the arithmetic of `disk_contains`,
        and the site `DiskContainment.query` returns.
        """
        ptr, members = self.level_sites[level]
        counts = ptr[pos + 1] - ptr[pos]
        owner, at = _expand(ptr[pos], counts)
        m = members[at]
        dx = x - self.site_x[m]
        dy = y - self.site_y[m]
        d2 = dx * dx + dy * dy
        rr = self.site_rr[m]
        rr2 = rr * rr
        ids = self.site_id[m]
        order = np.lexsort((ids, d2 - rr2, owner))
        best = order[np.cumsum(counts) - counts]
        return np.where(d2[best] <= rr2[best], ids[best], -1)


def cover_set_bound(params):
    """Explicit cap on |cover_set(t)| as a function of (k, c) only."""
    return near_cell_count(params.c) + params.k * annulus_cell_count(params.c)


def _gap2(ix, iy, sigma):
    """Squared gaps, in cell sides, from cell sigma to the same-level
    cells (ix, iy)."""
    gx = np.maximum(np.abs(ix - sigma.ix) - 1, 0)
    gy = np.maximum(np.abs(iy - sigma.iy) - 1, 0)
    return gx * gx + gy * gy


def cover_set(oracle, point):
    """Cover set for an arbitrary plane point.

    Phase 1 probes every nonempty level-0 cell within gap (c-2) of the
    point's cell. Phase 2 climbs the levels for all k cones at once: per
    level it probes, in one batch, the annulus cells of the point's cell
    that lie in the doubled cone of a cone still searching. Every hit joins
    the cover and stops each cone whose doubled cone holds its cell, so a
    cone stops at its first level with a hit, after taking every hit of
    that level in its doubled cone. A point outside the bounding box of all
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
    arrays = oracle.decomp.level_arrays
    phase1 = []
    if 0 in arrays:
        _, ix, iy, _ = arrays[0]
        g2 = _gap2(ix, iy, cell_of(tx, ty, 0))
        q = oracle.probe(0, np.flatnonzero(g2 <= lo2), x, y)
        phase1 = q[q >= 0].tolist()
    found = set(phase1)

    active = np.ones(k, dtype=bool)
    for lvl in range(oracle.depth + 1):
        if lvl not in arrays:
            continue
        _, ix, iy, _ = arrays[lvl]
        sigma = cell_of(tx, ty, lvl)
        g2 = _gap2(ix, iy, sigma)
        cand = np.flatnonzero((g2 >= lo2) & (g2 < hi2))
        # annulus cells lie at least one side from the apex, so no corner
        # coincides with it
        side = sigma.side
        ax, ay = sigma.center()
        cx0 = ix[cand] * side
        cy0 = iy[cand] * side
        cx1 = (ix[cand] + 1) * side
        cy1 = (iy[cand] + 1) * side
        angs = np.empty((4, len(cand)))
        for ci, (cx, cy) in enumerate(((cx0, cy0), (cx1, cy0), (cx1, cy1),
                                       (cx0, cy1))):
            angs[ci] = np.arctan2(cy - ay, cx - ax)
        j_lo, j_hi = cone_ranges(angs, k)
        # cones[a, w] is the w-th cone of candidate a's range, valid where
        # w <= width[a]; a range spans a few cones, far fewer than k
        width = j_hi - j_lo
        offs = np.arange(int(width.max(initial=-1)) + 1)
        cones = (j_lo[:, None] + offs) % k
        valid = offs <= width[:, None]
        live = (active[cones] & valid).any(axis=1)
        cand, cones, valid = cand[live], cones[live], valid[live]
        q = oracle.probe(lvl, cand, x, y)
        hit = q >= 0
        found.update(q[hit].tolist())
        active[cones[hit][valid[hit]]] = False
        if not active.any():
            break
    return CoverSet(sorted(found), phase1)


def geom_reach(oracle, s, point, explain=False):
    """Whether site s can reach the plane point, i.e. reach some site
    whose disk contains it. Raises ValueError unless 0 <= s < n."""
    if not 0 <= s < len(oracle.sites):
        raise ValueError(f"source site {s} out of range for "
                         f"{len(oracle.sites)} sites")
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
