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
from .core import (EPS, SQRT2, cone_range_for_cell, disk_contains,
                   normalize, spanner_parameters)
from .decomposition import (NORMALIZE_MODE, VARIANT_RATIO, Annulus,
                            _expand, annulus_cell_count, build_quadforest,
                            derive_decomposition, near_cell_count,
                            site_array)
from .oracle import materialize

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
    it creates no QuadNode. Cover sets read one flat table over all
    levels: row i is a node's cell (`row_level`, `row_ix`, `row_iy`), and
    its members are the entries with `member_row` == i, stored with their
    original coordinates (`member_x`, `member_y`), squared padded radii
    `member_rr2` = (r + EPS)^2 and list positions `member_id`, so containment
    verdicts are those of `disk_contains`. The table holds every level-0
    node, and each node of a level >= 1 whose largest padded radius reaches
    the annulus's inner gap of (c - 2) diameters 2^level: such a node is
    only ever probed as an annulus cell, so a node left out could never
    hold a hit.
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
        self.decomp = d = derive_decomposition(forest, self.params,
                                               VARIANT_RATIO, xyr)
        orig = site_array(self.sites)
        self.site_x = orig[:, 0].copy()
        self.site_y = orig[:, 1].copy()
        self.site_rr = orig[:, 2] + EPS
        self.depth = int(d.level[0])
        # bounding box of all disks, padded past the containment tolerance
        # and float rounding, so points outside it lie in no disk
        box = (float(np.min(orig[:, 0] - orig[:, 2])),
               float(np.min(orig[:, 1] - orig[:, 2])),
               float(np.max(orig[:, 0] + orig[:, 2])),
               float(np.max(orig[:, 1] + orig[:, 2])))
        pad = EPS + 1e-9 * max(abs(b) for b in box)
        self.disk_box = (box[0] - pad, box[1] - pad, box[2] + pad,
                         box[3] + pad)
        # The node prune, in normalized units. A hit at an annulus cell
        # needs the query's normalized point and a member's normalized site
        # in cells (c - 2) diameters apart, and the member's disk to hold
        # the query in original units. Each normalized coordinate is
        # fl(fl(v * scale) + offset), each cell index floor(fl(v / side)),
        # and the original test d^2 <= (r + EPS)^2 is exact to a few ulps;
        # queries outside the disk box stop before the table. So every
        # rounding error is below 32 ulps of B = scale * |disk box| +
        # |offset|, which is finite because normalize caps the extent at
        # MAX_NORMALIZED_EXTENT, and the margin 2^-40 B, over 4096 ulps of
        # B, covers them all.
        big = (scale * max(abs(b) for b in self.disk_box)
               + max(abs(offset[0]), abs(offset[1])))
        reach = d.max_radius + scale * EPS + 2.0 ** -40 * big
        rows = np.flatnonzero((d.level == 0) | (
            reach >= (self.params.c - 2) * np.ldexp(1.0, d.level)))
        self._fill_table(rows)

    def _fill_table(self, rows):
        """Make the table rows of the decomposition's nodes `rows`."""
        d = self.decomp
        self.row_level = d.level[rows]
        self.row_ix = d.ix[rows]
        self.row_iy = d.iy[rows]
        (self.member_row, self.member_x, self.member_y, self.member_rr2,
         self.member_id) = self._members(rows)

    def _members(self, nodes):
        """(owner, x, y, (r + EPS)^2, site) of the sites of the
        decomposition's `nodes`, node by node; owner is the position in
        `nodes`, site the position in `sites`."""
        d = self.decomp
        lo = d.site_ptr[nodes]
        owner, at = _expand(lo, d.site_ptr[nodes + 1] - lo)
        m = d.site_ids[at]
        rr = self.site_rr[m]
        return owner, self.site_x[m], self.site_y[m], rr * rr, m

    @property
    def stored_site_refs(self):
        return len(self.member_row)

    def probe(self, level, pos, x, y):
        """Per node at positions `pos` of `level` (in `decomp.level_arrays`
        node order), the position of a site whose disk contains (x, y), or -1:
        `_first_containing` over those nodes' sites."""
        nodes = self.decomp.level_arrays[level][0][pos]
        at, ids = _first_containing(*self._members(nodes), x, y)
        out = np.full(len(nodes), -1, dtype=np.int64)
        out[at] = ids
        return out


def _first_containing(owner, mx, my, rr2, ids, x, y):
    """(owners ascending, site ids): per owner with a member whose disk
    contains (x, y), its maximizer of (rr2 - d^2, -id), the site
    `DiskContainment.query` returns.

    Members are tested with d^2 <= rr2, rr2 = (r + EPS)^2, the arithmetic
    of `disk_contains`, and only the containing ones are sorted.
    """
    dx = x - mx
    dy = y - my
    d2 = dx * dx + dy * dy
    inside = np.flatnonzero(d2 <= rr2)
    owner = owner[inside]
    ids = ids[inside]
    order = np.lexsort((ids, d2[inside] - rr2[inside], owner))
    owner = owner[order]
    first = np.ones(len(owner), dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    return owner[first], ids[order[first]]


def cover_set_bound(params):
    """Explicit cap on |cover_set(t)| as a function of (k, c) only."""
    return near_cell_count(params.c) + params.k * annulus_cell_count(params.c)


def cover_set(oracle, point):
    """Cover set for an arbitrary plane point.

    Phase 1 takes a hit of every nonempty level-0 cell within gap (c-2) of
    the point's cell. Phase 2 answers the paper's climb over the levels,
    cone by cone, in one pass: the annulus cells of the point's cell
    (gap in [c-2, 2c) diameters) at every level are probed together with
    the phase-1 cells, and each annulus hit takes the cone range (doubled
    cones, apex at the centre of the point's cell) that Annulus.cones
    gives for its offset from the point's cell. stop[j] is the lowest
    level of a hit whose range holds cone j, and a hit at level l joins
    the cover iff some cone j of its range has stop[j] == l. So a cone
    stops at its first level with a hit, after taking every hit of that
    level in its doubled cone, and a hit whose cones all stopped lower
    joins no cover and moves no stop. A level-0 cell at gap^2 exactly
    2 (c-2)^2 takes part in both phases.

    The probe tests all members of the oracle's table at once; gaps and
    cone ranges are taken for the hits' rows only. A point outside the bounding box of all
    disks gets an empty cover; a non-finite point raises ValueError.
    """
    k = oracle.params.k
    ann = Annulus(oracle.params.c)
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"query point must be finite, got ({x}, {y})")
    x0, y0, x1, y1 = oracle.disk_box
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        return CoverSet([])
    tx = x * oracle.scale + oracle.offset[0]
    ty = y * oracle.scale + oracle.offset[1]
    rows, ids = _first_containing(oracle.member_row, oracle.member_x,
                                  oracle.member_y, oracle.member_rr2,
                                  oracle.member_id, x, y)
    # the point's cell at each hit's level, with cell_of's float side
    lvl = oracle.row_level[rows]
    side = np.ldexp(1.0, lvl) / SQRT2
    dx = oracle.row_ix[rows] - np.floor(tx / side).astype(np.int64)
    dy = oracle.row_iy[rows] - np.floor(ty / side).astype(np.int64)
    g2 = ann.gap2(dx, dy)
    phase1 = ids[(lvl == 0) & (g2 <= ann.lo2)].tolist()
    ring = np.flatnonzero((g2 >= ann.lo2) & (g2 < ann.hi2))
    lvl, ids = lvl[ring], ids[ring]
    # one entry per (annulus hit, cone of its range)
    owner, cone = _expand(*ann.cones(k, dx[ring], dy[ring]))
    cone %= k
    stop = np.full(k, oracle.depth + 1, dtype=np.int64)
    np.minimum.at(stop, cone, lvl[owner])
    joined = owner[stop[cone] == lvl[owner]]
    return CoverSet(sorted(set(phase1).union(ids[joined].tolist())), phase1)


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
