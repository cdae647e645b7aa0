"""Spanner construction for directed transmission graphs.

Three builders share one selection sweep over their annulus
decompositions: bounded spread (quadtree), bounded radius ratio
(quadforest plus one Yao graph of the disk graph UDG(r_min) for nearby
sites) and the general case (compressed quadtree augmented with the cells
of a well-separated pair decomposition). All three hierarchies are
`NodeArrays` cut from one numpy grid tree, so no builder creates a
Python object per cell. The sweep makes one pass per level, from the
finest up, all cones at once. It reads the level's neighbor pairs
(node, neighbor cell) with the range of cones each is considered in;
a target of the node that is still active in one of those cones, by a
(cones x sites) activity matrix, is tested once, in one batched numpy
pass, against the cell's disks, and the first disk that contains it is
its edge in each such cone. Any containing disk keeps the
paper's witness argument; choosing it over the lower envelope of the disk
caps only serves the paper's time bound, so `select_edges_envelope`
stands alone and no builder calls it. The builders hand the selected
(source, target, cone) arrays to one finishing step that sorts them into
the arrays of a `SpannerGraph`: the distinct edges by (source, target)
with their lengths, and a CSR of the cones that selected each edge. No
step creates a Python object per edge; `SpannerGraph.edges` and
`.edge_cones` build tuple and dict views only when a caller reads them.
"""

from __future__ import annotations

import math

import numpy as np

from scipy.spatial import cKDTree

from .core import (EPS, SQRT2, SpannerParams, disk_contains, normalize,
                   params_satisfy, spanner_parameters)
from .decomposition import (NORMALIZE_MODE, VARIANT_GENERAL, VARIANT_RATIO,
                            VARIANT_SPREAD, Annulus, _expand,
                            annulus_cell_count, augment_with_wspd,
                            build_compressed_quadtree, build_quadforest,
                            build_quadtree, compute_wspd,
                            cone_assignments, derive_decomposition,
                            forest_depth, partition_components, radius_ratio,
                            site_array)

INF = math.inf


class SpannerGraph:
    """Directed sparse subgraph H of the transmission graph, as arrays.

    Edge i runs from `src[i]` to `dst[i]` (int64) and has Euclidean length
    `length[i]` (float64) in the original input coordinates. Edges are
    sorted by source; a builder's are sorted by (source, target) and
    distinct. `indptr` indexes them by source, so the targets of u are
    `dst[indptr[u]:indptr[u + 1]]`. A builder also records the cones that
    selected each edge as a CSR, `cone_ids[cone_ptr[i]:cone_ptr[i + 1]]`
    (ascending; empty for an edge no cone selected); a graph loaded from a
    file, or built on fewer than two sites, has none. Normalization metadata (variant, scale, offset) is kept
    in memory so verification can reconstruct the construction's grid.

    `edges` and `edge_cones` are the same data as Python tuples and
    lists, built on first read and cached, for callers outside the
    package; nothing inside it reads them.
    """

    def __init__(self, n, src, dst, length, t, params=None, variant=None,
                 scale=1.0, offset=(0.0, 0.0), cone_ptr=None, cone_ids=None):
        self.n = n
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.length = np.asarray(length, dtype=np.float64)
        if np.any(self.src[1:] < self.src[:-1]):
            raise ValueError("spanner edges must be sorted by source")
        self.t = float(t)
        self.params = params
        self.variant = variant
        self.scale = scale
        self.offset = offset
        self.cone_ptr = cone_ptr
        self.cone_ids = cone_ids
        self._indptr = None
        self._in = None
        self._edges = None
        self._edge_cones = None

    @classmethod
    def from_edges(cls, n, edges, t, params=None, variant=None, scale=1.0,
                   offset=(0.0, 0.0)):
        """Graph of (source, target, length) triples in any order. A
        stable sort on source orders them, so the edges of one source keep
        their given order."""
        m = len(edges)
        src = np.fromiter((e[0] for e in edges), np.int64, m)
        order = np.argsort(src, kind="stable")
        dst = np.fromiter((e[1] for e in edges), np.int64, m)
        length = np.fromiter((e[2] for e in edges), np.float64, m)
        return cls(n, src[order], dst[order], length[order], t, params,
                   variant, scale, offset)

    @property
    def m(self):
        return len(self.src)

    @property
    def indptr(self):
        # built on first read, so that a file header's n costs nothing
        # before a caller has checked it against its sites
        if self._indptr is None:
            self._indptr = np.searchsorted(self.src, np.arange(self.n + 1))
        return self._indptr

    @property
    def out_csr(self):
        """Out-adjacency as (indptr, targets) arrays: the targets of u are
        targets[indptr[u]:indptr[u + 1]], in edge order."""
        return self.indptr, self.dst

    def in_edges(self, v):
        """(sources, lengths) arrays of the edges into site v, in edge
        order."""
        if self._in is None:
            order = np.argsort(self.dst, kind="stable")
            self._in = (np.searchsorted(self.dst[order], np.arange(self.n + 1)),
                        self.src[order], self.length[order])
        ptr, src, length = self._in
        return src[ptr[v]:ptr[v + 1]], length[ptr[v]:ptr[v + 1]]

    def has_edges(self, u, v):
        """Boolean array: whether each (u[i], v[i]) is an edge of H."""
        return np.isin(np.asarray(u, dtype=np.int64) * self.n + v,
                       self.src * self.n + self.dst)

    @property
    def edges(self):
        """(source, target, length) tuples of Python numbers, in edge
        order; read-only."""
        if self._edges is None:
            ids = list(range(self.n))  # one int object per site, shared
            self._edges = list(zip(map(ids.__getitem__, self.src.tolist()),
                                   map(ids.__getitem__, self.dst.tolist()),
                                   self.length.tolist()))
        return self._edges

    @property
    def edge_cones(self):
        """{(source, target): ascending cone list}; None when the graph
        records no cones (loaded, or built on fewer than two sites);
        read-only."""
        if self._edge_cones is None and self.cone_ptr is not None:
            cones = self.cone_ids.tolist()
            ptr = self.cone_ptr.tolist()
            self._edge_cones = dict(zip(
                ((u, v) for u, v, _ in self.edges),
                (cones[a:b] for a, b in zip(ptr[:-1], ptr[1:]))))
        return self._edge_cones

    def save(self, path):
        k = self.params.k if self.params else 0
        c = self.params.c if self.params else 0
        with open(path, "w") as fh:
            fh.write(f"{self.n} {self.m} {self.t!r} {k} {c}\n")
            fh.writelines(f"{u} {v} {w!r}\n" for u, v, w in zip(
                self.src.tolist(), self.dst.tolist(), self.length.tolist()))

    @classmethod
    def load(cls, path):
        """Graph of a file written by `save`. Edges may come in any order;
        they are stably sorted on source."""
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 5:
                raise ValueError(f"{path}:1: bad header, expected 'n m t k c'")
            try:
                n, m, k, c = (int(header[i]) for i in (0, 1, 3, 4))
                t = float(header[2])
            except ValueError as exc:
                raise ValueError(f"{path}:1: {exc}") from None
            if not (math.isfinite(t) and t > 1.0):
                raise ValueError(f"{path}:1: stretch must be finite and "
                                 f"exceed 1, got {header[2]}")
            if n < 0 or m < 0:
                raise ValueError(f"{path}:1: site and edge counts must be "
                                 f"non-negative, got {n} {m}")
            if (k, c) != (0, 0) and not params_satisfy(t, k, c):
                raise ValueError(f"{path}:1: parameters k={k}, c={c} do not "
                                 f"support t={t}")
            edges = []
            for lineno, line in enumerate(fh, 2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 'src dst length'")
                try:
                    u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"{path}:{lineno}: endpoint outside "
                                     f"[0, {n}) in edge {u} {v}")
                if not (math.isfinite(w) and w >= 0):
                    raise ValueError(f"{path}:{lineno}: edge length must be "
                                     f"finite and non-negative, got {w}")
                edges.append((u, v, w))
            if len(edges) != m:
                raise ValueError(f"{path}: header says {m} edges, found {len(edges)}")
        params = SpannerParams(t=t, k=k, c=c) if k else None
        return cls.from_edges(n, edges, t, params)


# ---------------------------------------------------------------------------
# lower-envelope edge selection

def _arc_value(disk, s):
    """Height of the lower semicircle of `disk` = (cx, cy, r) at abscissa s."""
    cx, cy, r = disk
    d = r * r - (s - cx) * (s - cx)
    if d < 0.0:
        return INF
    return cy - math.sqrt(d)


def _lower_crossings(d1, d2, lo, hi):
    """Abscissas strictly inside (lo, hi) where the two lower arcs cross."""
    x1, y1, r1 = d1
    x2, y2, r2 = d2
    dx, dy = x2 - x1, y2 - y1
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return []
    d = math.sqrt(dd)
    a = (r1 * r1 - r2 * r2 + dd) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0.0:
        return []
    h = math.sqrt(h2)
    mx = x1 + a * dx / d
    my = y1 + a * dy / d
    out = []
    for px, py in ((mx + h * dy / d, my - h * dx / d),
                   (mx - h * dy / d, my + h * dx / d)):
        if py <= y1 and py <= y2 and lo < px < hi:
            out.append(px)
    return out


def _merge_envelopes(e1, e2, disks):
    """Pointwise minimum of two piecewise-arc envelopes.

    Envelopes are lists of (start, disk index) pieces, index -1 for gaps,
    starting at -inf. Within each elementary interval both inputs are a
    single arc, so the winner changes only at circle-circle crossings.
    """
    events = sorted({s for s, _ in e1} | {s for s, _ in e2})
    out = []
    i1 = i2 = 0
    for pos, a in enumerate(events):
        b = events[pos + 1] if pos + 1 < len(events) else INF
        while i1 + 1 < len(e1) and e1[i1 + 1][0] <= a:
            i1 += 1
        while i2 + 1 < len(e2) and e2[i2 + 1][0] <= a:
            i2 += 1
        o1 = e1[i1][1]
        o2 = e2[i2][1]
        if o1 < 0 and o2 < 0:
            pieces = [(a, -1)]
        elif o1 < 0:
            pieces = [(a, o2)]
        elif o2 < 0:
            pieces = [(a, o1)]
        else:
            xs = sorted(_lower_crossings(disks[o1], disks[o2], a, b))
            pts = [a] + xs
            pieces = []
            for pi, s0 in enumerate(pts):
                s1 = pts[pi + 1] if pi + 1 < len(pts) else b
                mid = 0.5 * (s0 + s1) if s1 < INF else s0 + 1.0
                f1 = _arc_value(disks[o1], mid)
                f2 = _arc_value(disks[o2], mid)
                if f1 < f2 or (f1 == f2 and o1 < o2):
                    pieces.append((s0, o1))
                else:
                    pieces.append((s0, o2))
        for piece in pieces:
            if out and out[-1][1] == piece[1]:
                continue
            out.append(piece)
    return out


def _build_envelope(disks, lo, hi):
    if hi - lo == 1:
        cx, _, r = disks[lo]
        env = [(-INF, -1)]
        if cx - r > -INF:
            env.append((cx - r, lo))
        else:
            env[0] = (-INF, lo)
        env.append((cx + r, -1))
        return env
    mid = (lo + hi) // 2
    return _merge_envelopes(_build_envelope(disks, lo, mid),
                            _build_envelope(disks, mid, hi), disks)


def _envelope_assign(env, targets, verdict):
    """Sweep x-sorted targets over the envelope.

    targets: (q_id, s, payload) sorted by s. verdict(disk_idx, payload)
    decides final containment with the shared disk predicate; the piece
    at s plus its two neighbors are tried, nearest first.
    """
    edges = []
    pos = 0
    for q_id, s, payload in targets:
        while pos + 1 < len(env) and env[pos + 1][0] <= s:
            pos += 1
        hit = None
        for cand in (pos, pos - 1, pos + 1):
            if 0 <= cand < len(env):
                idx = env[cand][1]
                if idx >= 0 and verdict(idx, payload):
                    hit = idx
                    break
        if hit is not None:
            edges.append((hit, q_id))
    return edges


def _canonicalize(line, targets, disks):
    """Map to canonical frame: separating line = x-axis, disks above,
    targets strictly below. Returns per-point (s, h) plus a validity flag."""
    axis, coord = line
    if axis == "v":
        tpts = [(y, x - coord) for x, y in targets]
        dpts = [(y, x - coord) for x, y in disks]
    elif axis == "h":
        tpts = [(x, y - coord) for x, y in targets]
        dpts = [(x, y - coord) for x, y in disks]
    else:
        raise ValueError(f"line axis must be 'v' or 'h', got {axis!r}")
    if dpts and dpts[0][1] < 0:
        tpts = [(s, -h) for s, h in tpts]
        dpts = [(s, -h) for s, h in dpts]
    if any(h >= 0 for _, h in tpts) or any(h <= 0 for _, h in dpts):
        raise ValueError("line does not strictly separate targets from disk centers")
    return tpts, dpts


def select_edges_envelope(targets, disks, line):
    """One containing disk per covered target, via the cap lower envelope.

    targets and disks are Site lists; line = ('v'|'h', coordinate) must
    strictly separate the target points from the disk centers. Returns
    (disk site id, target site id) pairs; uncovered targets are skipped.
    This is the paper's envelope lemma, the step behind its time bound; no
    builder calls it, since any containing disk keeps the witness argument
    and the sweep's batched containment test picks one directly.
    """
    if not targets or not disks:
        return []
    tpts, dpts = _canonicalize(line, [(s.x, s.y) for s in targets],
                               [(s.x, s.y) for s in disks])
    arcs = [(s, h, disks[i].radius) for i, (s, h) in enumerate(dpts)]
    env = _build_envelope(arcs, 0, len(arcs))
    order = sorted(range(len(targets)), key=lambda i: tpts[i][0])
    rows = [(targets[i].id, tpts[i][0], i) for i in order]

    def verdict(idx, i):
        return disk_contains(disks[idx], targets[i].x, targets[i].y)

    return [(disks[i].id, q) for i, q in _envelope_assign(env, rows, verdict)]


def select_edges_bruteforce(targets, disks):
    """Reference selection: first disk in given order containing each target."""
    edges = []
    for q in targets:
        for r in disks:
            if disk_contains(r, q.x, q.y):
                edges.append((r.id, q.id))
                break
    return edges


# ---------------------------------------------------------------------------
# decomposition-driven selection sweep

# bound on the entries one numpy pass holds at once: (pair, target, cone)
# entries and containment candidates of the sweep, edges of _finish
_SWEEP_CHUNK = 1 << 14


def _chunks(weight):
    """Consecutive [a, b) index ranges of about _SWEEP_CHUNK total weight
    each; an entry heavier than that gets its own range."""
    cum = np.cumsum(weight)
    cuts = np.searchsorted(cum, np.arange(_SWEEP_CHUNK, cum.max(initial=0),
                                          _SWEEP_CHUNK), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(weight)]))).tolist()
    return zip(bounds[:-1], bounds[1:])


def _select_level(pairs, csr, active):
    """Edges selected at the nodes of one level, in all cones at once.

    pairs holds the level's cone_assignments rows (node v, neighbor cell
    tau, j_lo, count); csr = (xy, rr, site_ptr, site_ids, disk_ptr,
    disk_ids) gives site coordinates, squared padded radii and, per node,
    its sites and its disks R_tau + [m_tau]. Each (pair, target) is live in
    the cones of the pair's range where the target is active at the
    level's start; a live one is tested against tau's disks once, and its
    first containing disk is its edge in each of those cones. Returns a
    list of (source, target, cone) array triples; `active` is only read.
    """
    xy, rr, site_ptr, site_ids, disk_ptr, disk_ids = csr
    k = len(active)
    v, tau, j_lo, count = pairs.T
    n_sites = site_ptr[v + 1] - site_ptr[v]
    n_disks = disk_ptr[tau + 1] - disk_ptr[tau]
    picked = []
    for a, b in _chunks(n_sites * count):
        # (pair, target) entries, each expanded over its pair's cone range
        # only to read the activity at the level's start
        pair, pos = _expand(site_ptr[v[a:b]], n_sites[a:b])
        pair += a
        q = site_ids[pos]
        entry, cone = _expand(j_lo[pair], count[pair])
        cone %= k
        keep = active[cone, q[entry]]
        entry, cone = entry[keep], cone[keep]
        if len(entry) == 0:
            continue
        live = entry[np.diff(entry, prepend=-1) != 0]  # entry is sorted
        first = np.full(len(pair), -1, dtype=np.int64)
        for lo, hi in _chunks(n_disks[pair[live]]):
            # (entry, disk) candidates; the first hit per entry wins
            ent = live[lo:hi]
            at, pos = _expand(disk_ptr[tau[pair[ent]]], n_disks[pair[ent]])
            qq = q[ent][at]
            r = disk_ids[pos]
            dx = xy[qq, 0] - xy[r, 0]
            dy = xy[qq, 1] - xy[r, 1]
            hit = np.flatnonzero(dx * dx + dy * dy <= rr[r])
            hit = hit[np.diff(at[hit], prepend=-1) != 0]
            first[ent[at[hit]]] = r[hit]
        got = first[entry] >= 0
        entry, cone = entry[got], cone[got]
        picked.append((first[entry], q[entry], cone))
    return picked


# the name the sweep calls its level step by, kept from the per-node step
# it replaced because benchmarks/fidelity.py rebinds it to slow the sweep
_select_for_node = _select_level


def _disk_csr(decomp):
    """(indptr, flat) int64 arrays of each node's disks: R in site order,
    then m when R lacks it."""
    R_ptr, R_ids, m = decomp.R_ptr, decomp.R_ids, decomp.m
    owner = np.repeat(np.arange(len(m)), np.diff(R_ptr))
    has_m = np.bincount(owner[R_ids == m[owner]], minlength=len(m)) > 0
    add = (m >= 0) & ~has_m
    indptr = R_ptr + np.concatenate(([0], np.cumsum(add)))
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    flat[np.arange(len(R_ids)) + (indptr - R_ptr)[owner]] = R_ids
    flat[indptr[1:][add] - 1] = m[add]
    return indptr, flat


def _decomposition_edges(sites, decomp):
    """All edges selected by the per-cone, level-increasing sweep.

    Returns int64 arrays (source, target, cone), one entry per edge and
    cone that selected it. Within a cone a site is deactivated once it
    has an incoming edge, and a node reads the activity of its sites once,
    before it meets its neighbor cells. Nodes of one level hold disjoint
    sites, so the sweep makes one pass per level, from the finest up: it
    reads the level's neighbor pairs with their cone ranges from
    cone_assignments, decides them in all cones at once against the
    activity at the level's start, and applies the level's deactivations
    after it.
    """
    xyr = site_array(sites)
    csr = (xyr[:, :2], (xyr[:, 2] + EPS) ** 2, decomp.site_ptr,
           decomp.site_ids, *_disk_csr(decomp))
    active = np.ones((decomp.params.k, len(xyr)), dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    found = [(empty, empty, empty)]
    for lvl in sorted(decomp.level_arrays):
        picked = _select_for_node(cone_assignments(decomp, lvl), csr, active)
        for _, dst, cone in picked:
            active[cone, dst] = False
        found += picked
    return tuple(np.concatenate(col) for col in zip(*found))


# ---------------------------------------------------------------------------
# Yao graph of a disk graph

def yao_cone_count(t):
    """Smallest cone count whose Yao-graph stretch bound is at most t."""
    if not t > 1.0:
        raise ValueError(f"stretch must exceed 1, got {t}")
    k = 9
    while True:
        theta = 2.0 * math.pi / k
        denom = math.cos(theta) - math.sin(theta)
        if denom > 0.0 and 1.0 / denom <= t:
            return k
        k += 1


def euclidean_spanner(xy, t, radius):
    """Yao graph of the disk graph UDG(radius) over the points `xy`.

    xy is an (n, 2) array. Every pair within distance `radius` is a
    candidate, from one kd-tree `query_pairs` call; each point keeps, per
    cone of yao_cone_count(t), its nearest candidate (ties to the smaller
    index). The choice is two scatter-min passes over the flat
    (point * k + cone) slot of each directed candidate, with no sort: the
    least squared distance per slot, then the least neighbor index among
    the candidates that tie it. Returns the undirected index pairs
    (i, j), i < j, as a sorted (m, 2) int64 array with
    m <= yao_cone_count(t) * n. Every pair within `radius` is joined by a
    path of these edges at most t times its length.
    """
    k = yao_cone_count(t)
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = len(xy)
    pairs = cKDTree(xy).query_pairs(radius, output_type="ndarray")
    if len(pairs) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    src = np.concatenate((pairs[:, 0], pairs[:, 1]))
    dst = np.concatenate((pairs[:, 1], pairs[:, 0]))
    x, y = xy[:, 0], xy[:, 1]
    dx = x[dst] - x[src]
    dy = y[dst] - y[src]
    d2 = dx * dx + dy * dy
    ang = np.arctan2(dy, dx) % (2.0 * math.pi)
    slot = src * k + np.minimum((ang / (2.0 * math.pi / k)).astype(np.int64),
                                k - 1)
    best = np.full(n * k, np.inf)
    np.minimum.at(best, slot, d2)
    tie = d2 == best[slot]
    nearest = np.full(n * k, n, dtype=np.int64)
    np.minimum.at(nearest, slot[tie], dst[tie])
    slot = np.flatnonzero(nearest < n)
    a, b = slot // k, nearest[slot]
    kept = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return np.stack(np.divmod(kept, n), axis=1)


# ---------------------------------------------------------------------------
# builders

def _resolve_params(t, params):
    if params is None:
        return spanner_parameters(t)
    if not params_satisfy(t, params.k, params.c):
        raise ValueError(f"parameters k={params.k}, c={params.c} do not support t={t}")
    return params


def _finish(sites, n, src, dst, cone, t, params, variant, scale, offset):
    """SpannerGraph of the selected (source, target, cone) entries: one
    edge per distinct (source, target), sorted, with its length in input
    coordinates and the cones that selected it. Cone -1 marks an edge that
    no cone selected (a Yao edge); it adds nothing to the edge's cone list,
    which stays empty unless a cone selected the edge too."""
    span = int(cone.max(initial=0)) + 2
    if n * n * span >= 1 << 63:
        raise ValueError(f"{n} sites and {span - 1} cones overflow the "
                         "int64 edge key")
    key = np.sort((src * n + dst) * span + (cone + 1))
    pair, cone = np.divmod(key, span)
    cone -= 1
    del key
    # an edge's entries are one run of equal pair; its -1 sorts first
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    src, dst = np.divmod(pair[first], n)
    del pair
    drop = cone[first] < 0
    cone_ptr = np.append(first, len(cone)) \
        - np.concatenate(([0], np.cumsum(drop)))
    cone_ids = np.delete(cone, first[drop])
    # math.hypot, not np.hypot: the two differ in the last bit on some
    # pairs; in chunks, so that the Python floats in flight stay few
    x = np.array([s.x for s in sites], dtype=np.float64)
    y = np.array([s.y for s in sites], dtype=np.float64)
    length = np.empty(len(first), dtype=np.float64)
    for a in range(0, len(first), _SWEEP_CHUNK):
        u, v = src[a:a + _SWEEP_CHUNK], dst[a:a + _SWEEP_CHUNK]
        length[a:a + len(u)] = np.fromiter(
            map(math.hypot, (x[u] - x[v]).tolist(), (y[u] - y[v]).tolist()),
            np.float64, len(u))
    return SpannerGraph(n, src, dst, length, t, params, variant, scale,
                        offset, cone_ptr, cone_ids)


def build_spanner_spread(sites, t, params=None):
    """t-spanner via the quadtree decomposition (bounded-spread setting)."""
    params = _resolve_params(t, params)
    n = len(sites)
    if n <= 1:
        return SpannerGraph.from_edges(n, [], t, params, VARIANT_SPREAD)
    norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_SPREAD],
                                    params.c)
    tree = build_quadtree(norm, params)
    decomp = derive_decomposition(tree, params, VARIANT_SPREAD, norm)
    return _finish(sites, n, *_decomposition_edges(norm, decomp), t, params,
                   VARIANT_SPREAD, scale, offset)


def _component_edges(xyr, comp, params, depth):
    """Swept (source, target, cone) arrays of one partition class, in the
    site ids of the normalized site_array `xyr`."""
    comp = np.asarray(comp, dtype=np.int64)
    sub = xyr[comp]
    forest = build_quadforest(sub, params, depth=depth)
    decomp = derive_decomposition(forest, params, VARIANT_RATIO, sub)
    src, dst, cone = _decomposition_edges(sub, decomp)
    return comp[src], comp[dst], cone


def build_spanner_radius_ratio(sites, t, params=None):
    """t-spanner via quadforests per far-apart component, plus the doubled
    Yao graph of the disk graph UDG(r_min) for nearby sites.

    After normalization every radius is at least r_min = c, and sites in
    level-0 cells closer than (c - 2) diameters are less than c apart, so
    the pairs the partial decomposition skips are two-way edges of
    UDG(r_min), whose Yao graph joins them with stretch at most t.
    """
    params = _resolve_params(t, params)
    n = len(sites)
    if n <= 1:
        return SpannerGraph.from_edges(n, [], t, params, VARIANT_RATIO)
    norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_RATIO],
                                    params.c)
    depth = forest_depth(radius_ratio(norm))
    xyr = site_array(norm)
    xy = np.ascontiguousarray(xyr[:, :2])
    rad = xyr[:, 2]
    comps = partition_components(norm, params)
    parts = [_component_edges(xyr, comp, params, depth)
             for comp in comps if len(comp) > 1]
    pairs = euclidean_spanner(xy, t, rad.min())
    d = xy[pairs[:, 0]] - xy[pairs[:, 1]]
    reach = np.minimum(rad[pairs[:, 0]], rad[pairs[:, 1]]) + EPS
    bad = np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] > reach * reach)
    if len(bad):
        u, w = pairs[bad[0]].tolist()
        raise AssertionError(f"Yao edge {u}-{w} is not a two-way transmission edge")
    # each Yao pair in both directions, with no cone
    parts.append((np.concatenate((pairs[:, 0], pairs[:, 1])),
                  np.concatenate((pairs[:, 1], pairs[:, 0])),
                  np.full(2 * len(pairs), -1, dtype=np.int64)))
    src, dst, cone = (np.concatenate(col) for col in zip(*parts))
    # the pieces go before _finish, which would otherwise hold them beside
    # the joined arrays
    del parts
    return _finish(sites, n, src, dst, cone, t, params, VARIANT_RATIO, scale,
                   offset)


def build_spanner_general(sites, t, params=None):
    """t-spanner for arbitrary spread and radius ratio via the compressed
    quadtree augmented with the cells of a WSPD."""
    params = _resolve_params(t, params)
    n = len(sites)
    if n <= 1:
        return SpannerGraph.from_edges(n, [], t, params, VARIANT_GENERAL)
    norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_GENERAL],
                                    params.c)
    tree = build_compressed_quadtree(norm, params)
    wspd = compute_wspd(tree, params.c)
    tree = augment_with_wspd(tree, wspd, params)
    decomp = derive_decomposition(tree, params, VARIANT_GENERAL, norm)
    return _finish(sites, n, *_decomposition_edges(norm, decomp), t, params,
                   VARIANT_GENERAL, scale, offset)


BUILDERS = {
    VARIANT_SPREAD: build_spanner_spread,
    VARIANT_RATIO: build_spanner_radius_ratio,
    VARIANT_GENERAL: build_spanner_general,
}


def sparsity_bound(params):
    """Explicit constant B with |edges| <= B * n for every construction:
    one edge per cone and neighbor cell, plus the doubled Yao graph of
    UDG(r_min) (at most yao_cone_count(t) undirected pairs per site)."""
    return (params.k * annulus_cell_count(params.c)
            + 2 * yao_cone_count(params.t))


# ---------------------------------------------------------------------------
# verification

def verify_shorter_edge(sites, H, params=None):
    """Witness check behind the stretch guarantee.

    For every transmission edge pq missing from H there must be an edge
    rq in H with |pr| <= |pq| - |rq|/t (within tolerance). For the
    radius-ratio variant the check skips edges whose level-0 cells are
    closer than (c - 2) diameters; those are covered by the Yao graph of
    UDG(r_min).
    Returns the list of violating (p, q) pairs.
    """
    # reachability imports this module
    from .reachability import transmission_edges

    params = params or H.params
    t = H.t
    n = len(sites)
    xy = np.array([(s.x, s.y) for s in sites], dtype=np.float64)
    # the transmission edges (p, q) missing from H, by target, then source
    p_all, q_all = transmission_edges(sites)
    order = np.lexsort((p_all, q_all))
    p_all, q_all = p_all[order], q_all[order]
    need = ~H.has_edges(p_all, q_all)
    if H.variant == VARIANT_RATIO:
        # the level-0 cells of the normalized sites, with cell_of's float
        # side; normalize caps the extent, so float64 holds them exactly
        cell = np.floor((xy * H.scale + np.asarray(H.offset)) / (1 / SQRT2))
        ann = Annulus(params.c)
        need &= ann.gap2(*(cell[p_all] - cell[q_all]).astype(np.int64).T) \
            >= ann.lo2
    p_all, q_all = p_all[need], q_all[need]
    bounds = np.searchsorted(q_all, np.arange(n + 1)).tolist()
    violations = []
    for q in range(n):
        ps = p_all[bounds[q]:bounds[q + 1]]
        if not len(ps):
            continue
        rs, ws = H.in_edges(q)
        pq = np.hypot(xy[ps, 0] - xy[q, 0], xy[ps, 1] - xy[q, 1])
        tol = 1e-9 * np.maximum(1.0, pq)
        pr = np.hypot(xy[ps, 0][:, None] - xy[rs, 0][None, :],
                      xy[ps, 1][:, None] - xy[rs, 1][None, :])
        ok = (pr <= (pq + tol)[:, None] - (ws / t)[None, :]).any(axis=1)
        violations += [(p, q) for p in ps[~ok].tolist()]
    return violations
