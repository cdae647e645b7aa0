"""Spanner construction for directed transmission graphs.

Three builders share one selection sweep over their annulus
decompositions: bounded spread (quadtree), bounded radius ratio
(quadforest plus one Yao graph of the disk graph UDG(r_min) for nearby
sites) and the general case (compressed quadtree augmented with the cells
of a well-separated pair decomposition). Edge selection against a cell of
candidate disks runs either over the lower envelope of the disk caps
below a separating line or by direct containment tests for tiny inputs.
"""

from __future__ import annotations

import math

import numpy as np

from scipy.spatial import cKDTree

from .core import (EPS, Site, SpannerParams, cell_of, disk_contains,
                   normalize, params_satisfy, spanner_parameters)
from .decomposition import (NORMALIZE_MODE, VARIANT_GENERAL, VARIANT_RATIO,
                            VARIANT_SPREAD, annulus_cell_count,
                            augment_with_wspd, build_compressed_quadtree,
                            build_quadforest, build_quadtree, compute_wspd,
                            cone_assignments, derive_decomposition,
                            forest_depth, partition_components, radius_ratio)

INF = math.inf


class SpannerGraph:
    """Directed sparse subgraph H of the transmission graph.

    Edges are (source, target, Euclidean length) in the original input
    coordinates. Normalization metadata (variant, scale, offset) is kept
    in memory so verification can reconstruct the construction's grid.
    """

    def __init__(self, n, edges, t, params=None, variant=None,
                 scale=1.0, offset=(0.0, 0.0), edge_cones=None):
        self.n = n
        self.edges = edges
        self.t = float(t)
        self.params = params
        self.variant = variant
        self.scale = scale
        self.offset = offset
        self.edge_cones = edge_cones
        self._in = None
        self._out_csr = None

    @property
    def m(self):
        return len(self.edges)

    def in_edges(self, v):
        """Incoming (source, length) pairs of site v."""
        if self._in is None:
            self._in = [[] for _ in range(self.n)]
            for u, dst, w in self.edges:
                self._in[dst].append((u, w))
        return self._in[v]

    @property
    def out_csr(self):
        """Out-adjacency as (indptr, targets) arrays: the targets of u are
        targets[indptr[u]:indptr[u + 1]], in `edges` order."""
        if self._out_csr is None:
            m = len(self.edges)
            src = np.fromiter((u for u, _, _ in self.edges), np.int64, m)
            dst = np.fromiter((v for _, v, _ in self.edges), np.int64, m)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            self._out_csr = (indptr, dst[np.argsort(src, kind="stable")])
        return self._out_csr

    def edge_set(self):
        return {(u, v) for u, v, _ in self.edges}

    def save(self, path):
        k = self.params.k if self.params else 0
        c = self.params.c if self.params else 0
        with open(path, "w") as fh:
            fh.write(f"{self.n} {len(self.edges)} {self.t!r} {k} {c}\n")
            for u, v, w in self.edges:
                fh.write(f"{u} {v} {w!r}\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 5:
                raise ValueError(f"{path}: bad header, expected 'n m t k c'")
            n, m = int(header[0]), int(header[1])
            t = float(header[2])
            k, c = int(header[3]), int(header[4])
            edges = []
            for lineno, line in enumerate(fh, 2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 'src dst length'")
                u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
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
        return cls(n, edges, t, params)


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
# decomposition-driven selection (envelope engine)

# below this |R| * |Q| product a direct double loop beats building the
# envelope; 0 forces the envelope everywhere (used by tests)
_BRUTE_LIMIT = 64

def _separating_line(sigma, tau):
    """Axis-parallel line strictly between two disjoint same-level cells."""
    sx0, sy0, sx1, sy1 = sigma.bounds()
    tx0, ty0, tx1, ty1 = tau.bounds()
    options = (
        (tx0 - sx1, ("v", 0.5 * (sx1 + tx0))),
        (sx0 - tx1, ("v", 0.5 * (tx1 + sx0))),
        (ty0 - sy1, ("h", 0.5 * (sy1 + ty0))),
        (sy0 - ty1, ("h", 0.5 * (ty1 + sy0))),
    )
    gap, line = max(options)
    if gap <= 0.0:
        raise AssertionError("neighbor cells are not separated")
    return line


def _select_for_node(sites, v, taus, active, edges, cone):
    """Run edge selection at node v against its neighbor cells for one cone.

    Returns the target sites that received at least one edge; the caller
    deactivates them for the rest of the cone.
    """
    q_ids = [i for i in v.sites if active[i]]
    if not q_ids:
        return ()
    covered = set()
    for tau in taus:
        disks_ids = list(tau.R)
        if tau.m is not None and tau.m not in tau.R:
            disks_ids.append(tau.m)
        if not disks_ids:
            continue
        if len(disks_ids) * len(q_ids) <= _BRUTE_LIMIT or len(disks_ids) < 3:
            disks = [(sites[i].x, sites[i].y, (sites[i].radius + EPS) ** 2)
                     for i in disks_ids]
            for q_id in q_ids:
                q = sites[q_id]
                for pos, (dx_, dy_, rr) in enumerate(disks):
                    ddx = q.x - dx_
                    ddy = q.y - dy_
                    if ddx * ddx + ddy * ddy <= rr:
                        cones = edges.setdefault((disks_ids[pos], q_id), [])
                        if cone not in cones:
                            cones.append(cone)
                        covered.add(q_id)
                        break
        else:
            sel = select_edges_envelope([sites[i] for i in q_ids],
                                        [sites[i] for i in disks_ids],
                                        _separating_line(v.cell, tau.cell))
            for r_id, q_id in sel:
                cones = edges.setdefault((r_id, q_id), [])
                if cone not in cones:
                    cones.append(cone)
                covered.add(q_id)
    return covered


def _decomposition_edges(sites, decomp):
    """All edges selected by the per-cone, level-increasing sweep.

    Returns a dict (source, target) -> list of cones that produced it.
    A fresh activity bitmap is used per cone; a site is deactivated for
    the rest of a cone once it has an incoming edge in that cone.
    """
    rows = cone_assignments(decomp)
    edges = {}
    if len(rows) == 0:
        return edges
    n = len(sites)
    cone_col = rows[:, 0]
    v_col = rows[:, 2]
    tau_col = rows[:, 3]
    change = np.flatnonzero((np.diff(cone_col) != 0) | (np.diff(v_col) != 0))
    starts = np.concatenate(([0], change + 1)).tolist()
    ends = np.concatenate((change + 1, [len(rows)])).tolist()
    nodes = decomp.nodes
    active = None
    cur_cone = -1
    for s, e in zip(starts, ends):
        cone = int(cone_col[s])
        if cone != cur_cone:
            cur_cone = cone
            active = [True] * n
        taus = [nodes[tau_col[x]] for x in range(s, e)]
        covered = _select_for_node(sites, nodes[int(v_col[s])], taus,
                                   active, edges, cone)
        for q in covered:
            active[q] = False
    return edges


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
    candidate; each point keeps, per cone of yao_cone_count(t), its
    nearest candidate (ties to the smaller index). Returns the undirected
    index pairs (i, j), i < j, as a sorted (m, 2) int64 array with
    m <= yao_cone_count(t) * n. Every pair within `radius` is joined by a
    path of these edges at most t times its length.
    """
    k = yao_cone_count(t)
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    pairs = cKDTree(xy).query_pairs(radius, output_type="ndarray")
    if len(pairs) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    src = np.concatenate((pairs[:, 0], pairs[:, 1]))
    dst = np.concatenate((pairs[:, 1], pairs[:, 0]))
    d = xy[dst] - xy[src]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    ang = np.arctan2(d[:, 1], d[:, 0]) % (2.0 * math.pi)
    cone = np.minimum((ang / (2.0 * math.pi / k)).astype(np.int64), k - 1)
    order = np.lexsort((dst, d2, cone, src))
    key = src[order] * k + cone[order]
    first = order[np.concatenate(([True], key[1:] != key[:-1]))]
    kept = np.stack((np.minimum(src[first], dst[first]),
                     np.maximum(src[first], dst[first])), axis=1)
    return np.unique(kept, axis=0)


# ---------------------------------------------------------------------------
# builders

def _resolve_params(t, params):
    if params is None:
        return spanner_parameters(t)
    if not params_satisfy(t, params.k, params.c):
        raise ValueError(f"parameters k={params.k}, c={params.c} do not support t={t}")
    return params


def _distance(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)


def _finish(sites, n, edge_cones, t, params, variant, scale, offset):
    edges = [(u, v, _distance(sites[u], sites[v]))
             for u, v in sorted(edge_cones)]
    return SpannerGraph(n, edges, t, params, variant, scale, offset,
                        edge_cones=edge_cones)


def build_spanner_spread(sites, t, params=None):
    """t-spanner via the quadtree decomposition (bounded-spread setting)."""
    params = _resolve_params(t, params)
    n = len(sites)
    if n <= 1:
        return SpannerGraph(n, [], t, params, VARIANT_SPREAD)
    norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_SPREAD],
                                    params.c)
    root = build_quadtree(norm, params)
    decomp = derive_decomposition(root, params, VARIANT_SPREAD, norm,
                                  materialize_neighbors=False)
    edge_cones = _decomposition_edges(norm, decomp)
    return _finish(sites, n, edge_cones, t, params, VARIANT_SPREAD, scale, offset)


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
        return SpannerGraph(n, [], t, params, VARIANT_RATIO)
    norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_RATIO],
                                    params.c)
    depth = forest_depth(radius_ratio(norm))
    comps = partition_components(norm, params)
    edge_cones = {}
    for comp in comps:
        if len(comp) == 1:
            continue
        sub = [Site(pos, norm[i].x, norm[i].y, norm[i].radius)
               for pos, i in enumerate(comp)]
        roots = build_quadforest(sub, params, depth=depth)
        decomp = derive_decomposition(roots, params, VARIANT_RATIO, sub,
                                      materialize_neighbors=False)
        for (u, v), cones in _decomposition_edges(sub, decomp).items():
            edge_cones.setdefault((comp[u], comp[v]), []).extend(cones)
    xy = np.array([(s.x, s.y) for s in norm], dtype=np.float64)
    rad = np.array([s.radius for s in norm], dtype=np.float64)
    pairs = euclidean_spanner(xy, t, rad.min())
    d = xy[pairs[:, 0]] - xy[pairs[:, 1]]
    reach = np.minimum(rad[pairs[:, 0]], rad[pairs[:, 1]]) + EPS
    bad = np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] > reach * reach)
    if len(bad):
        u, w = pairs[bad[0]].tolist()
        raise AssertionError(f"Yao edge {u}-{w} is not a two-way transmission edge")
    for u, w in pairs.tolist():
        edge_cones.setdefault((u, w), [])
        edge_cones.setdefault((w, u), [])
    return _finish(sites, n, edge_cones, t, params, VARIANT_RATIO, scale, offset)


def build_spanner_general(sites, t, params=None):
    """t-spanner for arbitrary spread and radius ratio via the compressed
    quadtree augmented with the cells of a WSPD."""
    params = _resolve_params(t, params)
    n = len(sites)
    if n <= 1:
        return SpannerGraph(n, [], t, params, VARIANT_GENERAL)
    norm, scale, offset = normalize(sites, NORMALIZE_MODE[VARIANT_GENERAL],
                                    params.c)
    root = build_compressed_quadtree(norm, params)
    wspd = compute_wspd(root, params.c)
    root = augment_with_wspd(root, wspd, params, norm)
    decomp = derive_decomposition(root, params, VARIANT_GENERAL, norm,
                                  materialize_neighbors=False)
    edge_cones = _decomposition_edges(norm, decomp)
    return _finish(sites, n, edge_cones, t, params, VARIANT_GENERAL, scale, offset)


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
    from .oracle import materialize

    params = params or H.params
    t = H.t
    n = len(sites)
    G = materialize(sites)
    present = H.edge_set()
    restricted = H.variant == VARIANT_RATIO
    if restricted:
        c = params.c
        lim2 = 2 * (c - 2) * (c - 2)
        ox, oy = H.offset
        cells = [cell_of(s.x * H.scale + ox, s.y * H.scale + oy, 0)
                 for s in sites]
    xy = np.array([(s.x, s.y) for s in sites], dtype=np.float64)
    csc = G.csr.tocsc()
    violations = []
    for q in range(n):
        ps = []
        for p in csc.indices[csc.indptr[q]:csc.indptr[q + 1]].tolist():
            if (p, q) in present:
                continue
            if restricted:
                gx = max(0, abs(cells[p].ix - cells[q].ix) - 1)
                gy = max(0, abs(cells[p].iy - cells[q].iy) - 1)
                if gx * gx + gy * gy < lim2:
                    continue
            ps.append(p)
        if not ps:
            continue
        wit = H.in_edges(q)
        pq = np.hypot(xy[ps, 0] - xy[q, 0], xy[ps, 1] - xy[q, 1])
        tol = 1e-9 * np.maximum(1.0, pq)
        if wit:
            rs = np.array([r for r, _ in wit])
            ws = np.array([w for _, w in wit], dtype=np.float64)
            pr = np.hypot(xy[ps, 0][:, None] - xy[rs, 0][None, :],
                          xy[ps, 1][:, None] - xy[rs, 1][None, :])
            ok = (pr <= (pq + tol)[:, None] - (ws / t)[None, :]).any(axis=1)
        else:
            ok = np.zeros(len(ps), dtype=bool)
        for i in np.nonzero(~ok)[0]:
            violations.append((ps[int(i)], q))
    return violations
