"""Cell hierarchies and the c-separated annulus decomposition.

Three hierarchy variants feed the spanner constructions: a quadtree for
bounded spread, a quadforest for bounded radius ratio, and a compressed
quadtree augmented via a well-separated pair decomposition for the
general case. All of them expose the same node type and are turned into
an annulus decomposition (cells, neighbor relation, assigned sites,
max-radius representatives) by derive_decomposition.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .core import (EPS, MODE_CLOSEST_PAIR_C, MODE_CLOSEST_PAIR_C2,
                   MODE_SMALLEST_RADIUS, SQRT2, GridCell,
                   cell_of, closest_pair, cone_ranges,
                   same_level_gap_sq)

VARIANT_SPREAD = "spread"
VARIANT_RATIO = "ratio"
VARIANT_GENERAL = "general"

# how each variant rescales its input before building its hierarchy
NORMALIZE_MODE = {
    VARIANT_SPREAD: MODE_CLOSEST_PAIR_C,
    VARIANT_RATIO: MODE_SMALLEST_RADIUS,
    VARIANT_GENERAL: MODE_CLOSEST_PAIR_C2,
}


class QuadNode:
    """One cell of a quadtree / quadforest / compressed quadtree.

    `children` holds only non-empty children. For plain quadtrees all
    children sit one level below the parent; compressed edges may jump
    levels (the skipped annulus contains no sites).
    """

    __slots__ = ("id", "cell", "children", "parent", "sites", "m",
                 "max_radius", "R", "point_cell")

    def __init__(self, cell, sites):
        self.id = -1
        self.cell = cell
        self.children = []
        self.parent = None
        self.sites = sites
        self.m = None
        self.max_radius = 0.0
        self.R = []
        self.point_cell = None

    @property
    def wspd_cell(self):
        """Cell used for pair separation: single-site leaves shrink to
        the level-0 cell of their site."""
        return self.point_cell if self.point_cell is not None else self.cell

    @property
    def level(self):
        return self.cell.level

    def is_leaf(self):
        return not self.children

    def __repr__(self):
        return (f"QuadNode(level={self.cell.level}, ix={self.cell.ix}, "
                f"iy={self.cell.iy}, n={len(self.sites)})")


def collect_nodes(structure):
    """All nodes of a root or list of roots, ids assigned in BFS order."""
    roots = structure if isinstance(structure, list) else [structure]
    nodes = []
    queue = list(roots)
    while queue:
        v = queue.pop()
        nodes.append(v)
        queue.extend(v.children)
    nodes.sort(key=lambda v: (-v.cell.level, v.cell.ix, v.cell.iy))
    for i, v in enumerate(nodes):
        v.id = i
    return nodes


def _check_scaled(value, target, what):
    if abs(value - target) > 1e-6 * max(1.0, abs(target)):
        raise ValueError(f"input not normalized: {what} is {value}, expected {target}")


def _root_level(sites):
    """Smallest level whose origin cell covers all (translated) sites."""
    hi = max(max(s.x for s in sites), max(s.y for s in sites))
    lo = min(min(s.x for s in sites), min(s.y for s in sites))
    if lo < 0:
        raise ValueError("normalized sites must have non-negative coordinates")
    level = 0
    while 2 ** level / SQRT2 <= hi:
        level += 1
    return level


def _subdivide(node, sites, stop_level):
    """Split non-empty cells level by level down to stop_level."""
    stack = [node]
    while stack:
        v = stack.pop()
        if v.cell.level <= stop_level:
            continue
        child_level = v.cell.level - 1
        buckets = {}
        for i in v.sites:
            c = cell_of(sites[i].x, sites[i].y, child_level)
            buckets.setdefault((c.ix, c.iy), []).append(i)
        for (ix, iy), idxs in sorted(buckets.items()):
            w = QuadNode(GridCell(child_level, ix, iy), idxs)
            w.parent = v
            v.children.append(w)
            stack.append(w)


def build_quadtree(sites, params):
    """Quadtree for the bounded-spread construction.

    Sites must be normalized so the closest pair is at distance c; level-0
    leaves then hold at most one site each.
    """
    if len(sites) == 0:
        raise ValueError("no sites")
    if len(sites) >= 2:
        d, _, _ = closest_pair([(s.x, s.y) for s in sites])
        _check_scaled(d, float(params.c), "closest-pair distance")
    L = _root_level(sites)
    root = QuadNode(GridCell(L, 0, 0), list(range(len(sites))))
    _subdivide(root, sites, 0)
    for v in collect_nodes(root):
        if v.cell.level == 0 and len(v.sites) > 1:
            raise AssertionError("level-0 cell with more than one site; input not normalized")
    return root


def radius_ratio(sites):
    radii = [s.radius for s in sites]
    return max(radii) / min(radii)


def forest_depth(psi):
    """Number of levels above 0 stored by the quadforest: ceil(log2 psi)."""
    if psi <= 1.0 + 1e-9:
        return 0
    return max(0, math.ceil(math.log2(psi) - 1e-12))


def build_quadforest(sites, params, depth=None):
    """Quadforest for the bounded-radius-ratio construction.

    Sites must be normalized so the smallest radius is at least c. Roots
    are the non-empty cells of level L = ceil(log2 psi) (or the given
    depth, when building one component of a larger normalized input);
    level-0 cells are not subdivided and may hold many sites.
    """
    if len(sites) == 0:
        raise ValueError("no sites")
    if min(s.radius for s in sites) < params.c * (1.0 - 1e-6):
        raise ValueError("input not normalized: smallest radius below c")
    L = forest_depth(radius_ratio(sites)) if depth is None else depth
    buckets = {}
    for i, s in enumerate(sites):
        c = cell_of(s.x, s.y, L)
        buckets.setdefault((c.ix, c.iy), []).append(i)
    roots = []
    for (ix, iy), idxs in sorted(buckets.items()):
        root = QuadNode(GridCell(L, ix, iy), idxs)
        _subdivide(root, sites, 0)
        roots.append(root)
    collect_nodes(roots)
    return roots


def partition_components(sites, params):
    """Site-index classes no transmission edge can cross (far-apart groups).

    Two sites interact only if the axis-parallel squares of side 2M
    centered at them intersect, where M is the largest radius after
    smallest-radius normalization. Connected components of that
    intersection graph are found with a uniform grid and union-find.
    """
    n = len(sites)
    if n == 0:
        return []
    M = max(s.radius for s in sites)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    w = 2.0 * M
    xy = np.array([(s.x, s.y) for s in sites], dtype=np.float64)
    buckets = {}
    for i, s in enumerate(sites):
        buckets.setdefault((math.floor(s.x / w), math.floor(s.y / w)), []).append(i)
    # a bucket is w x w, so its sites are pairwise within chebyshev
    # distance w and form a single component
    for members in buckets.values():
        for i in members[1:]:
            union(members[0], i)
    # across adjacent buckets one witness pair within chebyshev distance w
    # merges both (already internally connected) bucket components
    trees = {}
    for (bx, by), members in buckets.items():
        for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
            okey = (bx + dx, by + dy)
            other = buckets.get(okey)
            if other is None or find(members[0]) == find(other[0]):
                continue
            if okey not in trees:
                trees[okey] = cKDTree(xy[other])
            d, _ = trees[okey].query(xy[members], p=np.inf,
                                     distance_upper_bound=w * (1.0 + 1e-9))
            if np.min(d) <= w:
                union(members[0], other[0])
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _smallest_enclosing_level(sites, idxs, top_level):
    """Largest grid level below top_level at which the sites still split."""
    minx = min(sites[i].x for i in idxs)
    maxx = max(sites[i].x for i in idxs)
    miny = min(sites[i].y for i in idxs)
    maxy = max(sites[i].y for i in idxs)
    level = top_level
    while level > 0:
        s = 2 ** (level - 1) / SQRT2
        if math.floor(minx / s) != math.floor(maxx / s) or \
           math.floor(miny / s) != math.floor(maxy / s):
            break
        level -= 1
    return level


def build_compressed_quadtree(sites, params):
    """Compressed quadtree: internal nodes hold >= 2 sites, leaves <= 1.

    Sites must be normalized so the closest pair is at distance c + 2.
    Degree-1 (compressed) edges skip only empty annuli; they usually jump
    at least two levels, but a single-level jump is kept when the sites of
    the only non-empty quadrant split immediately below it.
    """
    if len(sites) == 0:
        raise ValueError("no sites")
    if len(sites) >= 2:
        d, i, j = closest_pair([(s.x, s.y) for s in sites])
        if d <= 0.0:
            raise ValueError(f"duplicate points (sites {i} and {j})")
        _check_scaled(d, float(params.c + 2), "closest-pair distance")
    L = _root_level(sites)
    root = QuadNode(GridCell(L, 0, 0), list(range(len(sites))))
    stack = [root]
    while stack:
        v = stack.pop()
        if len(v.sites) <= 1:
            continue
        lvl = _smallest_enclosing_level(sites, v.sites, v.cell.level)
        if lvl < v.cell.level:
            s0 = sites[v.sites[0]]
            w = QuadNode(cell_of(s0.x, s0.y, lvl), v.sites)
            w.parent = v
            v.children.append(w)
            stack.append(w)
            continue
        child_level = v.cell.level - 1
        buckets = {}
        for i in v.sites:
            c = cell_of(sites[i].x, sites[i].y, child_level)
            buckets.setdefault((c.ix, c.iy), []).append(i)
        for (ix, iy), idxs in sorted(buckets.items()):
            w = QuadNode(GridCell(child_level, ix, iy), idxs)
            w.parent = v
            v.children.append(w)
            stack.append(w)
    for v in collect_nodes(root):
        if not v.children and len(v.sites) == 1:
            s = sites[v.sites[0]]
            v.point_cell = cell_of(s.x, s.y, 0)
    return root


# pairs per batch of the WSPD frontier and of the augmentation: small
# enough for the float intermediates to stay in cache
_WSPD_CHUNK = 1 << 14


def _wspd_cells(nodes):
    """Level, ix and iy arrays of the nodes' wspd_cell, in `nodes` order,
    and the cells' bounds (x0, y0, x1, y1) in GridCell.bounds arithmetic."""
    cells = [v.wspd_cell for v in nodes]
    lvl = np.array([g.level for g in cells], dtype=np.int64)
    ix = np.array([g.ix for g in cells], dtype=np.int64)
    iy = np.array([g.iy for g in cells], dtype=np.int64)
    side = np.ldexp(1.0, lvl) / SQRT2
    return lvl, ix, iy, (ix * side, iy * side, (ix + 1) * side, (iy + 1) * side)


def _pair_distance(bounds, v, w):
    """cell_distance between the cells of nodes v[i] and w[i], plus the
    per-axis gaps it was taken from; the float arithmetic of
    cell_distance, with np.hypot in place of math.hypot."""
    x0, y0, x1, y1 = bounds
    dx = np.maximum(np.maximum(x0[v] - x1[w], x0[w] - x1[v]), 0.0)
    dy = np.maximum(np.maximum(y0[v] - y1[w], y0[w] - y1[v]), 0.0)
    return np.hypot(dx, dy), dx, dy


def compute_wspd(root, c):
    """c-well-separated pair decomposition over a compressed quadtree.

    Returns an (m, 2) int64 array of unordered node pairs, as ids of
    collect_nodes(root), such that every ordered site pair is covered by
    exactly one of them and c * max(diam(v), diam(w)) <= d(v, w) for
    each, where single-site leaves count with their point cell (diameter
    1). The pair frontier, seeded with all sibling pairs, is processed in
    numpy batches: a pair is kept once separated; otherwise the side with
    the larger diameter (w on ties) is replaced by its children, a
    childless side is never split, and two leaves form a pair.
    """
    nodes = collect_nodes(root)
    lvl, _, _, bounds = _wspd_cells(nodes)
    cdiam = c * np.ldexp(1.0, lvl)
    # children as rows of a -1-padded table (quadtree nodes have at most 4)
    kids = np.full((len(nodes), 4), -1, dtype=np.int64)
    for v in nodes:
        kids[v.id, :len(v.children)] = [u.id for u in v.children]
    leaf = kids[:, 0] < 0

    sibling = np.array([(ch[a].id, ch[b].id)
                        for ch in (v.children for v in nodes)
                        for a in range(len(ch)) for b in range(a + 1, len(ch))],
                       dtype=np.int64).reshape(-1, 2)
    pending = [(sibling[:, 0], sibling[:, 1])]
    # kept as int32 until the int64 result is assembled, which halves
    # their share of the peak when nearly all site pairs are listed
    out_v = []
    out_w = []
    while pending:
        # one batch of up to _WSPD_CHUNK pairs from the top of the stack
        v, w = pending.pop()
        while pending and len(v) + len(pending[-1][0]) <= _WSPD_CHUNK:
            pv, pw = pending.pop()
            v, w = np.concatenate((v, pv)), np.concatenate((w, pw))
        if len(v) > _WSPD_CHUNK:
            pending.append((v[_WSPD_CHUNK:], w[_WSPD_CHUNK:]))
            v, w = v[:_WSPD_CHUNK], w[:_WSPD_CHUNK]
        cv, cw = cdiam[v], cdiam[w]
        thr = np.maximum(cv, cw)
        d, dx, dy = _pair_distance(bounds, v, w)
        # np.hypot may differ from math.hypot by one ulp: redo the
        # distances whose last bit could decide the test
        tie = np.flatnonzero(np.abs(d - thr) <= 1e-12 * thr)
        d[tie] = [math.hypot(a, b) for a, b in
                  zip(dx[tie].tolist(), dy[tie].tolist())]
        leaf_v, leaf_w = leaf[v], leaf[w]
        # two leaves form a pair whether separated or not (their point
        # cells always are, after closest-pair normalization)
        done = (d >= thr) | (leaf_v & leaf_w)
        out_v.append(v[done].astype(np.int32))
        out_w.append(w[done].astype(np.int32))
        split_w = ~done & ~leaf_w & ((cw >= cv) | leaf_v)
        split_v = ~done & ~split_w
        for rows, col in ((split_w, 1), (split_v, 0)):
            if not rows.any():
                continue
            # each pair once per child of its side `col`, in that side's place
            child = kids[(v, w)[col][rows]].ravel()
            fixed = np.repeat((w, v)[col][rows], 4)
            pair = (child, fixed) if col == 0 else (fixed, child)
            real = child >= 0
            # pairs of two leaves are kept without a distance test
            two = real & leaf[child] & leaf[fixed]
            out_v.append(pair[0][two].astype(np.int32))
            out_w.append(pair[1][two].astype(np.int32))
            more = real & ~two
            pending.append((pair[0][more], pair[1][more]))
    pairs = np.empty((sum(len(a) for a in out_v), 2), dtype=np.int64)
    np.concatenate(out_v, out=pairs[:, 0])
    np.concatenate(out_w, out=pairs[:, 1])
    return pairs


def _pow2_floor_level(r):
    return int(math.floor(math.log2(r) + 1e-12))


def augment_with_wspd(root, wspd, params, sites):
    """Insert the cells that make the compressed quadtree a valid basis
    for the annulus decomposition (one pair of equal-diameter cells per
    WSPD pair, duplicates merged), and rebuild the tree around them.

    wspd is compute_wspd's (m, 2) array of collect_nodes(root) ids. Per
    pair, r = min(d / c, both parents' diameters) is computed as a vector;
    each side inserts its wspd_cell raised to level floor(log2 r), clamped
    to [its own level, its parent's level]. That cell is fixed by the
    node and the level, so the pairs only mark (node, level) entries of
    a bitmap; the marked cells and the tree's own are deduplicated with
    one lexsort. Leaf site lists come from bucketing the sites once per
    leaf level.
    """
    c = params.c
    nodes = collect_nodes(root)
    lvl, ix, iy, bounds = _wspd_cells(nodes)
    plvl = np.array([v.parent.cell.level if v.parent is not None
                     else v.cell.level for v in nodes], dtype=np.int64)
    pdiam = np.ldexp(1.0, plvl)
    # an inserted cell is fixed by its node and level: mark those first
    span = int(plvl.max()) + 1
    raised = np.zeros(len(nodes) * span, dtype=bool)
    wspd = np.asarray(wspd, dtype=np.int64).reshape(-1, 2)
    for lo in range(0, len(wspd), _WSPD_CHUNK):
        v = wspd[lo:lo + _WSPD_CHUNK, 0]
        w = wspd[lo:lo + _WSPD_CHUNK, 1]
        pd = np.minimum(pdiam[v], pdiam[w])
        d, dx, dy = _pair_distance(bounds, v, w)
        # r = frac * 2**e with frac in [0.5, 1), so floor(log2 r) = e - 1;
        # _pow2_floor_level differs from that only for frac within
        # ~1e-12 of 1, where np.hypot's last bit could matter too: those
        # rows are redone in math
        frac, e = np.frexp(np.minimum(d / c, pd))
        lr = e.astype(np.int64) - 1
        for i in np.flatnonzero(frac > 1.0 - 1e-11).tolist():
            r = min(math.hypot(float(dx[i]), float(dy[i])) / c, float(pd[i]))
            lr[i] = _pow2_floor_level(r)
        for side in (v, w):
            up = np.minimum(np.maximum(lr, lvl[side]), plvl[side])
            raised[side * span + up] = True
    node_of, level_of = np.divmod(np.flatnonzero(raised), span)
    shift = level_of - lvl[node_of]
    cells = np.stack((
        np.concatenate(([v.cell.level for v in nodes], level_of)),
        np.concatenate(([v.cell.ix for v in nodes], ix[node_of] >> shift)),
        np.concatenate(([v.cell.iy for v in nodes], iy[node_of] >> shift))))
    # distinct (level, ix, iy) keys in descending order
    cells = cells[:, np.lexsort(cells[::-1])[::-1]]
    fresh = np.ones(cells.shape[1], dtype=bool)
    fresh[1:] = (cells[:, 1:] != cells[:, :-1]).any(axis=0)
    # rebuild: parent of each cell = nearest strict ancestor present
    new_nodes = {}
    for key in zip(*cells[:, fresh].tolist()):
        new_nodes[key] = QuadNode(GridCell(*key), [])
    top_level = int(cells[0, 0])
    roots = []
    for key, node in new_nodes.items():
        level, kx, ky = key
        parent = None
        for up in range(level + 1, top_level + 1):
            shift = up - level
            pk = (up, kx >> shift, ky >> shift)
            if pk in new_nodes:
                parent = new_nodes[pk]
                break
        if parent is None:
            roots.append(node)
        else:
            node.parent = parent
            parent.children.append(node)
    if len(roots) != 1:
        raise AssertionError("augmented tree must keep a single root")
    new_root = roots[0]
    # leaves of the rebuilt tree are original leaves; each takes the sites
    # of its cell in index order, placed with cell_of's arithmetic in one
    # pass over the sites per leaf level
    xs = np.array([s.x for s in sites], dtype=np.float64)
    ys = np.array([s.y for s in sites], dtype=np.float64)
    leaves = {}
    for key, node in new_nodes.items():
        if node.is_leaf():
            leaves.setdefault(key[0], {})[key[1:]] = node
    for level, at in leaves.items():
        side = 2 ** level / SQRT2
        for i, key in enumerate(zip(np.floor(xs / side).astype(np.int64).tolist(),
                                    np.floor(ys / side).astype(np.int64).tolist())):
            if key in at:
                at[key].sites.append(i)
    for node in sorted(new_nodes.values(), key=lambda v: v.cell.level):
        if not node.is_leaf():
            node.sites = [i for w in node.children for i in w.sites]
    collect_nodes(new_root)
    return new_root


def build_hierarchy(sites, params, variant):
    """The cell hierarchy a variant derives its decomposition from, over
    sites already normalized with NORMALIZE_MODE[variant]."""
    if variant == VARIANT_SPREAD:
        return build_quadtree(sites, params)
    if variant == VARIANT_RATIO:
        return build_quadforest(sites, params)
    root = build_compressed_quadtree(sites, params)
    return augment_with_wspd(root, compute_wspd(root, params.c), params, sites)


# ---------------------------------------------------------------------------
# annulus decomposition

class AnnulusDecomposition:
    """Cells Q, neighbor relation N, assigned sites R_sigma and max-radius
    representatives m_sigma derived from one of the hierarchies."""

    def __init__(self, roots, nodes, params, variant):
        self.roots = roots
        self.nodes = nodes
        self.params = params
        self.variant = variant
        self.partial = variant == VARIANT_RATIO
        by_level = {}
        for v in nodes:
            by_level.setdefault(v.cell.level, []).append(v)
        self.level_arrays = {
            lvl: (
                np.array([v.id for v in vs], dtype=np.int64),
                np.array([v.cell.ix for v in vs], dtype=np.int64),
                np.array([v.cell.iy for v in vs], dtype=np.int64),
                np.array([v.max_radius for v in vs], dtype=np.float64),
            )
            for lvl, vs in by_level.items()
        }
        self.neighbors = None


def _populate_assignments(nodes, sites, params, variant):
    lb = params.c - 2 if variant == VARIANT_GENERAL else params.c
    ub = 2 * (params.c + 1)
    for v in nodes:
        diam = v.cell.diameter
        best = -1.0
        best_i = None
        R = []
        for i in v.sites:
            r = sites[i].radius
            if r > best or (r == best and i < best_i):
                best = r
                best_i = i
            if lb * diam - EPS <= r < ub * diam + EPS:
                R.append(i)
        v.m = best_i
        v.max_radius = best
        v.R = R


def neighbor_pair_rows(decomp, prune=True):
    """Ordered neighbor pairs (target node id, source node id, level).

    A pair (sigma, tau) qualifies when both cells share a level and their
    gap lies in [c-2, 2c) cell diameters (checked in exact integer
    arithmetic). With prune=True, pairs whose source cell holds no site
    that could reach the target cell (max radius below the gap) are
    dropped; such pairs can contribute neither edges nor Definition-3
    witnesses.
    """
    from scipy.spatial import cKDTree

    c = decomp.params.c
    lo2 = 2 * (c - 2) * (c - 2)
    hi2 = 8 * c * c
    r_out = 2 * c * SQRT2 + 1.0
    out_v = []
    out_t = []
    out_lvl = []
    for lvl, (ids, ix, iy, mrad) in decomp.level_arrays.items():
        if len(ids) < 2:
            continue
        side = 2 ** lvl / SQRT2
        pts = np.stack([ix, iy], axis=1).astype(np.float64)
        tree = cKDTree(pts)
        if prune:
            # enumerate ordered pairs from qualifying sources only: a
            # source cell needs a site whose radius reaches the minimum
            # gap of the annulus, which excludes almost all cells at
            # coarse levels and keeps the pair count near-linear
            strong = np.flatnonzero(mrad >= math.sqrt(lo2) * side - EPS)
            if len(strong) == 0:
                continue
            for s0 in range(0, len(strong), 256):
                chunk = strong[s0:s0 + 256]
                near = cKDTree(pts[chunk]).sparse_distance_matrix(
                    tree, r_out, p=np.inf, output_type="ndarray")
                if len(near) == 0:
                    continue
                src = chunk[near["i"]]
                tgt = near["j"].astype(np.int64)
                gx = np.maximum(np.abs(ix[src] - ix[tgt]) - 1, 0)
                gy = np.maximum(np.abs(iy[src] - iy[tgt]) - 1, 0)
                g2 = gx * gx + gy * gy
                keep = (g2 >= lo2) & (g2 < hi2)
                keep &= mrad[src] >= \
                    np.sqrt(g2.astype(np.float64)) * side - EPS
                if keep.any():
                    out_v.append(ids[tgt[keep]].astype(np.int32))
                    out_t.append(ids[src[keep]].astype(np.int32))
                    out_lvl.append(np.full(int(keep.sum()), lvl,
                                           dtype=np.int32))
        else:
            pairs = tree.query_pairs(r_out, p=np.inf, output_type="ndarray")
            if len(pairs) == 0:
                continue
            a = pairs[:, 0]
            b = pairs[:, 1]
            gx = np.maximum(np.abs(ix[a] - ix[b]) - 1, 0)
            gy = np.maximum(np.abs(iy[a] - iy[b]) - 1, 0)
            g2 = gx * gx + gy * gy
            keep = (g2 >= lo2) & (g2 < hi2)
            a = a[keep]
            b = b[keep]
            if len(a) == 0:
                continue
            for ta, so in ((a, b), (b, a)):
                out_v.append(ids[ta].astype(np.int32))
                out_t.append(ids[so].astype(np.int32))
                out_lvl.append(np.full(len(ta), lvl, dtype=np.int32))
    if not out_v:
        z = np.zeros(0, dtype=np.int32)
        return z, z, z
    return np.concatenate(out_v), np.concatenate(out_t), np.concatenate(out_lvl)


def derive_decomposition(structure, params, variant, sites,
                         materialize_neighbors=True):
    """Annulus decomposition over a built hierarchy.

    variant selects the lower endpoint of the assignment interval
    (c for the tree/forest variants, c - 2 for the compressed one) and
    whether the decomposition is partial (ratio variant: edges between
    close level-0 cells are left to the Yao graph of UDG(r_min)).
    """
    roots = structure if isinstance(structure, list) else [structure]
    nodes = collect_nodes(roots)
    _populate_assignments(nodes, sites, params, variant)
    decomp = AnnulusDecomposition(roots, nodes, params, variant)
    if materialize_neighbors:
        tv, tt, _ = neighbor_pair_rows(decomp, prune=False)
        neighbors = {v.id: [] for v in nodes}
        for a, b in zip(tv.tolist(), tt.tolist()):
            neighbors[a].append(b)
        for lst in neighbors.values():
            lst.sort()
        decomp.neighbors = neighbors
    return decomp


def cone_assignments(decomp):
    """Pruned neighbor pairs annotated with the cones that must consider them.

    Returns an integer array of rows (cone, level, target id, source id)
    in which the rows of each level form one contiguous run, the unit the
    selection sweep takes at a time; levels come in no particular order. A
    source cell is assigned to cone j when it lies entirely inside the
    doubled cone of j whose apex is the target cell's center; the angular
    arithmetic is cone_ranges, vectorized over all pairs.
    """
    k = decomp.params.k
    tv, tt, lvl = neighbor_pair_rows(decomp, prune=True)
    if len(tv) == 0:
        return np.zeros((0, 4), dtype=np.int64)
    nodes = decomp.nodes
    ix = np.array([v.cell.ix for v in nodes], dtype=np.float64)
    iy = np.array([v.cell.iy for v in nodes], dtype=np.float64)
    parts = []
    # chunked so the float intermediates stay bounded on large inputs
    for s in range(0, len(tv), 2_000_000):
        tv_c = tv[s:s + 2_000_000]
        tt_c = tt[s:s + 2_000_000]
        lvl_c = lvl[s:s + 2_000_000]
        side = (2.0 ** lvl_c) / SQRT2
        ax = (ix[tv_c] + 0.5) * side
        ay = (iy[tv_c] + 0.5) * side
        x0 = ix[tt_c] * side
        y0 = iy[tt_c] * side
        angs = np.empty((4, len(tv_c)))
        for ci, (cx, cy) in enumerate(((x0, y0), (x0 + side, y0),
                                       (x0 + side, y0 + side),
                                       (x0, y0 + side))):
            angs[ci] = np.arctan2(cy - ay, cx - ax)
        j_lo, j_hi = cone_ranges(angs, k)
        ok = j_hi >= j_lo
        counts = (j_hi - j_lo + 1)[ok]
        if len(counts) == 0:
            continue
        base = j_lo[ok]
        total = int(counts.sum())
        rep = np.repeat(np.arange(len(counts)), counts)
        start = np.concatenate(([0], np.cumsum(counts)[:-1]))
        cone = (base[rep] + (np.arange(total) - start[rep])) % k
        parts.append(np.stack([cone.astype(np.int32),
                               lvl_c[ok][rep].astype(np.int32),
                               tv_c[ok][rep].astype(np.int32),
                               tt_c[ok][rep].astype(np.int32)], axis=1))
    if not parts:
        return np.zeros((0, 4), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.vstack(parts)


def decomposition_dump(decomp):
    """Debug listing: one line per node `level ix iy |sites| m R-size`."""
    lines = []
    for v in sorted(decomp.nodes, key=lambda v: (-v.cell.level, v.cell.ix, v.cell.iy)):
        m = -1 if v.m is None else v.m
        lines.append(f"{v.cell.level} {v.cell.ix} {v.cell.iy} "
                     f"{len(v.sites)} {m} {len(v.R)}")
    return "\n".join(lines)


def check_decomposition(decomp, sites, graph):
    """Soundness check of the annulus decomposition.

    Part (i): every stored neighbor pair is same-level with gap in
    [c-2, 2c) diameters, and the relation is symmetric. Part (ii): every
    edge pq of the explicit transmission graph (skipping, for partial
    decompositions, edges whose level-0 cells are closer than c-2) is
    covered by a neighbor pair (sigma, tau) with q in sigma, p in tau,
    and p assigned to tau or q inside the disk of tau's representative.
    Returns (part_i_violations, part_ii_violations).
    """
    from .core import disk_contains

    if decomp.neighbors is None:
        raise ValueError("decomposition was derived without neighbor lists")
    c = decomp.params.c
    lo2 = 2 * (c - 2) * (c - 2)
    hi2 = 8 * c * c
    nodes = decomp.nodes
    bad_i = []
    for v in nodes:
        for t_id in decomp.neighbors[v.id]:
            tau = nodes[t_id]
            g2 = same_level_gap_sq(v.cell, tau.cell)
            if tau.cell.level != v.cell.level or not lo2 <= g2 < hi2 \
                    or v.id not in decomp.neighbors[t_id]:
                bad_i.append((v.id, t_id))
    site_nodes = [[] for _ in sites]
    for v in nodes:
        for i in v.sites:
            site_nodes[i].append(v.id)
    site_sets = {v.id: set(v.sites) for v in nodes}
    r_sets = {v.id: set(v.R) for v in nodes}
    bad_ii = []
    for p in range(len(sites)):
        cp = cell_of(sites[p].x, sites[p].y, 0)
        for q in graph.neighbors(p):
            q = int(q)
            if decomp.partial:
                cq = cell_of(sites[q].x, sites[q].y, 0)
                if same_level_gap_sq(cp, cq) < lo2:
                    continue
            ok = False
            for v_id in site_nodes[q]:
                for t_id in decomp.neighbors[v_id]:
                    if p not in site_sets[t_id]:
                        continue
                    tau = nodes[t_id]
                    if p in r_sets[t_id] or disk_contains(
                            sites[tau.m], sites[q].x, sites[q].y):
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                bad_ii.append((p, q))
    return bad_i, bad_ii


# ---------------------------------------------------------------------------
# explicit volume bounds

@lru_cache(maxsize=None)
def annulus_cell_count(c):
    """Exact number of same-level cells whose gap to a fixed cell lies in
    [c-2, 2c) diameters; the concrete form of the O(c^2) neighborhood
    volume bound."""
    lo2 = 2 * (c - 2) * (c - 2)
    hi2 = 8 * c * c
    span = int(math.ceil(2 * c * SQRT2)) + 2
    d = np.arange(-span, span + 1)
    gx = np.maximum(np.abs(d)[:, None] - 1, 0)
    gy = np.maximum(np.abs(d)[None, :] - 1, 0)
    g2 = gx * gx + gy * gy
    return int(((g2 >= lo2) & (g2 < hi2)).sum())


@lru_cache(maxsize=None)
def near_cell_count(c):
    """Exact number of level-0 cells within gap distance c - 2 of a fixed
    cell (the first query phase of the geometric reachability oracle)."""
    lim2 = 2 * (c - 2) * (c - 2)
    span = int(math.ceil((c - 2) * SQRT2)) + 2
    d = np.arange(-span, span + 1)
    gx = np.maximum(np.abs(d)[:, None] - 1, 0)
    gy = np.maximum(np.abs(d)[None, :] - 1, 0)
    g2 = gx * gx + gy * gy
    return int((g2 <= lim2).sum())
