"""Cell hierarchies and the c-separated annulus decomposition.

Three hierarchy variants feed the spanner constructions: a quadtree for
bounded spread, a quadforest for bounded radius ratio, and a compressed
quadtree augmented via a well-separated pair decomposition for the
general case. All three are one array hierarchy, `NodeArrays`: per-node
cell arrays and a CSR of node sites, ids in (-level, ix, iy) order. The
full grid tree, built level by level in numpy, is the quadtree (from the
level covering all sites) and the quadforest (from level ceil(log2 psi));
the compressed and the augmented quadtree are masks of it, with no
per-node Python step. One vectorized step then assigns every node its
sites R and its max-radius representative m, and the
`AnnulusDecomposition` holds the result as arrays; neighbor_pairs
enumerates its neighbor relation one level at a time from the per-level
cell arrays.
`QuadNode` views of a hierarchy are built only when a caller reads them.

Whether two same-level cells are annulus neighbors, and which doubled
cones at one's centre hold the other, depends on their offset alone;
`Annulus` answers both per offset, for every reader but the independent
check_decomposition.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import (EPS, MODE_CLOSEST_PAIR_C, MODE_CLOSEST_PAIR_C2,
                   MODE_SMALLEST_RADIUS, SQRT2, GridCell, closest_pair,
                   cone_ranges)

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
    """One cell of a hierarchy in the `nodes` view of its NodeArrays.

    `children` holds the child nodes in id order. In a compressed or
    augmented tree a child may sit more than one level below its parent
    (the skipped cells hold the same sites).
    """

    __slots__ = ("id", "cell", "children", "parent", "sites", "m",
                 "max_radius", "R")

    def __init__(self, cell, sites):
        self.id = -1
        self.cell = cell
        self.children = []
        self.parent = None
        self.sites = sites
        self.m = None
        self.max_radius = 0.0
        self.R = []

    @property
    def level(self):
        return self.cell.level

    def is_leaf(self):
        return not self.children

    def __repr__(self):
        return (f"QuadNode(level={self.cell.level}, ix={self.cell.ix}, "
                f"iy={self.cell.iy}, n={len(self.sites)})")


def site_array(sites):
    """(n, 3) float64 array of the sites' (x, y, radius) rows; an array is
    returned as it is."""
    if isinstance(sites, np.ndarray):
        return sites
    return np.array([(s.x, s.y, s.radius) for s in sites],
                    dtype=np.float64).reshape(-1, 3)


class NodeArrays:
    """The nodes of a cell hierarchy as arrays, ids in (-level, ix, iy)
    order, so that each level is one contiguous id range.

    Node i is the cell (level[i], ix[i], iy[i]) (int64); parent[i] is the
    id of the node it hangs from (-1 for a root), and its sites are
    site_ids[site_ptr[i]:site_ptr[i + 1]]. Every hierarchy is one full
    grid tree (_grid_tree) or a mask of one: the compressed and the
    augmented quadtree keep that tree as `full` and their nodes' ids in
    it as `full_id` (None otherwise). `nodes` is a QuadNode list with the
    same ids, built from the arrays on first read.
    """

    def __init__(self, level, ix, iy, parent, site_ptr, site_ids):
        self.level = level
        self.ix = ix
        self.iy = iy
        self.parent = parent
        self.site_ptr = site_ptr
        self.site_ids = site_ids
        self.full = self.full_id = None
        self._nodes = None

    @property
    def nodes(self):
        if self._nodes is None:
            ptr = self.site_ptr.tolist()
            ids = self.site_ids.tolist()
            nodes = [QuadNode(GridCell(*key), ids[a:b]) for key, a, b in zip(
                zip(self.level.tolist(), self.ix.tolist(), self.iy.tolist()),
                ptr[:-1], ptr[1:])]
            for i, (v, p) in enumerate(zip(nodes, self.parent.tolist())):
                v.id = i
                if p >= 0:
                    v.parent = nodes[p]
                    nodes[p].children.append(v)
            self._nodes = nodes
        return self._nodes

    @property
    def roots(self):
        return [v for v in self.nodes if v.parent is None]

    def level_ranges(self):
        """(first, end) id range of each level, levels descending."""
        cut = (np.flatnonzero(np.diff(self.level)) + 1).tolist()
        return list(zip([0] + cut, cut + [len(self.level)]))

    def fan_out(self):
        """Number of children of each node."""
        return np.bincount(self.parent[self.parent >= 0],
                           minlength=len(self.level))


def _expand(lo, counts):
    """(owner, position) of every entry of the ranges
    [lo[i], lo[i] + counts[i]), in owner order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) + (lo - start)[owner]


def _check_scaled(value, target, what):
    if abs(value - target) > 1e-6 * max(1.0, abs(target)):
        raise ValueError(f"input not normalized: {what} is {value}, expected {target}")


def _root_level(xy):
    """Smallest level whose origin cell covers all (translated) points."""
    if xy.min() < 0:
        raise ValueError("normalized sites must have non-negative coordinates")
    hi = xy.max()
    level = 0
    while 2 ** level / SQRT2 <= hi:
        level += 1
    return level


def _grid_tree(x, y, top):
    """The full grid tree over the points (x, y): every non-empty cell of
    levels top, ..., 0, each hung from the cell one level up, as
    NodeArrays. Every level holds all points: a point's cell is
    np.floor(coordinate / side), with cell_of's float side, and a node is
    one run of the level's points sorted by (ix, iy, parent node, index),
    so each node lists its points in index order."""
    n = len(x)
    members = np.arange(n)
    up = np.full(n, -1, dtype=np.int64)  # each member's node one level up
    first = 0  # id of the level's first node
    parts = []
    for lvl in range(top, -1, -1):
        side = 2 ** lvl / SQRT2
        kx = np.floor(x[members] / side).astype(np.int64)
        ky = np.floor(y[members] / side).astype(np.int64)
        order = np.lexsort((members, up, ky, kx))
        members, up, kx, ky = members[order], up[order], kx[order], ky[order]
        new = np.ones(n, dtype=bool)
        new[1:] = (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1]) | (up[1:] != up[:-1])
        start = np.flatnonzero(new)
        # the level's n points sit at [(top - lvl) * n, (top - lvl + 1) * n)
        parts.append((np.full(len(start), lvl), kx[start], ky[start],
                      up[start], start + (top - lvl) * n, members))
        up = first + np.cumsum(new) - 1
        first += len(start)
    level, ix, iy, parent, site_ptr, site_ids = (np.concatenate(col)
                                                 for col in zip(*parts))
    site_ptr = np.append(site_ptr, len(site_ids))
    return NodeArrays(level, ix, iy, parent, site_ptr, site_ids)


def _mask(full, keep):
    """The nodes of the full tree that the bool array `keep` marks, each
    hung from its nearest marked ancestor, with its sites in index order."""
    ids = np.flatnonzero(keep)
    new_id = np.cumsum(keep) - 1
    anc = np.full(len(keep), -1, dtype=np.int64)
    # a parent sits one level up, in the id range before its child's
    for a, b in full.level_ranges():
        p = full.parent[a:b]
        anc[a:b] = np.where(p < 0, -1, np.where(keep[p], new_id[p], anc[p]))
    counts = np.diff(full.site_ptr)[ids]
    site_ptr = np.concatenate(([0], np.cumsum(counts)))
    _, at = _expand(full.site_ptr[ids], counts)
    tree = NodeArrays(full.level[ids], full.ix[ids], full.iy[ids], anc[ids],
                      site_ptr, full.site_ids[at])
    tree.full, tree.full_id = full, ids
    return tree


def _site_nodes(full):
    """Table of the full tree's nodes by level and site: row k holds, for
    each site, the id of its node at level level[0] - k."""
    owner = np.repeat(np.arange(len(full.level)), np.diff(full.site_ptr))
    rows = int(full.level[0]) + 1
    n = len(owner) // rows
    table = np.empty(len(owner), dtype=np.int64)
    table[np.arange(len(owner)) // n * n + full.site_ids] = owner
    return table.reshape(rows, n)


def build_quadtree(sites, params):
    """Quadtree for the bounded-spread construction: the full grid tree
    from the level whose origin cell covers all sites down to level 0.

    Sites must be normalized so the closest pair is at distance c; level-0
    leaves then hold at most one site each.
    """
    xy = site_array(sites)[:, :2]
    if len(xy) == 0:
        raise ValueError("no sites")
    if len(xy) >= 2:
        d, _, _ = closest_pair(xy)
        _check_scaled(d, float(params.c), "closest-pair distance")
    tree = _grid_tree(xy[:, 0], xy[:, 1], _root_level(xy))
    if (np.diff(tree.site_ptr)[tree.level == 0] > 1).any():
        raise AssertionError("level-0 cell with more than one site; input not normalized")
    return tree


def radius_ratio(sites):
    radii = [s.radius for s in sites]
    return max(radii) / min(radii)


def forest_depth(psi):
    """Number of levels above 0 stored by the quadforest: ceil(log2 psi)."""
    if psi <= 1.0 + 1e-9:
        return 0
    return max(0, math.ceil(math.log2(psi) - 1e-12))


def build_quadforest(sites, params, depth=None):
    """Quadforest for the bounded-radius-ratio construction, as NodeArrays.

    sites is a Site list or its site_array, normalized so the smallest
    radius is at least c. Roots are the non-empty cells of level
    L = ceil(log2 psi) (or the given depth, when building one component
    of a larger normalized input); level-0 cells are not subdivided and
    may hold many sites. It is the full grid tree below level L.
    """
    xyr = site_array(sites)
    if len(xyr) == 0:
        raise ValueError("no sites")
    r = xyr[:, 2]
    if r.min() < params.c * (1.0 - 1e-6):
        raise ValueError("input not normalized: smallest radius below c")
    L = forest_depth(r.max() / r.min()) if depth is None else depth
    return _grid_tree(xyr[:, 0], xyr[:, 1], L)


def partition_components(sites, params):
    """Site-index classes no transmission edge can cross (far-apart groups),
    as ascending index lists, sorted.

    Two sites interact only if the axis-parallel squares of side 2M
    centered at them intersect, where M is the largest radius after
    smallest-radius normalization. Connected components of that
    intersection graph come from a uniform grid of buckets of side w = 2M:
    a bucket's sites are pairwise within chebyshev distance w, so each
    bucket is connected, and two adjacent buckets are joined when they
    hold a witness pair within chebyshev distance w. The pair of sites
    furthest towards each other is tried first, in the kd-tree's
    arithmetic (the largest per-axis float difference); a kd-tree query
    decides the rest, so the verdicts are those of querying every pair.
    """
    xyr = site_array(sites)
    n = len(xyr)
    if n == 0:
        return []
    w = 2.0 * float(xyr[:, 2].max())
    xy = xyr[:, :2]
    keys, label = np.unique(np.floor(xy / w).astype(np.int64), axis=0,
                            return_inverse=True)
    label = label.ravel()
    count = np.bincount(label)
    ptr = np.cumsum(count)
    members = np.split(np.argsort(label, kind="stable"), ptr[:-1])
    bucket = {key: u for u, key in enumerate(map(tuple, keys.tolist()))}
    offsets = ((1, -1), (1, 0), (1, 1), (0, 1))
    # adjacent buckets a[i], b[i], b at offsets[off[i]] from a
    a, b, off = np.array([
        (u, bucket[(bx + dx, by + dy)], i)
        for u, (bx, by) in enumerate(keys.tolist())
        for i, (dx, dy) in enumerate(offsets)
        if (bx + dx, by + dy) in bucket], dtype=np.int64).reshape(-1, 3).T
    # ends[i, 0 / 1, u]: bucket u's first / last site along offsets[i];
    # a's last and b's first are the pair tried first
    ends = np.stack([np.lexsort((dx * xy[:, 0] + dy * xy[:, 1], label))[
        [ptr - count, ptr - 1]] for dx, dy in offsets])
    joined = np.abs(xy[ends[off, 1, a]] - xy[ends[off, 0, b]]).max(axis=1) <= w
    trees = {}
    for i in np.flatnonzero(~joined).tolist():
        u, v = int(a[i]), int(b[i])
        if v not in trees:
            trees[v] = cKDTree(xy[members[v]])
        d, _ = trees[v].query(xy[members[u]], p=np.inf,
                              distance_upper_bound=w * (1.0 + 1e-9))
        joined[i] = np.min(d) <= w
    _, comp = connected_components(
        csr_matrix((np.ones(int(joined.sum())), (a[joined], b[joined])),
                   shape=(len(keys), len(keys))), directed=False)
    comp = comp[label]
    order = np.argsort(comp, kind="stable")
    cuts = np.flatnonzero(np.diff(comp[order])) + 1
    return sorted(part.tolist() for part in np.split(order, cuts))


def build_compressed_quadtree(sites, params):
    """Compressed quadtree: internal nodes hold >= 2 sites, leaves <= 1.

    Sites must be normalized so the closest pair is at distance c + 2.
    The tree is a mask of the full grid tree: its roots, the nodes with
    at least two children, and the children of those. Each kept node
    hangs from its nearest kept ancestor, so a compressed edge skips only
    cells that hold the same sites; it usually jumps at least two levels,
    but a single-level jump is kept when the sites of the only non-empty
    quadrant split immediately below it.
    """
    xy = site_array(sites)[:, :2]
    if len(xy) == 0:
        raise ValueError("no sites")
    if len(xy) >= 2:
        d, i, j = closest_pair(xy)
        if d <= 0.0:
            raise ValueError(f"duplicate points (sites {i} and {j})")
        _check_scaled(d, float(params.c + 2), "closest-pair distance")
    full = _grid_tree(xy[:, 0], xy[:, 1], _root_level(xy))
    branch = full.fan_out() >= 2
    # index -1 (a root's parent) reads the appended True
    return _mask(full, branch | np.append(branch, True)[full.parent])


# pairs per batch of the WSPD frontier and of the augmentation: small
# enough for the float intermediates to stay in cache
_WSPD_CHUNK = 1 << 14


def _wspd_cells(tree):
    """Level array of the nodes' WSPD cells, and the cells' bounds
    (x0, y0, x1, y1) in GridCell.bounds arithmetic. A node's WSPD cell is
    its own cell, except that a single-site leaf shrinks to the level-0
    cell of its site."""
    point = np.flatnonzero((tree.fan_out() == 0)
                           & (np.diff(tree.site_ptr) == 1))
    cell = _site_nodes(tree.full)[-1][tree.site_ids[tree.site_ptr[point]]]
    lvl, ix, iy = tree.level.copy(), tree.ix.copy(), tree.iy.copy()
    lvl[point] = 0
    ix[point] = tree.full.ix[cell]
    iy[point] = tree.full.iy[cell]
    side = np.ldexp(1.0, lvl) / SQRT2
    return lvl, (ix * side, iy * side, (ix + 1) * side, (iy + 1) * side)


def _pair_distance(bounds, v, w):
    """cell_distance between the cells of nodes v[i] and w[i], plus the
    per-axis gaps it was taken from; the float arithmetic of
    cell_distance, with np.hypot in place of math.hypot."""
    x0, y0, x1, y1 = bounds
    dx = np.maximum(np.maximum(x0[v] - x1[w], x0[w] - x1[v]), 0.0)
    dy = np.maximum(np.maximum(y0[v] - y1[w], y0[w] - y1[v]), 0.0)
    return np.hypot(dx, dy), dx, dy


def compute_wspd(tree, c):
    """c-well-separated pair decomposition over a compressed quadtree.

    Returns an (m, 2) int64 array of unordered pairs of node ids of
    `tree` such that every ordered site pair is covered by exactly one of
    them and c * max(diam(v), diam(w)) <= d(v, w) for each, where nodes
    count with their WSPD cells (_wspd_cells; a single-site leaf has
    diameter 1). The pair frontier, seeded with all sibling pairs, is
    processed in numpy batches: a pair is kept once separated; otherwise
    the side with the larger diameter (w on ties) is replaced by its
    children, a childless side is never split, and two leaves form a pair.
    """
    lvl, bounds = _wspd_cells(tree)
    cdiam = c * np.ldexp(1.0, lvl)
    # children in id order, as rows of a -1-padded table (quadtree nodes
    # have at most 4)
    sub = np.flatnonzero(tree.parent >= 0)
    sub = sub[np.argsort(tree.parent[sub], kind="stable")]
    up = tree.parent[sub]
    kids = np.full((len(lvl), 4), -1, dtype=np.int64)
    kids[up, np.arange(len(up)) - np.searchsorted(up, up)] = sub
    leaf = kids[:, 0] < 0
    # per parent, the pairs of its children (i, j), i before j
    i, j = np.triu_indices(4, 1)
    sibling = np.stack((kids[:, i], kids[:, j]), axis=2).reshape(-1, 2)
    sibling = sibling[sibling[:, 1] >= 0]
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


def augment_with_wspd(tree, wspd, params):
    """The compressed quadtree plus the cells that make it a valid basis
    for the annulus decomposition: one pair of equal-diameter cells per
    WSPD pair, duplicates merged.

    wspd is compute_wspd's (m, 2) array of node ids of `tree`. Per pair,
    r = min(d / c, both parents' diameters) is computed as a vector; each
    side inserts its WSPD cell raised to level floor(log2 r), clamped to
    [its own level, its parent's level]. That cell is the full tree's
    node at that level over any site of the side, so the pairs only mark
    nodes of the full tree, and the augmented tree is the mask of the
    compressed tree's nodes and the marked ones. Its nodes list their
    sites in preorder (_preorder_sites).
    """
    c = params.c
    full = tree.full
    lvl, bounds = _wspd_cells(tree)
    plvl = np.where(tree.parent >= 0, tree.level[tree.parent], tree.level)
    pdiam = np.ldexp(1.0, plvl)
    at = _site_nodes(full)
    top = int(full.level[0])
    rep = tree.site_ids[tree.site_ptr[:-1]]  # one site of each node
    keep = np.zeros(len(full.level), dtype=bool)
    keep[tree.full_id] = True
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
            keep[at[top - up, rep[side]]] = True
    augmented = _mask(full, keep)
    augmented.site_ids = _preorder_sites(augmented)
    return augmented


def _preorder_sites(tree):
    """site_ids of a tree whose leaves partition the sites, each node
    listing its leaves' sites in preorder, children in descending
    (level, ix, iy) order. R and the sweep's first containing disk follow
    member order, so this order fixes the general builder's edges.

    A node's sites are then one run of the root's list, at the node's
    preorder offset: the parent's offset plus its earlier siblings' sites.
    """
    count = np.diff(tree.site_ptr)
    # ids ascend in (-level, ix, iy), so descending id breaks level ties
    order = np.lexsort((-np.arange(len(count)), -tree.level, tree.parent))
    up = tree.parent[order]
    before = np.cumsum(count[order]) - count[order]
    start = np.empty_like(count)
    start[order] = before - before[np.searchsorted(up, up)]
    for a, b in tree.level_ranges():
        p = tree.parent[a:b]
        start[a:b] += np.where(p < 0, 0, start[p])
    leaf = np.flatnonzero(tree.fan_out() == 0)
    listed = np.empty(int(count[leaf].sum()), dtype=np.int64)
    listed[_expand(start[leaf], count[leaf])[1]] = \
        tree.site_ids[_expand(tree.site_ptr[leaf], count[leaf])[1]]
    return listed[_expand(start, count)[1]]


def build_hierarchy(sites, params, variant):
    """The cell hierarchy a variant derives its decomposition from, over
    sites already normalized with NORMALIZE_MODE[variant]."""
    if variant == VARIANT_SPREAD:
        return build_quadtree(sites, params)
    if variant == VARIANT_RATIO:
        return build_quadforest(sites, params)
    tree = build_compressed_quadtree(sites, params)
    return augment_with_wspd(tree, compute_wspd(tree, params.c), params)


# ---------------------------------------------------------------------------
# annulus decomposition

class _LazyList:
    """Read-only sequence whose items `build()` makes on first access;
    len() is known up front and builds nothing."""

    __slots__ = ("_build", "_len", "_items")

    def __init__(self, build, length):
        self._build = build
        self._len = length
        self._items = None

    def _list(self):
        if self._items is None:
            self._items = self._build()
        return self._items

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())


class AnnulusDecomposition:
    """Cells Q, assigned sites R_sigma and max-radius representatives
    m_sigma derived from one of the hierarchies, as per-node arrays in the
    id order of its NodeArrays, (-level, ix, iy).

    - `level`, `ix`, `iy`: the node's cell; `site_ptr`, `site_ids`: a CSR
      of its sites.
    - `m`: the representative, the smallest index among the sites of
      largest radius (-1 for a node without sites); `max_radius`: that
      radius (-1.0 without sites).
    - `R_ptr`, `R_ids`: a CSR of R_sigma, in site order.
    - `level_arrays[lvl]` = (ids, ix, iy, max_radius) of one level, the
      arrays neighbor_pairs enumerates the relation N of that level from,
      levels in descending order.

    `nodes` is a QuadNode view with m, max_radius and R filled in, built
    on first item access; len(nodes) builds nothing. Nothing in the
    package reads it.
    """

    def __init__(self, cells, assignments, params, variant):
        self.level, self.ix, self.iy = cells.level, cells.ix, cells.iy
        self.site_ptr, self.site_ids = cells.site_ptr, cells.site_ids
        self.m, self.max_radius, self.R_ptr, self.R_ids = assignments
        self.params = params
        self.variant = variant
        self.partial = variant == VARIANT_RATIO
        self.level_arrays = {
            int(self.level[a]): (np.arange(a, b, dtype=np.int64),
                                 self.ix[a:b], self.iy[a:b],
                                 self.max_radius[a:b])
            for a, b in cells.level_ranges()}
        self.nodes = _LazyList(partial(_node_view, cells, *assignments),
                               len(self.level))


def _node_view(cells, m, max_radius, R_ptr, R_ids):
    """The QuadNodes of `cells` with their m, max_radius and R set."""
    nodes = cells.nodes
    R = R_ids.tolist()
    ptr = R_ptr.tolist()
    for v, rep, best, a, b in zip(nodes, m.tolist(), max_radius.tolist(),
                                  ptr[:-1], ptr[1:]):
        v.m = None if rep < 0 else rep
        v.max_radius = best
        v.R = R[a:b]
    return nodes


def _populate_assignments(cells, radius, params, variant):
    """(m, max_radius, R_ptr, R_ids) of every node of `cells`, given the
    radii of its sites: m is the smallest index of largest radius, and a
    site joins R when lb * diam - EPS <= r < ub * diam + EPS for its
    node's cell diameter, with lb = c (c - 2 for the general variant) and
    ub = 2 (c + 1)."""
    lb = params.c - 2 if variant == VARIANT_GENERAL else params.c
    ub = 2 * (params.c + 1)
    ptr, ids = cells.site_ptr, cells.site_ids
    counts = np.diff(ptr)
    owner = np.repeat(np.arange(len(counts)), counts)
    r = radius[ids]
    full = np.flatnonzero(counts)
    max_radius = np.full(len(counts), -1.0)
    m = np.full(len(counts), -1, dtype=np.int64)
    if len(full):
        max_radius[full] = np.maximum.reduceat(r, ptr[full])
        m[full] = np.minimum.reduceat(
            np.where(r == max_radius[owner], ids, len(radius)), ptr[full])
    diam = np.ldexp(1.0, cells.level)[owner]
    inside = (lb * diam - EPS <= r) & (r < ub * diam + EPS)
    R_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[inside], minlength=len(counts)),
              out=R_ptr[1:])
    return m, max_radius, R_ptr, ids[inside]


def neighbor_pairs(decomp, lvl, prune=True):
    """Ordered neighbor pairs of level lvl as int64 arrays (target node id,
    source node id), in no particular order.

    A pair (sigma, tau) qualifies when both cells share a level and their
    gap lies in [c-2, 2c) cell diameters (Annulus.gap2, exact integer
    arithmetic). With prune=True, pairs whose source cell holds no site
    that could reach the target cell (max radius below the gap) are
    dropped; such pairs can contribute neither edges nor Definition-3
    witnesses. With prune=False the full relation N is returned, as the
    decomposition check reads it.

    Candidates come from a kd-tree search over the level's cell indices
    in the Chebyshev metric, one per chunk of 256 source cells. An
    annulus neighbor lies at Chebyshev offset below r_out = 2c sqrt 2 + 1
    cells. With prune=True a chunk searches only as far as its sites can
    reach: a kept pair has sqrt(gap2) <= (mrad + EPS) / side for the
    source's max radius mrad and the cell side, and a gap of g cells
    between two cells allows a Chebyshev offset of at most g + 1, so the
    box of min(r_out, (max mrad of the chunk + EPS) / side + 2) cells
    holds every kept pair, with one cell to spare for rounding.
    """
    ann = Annulus(decomp.params.c)
    r_out = 2 * decomp.params.c * SQRT2 + 1.0
    ids, ix, iy, mrad = decomp.level_arrays[lvl]
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty)]
    side = 2 ** lvl / SQRT2
    pts = np.stack([ix, iy], axis=1).astype(np.float64)
    tree = cKDTree(pts)
    sources = np.arange(len(ids))
    if prune:
        # a source cell needs a site whose radius reaches the minimum gap
        # of the annulus, which excludes almost all cells at coarse levels
        # and keeps the pair count near-linear
        sources = sources[mrad >= math.sqrt(ann.lo2) * side - EPS]
    for s0 in range(0, len(sources), 256):
        chunk = sources[s0:s0 + 256]
        reach = r_out
        if prune:
            reach = min(r_out, (float(mrad[chunk].max()) + EPS) / side + 2.0)
        near = cKDTree(pts[chunk]).sparse_distance_matrix(
            tree, reach, p=np.inf, output_type="ndarray")
        src = chunk[near["i"]]
        tgt = near["j"].astype(np.int64)
        g2 = ann.gap2(ix[src] - ix[tgt], iy[src] - iy[tgt])
        keep = (g2 >= ann.lo2) & (g2 < ann.hi2)
        if prune:
            keep &= mrad[src] >= np.sqrt(g2.astype(np.float64)) * side - EPS
        parts.append((ids[tgt[keep]], ids[src[keep]]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def derive_decomposition(tree, params, variant, sites):
    """Annulus decomposition over a built hierarchy: its nodes with their
    assigned sites R and representatives m, and per level the arrays
    neighbor_pairs enumerates the neighbor relation from.

    tree is the NodeArrays of build_hierarchy (or of one of the builders
    it dispatches to); sites is a Site list or its site_array.

    variant selects the lower endpoint of the assignment interval
    (c for the tree/forest variants, c - 2 for the compressed one) and
    whether the decomposition is partial (ratio variant: edges between
    close level-0 cells are left to the Yao graph of UDG(r_min)).
    """
    radius = site_array(sites)[:, 2]
    return AnnulusDecomposition(
        tree, _populate_assignments(tree, radius, params, variant), params,
        variant)


def cone_assignments(decomp, lvl):
    """The pruned neighbor pairs of level lvl with the cones that must
    consider them, one int64 row (target id, source id, j_lo, count) per
    pair, in no particular order.

    A source cell is assigned to the cones j_lo, ..., j_lo + count - 1
    (mod k) whose doubled cone, with apex at the target cell's centre,
    contains all of it: Annulus.shared_cones of the source cell's offset
    from the target cell. The selection sweep takes one level's rows at a
    time and never expands a pair into one row per cone.
    """
    tv, tt = neighbor_pairs(decomp, lvl)
    j_lo, count = Annulus(decomp.params.c).shared_cones(
        decomp.params.k, decomp.ix[tt] - decomp.ix[tv],
        decomp.iy[tt] - decomp.iy[tv])
    return np.stack([tv, tt, j_lo, count], axis=1)


def decomposition_dump(decomp):
    """Debug listing: one line per node `level ix iy |sites| m R-size`, in
    id order."""
    return "\n".join(
        f"{lvl} {ix} {iy} {n} {m} {r}" for lvl, ix, iy, n, m, r in zip(
            decomp.level.tolist(), decomp.ix.tolist(), decomp.iy.tolist(),
            np.diff(decomp.site_ptr).tolist(), decomp.m.tolist(),
            np.diff(decomp.R_ptr).tolist()))


def check_decomposition(decomp, sites, graph):
    """Soundness check of the annulus decomposition, in numpy arrays.

    The neighbor relation is read from neighbor_pairs(prune=False).
    Part (i): every neighbor pair is same-level with gap in
    [c-2, 2c) diameters, and the relation is symmetric. Part (ii): every
    edge pq of the explicit transmission graph (skipping, for partial
    decompositions, edges whose level-0 cells are closer than c-2) is
    covered by a neighbor pair (sigma, tau) with q in sigma, p in tau,
    and p assigned to tau or q inside the disk of tau's representative.
    Nodes of one level hold disjoint sites, so (sigma, tau) can only be
    the nodes of q and of p at one level. Gaps come from the cell indices
    directly, not from Annulus; an axis gap past sqrt(hi2) is clipped to
    it, which keeps the squares within int64 and the pair out of range.
    Returns (part_i_violations, part_ii_violations): (sigma, tau) pairs
    ordered by ids, and (p, q) edges ordered by p, then by q as `graph`
    lists them.
    """
    lo2, hi2 = 2 * (decomp.params.c - 2) ** 2, 8 * decomp.params.c ** 2
    axis = math.isqrt(hi2) + 1
    nn = len(decomp.level)
    # the relation as one sorted int64 key per pair, tv * nn + tt; it can
    # hold millions of pairs, so it is read in chunks of `step` entries
    key = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        tv * nn + tt for tv, tt in (neighbor_pairs(decomp, lvl, prune=False)
                                    for lvl in decomp.level_arrays)])
    key.sort()
    step = 1 << 20

    def gap2(dx, dy):
        gx, gy = (np.minimum(np.maximum(np.abs(d) - 1, 0), axis)
                  for d in (dx, dy))
        return gx * gx + gy * gy

    def member(keys, table):
        # table is sorted: one binary search per key
        at = np.searchsorted(table, keys)
        found = at < len(table)
        found[found] = table[at[found]] == keys[found]
        return found

    bad_i = []
    for a in range(0, len(key), step):
        tv, tt = np.divmod(key[a:a + step], nn)
        g2 = gap2(decomp.ix[tv] - decomp.ix[tt], decomp.iy[tv] - decomp.iy[tt])
        ok = (decomp.level[tv] == decomp.level[tt]) & (g2 >= lo2) \
            & (g2 < hi2) & member(tt * nn + tv, key)
        bad_i += zip(tv[~ok].tolist(), tt[~ok].tolist())

    xyr = site_array(sites)
    x, y, rr = xyr[:, 0], xyr[:, 1], (xyr[:, 2] + EPS) ** 2
    n = len(xyr)
    # row k: each site's node at the k-th level (-1 where it has none)
    levels, lvl_row = np.unique(decomp.level, return_inverse=True)
    owner = np.repeat(np.arange(nn), np.diff(decomp.site_ptr))
    node_at = np.full((len(levels), n), -1, dtype=np.int64)
    node_at[lvl_row[owner], decomp.site_ids] = owner
    assigned = np.sort(np.repeat(np.arange(nn), np.diff(decomp.R_ptr)) * n
                       + decomp.R_ids)
    csr = graph.csr
    p_all = np.repeat(np.arange(n), np.diff(csr.indptr))
    q_all = csr.indices.astype(np.int64)
    need = np.ones(len(q_all), dtype=bool)
    if decomp.partial:
        side = 1 / SQRT2  # cell_of's level-0 side
        cx, cy = np.floor(x / side), np.floor(y / side)
        need = gap2((cx[p_all] - cx[q_all]).astype(np.int64),
                    (cy[p_all] - cy[q_all]).astype(np.int64)) >= lo2
    covered = ~need
    step //= max(len(levels), 1)  # a chunk's edges at every level
    for a in range(0, len(q_all), step):
        p, q = p_all[a:a + step], q_all[a:a + step]
        v, t = node_at[:, q], node_at[:, p]
        m = decomp.m[t]
        hit = (v >= 0) & (t >= 0) & member(v * nn + t, key) & (
            member(t * n + p, assigned)
            | ((x[q] - x[m]) ** 2 + (y[q] - y[m]) ** 2 <= rr[m]))
        covered[a:a + step] |= hit.any(axis=0)
    bad_ii = list(zip(p_all[~covered].tolist(), q_all[~covered].tolist()))
    return bad_i, bad_ii


# ---------------------------------------------------------------------------
# the annulus geometry of a cell offset

class Annulus:
    """The annulus geometry of one c for integer offsets (dx, dy) of a
    same-level cell tau from a cell sigma. The cell side cancels, so the
    answers depend on the offset alone: gap2 is same_level_gap_sq(sigma,
    tau), the cells are annulus neighbors, their gap in [c - 2, 2c) cell
    diameters, iff lo2 <= gap2 < hi2 (a diameter is sqrt(2) sides), and
    cones gives the doubled cones with apex at sigma's centre that contain
    all of tau. Costs follow the offsets asked about, not c.
    """

    def __init__(self, c):
        self.lo2, self.hi2 = 2 * (c - 2) * (c - 2), 8 * c * c
        # at a per-axis offset of span the gap is span - 1 > 2c sqrt 2
        # sides, so clipping offsets to +-span keeps far cells outside
        # the annulus and every square within int64
        self.span = int(math.ceil(2 * c * SQRT2)) + 2

    def gap2(self, dx, dy):
        """same_level_gap_sq per offset (int64), of offsets clipped to
        +-span."""
        gx, gy = (np.maximum(np.minimum(np.abs(d), self.span) - 1, 0)
                  for d in (dx, dy))
        return gx * gx + gy * gy

    def cones(self, k, dx, dy):
        """(j_lo, count) per annulus offset: the doubled cones j_lo, ...,
        j_lo + count - 1 (mod k) of k, 0 <= j_lo < k; count is 0 for a
        cell that wraps around the apex. This is cone_ranges at side 1
        from the centre (0.5, 0.5) of cell (0, 0); annulus cells lie at
        least one side from it, so no corner coincides with the apex."""
        x0, y0 = np.asarray(dx) - 0.5, np.asarray(dy) - 0.5
        x1, y1 = x0 + 1.0, y0 + 1.0
        j_lo, j_hi = cone_ranges(np.stack([np.arctan2(y, x) for x, y in (
            (x0, y0), (x1, y0), (x1, y1), (x0, y1))]), k)
        return j_lo % k, np.maximum(j_hi - j_lo + 1, 0)

    def shared_cones(self, k, dx, dy):
        """cones of many annulus offsets that repeat, each distinct offset
        measured once."""
        w = 2 * self.span + 1
        key, at = np.unique((np.asarray(dx, dtype=np.int64) + self.span) * w
                            + dy + self.span, return_inverse=True)
        j_lo, count = self.cones(
            k, *(np.array(np.divmod(key, w)) - self.span))
        return j_lo[at], count[at]

    def axis_gaps(self):
        """The per-axis squared gaps of the offsets -span..span, sorted."""
        return np.sort(self.gap2(np.arange(-self.span, self.span + 1), 0))


def annulus_cell_count(c):
    """Exact number of same-level cells whose gap to a fixed cell lies in
    [c-2, 2c) diameters; the concrete form of the O(c^2) neighborhood
    volume bound."""
    ann = Annulus(c)
    g = ann.axis_gaps()
    return int((np.searchsorted(g, ann.hi2 - g)
                - np.searchsorted(g, ann.lo2 - g)).sum())


def near_cell_count(c):
    """Exact number of level-0 cells within gap distance c - 2 of a fixed
    cell (the first query phase of the geometric reachability oracle)."""
    ann = Annulus(c)
    g = ann.axis_gaps()
    return int(np.searchsorted(g, ann.lo2 - g, "right").sum())
