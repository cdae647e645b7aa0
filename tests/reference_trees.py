"""Reference oracles for the cell hierarchies: the node-by-node `QuadNode`
builders that the array hierarchy of `txspanner.decomposition` replaced,
per-pair Python forms of compute_wspd and augment_with_wspd, and the
node-by-node form of check_decomposition.

The array builders must give the same six arrays (level, ix, iy, parent,
site_ptr, site_ids; member order included) as `tree_arrays` of these
trees.
"""

import itertools
import math

import numpy as np

from txspanner.core import (SQRT2, GridCell, cell_distance, cell_of,
                            disk_contains, same_level_gap_sq)
from txspanner.decomposition import (VARIANT_RATIO, VARIANT_SPREAD, Annulus,
                                     NodeArrays, QuadNode, forest_depth,
                                     neighbor_pairs, radius_ratio)


class RefNode(QuadNode):
    """A QuadNode that also records the point cell of a single-site leaf."""

    __slots__ = ("point_cell",)

    def __init__(self, cell, sites):
        super().__init__(cell, sites)
        self.point_cell = None

    @property
    def wspd_cell(self):
        return self.point_cell if self.point_cell is not None else self.cell


def wspd_cell(v, sites):
    """The cell a node of a compressed quadtree stands for in the WSPD: its
    own cell, or for a single-site leaf the level-0 cell of its site."""
    if v.is_leaf() and len(v.sites) == 1:
        s = sites[v.sites[0]]
        return cell_of(s.x, s.y, 0)
    return v.cell


def collect_nodes(structure):
    """All nodes of a root or list of roots, ids assigned in
    (-level, ix, iy) order."""
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


def tree_arrays(structure):
    """NodeArrays of a node tree (root or list of roots); assigns the ids."""
    nodes = collect_nodes(structure)
    n = len(nodes)
    level, ix, iy = (np.fromiter((getattr(v.cell, a) for v in nodes),
                                 np.int64, n) for a in ("level", "ix", "iy"))
    parent = np.fromiter((-1 if v.parent is None else v.parent.id
                          for v in nodes), np.int64, n)
    lists = [v.sites for v in nodes]
    site_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(s) for s in lists], out=site_ptr[1:])
    site_ids = np.fromiter(itertools.chain.from_iterable(lists), np.int64,
                           int(site_ptr[-1]))
    return NodeArrays(level, ix, iy, parent, site_ptr, site_ids)


def arrays_equal(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("level", "ix", "iy", "parent", "site_ptr",
                         "site_ids"))


def _root_level(sites):
    hi = max(max(s.x for s in sites), max(s.y for s in sites))
    level = 0
    while 2 ** level / SQRT2 <= hi:
        level += 1
    return level


def _split(v, sites):
    """Give v one child per non-empty cell one level below, in (ix, iy)
    order, each holding its sites in v's order; returns the children."""
    child_level = v.cell.level - 1
    buckets = {}
    for i in v.sites:
        c = cell_of(sites[i].x, sites[i].y, child_level)
        buckets.setdefault((c.ix, c.iy), []).append(i)
    for (ix, iy), idxs in sorted(buckets.items()):
        w = RefNode(GridCell(child_level, ix, iy), idxs)
        w.parent = v
        v.children.append(w)
    return v.children


def _subdivide(node, sites, stop_level):
    """Split non-empty cells level by level down to stop_level."""
    stack = [node]
    while stack:
        v = stack.pop()
        if v.cell.level > stop_level:
            stack.extend(_split(v, sites))


def build_quadtree(sites):
    root = RefNode(GridCell(_root_level(sites), 0, 0), list(range(len(sites))))
    _subdivide(root, sites, 0)
    return root


def build_quadforest(sites, depth=None):
    L = forest_depth(radius_ratio(sites)) if depth is None else depth
    buckets = {}
    for i, s in enumerate(sites):
        c = cell_of(s.x, s.y, L)
        buckets.setdefault((c.ix, c.iy), []).append(i)
    roots = []
    for (ix, iy), idxs in sorted(buckets.items()):
        root = RefNode(GridCell(L, ix, iy), idxs)
        _subdivide(root, sites, 0)
        roots.append(root)
    return roots


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


def build_compressed_quadtree(sites):
    root = RefNode(GridCell(_root_level(sites), 0, 0), list(range(len(sites))))
    stack = [root]
    while stack:
        v = stack.pop()
        if len(v.sites) <= 1:
            continue
        lvl = _smallest_enclosing_level(sites, v.sites, v.cell.level)
        if lvl < v.cell.level:
            s0 = sites[v.sites[0]]
            w = RefNode(cell_of(s0.x, s0.y, lvl), v.sites)
            w.parent = v
            v.children.append(w)
            stack.append(w)
        else:
            stack.extend(_split(v, sites))
    for v in collect_nodes(root):
        if not v.children and len(v.sites) == 1:
            s = sites[v.sites[0]]
            v.point_cell = cell_of(s.x, s.y, 0)
    return root


def compute_wspd(root, c):
    """(v, w) node pairs of the c-WSPD, in the split order of the paper's
    recursion."""
    pairs = []
    split_stack = []
    walk = [root]
    while walk:
        v = walk.pop()
        ch = v.children
        walk.extend(ch)
        for a in range(len(ch)):
            for b in range(a + 1, len(ch)):
                split_stack.append((ch[a], ch[b]))
    while split_stack:
        v, w = split_stack.pop()
        cv = v.wspd_cell
        cw = w.wspd_cell
        if cell_distance(cv, cw) >= c * max(cv.diameter, cw.diameter):
            pairs.append((v, w))
            continue
        split_w = cw.diameter >= cv.diameter
        if split_w and not w.children:
            split_w = False
        if not split_w and not v.children:
            split_w = True
        if split_w and w.children:
            for u in w.children:
                split_stack.append((v, u))
        elif v.children:
            for u in v.children:
                split_stack.append((u, w))
        else:
            pairs.append((v, w))
    return pairs


def augment_with_wspd(root, wspd, params, sites):
    """The compressed quadtree rebuilt around the cells the WSPD pairs
    insert; internal nodes list their children's sites, children in
    descending (level, ix, iy) order."""
    c = params.c
    cells = {}
    stack = [root]
    while stack:
        v = stack.pop()
        cells[(v.cell.level, v.cell.ix, v.cell.iy)] = v.cell
        stack.extend(v.children)
    for v, w in wspd:
        d = cell_distance(v.wspd_cell, w.wspd_cell)
        r = min(d / c, v.parent.cell.diameter, w.parent.cell.diameter)
        lr = int(math.floor(math.log2(r) + 1e-12))
        for node in (v, w):
            base = node.wspd_cell
            lvl = min(max(lr, base.level), node.parent.cell.level)
            cell = base.parent_at(lvl)
            cells.setdefault((cell.level, cell.ix, cell.iy), cell)
    new_nodes = {}
    for key in sorted(cells, reverse=True):
        new_nodes[key] = RefNode(cells[key], [])
    top_level = max(k[0] for k in cells)
    roots = []
    for key, node in new_nodes.items():
        level, ix, iy = key
        parent = None
        for lvl in range(level + 1, top_level + 1):
            shift = lvl - level
            pk = (lvl, ix >> shift, iy >> shift)
            if pk in new_nodes:
                parent = new_nodes[pk]
                break
        if parent is None:
            roots.append(node)
        else:
            node.parent = parent
            parent.children.append(node)
    assert len(roots) == 1
    new_root = roots[0]
    for node in sorted(new_nodes.values(), key=lambda v: v.cell.level):
        if node.is_leaf():
            node.sites = [i for i in range(len(sites))
                          if cell_of(sites[i].x, sites[i].y, node.cell.level) == node.cell]
        else:
            node.sites = [i for w in node.children for i in w.sites]
    collect_nodes(new_root)
    return new_root


def hierarchy(sites, params, variant):
    """The reference tree of build_hierarchy's variant."""
    if variant == VARIANT_SPREAD:
        return build_quadtree(sites)
    if variant == VARIANT_RATIO:
        return build_quadforest(sites)
    root = build_compressed_quadtree(sites)
    return augment_with_wspd(root, compute_wspd(root, params.c), params, sites)


def check_decomposition(decomp, sites, graph):
    """The node-by-node form of decomposition.check_decomposition, with
    the same arguments and result.

    The neighbor relation is read from neighbor_pairs(prune=False).
    Part (i): every neighbor pair is same-level with gap in
    [c-2, 2c) diameters, and the relation is symmetric. Part (ii): every
    edge pq of the explicit transmission graph (skipping, for partial
    decompositions, edges whose level-0 cells are closer than c-2) is
    covered by a neighbor pair (sigma, tau) with q in sigma, p in tau,
    and p assigned to tau or q inside the disk of tau's representative.
    Returns (part_i_violations, part_ii_violations).
    """
    ann = Annulus(decomp.params.c)
    lo2, hi2 = ann.lo2, ann.hi2
    nodes = decomp.nodes
    neighbors = [[] for _ in nodes]
    for lvl in decomp.level_arrays:
        tv, tt = neighbor_pairs(decomp, lvl, prune=False)
        for a, b in zip(tv.tolist(), tt.tolist()):
            neighbors[a].append(b)
    bad_i = []
    for v in nodes:
        for t_id in sorted(neighbors[v.id]):
            tau = nodes[t_id]
            g2 = same_level_gap_sq(v.cell, tau.cell)
            if tau.cell.level != v.cell.level or not lo2 <= g2 < hi2 \
                    or v.id not in neighbors[t_id]:
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
                for t_id in neighbors[v_id]:
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
