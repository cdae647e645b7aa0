"""Checks of txspanner's outputs against computations made here.

The transmission graph G is built from the coordinates with a scipy
cKDTree; distances and hop counts come from scipy's csgraph. Nothing
here calls the package, so a fault in it cannot hide in its own
reference code.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

# Disk membership as the package documents it: q is in D(p) when
# |pq|^2 <= (r_p + 1e-9)^2, computed in the same order of operations.
TOL = 1e-9


def in_disk(xy, r, p, qx, qy):
    """Whether points (qx, qy) lie in the disks of sites p (broadcasts)."""
    dx = qx - xy[p, 0]
    dy = qy - xy[p, 1]
    rr = r[p] + TOL
    return dx * dx + dy * dy <= rr * rr


def _csr(n, src, dst, w):
    # csr drops explicit zeros; coincident points keep a tiny length
    return csr_matrix((np.maximum(w, 1e-300), (src, dst)), shape=(n, n))


def sites_containing(xy, r, points):
    """For each point, the sorted ids of the sites whose disk contains it."""
    tree = cKDTree(xy)
    cand = tree.query_ball_point(points, r.max() + 2 * TOL)
    out = []
    for (px, py), ids in zip(points, cand):
        ids = np.array(sorted(ids), dtype=np.int64)
        out.append(ids[in_disk(xy, r, ids, px, py)])
    return out


def transmission_graph(xy, r):
    """G as a csr matrix of Euclidean lengths."""
    n = len(xy)
    tree = cKDTree(xy)
    cand = tree.query_ball_point(xy, r + 2 * TOL)
    src = np.repeat(np.arange(n), [len(c) for c in cand])
    dst = np.concatenate([np.asarray(c, dtype=np.int64) for c in cand])
    keep = (src != dst) & in_disk(xy, r, src, xy[dst, 0], xy[dst, 1])
    src, dst = src[keep], dst[keep]
    w = np.hypot(xy[dst, 0] - xy[src, 0], xy[dst, 1] - xy[src, 1])
    return _csr(n, src, dst, w)


def check_spanner(xy, r, G, edges, t, sources):
    """Errors in H, plus (m_H/m_G, max observed d_H/d_G).

    edges: float array of rows (src, dst, length). H must be a simple
    subgraph of G with exact lengths, and d_H <= t d_G (1 + 1e-9) from
    every sampled source.
    """
    n = len(xy)
    errors = []
    src = edges[:, 0].astype(np.int64)
    dst = edges[:, 1].astype(np.int64)
    w = edges[:, 2]
    if len(edges) and (src.min() < 0 or dst.min() < 0
                       or max(src.max(), dst.max()) >= n):
        return [f"edge endpoint out of range 0..{n - 1}"], 0.0, 0.0
    if np.any(src == dst):
        errors.append(f"{int(np.sum(src == dst))} self loops")
    if len(np.unique(src * n + dst)) != len(src):
        errors.append("duplicate edges")
    bad = ~in_disk(xy, r, src, xy[dst, 0], xy[dst, 1])
    if bad.any():
        errors.append(f"{int(bad.sum())} edges are not transmission edges")
    length = np.hypot(xy[dst, 0] - xy[src, 0], xy[dst, 1] - xy[src, 1])
    off = np.abs(w - length) > 1e-12 * np.maximum(1.0, length)
    if off.any():
        errors.append(f"{int(off.sum())} edge lengths differ from |pq|")
    if errors:
        return errors, 0.0, 0.0
    dG = dijkstra(G, directed=True, indices=sources)
    dH = dijkstra(_csr(n, src, dst, w), directed=True, indices=sources)
    reach = np.isfinite(dG)
    worse = reach & (dH > t * dG * (1.0 + 1e-9))
    if worse.any():
        errors.append(f"{int(worse.sum())} sampled pairs exceed stretch {t}")
    pos = reach & (dG > 0)
    max_ratio = float(np.max(dH[pos] / dG[pos])) if pos.any() else 1.0
    return errors, len(edges) / max(1, G.nnz), max_ratio


def check_bfs(xy, r, G, root, dist, parent):
    """Errors in one BFS tree: distances must equal scipy's unweighted
    BFS over G, and each parent must contain its child one hop closer."""
    errors = []
    want = dijkstra(G, directed=True, indices=root, unweighted=True)
    if not np.array_equal(want, dist):
        errors.append(f"root {root}: {int(np.sum(want != dist))} hop "
                      "distances differ from BFS over G")
    reached = np.isfinite(dist) & (np.arange(len(dist)) != root)
    if parent[root] != -1 or np.any(parent[~np.isfinite(dist)] != -1):
        errors.append(f"root {root}: root or unreached site has a parent")
    q = np.flatnonzero(reached)
    p = parent[q]
    if np.any(p < 0):
        errors.append(f"root {root}: reached site without a parent")
        return errors
    bad = ~in_disk(xy, r, p, xy[q, 0], xy[q, 1]) | (dist[p] != dist[q] - 1)
    if bad.any():
        errors.append(f"root {root}: {int(bad.sum())} bad parents")
    return errors


def check_reach(xy, r, G, sources, points, answers, covers):
    """Indices of wrong reach answers, and of queries whose cover set
    misses a disk that contains the point."""
    uniq, inv = np.unique(sources, return_inverse=True)
    reach = np.isfinite(dijkstra(G, directed=True, indices=uniq,
                                 unweighted=True))
    wrong, bad_cover = [], []
    for j, ids in enumerate(sites_containing(xy, r, points)):
        if bool(reach[inv[j], ids].any()) != answers[j]:
            wrong.append(j)
        cover = np.asarray(covers[j], dtype=np.int64)
        if len(ids) and (len(cover) == 0 or not in_disk(
                xy, r, ids[:, None], xy[cover, 0][None, :],
                xy[cover, 1][None, :]).any(axis=1).all()):
            bad_cover.append(j)
    return wrong, bad_cover
