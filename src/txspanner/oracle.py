"""Brute-force ground truth for verification.

Explicit materialization of the transmission graph, shortest paths and
BFS via scipy, stretch auditing, and geometric reachability by direct
search. Every guarantee elsewhere in the package is phrased against the
graphs built here. Sizes are capped because the constructions are
quadratic; the caps can be raised through environment variables.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .core import EPS, disk_contains, make_sites

MATERIALIZE_CAP = int(os.environ.get("TXSPANNER_MATERIALIZE_CAP", "2000"))
DIJKSTRA_CAP = int(os.environ.get("TXSPANNER_DIJKSTRA_CAP", "600"))


class ExplicitGraph:
    """The full transmission graph as a sparse adjacency matrix."""

    def __init__(self, n, csr):
        self.n = n
        self.csr = csr

    @property
    def m(self):
        return int(self.csr.nnz)

    def neighbors(self, u):
        """Targets of u's outgoing edges, ascending."""
        return self.csr.indices[self.csr.indptr[u]:self.csr.indptr[u + 1]]

    def weights(self, u):
        return self.csr.data[self.csr.indptr[u]:self.csr.indptr[u + 1]]

    def has_edge(self, u, v):
        return v in self.neighbors(u)


def _coords(sites):
    xy = np.array([(s.x, s.y) for s in sites], dtype=np.float64)
    r = np.array([s.radius for s in sites], dtype=np.float64)
    return xy, r


def materialize(sites):
    """All directed pairs (p, q) with q inside D(p), weights |pq|."""
    n = len(sites)
    if n > MATERIALIZE_CAP:
        raise ValueError(
            f"materialize: n={n} exceeds cap {MATERIALIZE_CAP} "
            "(set TXSPANNER_MATERIALIZE_CAP to raise)")
    if n == 0:
        return ExplicitGraph(0, csr_matrix((0, 0)))
    xy, r = _coords(sites)
    dx = xy[:, 0][:, None] - xy[:, 0][None, :]
    dy = xy[:, 1][:, None] - xy[:, 1][None, :]
    d2 = dx * dx + dy * dy
    rr = (r + EPS) ** 2
    mask = d2 <= rr[:, None]
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    w = np.sqrt(d2[src, dst])
    # zero-length edges between coincident points: keep a tiny positive
    # weight so csr does not drop them
    w = np.maximum(w, 1e-300)
    return ExplicitGraph(n, csr_matrix((w, (src, dst)), shape=(n, n)))


def spanner_csr(H):
    """Sparse matrix form of a SpannerGraph (duck-typed: .n and the edge
    arrays .src, .dst, .length)."""
    w = np.maximum(H.length, 1e-300)
    return csr_matrix((w, (H.src, H.dst)), shape=(H.n, H.n))


def dijkstra_all(graph, source=None):
    """Shortest-path distances from one source (or all) over ExplicitGraph
    or a raw csr matrix; unreachable pairs get inf."""
    csr = graph.csr if isinstance(graph, ExplicitGraph) else graph
    if source is None:
        return dijkstra(csr, directed=True)
    return dijkstra(csr, directed=True, indices=source)


@dataclass
class StretchReport:
    max_ratio: float
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def audit_stretch(sites, H, t):
    """Max d_H/d_G over ordered reachable pairs, with violator list.

    Full all-pairs Dijkstra sweeps over the explicit graph and the
    spanner; a pair violates when d_H > t * d_G * (1 + 1e-9).
    """
    n = len(sites)
    if n > DIJKSTRA_CAP:
        raise ValueError(
            f"audit_stretch: n={n} exceeds cap {DIJKSTRA_CAP} "
            "(set TXSPANNER_DIJKSTRA_CAP to raise)")
    if n == 0:
        return StretchReport(1.0)
    dG = dijkstra_all(materialize(sites))
    dH = dijkstra_all(spanner_csr(H))
    np.fill_diagonal(dG, math.inf)
    reach = np.isfinite(dG)
    if not reach.any():
        return StretchReport(1.0)
    limit = t * dG * (1.0 + 1e-9)
    bad = reach & (dH > limit)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(reach & (dG > 0), dH / dG, 1.0)
    max_ratio = float(np.max(ratios[reach])) if reach.any() else 1.0
    violations = [(int(u), int(v), float(dG[u, v]), float(dH[u, v]))
                  for u, v in zip(*np.nonzero(bad))]
    return StretchReport(max_ratio, violations)


def bfs_oracle(graph, root):
    """Exact hop distances from root; inf for unreachable sites."""
    csr = graph.csr if isinstance(graph, ExplicitGraph) else graph
    return dijkstra(csr, directed=True, indices=root, unweighted=True)


def reachable_from(graph, s):
    """Boolean array of sites reachable from s (s itself included)."""
    d = bfs_oracle(graph, s)
    return np.isfinite(d)


def geom_reach_oracle(sites, graph, s, point):
    """Whether s reaches a site whose disk contains the query point."""
    mask = reachable_from(graph, s)
    x, y = point
    return any(disk_contains(sites[q], x, y)
               for q in np.nonzero(mask)[0])


def degenerate_instances(seed=0):
    """Small inputs at the edges of what the constructions take, by name:
    exact duplicate points, collinear points on a grid diagonal, tight
    clusters, and extreme spread (points 2^i apart over 30 doublings,
    radius ratio 2^29). Only the ratio variant takes duplicates; the
    other two reject them with ValueError."""
    rng = random.Random(seed)
    base = [(rng.random(), rng.random(), 0.15 + 0.1 * rng.random())
            for _ in range(30)]
    line = [rng.random() for _ in range(40)]
    centers = [(rng.random(), rng.random()) for _ in range(3)]
    return {
        "duplicates": make_sites(base + base[:10]),
        "collinear": make_sites([(u, u, 0.05 + 0.15 * rng.random())
                                 for u in line]),
        "tight-clusters": make_sites([
            (cx + rng.gauss(0.0, 1e-7), cy + rng.gauss(0.0, 1e-7),
             0.3 + 0.2 * rng.random())
            for cx, cy in (centers[i % 3] for i in range(45))]),
        "extreme-spread": make_sites([
            (1e-6 * 2.0 ** i * math.cos(i), 1e-6 * 2.0 ** i * math.sin(i),
             2e-6 * 2.0 ** i) for i in range(30)]),
    }
