"""Exact BFS (hop-distance) trees over the spanner.

The transmission graph itself is never materialized: each layer is grown
along the spanner's out-adjacency arrays (`SpannerGraph.out_csr`) in
rounds over numpy arrays, and a power matrix of
the candidates against the previous layer's disks decides which of them
join it (no kd-tree). Correct for spanners with stretch at most 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EPS

_BLOCK = 1 << 16  # power-matrix entries per row block (512 KB of float64)


@dataclass
class BfsResult:
    """Hop distances, predecessor tree and layers of one BFS run.

    `scans[p]` counts how often p's out-edges were relaxed; `csr` is the
    spanner's out-adjacency (indptr, targets), from which `relax_counts`
    is derived on demand.
    """

    dist: list
    parent: list
    layers: list
    scans: list = field(repr=False)
    csr: tuple = field(repr=False)

    @property
    def relax_counts(self):
        """Times each spanner edge (p, q) was relaxed, for relaxed edges."""
        indptr, targets = self.csr
        counts = {}
        for p in np.flatnonzero(self.scans).tolist():
            for q in targets[indptr[p]:indptr[p + 1]].tolist():
                counts[(p, q)] = counts.get((p, q), 0) + self.scans[p]
        return counts

    def max_edge_relaxations(self):
        return max(self.relax_counts.values(), default=0)


def _gather(indptr, targets, frontier):
    """Out-neighbours of the frontier sites, in frontier then edge order."""
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    offsets = np.cumsum(lens) - lens
    return targets[np.repeat(starts - offsets, lens) + np.arange(lens.sum())]


def _first_unique(a):
    """Distinct values of `a` in order of first occurrence."""
    _, first = np.unique(a, return_index=True)
    return a[np.sort(first)]


def _best_disks(px, py, wx, wy, wrr2):
    """Per point, the first disk maximizing (r + EPS)^2 - d^2, and whether
    that disk contains the point under the predicate of `disk_contains`.

    Disks are (wx, wy) with squared padded radius wrr2. The matrix is
    built in row blocks of about _BLOCK entries.
    """
    step = max(1, _BLOCK // len(wx))
    win = np.empty(len(px), dtype=np.int64)
    hit = np.empty(len(px), dtype=bool)
    for a in range(0, len(px), step):
        b = min(a + step, len(px))
        d2 = np.subtract.outer(px[a:b], wx)
        d2 *= d2
        dy = np.subtract.outer(py[a:b], wy)
        dy *= dy
        d2 += dy
        j = np.subtract(wrr2, d2, out=dy).argmax(axis=1)
        win[a:b] = j
        hit[a:b] = d2[np.arange(b - a), j] <= wrr2[j]
    return win, hit


def bfs_tree(sites, H, root):
    """BFS tree of the transmission graph rooted at `root`, using only H.

    Layer i runs in rounds. A round gathers the H-out-neighbours of its
    sites (round 0: W_i; later rounds: the sites admitted in the round
    before), drops visited ones and those already rejected in this
    layer, and keeps first occurrences. A power matrix of these
    candidates against W_i, with W_i sorted by id, names each
    candidate's parent: the first maximizer of (r + EPS)^2 - d^2, so
    ties go to the smaller id. A candidate joins W_{i+1} when that disk
    contains it. The rounds visit sites in the order of a FIFO queue that
    relaxes one edge at a time, so the tree and the order within each
    layer are that search's. Every site's out-edges are scanned at most
    twice: in the round that admitted it and in round 0 of its own layer.
    """
    n = len(sites)
    if H.n != n:
        raise ValueError(f"spanner has {H.n} sites but the site list has {n}")
    if not 0 <= root < n:
        raise IndexError(f"root {root} out of range for {n} sites")
    if H.t > 2.0 + 1e-12:
        raise ValueError(f"BFS needs a spanner with stretch <= 2, got t={H.t}")
    indptr, targets = H.out_csr
    xy = np.array([(s.x, s.y) for s in sites], dtype=np.float64)
    rr = np.array([s.radius for s in sites], dtype=np.float64) + EPS
    rr2 = rr * rr
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    scans = np.zeros(n, dtype=np.int64)
    rejected = np.full(n, -1, dtype=np.int64)  # layer that last rejected it
    dist[root] = 0
    layers = [np.array([root], dtype=np.int64)]
    level = 0
    while True:
        W = np.sort(layers[-1])
        wx, wy, wrr2 = xy[W, 0], xy[W, 1], rr2[W]
        admitted = []
        frontier = layers[-1]
        while frontier.size:
            scans[frontier] += 1
            cand = _gather(indptr, targets, frontier)
            cand = _first_unique(cand[(dist[cand] < 0)
                                      & (rejected[cand] != level)])
            win, hit = _best_disks(xy[cand, 0], xy[cand, 1], wx, wy, wrr2)
            rejected[cand[~hit]] = level
            frontier = cand[hit]
            dist[frontier] = level + 1
            parent[frontier] = W[win[hit]]
            admitted.append(frontier)
        nxt = np.concatenate(admitted)
        if not nxt.size:
            break
        layers.append(nxt)
        level += 1
    return BfsResult(
        [math.inf if d < 0 else d for d in dist.tolist()],
        [None if p < 0 else p for p in parent.tolist()],
        [layer.tolist() for layer in layers],
        scans.tolist(), H.out_csr)
