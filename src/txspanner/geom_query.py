"""Query structures: dynamic nearest neighbor and disk containment.

Both are baseline implementations behind small interfaces, so faster
structures can replace them without touching callers. Correctness, not
asymptotics, is the contract: answers must match a linear scan exactly
(nearest-neighbor ties broken by smallest id, containment decided by the
shared disk predicate). No code in the package uses either any more:
the builders select edges with the shared containment sweep, and the
geometric reachability oracle probes its cells with batched numpy
arithmetic. Both stay as the tests' references and because the
benchmark's trace mode wraps their methods by name.
"""

from __future__ import annotations

import math

from .core import EPS, disk_contains

_LINEAR_SCAN_LIMIT = 16


class DynamicNN:
    """Planar point set under insert / delete / exact nearest neighbor.

    Grid buckets with an outward ring search; small sets fall back to a
    linear scan. Ids are arbitrary hashable keys (site indices here).
    No builder uses it: the general construction selects its edges with
    the shared containment sweep. It stays because the benchmark's trace
    mode wraps its methods by name.
    """

    def __init__(self, cell_size=1.0):
        if not cell_size > 0:
            raise ValueError("cell_size must be positive")
        self.cell = float(cell_size)
        self.pts = {}
        self.buckets = {}

    def __len__(self):
        return len(self.pts)

    def items(self):
        return self.pts.items()

    def _key(self, x, y):
        return (math.floor(x / self.cell), math.floor(y / self.cell))

    def insert(self, pid, x, y):
        if pid in self.pts:
            raise KeyError(f"point {pid} already present")
        self.pts[pid] = (x, y)
        self.buckets.setdefault(self._key(x, y), set()).add(pid)

    def delete(self, pid):
        if pid not in self.pts:
            raise KeyError(f"point {pid} is not a member")
        x, y = self.pts.pop(pid)
        key = self._key(x, y)
        cell = self.buckets[key]
        cell.remove(pid)
        if not cell:
            del self.buckets[key]

    def _scan(self, pids, x, y, best):
        for pid in pids:
            px, py = self.pts[pid]
            d2 = (px - x) * (px - x) + (py - y) * (py - y)
            cand = (d2, pid)
            if best is None or cand < best:
                best = cand
        return best

    def nearest(self, x, y):
        """Id of a closest point, ties by smallest id; None when empty."""
        if not self.pts:
            return None
        if len(self.pts) <= _LINEAR_SCAN_LIMIT:
            return self._scan(self.pts, x, y, None)[1]
        bx, by = self._key(x, y)
        span = max(max(abs(kx - bx), abs(ky - by)) for kx, ky in self.buckets)
        best = None
        for ring in range(span + 1):
            if best is not None and (ring - 1) * self.cell >= math.sqrt(best[0]):
                break
            for kx in range(bx - ring, bx + ring + 1):
                for ky in range(by - ring, by + ring + 1):
                    if max(abs(kx - bx), abs(ky - by)) != ring:
                        continue
                    pids = self.buckets.get((kx, ky))
                    if pids:
                        best = self._scan(pids, x, y, best)
        return best[1]

    def nearest_linear(self, x, y):
        """Linear-scan reference used as the oracle in tests."""
        if not self.pts:
            return None
        return self._scan(self.pts, x, y, None)[1]


class DiskContainment:
    """Immutable structure answering: some site whose disk contains q.

    A kd-partition over site centers; the query maximizes the power
    (r_s + EPS)^2 - |sq|^2 with subtree pruning via bounding boxes and
    the largest radius below each node. The radius is padded by the
    tolerance of `disk_contains`, so the maximizer contains q whenever
    any site does. `GeomOracle.probe` returns the same site per node;
    the tests check it against this structure.
    """

    __slots__ = ("sites", "_tree")

    _LEAF = 8

    def __init__(self, sites):
        self.sites = list(sites)
        idxs = sorted(range(len(self.sites)), key=lambda i: self.sites[i].id)
        self._tree = self._build(idxs, 0) if idxs else None

    def _build(self, idxs, axis):
        pts = self.sites
        x0 = min(pts[i].x for i in idxs)
        x1 = max(pts[i].x for i in idxs)
        y0 = min(pts[i].y for i in idxs)
        y1 = max(pts[i].y for i in idxs)
        rrmax = max(pts[i].radius for i in idxs) + EPS
        if len(idxs) <= self._LEAF:
            return (x0, y0, x1, y1, rrmax, idxs, None, None)
        key = (lambda i: (pts[i].x, pts[i].y, i)) if axis == 0 else \
              (lambda i: (pts[i].y, pts[i].x, i))
        idxs = sorted(idxs, key=key)
        mid = len(idxs) // 2
        left = self._build(idxs[:mid], 1 - axis)
        right = self._build(idxs[mid:], 1 - axis)
        return (x0, y0, x1, y1, rrmax, None, left, right)

    @staticmethod
    def _box_dist2(node, x, y):
        x0, y0, x1, y1 = node[0], node[1], node[2], node[3]
        dx = max(0.0, x0 - x, x - x1)
        dy = max(0.0, y0 - y, y - y1)
        return dx * dx + dy * dy

    def query(self, x, y):
        """A site whose disk contains (x, y), or None.

        Deterministic: among containing sites the one maximizing
        (power, smaller id) is returned.
        """
        if self._tree is None:
            return None
        best_key = None  # (power, -id)
        best_site = None
        stack = [self._tree]
        while stack:
            node = stack.pop()
            bound = node[4] * node[4] - self._box_dist2(node, x, y)
            if best_key is not None and bound < best_key[0]:
                continue
            leaf = node[5]
            if leaf is not None:
                for i in leaf:
                    s = self.sites[i]
                    dx = x - s.x
                    dy = y - s.y
                    rr = s.radius + EPS
                    power = rr * rr - (dx * dx + dy * dy)
                    key = (power, -s.id)
                    if best_key is None or key > best_key:
                        best_key = key
                        best_site = s
            else:
                stack.append(node[6])
                stack.append(node[7])
        if disk_contains(best_site, x, y):
            return best_site
        return None

    def query_linear(self, x, y):
        """Linear-scan reference: first site by id containing the point."""
        for s in sorted(self.sites, key=lambda s: s.id):
            if disk_contains(s, x, y):
                return s
        return None
