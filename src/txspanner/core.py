"""Geometric primitives for transmission graphs.

Sites, grids, cones, the spanner constants (k, c) and input
normalization. Everything here is a pure function over value types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EPS = 1e-9

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# sites

@dataclass(frozen=True)
class Site:
    """A planar point with a positive transmission radius, all finite."""

    id: int
    x: float
    y: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.radius)):
            raise ValueError(f"site {self.id}: coordinates and radius must be "
                             f"finite, got ({self.x}, {self.y}, {self.radius})")
        if not self.radius > 0:
            raise ValueError(f"site {self.id}: radius must be positive, got {self.radius}")


def make_sites(coords):
    """Build a dense-id site list from (x, y, r) triples."""
    return [Site(i, float(x), float(y), float(r)) for i, (x, y, r) in enumerate(coords)]


def load_sites(path):
    """Read a site file: one `x y r` triple per line, `#` starts a comment."""
    sites = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'x y r', got {line!r}")
            x, y, r = (float(p) for p in parts)
            try:
                sites.append(Site(len(sites), x, y, r))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return sites


def save_sites(sites, path):
    with open(path, "w") as fh:
        for s in sites:
            fh.write(f"{s.x!r} {s.y!r} {s.radius!r}\n")


def disk_contains(site: Site, x, y):
    """Whether (x, y) lies in the transmission disk of `site`.

    The single membership predicate shared by construction, queries and
    brute-force oracles, so verdicts never disagree on tolerance.
    """
    dx = x - site.x
    dy = y - site.y
    rr = site.radius + EPS
    return dx * dx + dy * dy <= rr * rr


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class GridCell:
    """Axis-parallel square cell of the level-`level` grid.

    Cells of level i have diameter 2**i (side 2**i / sqrt(2)) and are
    aligned so the origin is a cell corner. Cells are half-open,
    [x0, x1) x [y0, y1), so every point lies in exactly one cell per level.
    """

    level: int
    ix: int
    iy: int

    @property
    def diameter(self):
        return float(2 ** self.level)

    @property
    def side(self):
        return 2 ** self.level / SQRT2

    def bounds(self):
        s = self.side
        return (self.ix * s, self.iy * s, (self.ix + 1) * s, (self.iy + 1) * s)

    def center(self):
        s = self.side
        return ((self.ix + 0.5) * s, (self.iy + 0.5) * s)

    def corners(self):
        x0, y0, x1, y1 = self.bounds()
        return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))

    def contains(self, x, y):
        x0, y0, x1, y1 = self.bounds()
        return x0 <= x < x1 and y0 <= y < y1

    def parent_at(self, level):
        """The ancestor cell of this cell at a coarser level."""
        if level < self.level:
            raise ValueError("parent level must be >= cell level")
        shift = level - self.level
        return GridCell(level, self.ix >> shift, self.iy >> shift)


def cell_of(x, y, level):
    """The unique level-`level` grid cell containing (x, y)."""
    if level < 0:
        raise ValueError("grid level must be >= 0")
    s = 2 ** level / SQRT2
    return GridCell(level, math.floor(x / s), math.floor(y / s))


def cell_distance(a: GridCell, b: GridCell):
    """Smallest distance between any pair of points of the two closed cells."""
    ax0, ay0, ax1, ay1 = a.bounds()
    bx0, by0, bx1, by1 = b.bounds()
    dx = max(0.0, ax0 - bx1, bx0 - ax1)
    dy = max(0.0, ay0 - by1, by0 - ay1)
    return math.hypot(dx, dy)


def same_level_gap_sq(a: GridCell, b: GridCell):
    """Squared cell gap of two same-level cells, in units of the cell side.

    Exact integer arithmetic: the gap between same-level cells is always
    an integer multiple of the side per axis.
    """
    gx = max(0, abs(a.ix - b.ix) - 1)
    gy = max(0, abs(a.iy - b.iy) - 1)
    return gx * gx + gy * gy


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class Cone:
    """Cone number `index` out of k at `apex`, opening angle expansion*2pi/k.

    The k unexpanded cones (expansion 1) at a common apex partition the
    plane with half-open angular intervals [j*2pi/k, (j+1)*2pi/k).
    Expanded cones share the middle axis and are closed.
    """

    index: int
    k: int
    apex: tuple
    expansion: int = 1

    @property
    def axis_angle(self):
        return (self.index + 0.5) * 2.0 * math.pi / self.k


def cone_contains(cone: Cone, x, y):
    """Membership of (x, y) in the cone. The apex lies in every cone."""
    dx = x - cone.apex[0]
    dy = y - cone.apex[1]
    if dx == 0.0 and dy == 0.0:
        return True
    delta = 2.0 * math.pi / cone.k
    ang = math.atan2(dy, dx) % (2.0 * math.pi)
    if cone.expansion == 1:
        return int(ang // delta) % cone.k == cone.index % cone.k
    diff = abs((ang - cone.axis_angle + math.pi) % (2.0 * math.pi) - math.pi)
    return diff <= cone.expansion * delta / 2.0 + EPS


def cell_in_cone(cell: GridCell, cone: Cone):
    """True iff the whole (convex) cell lies inside the cone.

    Checked on the four corners; sufficient because the cell is convex and
    the expanded cones used by the selection algorithms have opening angle
    well below pi.
    """
    return all(cone_contains(cone, cx, cy) for cx, cy in cell.corners())


def cone_range_for_cell(cell: GridCell, apex, k):
    """Indices j of all cones whose doubled expansion C^2 at `apex` contains `cell`.

    Returns (j_lo, j_hi) with j_lo <= j_hi; the cone set is
    {j mod k for j in range(j_lo, j_hi + 1)} and may be empty
    (j_lo > j_hi). Equivalent to testing cell_in_cone against the
    expansion-2 cone for every j.
    """
    delta = 2.0 * math.pi / k
    ax, ay = apex
    angs = []
    for cx, cy in cell.corners():
        if cx == ax and cy == ay:
            return (0, k - 1)
        angs.append(math.atan2(cy - ay, cx - ax))
    ref = angs[0]
    rel = [(a - ref + math.pi) % (2.0 * math.pi) - math.pi for a in angs]
    amin = ref + min(rel)
    amax = ref + max(rel)
    if max(rel) - min(rel) >= math.pi:
        # cell wraps around the apex; cannot be inside a narrow cone
        return (1, 0)
    # need axis_j = (j + 0.5) * delta within [amax - delta - EPS, amin + delta + EPS]
    j_lo = math.ceil((amax - EPS) / delta - 1.5)
    j_hi = math.floor((amin + EPS) / delta + 0.5)
    return (j_lo, j_hi)


def cone_ranges(angs, k):
    """cone_range_for_cell over many cells at once.

    angs is a (4, N) float array of the angles of each cell's four
    corners, in `GridCell.corners` order, seen from the cell's apex.
    Returns int64 arrays (j_lo, j_hi) with the same meaning; a cell that
    wraps around its apex gets the empty range j_hi = j_lo - 1. No corner
    may coincide with its apex.
    """
    import numpy as np

    two_pi = 2.0 * math.pi
    delta = two_pi / k
    rel = (angs - angs[0] + math.pi) % two_pi - math.pi
    rmin = rel.min(axis=0)
    rmax = rel.max(axis=0)
    amin = angs[0] + rmin
    amax = angs[0] + rmax
    j_lo = np.ceil((amax - EPS) / delta - 1.5).astype(np.int64)
    j_hi = np.floor((amin + EPS) / delta + 0.5).astype(np.int64)
    return j_lo, np.where((rmax - rmin) < math.pi, j_hi, j_lo - 1)


# ---------------------------------------------------------------------------
# spanner constants

@dataclass(frozen=True)
class SpannerParams:
    """Stretch t with the cone count k and separation parameter c used by
    every construction for that stretch."""

    t: float
    k: int
    c: int


def params_satisfy(t, k, c):
    """The five constraints tying (t, k, c) together."""
    if k < 25 or k < 16.0 * math.pi * t / (t - 1.0):
        return False
    cos8 = math.cos(8.0 * math.pi / k)
    if not cos8 > 0.5:
        return False
    if (1.0 + math.sqrt(2.0 - 2.0 * cos8)) / (2.0 * cos8 - 1.0) > t:
        return False
    if not c > 3.0 + 2.0 / math.sin(math.pi / k):
        return False
    if not c >= 2.0 + 2.0 * t / (t - 1.0):
        return False
    return True


def spanner_parameters(t):
    """Smallest integers k, then c, satisfying all constraints for stretch t."""
    if not t > 1.0:
        raise ValueError(f"stretch must exceed 1, got {t}")
    k = max(25, math.ceil(16.0 * math.pi * t / (t - 1.0)))
    while True:
        cos8 = math.cos(8.0 * math.pi / k)
        if cos8 > 0.5 and (1.0 + math.sqrt(2.0 - 2.0 * cos8)) / (2.0 * cos8 - 1.0) <= t:
            break
        k += 1
    c = max(math.floor(3.0 + 2.0 / math.sin(math.pi / k)) + 1,
            math.ceil(2.0 + 2.0 * t / (t - 1.0)),
            6)
    return SpannerParams(t=float(t), k=k, c=c)


# ---------------------------------------------------------------------------
# normalization

def closest_pair(points):
    """Exact closest pair by a left-to-right sweep with a y-sorted window.

    Returns (distance, i, j). Requires at least two points.
    """
    import bisect

    n = len(points)
    if n < 2:
        raise ValueError("closest_pair needs at least two points")
    order = sorted(range(n), key=lambda i: (points[i][0], points[i][1]))
    best = math.inf
    best_pair = (order[0], order[1])
    window = []  # (y, x, idx) sorted by y
    head = 0
    xs = [points[i][0] for i in order]
    for pos, i in enumerate(order):
        x, y = points[i][0], points[i][1]
        while head < pos and x - points[order[head]][0] > best:
            j = order[head]
            k = bisect.bisect_left(window, (points[j][1], points[j][0], j))
            del window[k]
            head += 1
        lo = bisect.bisect_left(window, (y - best,))
        hi = bisect.bisect_right(window, (y + best, math.inf, math.inf))
        for wy, wx, j in window[lo:hi]:
            d = math.hypot(x - wx, y - wy)
            if d < best:
                best = d
                best_pair = (j, i)
        bisect.insort(window, (y, x, i))
    return best, best_pair[0], best_pair[1]


MODE_CLOSEST_PAIR_C = "closest-pair=c"
MODE_CLOSEST_PAIR_C2 = "closest-pair=c+2"
MODE_SMALLEST_RADIUS = "smallest-radius=c"

# past this normalized extent float64 spacing is at least 1, coarser than
# the level-0 cell side 1/sqrt(2), so cells can no longer be told apart
MAX_NORMALIZED_EXTENT = 2.0 ** 52


def normalize(sites, mode, c):
    """Scale and translate sites for one of the three constructions.

    Modes: closest pair rescaled to c, closest pair rescaled to c + 2, or
    smallest radius rescaled to c. Returns (sites', scale, offset) with
    x' = scale * x + offset[0] and y' = scale * y + offset[1]; radii are
    multiplied by scale, so the transmission graph is unchanged. The
    translation puts the bounding-box corner at the origin. Raises
    ValueError when the normalized extent reaches 2^52.
    """
    if mode in (MODE_CLOSEST_PAIR_C, MODE_CLOSEST_PAIR_C2):
        if len(sites) < 2:
            raise ValueError(f"mode {mode} needs at least two sites")
        d, i, j = closest_pair([(s.x, s.y) for s in sites])
        if d <= 0.0:
            raise ValueError(f"duplicate points (sites {i} and {j}) cannot be scaled")
        target = float(c) if mode == MODE_CLOSEST_PAIR_C else float(c + 2)
        scale = target / d
    elif mode == MODE_SMALLEST_RADIUS:
        scale = float(c) / min(s.radius for s in sites)
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    ox = -min(s.x for s in sites) * scale
    oy = -min(s.y for s in sites) * scale
    extent = max(max(s.x for s in sites) * scale + ox,
                 max(s.y for s in sites) * scale + oy)
    if not extent < MAX_NORMALIZED_EXTENT:
        raise ValueError(f"coordinate range too large: normalized extent "
                         f"{extent:.3g} reaches 2^52, beyond float64 "
                         f"resolution of the level-0 grid")
    out = [Site(s.id, s.x * scale + ox, s.y * scale + oy, s.radius * scale)
           for s in sites]
    return out, scale, (ox, oy)
