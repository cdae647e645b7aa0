"""Workload definitions and the seeded instance generator.

The generator follows `txspanner.cli.generate_sites`: the same point
distributions and radius laws, scaled to the spacing 1/sqrt(n). It
lives here, so a change to the package's generator does not change the
workloads. Two differences keep the instances of different seeds alike,
so that the spread of a metric over seeds shows the program and the
machine rather than the luck of the draw:

- Pareto radii are stratified. Site i gets the quantile at
  (pi(i) + U_i) / n for a random permutation pi, so every seed has
  nearly the same multiset of radii. With independent draws the heavy
  tail alone moved m_G/n, m_H/n and the query latency by 4-7% between
  seeds at n = 2000.
- Cluster centres are the Halton points shifted by one random vector
  modulo 1, and clusters have equal sizes. With uniform centres and
  multinomial sizes m_H/n of the clustered workload varied by 10%.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    builder: str          # "ratio" or "general"
    n: int
    distribution: str     # "uniform-square" or "clustered"
    radius_model: str     # "constant" or "pareto"
    psi_cap: float
    radius_scale: float   # multiplies every radius after generation
    build_repeats: int    # timed spanner builds per round
    bfs_roots: int        # roots in one timed BFS batch
    oracle_repeats: int   # timed oracle constructions per round
    queries: int          # geom_reach queries in one timed batch


WORKLOADS = {
    w.name: w for w in (
        # The family of acceptance criterion 8 (pareto radii, psi <= 16).
        # m_G/n ~ 61 stays below the 101 cones used at t = 2, so the
        # per-cone selection sweep does most of the build. BFS cost from
        # one root varies up to 3x with the root, hence 16 roots.
        Workload("ratio-sparse", "ratio", 1200, "uniform-square", "pareto",
                 16.0, 1.0, 2, 16, 3, 60),
        # Constant radii x4: m_G/n ~ 235, and nearly all spanner edges
        # come from the level-0 clique step, the only place a sparser
        # construction can move edges_per_site. A BFS costs about as much
        # as a build here, so a round times two of each.
        Workload("ratio-dense", "ratio", 1000, "uniform-square", "constant",
                 8.0, 4.0, 2, 2, 5, 100),
        # The only workload that runs the compressed quadtree, WSPD,
        # augmentation and DynamicNN; clustered points give multi-scale
        # spread. Its BFS is cheap, so its root batch is large.
        Workload("general-clustered", "general", 400, "clustered", "pareto",
                 8.0, 1.0, 1, 40, 3, 100),
    )
}


def halton(k):
    """The first k points of the 2-D Halton sequence (bases 2 and 3)."""
    def radical(i, b):
        f, x = 1.0, 0.0
        while i:
            f /= b
            x += f * (i % b)
            i //= b
        return x
    return [(radical(i, 2), radical(i, 3)) for i in range(1, k + 1)]


def generate(w: Workload, seed: int):
    """(x, y, r) triples of the workload's instance for `seed`."""
    rng = random.Random(seed)
    n = w.n
    if w.distribution == "uniform-square":
        pts = [(rng.random(), rng.random()) for _ in range(n)]
    elif w.distribution == "clustered":
        nc = max(1, round(math.sqrt(n)))
        ux, uy = rng.random(), rng.random()
        centers = [((hx + ux) % 1.0, (hy + uy) % 1.0)
                   for hx, hy in halton(nc)]
        pts = []
        for i in range(n):
            cx, cy = centers[i % nc]
            pts.append((cx + rng.gauss(0.0, 0.02), cy + rng.gauss(0.0, 0.02)))
    else:
        raise ValueError(f"unknown distribution {w.distribution!r}")
    s0 = 1.0 / math.sqrt(n)
    base = 1.5 * s0
    if w.radius_model == "constant":
        radii = [2.5 * s0] * n
    elif w.radius_model == "pareto":
        strata = list(range(n))
        rng.shuffle(strata)
        # inverse of the pareto(1.5) CDF, as random.paretovariate draws it
        radii = [base * min(w.psi_cap,
                            (1.0 - (k + rng.random()) / n) ** (-1.0 / 1.5))
                 for k in strata]
    else:
        raise ValueError(f"unknown radius model {w.radius_model!r}")
    return [(x, y, r * w.radius_scale) for (x, y), r in zip(pts, radii)]


STRETCH_SOURCES = 16  # sources of the sampled stretch check


def draw_roots_and_queries(w: Workload, seed: int, coords):
    """Fixed BFS roots, stretch sources and (source, point) queries.

    BFS cost depends on where the root lies, so the roots are the sites
    nearest to fixed anchors (0.5, 1/3), (0.25, 2/3), ... rather than
    random sites.

    Three query points in four fall in the unit square that holds the
    sites; the fourth falls in [-1, 2]^2, mostly far from every disk, so
    the answers are not all true.
    """
    rng = random.Random(1_000_003 * seed + 17)
    roots = []
    for ax, ay in halton(w.bfs_roots):
        order = sorted(range(w.n), key=lambda i: (coords[i][0] - ax) ** 2
                       + (coords[i][1] - ay) ** 2)
        roots.append(next(i for i in order if i not in roots))
    sources = rng.sample(range(w.n), STRETCH_SOURCES)
    queries = []
    for j in range(w.queries):
        lo, hi = (-1.0, 2.0) if j % 4 == 3 else (0.0, 1.0)
        queries.append((rng.randrange(w.n),
                        (rng.uniform(lo, hi), rng.uniform(lo, hi))))
    return roots, sources, queries
