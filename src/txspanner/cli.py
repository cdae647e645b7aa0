"""Command-line surface: instance generation, construction, verification,
BFS and reachability queries, statistics and decomposition inspection.

Exit codes: 0 success, 1 property violation, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time

from . import oracle as oracle_mod
from .bfs import bfs_tree
from .core import EPS, load_sites, make_sites, normalize, spanner_parameters
from .decomposition import (NORMALIZE_MODE, VARIANT_SPREAD, build_hierarchy,
                            check_decomposition, decomposition_dump,
                            derive_decomposition)
from .reachability import GeomOracle, geom_reach, transmission_edges
from .spanner import BUILDERS, SpannerGraph, verify_shorter_edge

DISTRIBUTIONS = ("uniform-square", "clustered", "grid")
RADIUS_MODELS = ("constant", "uniform", "pareto")


def generate_sites(n, distribution="uniform-square", radius_model="constant",
                   seed=0, psi_cap=8.0):
    """Deterministic random instance: points in the unit square, radii
    scaled to the typical spacing 1/sqrt(n), radius ratio within psi_cap."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    if radius_model not in RADIUS_MODELS:
        raise ValueError(f"unknown radius model {radius_model!r}")
    if not psi_cap >= 1.0:
        raise ValueError(f"psi cap must be at least 1, got {psi_cap}")
    rng = random.Random(seed)
    pts = []
    if distribution == "uniform-square":
        pts = [(rng.random(), rng.random()) for _ in range(n)]
    elif distribution == "clustered":
        nc = max(1, round(math.sqrt(n)))
        centers = [(rng.random(), rng.random()) for _ in range(nc)]
        for _ in range(n):
            cx, cy = centers[rng.randrange(nc)]
            pts.append((cx + rng.gauss(0.0, 0.02), cy + rng.gauss(0.0, 0.02)))
    else:
        side = math.ceil(math.sqrt(n))
        for i in range(n):
            pts.append((((i % side) + 0.5) / side, ((i // side) + 0.5) / side))
    s0 = 1.0 / math.sqrt(n)
    base = 1.5 * s0
    coords = []
    for x, y in pts:
        if radius_model == "constant":
            r = 2.5 * s0
        elif radius_model == "uniform":
            r = rng.uniform(base, base * min(psi_cap, 4.0))
        else:
            r = min(base * psi_cap, base * rng.paretovariate(1.5))
        coords.append((x, y, r))
    return make_sites(coords)


def _cmd_generate(args):
    sites = generate_sites(args.n, args.distribution, args.radius_model,
                           args.seed, args.psi_cap)
    with open(args.out, "w") as fh:
        fh.write(f"# n={args.n} distribution={args.distribution} "
                 f"radius-model={args.radius_model} seed={args.seed} "
                 f"psi-cap={args.psi_cap}\n")
        for s in sites:
            fh.write(f"{s.x!r} {s.y!r} {s.radius!r}\n")
    print(f"wrote {len(sites)} sites to {args.out}")
    return 0


def _cmd_build(args):
    sites = load_sites(args.sites)
    start = time.perf_counter()
    H = BUILDERS[args.variant](sites, args.t)
    elapsed = time.perf_counter() - start
    H.save(args.out)
    print(f"built {args.variant} spanner: n={H.n} m={H.m} t={H.t} "
          f"k={H.params.k} c={H.params.c} in {elapsed:.2f}s")
    return 0


def _attach_variant(H, sites, variant):
    """Recover normalization metadata for a spanner loaded from disk."""
    if variant is None or H.n <= 1:
        return
    if H.params is None:
        raise ValueError(f"--variant {variant} needs the grid parameters of "
                         "the spanner, but its file header has k = 0")
    _, scale, offset = normalize(sites, NORMALIZE_MODE[variant], H.params.c)
    H.variant = variant
    H.scale = scale
    H.offset = offset


def _cmd_verify(args):
    import numpy as np
    from scipy.sparse import csr_matrix

    if args.t is not None and not (math.isfinite(args.t) and args.t > 1.0):
        raise ValueError(f"stretch must be finite and exceed 1, got {args.t}")
    sites = load_sites(args.sites)
    H = SpannerGraph.load(args.spanner)
    if H.n != len(sites):
        print(f"spanner has {H.n} sites, file has {len(sites)}", file=sys.stderr)
        return 2
    t = args.t if args.t is not None else H.t
    _attach_variant(H, sites, args.variant)
    failed = False
    # the arithmetic of disk_contains, over all edges at once
    x = np.array([s.x for s in sites], dtype=np.float64)
    y = np.array([s.y for s in sites], dtype=np.float64)
    rr = np.array([s.radius for s in sites], dtype=np.float64)[H.src] + EPS
    dx = x[H.dst] - x[H.src]
    dy = y[H.dst] - y[H.src]
    bad_sub = int(np.count_nonzero(~(dx * dx + dy * dy <= rr * rr)))
    print(f"subgraph check: {'ok' if not bad_sub else f'{bad_sub} violations'}")
    failed |= bool(bad_sub)
    if H.n <= oracle_mod.DIJKSTRA_CAP:
        report = oracle_mod.audit_stretch(sites, H, t)
        print(f"stretch check: max ratio {report.max_ratio:.6f} "
              f"({'ok' if report.ok else f'{len(report.violations)} violations'})")
        failed |= not report.ok
    else:
        print(f"stretch check: skipped (n > {oracle_mod.DIJKSTRA_CAP})")
    if H.params is not None:
        bad = verify_shorter_edge(sites, H)
        print(f"shorter-edge check: {'ok' if not bad else f'{len(bad)} violations'}")
        failed |= bool(bad)
    else:
        print("shorter-edge check: skipped")
    if args.variant is not None and len(sites) >= 2 and H.params is not None:
        norm, _, _ = normalize(sites, NORMALIZE_MODE[args.variant],
                               H.params.c)
        tree = build_hierarchy(norm, H.params, args.variant)
        decomp = derive_decomposition(tree, H.params, args.variant, norm)
        # G from the sparse enumeration, so the check has no size cap
        src, dst = transmission_edges(norm)
        graph = oracle_mod.ExplicitGraph(H.n, csr_matrix(
            (np.ones(len(dst)), (src, dst)), shape=(H.n, H.n)))
        bad_i, bad_ii = check_decomposition(decomp, norm, graph)
        ok = not bad_i and not bad_ii
        print(f"decomposition check: {'ok' if ok else f'{len(bad_i)}+{len(bad_ii)} violations'}")
        failed |= not ok
    return 1 if failed else 0


def _cmd_bfs(args):
    sites = load_sites(args.sites)
    H = SpannerGraph.load(args.spanner)
    result = bfs_tree(sites, H, args.root)
    for i in range(len(sites)):
        d = "inf" if result.dist[i] == math.inf else str(result.dist[i])
        p = "-" if result.parent[i] is None else str(result.parent[i])
        print(f"{i} {d} {p}")
    return 0


def _cmd_reach(args):
    sites = load_sites(args.sites)
    if not 0 <= args.source < len(sites):
        print(f"source {args.source} out of range", file=sys.stderr)
        return 2
    oracle = GeomOracle(sites)
    hit, cover = geom_reach(oracle, args.source, (args.target_x, args.target_y),
                            explain=True)
    if args.explain:
        print(f"cover set ({len(cover)}): {' '.join(map(str, cover.sites))}")
    print("true" if hit else "false")
    return 0


def _cmd_stats(args):
    import numpy as np

    sites = load_sites(args.sites)
    rows = [("n", len(sites))]
    if args.spanner is not None:
        H = SpannerGraph.load(args.spanner)
        build_time = None
    else:
        if args.t is None:
            print("stats needs --t when building fresh", file=sys.stderr)
            return 2
        start = time.perf_counter()
        H = BUILDERS[args.variant](sites, args.t)
        build_time = time.perf_counter() - start
    rows.append(("m", H.m))
    rows.append(("m/n", round(H.m / max(1, H.n), 3)))
    if build_time is not None:
        rows.append(("build-seconds", round(build_time, 3)))
    hist = {}
    if H.cone_ids is not None and len(H.cone_ids):
        # in-degree of each (cone, target), then how many share each value
        dst = np.repeat(H.dst, np.diff(H.cone_ptr))
        _, indeg = np.unique(H.cone_ids * H.n + dst, return_counts=True)
        deg, count = np.unique(indeg, return_counts=True)
        hist = dict(zip(deg.tolist(), count.tolist()))
    width = max(len(str(k)) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    if hist:
        print("per-cone in-degree histogram:")
        for deg in sorted(hist):
            print(f"  {deg:>4}  {hist[deg]}")
    if args.csv:
        with open(args.csv, "w") as fh:
            for key, val in rows:
                fh.write(f"{key},{val}\n")
            for deg in sorted(hist):
                fh.write(f"indegree-{deg},{hist[deg]}\n")
    return 0


def _cmd_inspect(args):
    sites = load_sites(args.sites)
    params = spanner_parameters(args.t)
    if len(sites) >= 2:
        norm, _, _ = normalize(sites, NORMALIZE_MODE[args.variant], params.c)
    else:
        norm = sites
    tree = build_hierarchy(norm, params, args.variant)
    decomp = derive_decomposition(tree, params, args.variant, norm)
    print(decomposition_dump(decomp))
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="txspanner",
        description="t-spanners, BFS trees and geometric reachability "
                    "for directed transmission graphs")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--distribution", choices=DISTRIBUTIONS,
                   default="uniform-square")
    g.add_argument("--radius-model", choices=RADIUS_MODELS, default="constant")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--psi-cap", type=float, default=8.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    b = sub.add_parser("build", help="build a spanner")
    b.add_argument("sites")
    b.add_argument("--t", type=float, required=True)
    b.add_argument("--variant", choices=sorted(BUILDERS), default=VARIANT_SPREAD)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build)

    v = sub.add_parser("verify", help="verify a spanner against its sites")
    v.add_argument("sites")
    v.add_argument("spanner")
    v.add_argument("--t", type=float, default=None)
    v.add_argument("--variant", choices=sorted(BUILDERS), default=None)
    v.set_defaults(func=_cmd_verify)

    f = sub.add_parser("bfs", help="BFS tree over the transmission graph")
    f.add_argument("sites")
    f.add_argument("spanner")
    f.add_argument("--root", type=int, required=True)
    f.set_defaults(func=_cmd_bfs)

    r = sub.add_parser("reach", help="site-to-point reachability query")
    r.add_argument("sites")
    r.add_argument("--source", type=int, required=True)
    r.add_argument("--target-x", type=float, required=True)
    r.add_argument("--target-y", type=float, required=True)
    r.add_argument("--explain", action="store_true")
    r.set_defaults(func=_cmd_reach)

    s = sub.add_parser("stats", help="spanner statistics")
    s.add_argument("sites")
    s.add_argument("spanner", nargs="?", default=None)
    s.add_argument("--t", type=float, default=None)
    s.add_argument("--variant", choices=sorted(BUILDERS), default=VARIANT_SPREAD)
    s.add_argument("--csv", default=None)
    s.set_defaults(func=_cmd_stats)

    i = sub.add_parser("inspect", help="dump the annulus decomposition")
    i.add_argument("sites")
    i.add_argument("--t", type=float, default=2.0)
    i.add_argument("--variant", choices=sorted(BUILDERS), default=VARIANT_SPREAD)
    i.set_defaults(func=_cmd_inspect)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
