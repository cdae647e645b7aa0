"""End-to-end guarantees at desk scale.

Ten numbered criteria, each printing one pass/fail summary line; run with

    pytest tests/test_acceptance.py -s

The full run rebuilds hundreds of spanners and audits each against
brute-force oracles, so expect tens of minutes. Criterion 10 is a
performance measurement that is recorded but never fails the suite.

Criterion 4's density-growth clause fails honestly on this instance
family: the random generator's own graph density increases with n
(large disks are truncated by the unit-square boundary, and the
truncated fraction shrinks as radii scale with 1/sqrt(n)), so the
spanner's absolute m/n rises with it. The printed detail shows that
the spanner's density relative to the input graph's density is
non-increasing, which is the construction's actual guarantee.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import normalized_for
from reference_trees import wspd_cell
from txspanner.bfs import bfs_tree
from txspanner.cli import generate_sites
from txspanner.core import (MODE_CLOSEST_PAIR_C2, MODE_SMALLEST_RADIUS, Site,
                            cell_distance, disk_contains, normalize,
                            spanner_parameters)
from txspanner.decomposition import (VARIANT_GENERAL, VARIANT_RATIO,
                                     VARIANT_SPREAD,
                                     build_compressed_quadtree,
                                     build_hierarchy,
                                     check_decomposition,
                                     compute_wspd, derive_decomposition,
                                     partition_components)
from txspanner.oracle import audit_stretch, bfs_oracle, materialize
from txspanner.reachability import GeomOracle, cover_set, cover_set_bound
from txspanner.spanner import (BUILDERS, select_edges_bruteforce,
                               select_edges_envelope, sparsity_bound,
                               verify_shorter_edge)

SIZES = (50, 200, 500)
STRETCHES = (1.5, 2.0, 3.0)
MODELS = ("constant", "uniform", "pareto")
VARIANTS = (VARIANT_SPREAD, VARIANT_RATIO, VARIANT_GENERAL)
PER_CONFIG = 30  # 10 instances per construction variant


def _psi_cap(model):
    return 32.0 if model == "pareto" else 8.0


def _report(num, name, ok, detail):
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def matrix():
    """One build + stretch audit + witness check per matrix instance.

    30 instances per (n, t, radius model) configuration; the three
    construction variants take 10 instances each.
    """
    records = []
    for n in SIZES:
        for t in STRETCHES:
            for model in MODELS:
                for idx in range(PER_CONFIG):
                    seed = ((SIZES.index(n) * 10 + STRETCHES.index(t)) * 10
                            + MODELS.index(model)) * 100 + idx
                    variant = VARIANTS[idx // 10]
                    sites = generate_sites(n, "uniform-square", model, seed,
                                           _psi_cap(model))
                    H = BUILDERS[variant](sites, t)
                    rep = audit_stretch(sites, H, t)
                    witness_bad = len(verify_shorter_edge(sites, H))
                    records.append({
                        "n": n, "t": t, "model": model, "variant": variant,
                        "m": H.m, "max_ratio": rep.max_ratio,
                        "stretch_bad": len(rep.violations),
                        "witness_bad": witness_bad,
                        "bound": sparsity_bound(H.params),
                    })
    return records


def test_criterion_01_stretch(matrix):
    bad = sum(r["stretch_bad"] for r in matrix)
    worst = max(r["max_ratio"] / r["t"] for r in matrix)
    ok = bad == 0
    _report(1, "stretch", ok,
            f"{len(matrix)} instances, {bad} violating pairs, "
            f"worst ratio/t = {worst:.6f}")
    assert ok


def test_criterion_02_shorter_edge_witness(matrix):
    bad = sum(r["witness_bad"] for r in matrix)
    ok = bad == 0
    _report(2, "shorter-edge witness", ok,
            f"{len(matrix)} instances, {bad} missing witnesses")
    assert ok


def test_criterion_03_decomposition_soundness():
    params = spanner_parameters(2.0)
    total_i = total_ii = checked = 0
    for variant in VARIANTS:
        for model in ("constant", "pareto"):
            for seed in (201, 202):
                sites = generate_sites(200, "uniform-square", model, seed,
                                       _psi_cap(model))
                norm, _, _ = normalized_for(sites, params, variant)
                structure = build_hierarchy(norm, params, variant)
                decomp = derive_decomposition(structure, params, variant, norm)
                bad_i, bad_ii = check_decomposition(decomp, norm,
                                                    materialize(norm))
                total_i += len(bad_i)
                total_ii += len(bad_ii)
                checked += 1
    ok = total_i == 0 and total_ii == 0
    _report(3, "decomposition soundness", ok,
            f"{checked} decompositions (3 variants x 2 models x 2 seeds, "
            f"n=200), {total_i} pair violations, {total_ii} uncovered edges")
    assert ok


def test_criterion_04_sparsity(matrix):
    over = [r for r in matrix if r["m"] > r["bound"] * r["n"]]
    worst_density = max(r["m"] / r["n"] for r in matrix)
    # growth check: mean m/n must not increase materially with n; the
    # input graph's own density is recorded alongside to show whether any
    # growth comes from the construction or from the instance family
    series = {}
    gseries = {}
    for variant in (VARIANT_SPREAD, VARIANT_RATIO):
        for model in ("constant", "pareto"):
            for n in (100, 200, 400, 800):
                vals = []
                gvals = []
                for seed in (401, 402, 403):
                    sites = generate_sites(n, "uniform-square", model, seed,
                                           _psi_cap(model))
                    H = BUILDERS[variant](sites, 2.0)
                    vals.append(H.m / n)
                    g = materialize(sites)
                    gvals.append(sum(len(g.neighbors(u))
                                     for u in range(n)) / n)
                series[(variant, model, n)] = sum(vals) / len(vals)
                gseries[(variant, model, n)] = sum(gvals) / len(gvals)
    growth_ok = all(
        series[(v, mo, 800)] <= series[(v, mo, 100)] * 1.10
        for v in (VARIANT_SPREAD, VARIANT_RATIO)
        for mo in ("constant", "pareto"))
    worst_growth = max(series[(v, mo, 800)] / series[(v, mo, 100)]
                       for v in (VARIANT_SPREAD, VARIANT_RATIO)
                       for mo in ("constant", "pareto"))
    worst_g_growth = max(gseries[(v, mo, 800)] / gseries[(v, mo, 100)]
                         for v in (VARIANT_SPREAD, VARIANT_RATIO)
                         for mo in ("constant", "pareto"))
    rel_ok = all(
        series[(v, mo, 800)] / gseries[(v, mo, 800)]
        <= series[(v, mo, 100)] / gseries[(v, mo, 100)] * 1.02
        for v in (VARIANT_SPREAD, VARIANT_RATIO)
        for mo in ("constant", "pareto"))
    ok = not over and growth_ok
    _report(4, "sparsity", ok,
            f"max m/n = {worst_density:.1f} vs bound "
            f"{min(r['bound'] for r in matrix)}; m/n non-increasing "
            f"100->800: {growth_ok} (worst x{worst_growth:.2f}, but input "
            f"graph density itself grows x{worst_g_growth:.2f} over the "
            f"same sizes from unit-square boundary truncation; spanner "
            f"density relative to input density non-increasing: {rel_ok})")
    assert ok


def test_criterion_05_envelope_selection():
    rng = random.Random(500)
    mismatches = 0
    for _ in range(1000):
        nq = rng.randrange(1, 201)
        nr = rng.randrange(1, 51)
        targets = [Site(i, rng.uniform(-40, 40), rng.uniform(-25, -0.1), 1.0)
                   for i in range(nq)]
        disks = [Site(1000 + i, rng.uniform(-40, 40), rng.uniform(0.1, 25),
                      rng.uniform(0.5, 45.0)) for i in range(nr)]
        env = select_edges_envelope(targets, disks, ("h", 0.0))
        brute = select_edges_bruteforce(targets, disks)
        if {q for _, q in env} != {q for _, q in brute}:
            mismatches += 1
            continue
        by_id = {s.id: s for s in disks}
        tgt = {s.id: s for s in targets}
        for r, q in env:
            if not disk_contains(by_id[r], tgt[q].x, tgt[q].y):
                mismatches += 1
                break
    ok = mismatches == 0
    _report(5, "envelope selection", ok,
            f"1000 random separated instances, {mismatches} mismatches "
            "against brute force")
    assert ok


def test_criterion_06_wspd():
    params = spanner_parameters(2.0)
    bad_sep = bad_cover = 0
    for seed in (601, 602, 603):
        sites = generate_sites(300, "uniform-square", "uniform", seed)
        norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, params.c)
        tree = build_compressed_quadtree(norm, params)
        pairs = compute_wspd(tree, params.c)
        nodes = tree.nodes
        n = len(norm)
        count = np.zeros((n, n), dtype=np.int32)
        for a, b in pairs.tolist():
            v, w = nodes[a], nodes[b]
            cv, cw = wspd_cell(v, norm), wspd_cell(w, norm)
            if cell_distance(cv, cw) < \
                    params.c * max(cv.diameter, cw.diameter) - 1e-9:
                bad_sep += 1
            count[np.ix_(v.sites, w.sites)] += 1
            count[np.ix_(w.sites, v.sites)] += 1
        np.fill_diagonal(count, 1)
        bad_cover += int((count != 1).sum())
    ok = bad_sep == 0 and bad_cover == 0
    _report(6, "well-separated pairs", ok,
            f"3 instances at n=300: {bad_sep} separation violations, "
            f"{bad_cover} pairs not covered exactly once")
    assert ok


def test_criterion_07_bfs_exactness():
    rng = random.Random(700)
    wrong = 0
    max_relax = 0
    runs = 0
    for idx in range(30):
        variant = VARIANTS[idx // 10]
        sites = generate_sites(300, "uniform-square",
                               MODELS[idx % 3], 700 + idx,
                               _psi_cap(MODELS[idx % 3]))
        H = BUILDERS[variant](sites, 2.0)
        g = materialize(sites)
        for _ in range(10):
            root = rng.randrange(len(sites))
            res = bfs_tree(sites, H, root)
            expected = bfs_oracle(g, root)
            if not np.array_equal(np.array(res.dist, dtype=np.float64),
                                  expected):
                wrong += 1
            max_relax = max(max_relax, res.max_edge_relaxations())
            runs += 1
    ok = wrong == 0 and max_relax <= 2
    _report(7, "BFS exactness", ok,
            f"{runs} runs (30 instances x 10 roots, n=300), {wrong} wrong "
            f"distance arrays, max edge relaxations {max_relax}")
    assert ok


def test_criterion_08_geometric_reachability():
    rng = random.Random(800)
    wrong = cover_bad = size_bad = 0
    max_cover = 0
    queries = 0
    for n, seed in ((100, 801), (300, 802), (400, 803)):
        sites = generate_sites(n, "uniform-square", "pareto", seed, 16.0)
        oracle = GeomOracle(sites)
        bound = cover_set_bound(oracle.params)
        for _ in range(1000):
            s = rng.randrange(n)
            if rng.random() < 0.5:
                q = sites[rng.randrange(n)]
                pt = (q.x + rng.uniform(-0.1, 0.1),
                      q.y + rng.uniform(-0.1, 0.1))
            else:
                pt = (rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
            cover = cover_set(oracle, pt)
            members = set(cover.sites)
            fast = any(oracle.base.reach(s, q) for q in members)
            slow = any(oracle.base.reach(s, p.id) for p in sites
                       if disk_contains(p, *pt))
            wrong += fast != slow
            size_bad += len(cover) > bound
            max_cover = max(max_cover, len(cover))
            for p in sites:
                if disk_contains(p, *pt) and not any(
                        disk_contains(p, sites[q].x, sites[q].y)
                        for q in members):
                    cover_bad += 1
                    break
            queries += 1
    ok = wrong == 0 and cover_bad == 0 and size_bad == 0
    _report(8, "geometric reachability", ok,
            f"{queries} queries over n in (100, 300, 400): {wrong} wrong "
            f"answers, {cover_bad} coverage failures, max cover size "
            f"{max_cover} (bound {bound})")
    assert ok


def test_criterion_09_component_partition():
    params = spanner_parameters(2.0)
    crossing = 0
    for seed in (901, 902, 903):
        sites = generate_sites(500, "uniform-square", "pareto", seed, 8.0)
        norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, params.c)
        comps = partition_components(norm, params)
        label = {}
        for ci, comp in enumerate(comps):
            for i in comp:
                label[i] = ci
        g = materialize(norm)
        for u in range(g.n):
            for v in g.neighbors(u):
                crossing += label[u] != label[int(v)]
    ok = crossing == 0
    _report(9, "component partition", ok,
            f"3 instances at n=500, {crossing} transmission edges crossing "
            "partition classes")
    assert ok


def test_criterion_10_performance_recorded():
    sites = generate_sites(100000, "uniform-square", "pareto", seed=1000,
                           psi_cap=64.0)
    start = time.perf_counter()
    H = BUILDERS[VARIANT_RATIO](sites, 2.0)
    elapsed = time.perf_counter() - start
    # spot-check the output is a transmission subgraph
    rng = random.Random(1001)
    # (indexing the arrays, so the test never builds the tuple view)
    sample = [rng.randrange(H.m) for _ in range(500)]
    assert all(math.hypot(sites[u].x - sites[v].x, sites[u].y - sites[v].y)
               <= sites[u].radius + 1e-9
               for u, v in zip(H.src[sample].tolist(), H.dst[sample].tolist()))
    ok = elapsed < 60.0
    _report(10, "performance (recorded, not gating)", ok,
            f"ratio variant, n=100000, psi<=64: m={H.m}, {elapsed:.1f}s "
            "against a 60s target")
    # recorded, not gating: an honest timing above target does not fail
