"""Cell hierarchies and the separated annulus decomposition."""

import math
import random

import numpy as np
import pytest

from conftest import normalized_for, random_instance
from test_spanner import _clumped_instance
from txspanner.cli import generate_sites
from txspanner.core import (MODE_CLOSEST_PAIR_C, MODE_CLOSEST_PAIR_C2,
                            MODE_SMALLEST_RADIUS, SQRT2, cell_distance,
                            cell_of, make_sites, normalize,
                            spanner_parameters)
from txspanner.decomposition import (VARIANT_GENERAL, VARIANT_RATIO,
                                     VARIANT_SPREAD, QuadNode,
                                     annulus_cell_count,
                                     augment_with_wspd,
                                     build_compressed_quadtree,
                                     build_hierarchy, build_quadforest,
                                     build_quadtree,
                                     check_decomposition, collect_nodes,
                                     compute_wspd, decomposition_dump,
                                     derive_decomposition, forest_depth,
                                     near_cell_count, partition_components,
                                     radius_ratio)
from txspanner.oracle import materialize

PARAMS = spanner_parameters(2.0)


# ---------------------------------------------------------------------------
# quadtree (bounded spread)

def test_quadtree_two_sites():
    sites = make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)])
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C, PARAMS.c)
    root = build_quadtree(norm, PARAMS)
    nodes = collect_nodes(root)
    leaves = [v for v in nodes if v.cell.level == 0]
    assert sorted(i for v in leaves for i in v.sites) == [0, 1]
    assert all(len(v.sites) <= 1 for v in leaves)


def test_quadtree_partitions_each_level():
    sites = random_instance(120, model="uniform", seed=41)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C, PARAMS.c)
    root = build_quadtree(norm, PARAMS)
    nodes = collect_nodes(root)
    for level in range(root.cell.level + 1):
        at_level = [v for v in nodes if v.cell.level == level]
        seen = sorted(i for v in at_level for i in v.sites)
        assert seen == list(range(len(norm)))


def test_quadtree_depth_bound():
    sites = random_instance(200, model="constant", seed=42)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C, PARAMS.c)
    pts = [(s.x, s.y) for s in norm]
    dmin = PARAMS.c
    dmax = max(math.hypot(a[0] - b[0], a[1] - b[1])
               for a in pts for b in pts)
    spread = dmax / dmin
    root = build_quadtree(norm, PARAMS)
    assert root.cell.level <= math.ceil(math.log2(PARAMS.c * spread)) + 2


def test_quadtree_rejects_unnormalized():
    sites = random_instance(30, model="constant", seed=44)
    with pytest.raises(ValueError):
        build_quadtree(sites, PARAMS)


# ---------------------------------------------------------------------------
# quadforest (bounded radius ratio)

def test_quadforest_unit_ratio_depth_zero():
    sites = random_instance(100, model="constant", seed=45)
    norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, PARAMS.c)
    assert abs(radius_ratio(norm) - 1.0) < 1e-9
    roots = build_quadforest(norm, PARAMS)
    assert all(r.cell.level == 0 and r.is_leaf() for r in roots)
    cells = {cell_of(s.x, s.y, 0) for s in norm}
    assert len(roots) == len(cells)


def test_quadforest_single_cell_single_root():
    sites = make_sites([(i * 1e-4, 0.0, 1.0) for i in range(5)])
    norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, PARAMS.c)
    roots = build_quadforest(norm, PARAMS)
    assert len(roots) == 1
    assert roots[0].is_leaf() and len(roots[0].sites) == 5


def test_quadforest_level_counts():
    sites = random_instance(150, model="pareto", seed=46, psi_cap=16.0)
    norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, PARAMS.c)
    depth = forest_depth(radius_ratio(norm))
    nodes = collect_nodes(build_quadforest(norm, PARAMS))
    assert max(v.cell.level for v in nodes) == depth
    for level in range(depth + 1):
        total = sum(len(v.sites) for v in nodes if v.cell.level == level)
        assert total == len(norm)


def test_quadforest_rejects_unnormalized():
    sites = random_instance(30, model="constant", seed=47)
    with pytest.raises(ValueError):
        build_quadforest(sites, PARAMS)


# ---------------------------------------------------------------------------
# component partition

def test_partition_two_far_sites():
    r = float(PARAMS.c)
    gap = 2 * SQRT2 * r * 1.5
    sites = make_sites([(0.0, 0.0, r), (gap, gap, r)])
    assert partition_components(sites, PARAMS) == [[0], [1]]


def test_partition_chain_one_component():
    r = float(PARAMS.c)
    step = 1.9 * r  # squares of side 2M overlap along the chain
    sites = make_sites([(i * step, 0.0, r) for i in range(6)])
    assert partition_components(sites, PARAMS) == [list(range(6))]


def test_partition_matches_bruteforce_union_find():
    rng = random.Random(48)
    for trial in range(5):
        n = 200
        sites = make_sites([(rng.uniform(0, 60), rng.uniform(0, 60),
                             rng.uniform(1.0, 2.0)) for _ in range(n)])
        comps = partition_components(sites, PARAMS)
        m = max(s.radius for s in sites)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for i in range(n):
            for j in range(i + 1, n):
                if abs(sites[i].x - sites[j].x) <= 2 * m and \
                   abs(sites[i].y - sites[j].y) <= 2 * m:
                    parent[find(j)] = find(i)
        expected = {}
        for i in range(n):
            expected.setdefault(find(i), []).append(i)
        assert sorted(comps) == sorted(expected.values())


def test_partition_classes_uncrossed_by_edges():
    sites = random_instance(200, model="pareto", seed=49)
    norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, PARAMS.c)
    comps = partition_components(norm, PARAMS)
    label = {}
    for ci, comp in enumerate(comps):
        for i in comp:
            label[i] = ci
    g = materialize(norm)
    for u in range(g.n):
        for v in g.neighbors(u):
            assert label[u] == label[int(v)]


# ---------------------------------------------------------------------------
# compressed quadtree and WSPD

def test_compressed_two_far_sites():
    sites = make_sites([(0.0, 0.0, 1.0), (2.0 ** 20, 0.0, 1.0)])
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    assert len(root.sites) == 2
    leaves = [v for v in collect_nodes(root) if v.is_leaf()]
    assert sorted(i for v in leaves for i in v.sites) == [0, 1]
    assert all(len(v.sites) == 1 for v in leaves)


def test_compressed_node_count_linear():
    n = 24
    sites = make_sites([(2.0 ** i, 0.0, 1.0) for i in range(n)])
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    nodes = collect_nodes(root)
    assert len(nodes) <= 8 * n
    internal = [v for v in nodes if not v.is_leaf()]
    assert all(len(v.sites) >= 2 for v in internal)


def test_compressed_leaves_partition_sites():
    sites = random_instance(150, model="uniform", seed=50)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    leaves = [v for v in collect_nodes(root) if v.is_leaf()]
    assert sorted(i for v in leaves for i in v.sites) == list(range(len(norm)))
    assert all(len(v.sites) <= 1 for v in leaves)


def test_compressed_rejects_duplicates():
    sites = make_sites([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (5.0, 5.0, 1.0)])
    with pytest.raises(ValueError):
        normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)


def test_wspd_two_sites_single_pair():
    sites = make_sites([(0.0, 0.0, 1.0), (3.0, 0.0, 1.0)])
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    pairs = compute_wspd(root, PARAMS.c)
    assert len(pairs) == 1
    nodes = collect_nodes(root)
    assert sorted(i for a in pairs[0].tolist() for i in nodes[a].sites) == [0, 1]


def test_wspd_coverage_and_separation():
    sites = random_instance(100, model="uniform", seed=51)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    pairs = compute_wspd(root, PARAMS.c)
    nodes = collect_nodes(root)
    n = len(norm)
    covered = [[0] * n for _ in range(n)]
    for a, b in pairs.tolist():
        v, w = nodes[a], nodes[b]
        cv, cw = v.wspd_cell, w.wspd_cell
        assert cell_distance(cv, cw) >= \
            PARAMS.c * max(cv.diameter, cw.diameter) - 1e-9
        for a in v.sites:
            for b in w.sites:
                covered[a][b] += 1
                covered[b][a] += 1
    for a in range(n):
        for b in range(n):
            assert covered[a][b] == (1 if a != b else 0)


def test_augment_node_budget():
    sites = random_instance(100, model="uniform", seed=52)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    before = len(collect_nodes(root))
    wspd = compute_wspd(root, PARAMS.c)
    new_root = augment_with_wspd(root, wspd, PARAMS, norm)
    after = len(collect_nodes(new_root))
    assert after <= before + 2 * len(wspd)


# Reference oracles: per-pair Python forms of compute_wspd and
# augment_with_wspd; the array forms must give the same pairs and trees.

def _compute_wspd_reference(root, c):
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


def _augment_with_wspd_reference(root, wspd, params, sites):
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
    by_key = dict(cells)
    new_nodes = {}
    for key in sorted(by_key, reverse=True):
        new_nodes[key] = QuadNode(by_key[key], [])
    top_level = max(k[0] for k in by_key)
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


def _tree_signature(root):
    """Per node in collect_nodes order: cell, parent cell, child cells in
    child order, and site list."""
    key = lambda v: None if v is None else (v.cell.level, v.cell.ix, v.cell.iy)
    return [(key(v), key(v.parent), [key(u) for u in v.children], v.sites)
            for v in collect_nodes(root)]


# The level-7 cells of the two pairs lie 69 cells apart on both axes, so
# cell_distance is exactly c * 128 = 8704: separated, with no split. The
# sites sit on integer points with closest pair 70 = c + 2, so normalizing
# leaves their coordinates unchanged.
_TIE_SITES = [(0.0, 0.0, 1.0), (70.0, 0.0, 1.0),
              (6246.0, 6246.0, 1.0), (6316.0, 6246.0, 1.0)]

_PINNED_INSTANCES = {
    "clustered-400": lambda: generate_sites(400, "clustered", "pareto", 101, 8.0),
    "uniform-300-601": lambda: generate_sites(300, "uniform-square", "uniform", 601),
    "uniform-300-602": lambda: generate_sites(300, "uniform-square", "uniform", 602),
    "uniform-300-603": lambda: generate_sites(300, "uniform-square", "uniform", 603),
    "two-sites": lambda: make_sites([(0.0, 0.0, 1.0), (3.0, 0.0, 1.0)]),
    "clumped-3": lambda: _clumped_instance(3),
    "lattice-tie": lambda: make_sites(_TIE_SITES),
}


@pytest.mark.parametrize("name", sorted(_PINNED_INSTANCES))
def test_wspd_and_augmentation_match_reference(name):
    norm, _, _ = normalize(_PINNED_INSTANCES[name](), MODE_CLOSEST_PAIR_C2,
                           PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    ref = _compute_wspd_reference(root, PARAMS.c)
    pairs = compute_wspd(root, PARAMS.c)
    assert pairs.dtype == np.int64 and pairs.shape == (len(ref), 2)
    got = {frozenset(p) for p in pairs.tolist()}
    assert len(got) == len(pairs)
    assert got == {frozenset((v.id, w.id)) for v, w in ref}
    if name == "lattice-tie":
        assert [(p.x, p.y) for p in norm] == [(x, y) for x, y, _ in _TIE_SITES]
        ties = [(v, w) for v, w in ref if v.children and w.children and
                cell_distance(v.wspd_cell, w.wspd_cell)
                == PARAMS.c * max(v.wspd_cell.diameter, w.wspd_cell.diameter)]
        assert len(ties) == 1
    expect = _tree_signature(
        _augment_with_wspd_reference(root, ref, PARAMS, norm))
    assert _tree_signature(augment_with_wspd(root, pairs, PARAMS, norm)) \
        == expect


def test_wspd_tie_holds_when_np_hypot_rounds_low(monkeypatch):
    # np.hypot may differ from math.hypot by one ulp; distances this close
    # to c * diam are redone with math.hypot, so a low np.hypot cannot
    # split the tie pair
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot",
                        lambda a, b: np.nextafter(hypot(a, b), 0.0))
    norm, _, _ = normalize(make_sites(_TIE_SITES), MODE_CLOSEST_PAIR_C2,
                           PARAMS.c)
    root = build_compressed_quadtree(norm, PARAMS)
    ref = _compute_wspd_reference(root, PARAMS.c)
    assert {frozenset(p) for p in compute_wspd(root, PARAMS.c).tolist()} \
        == {frozenset((v.id, w.id)) for v, w in ref}


# ---------------------------------------------------------------------------
# annulus decomposition

@pytest.mark.parametrize("variant,model", [
    (VARIANT_SPREAD, "uniform"),
    (VARIANT_RATIO, "pareto"),
    (VARIANT_GENERAL, "uniform"),
])
def test_decomposition_sound(variant, model):
    sites = random_instance(100, model=model, seed=53)
    norm, _, _ = normalized_for(sites, PARAMS, variant)
    structure = build_hierarchy(norm, PARAMS, variant)
    decomp = derive_decomposition(structure, PARAMS, variant, norm)
    bad_i, bad_ii = check_decomposition(decomp, norm, materialize(norm))
    assert bad_i == []
    assert bad_ii == []


def test_neighborhood_size_bound():
    sites = random_instance(200, model="uniform", seed=54)
    norm, _, _ = normalized_for(sites, PARAMS, VARIANT_SPREAD)
    decomp = derive_decomposition(build_hierarchy(norm, PARAMS, VARIANT_SPREAD),
                                  PARAMS, VARIANT_SPREAD, norm)
    bound = annulus_cell_count(PARAMS.c)
    assert all(len(ns) <= bound for ns in decomp.neighbors.values())


def test_each_site_in_at_most_two_assigned_sets():
    sites = random_instance(200, model="pareto", seed=55, psi_cap=16.0)
    for variant in (VARIANT_SPREAD, VARIANT_RATIO):
        norm, _, _ = normalized_for(sites, PARAMS, variant)
        decomp = derive_decomposition(build_hierarchy(norm, PARAMS, variant),
                                      PARAMS, variant, norm)
        counts = [0] * len(norm)
        for v in decomp.nodes:
            for i in v.R:
                counts[i] += 1
        assert max(counts, default=0) <= 2


def test_representative_has_max_radius():
    sites = random_instance(150, model="pareto", seed=56)
    norm, _, _ = normalized_for(sites, PARAMS, VARIANT_RATIO)
    decomp = derive_decomposition(build_hierarchy(norm, PARAMS, VARIANT_RATIO),
                                  PARAMS, VARIANT_RATIO, norm)
    for v in decomp.nodes:
        assert v.m in v.sites
        assert norm[v.m].radius == max(norm[i].radius for i in v.sites)


def test_cell_count_formulas_match_bruteforce():
    for c in (6, 10, 68):
        lo2 = 2 * (c - 2) * (c - 2)
        hi2 = 8 * c * c
        span = 4 * c
        annulus = 0
        near = 0
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                gx = max(0, abs(dx) - 1)
                gy = max(0, abs(dy) - 1)
                g2 = gx * gx + gy * gy
                if lo2 <= g2 < hi2:
                    annulus += 1
                if g2 <= lo2:
                    near += 1
        assert annulus_cell_count(c) == annulus
        assert near_cell_count(c) == near


def test_dump_format():
    sites = random_instance(40, model="constant", seed=57)
    norm, _, _ = normalized_for(sites, PARAMS, VARIANT_RATIO)
    decomp = derive_decomposition(build_hierarchy(norm, PARAMS, VARIANT_RATIO),
                                  PARAMS, VARIANT_RATIO, norm)
    lines = decomposition_dump(decomp).splitlines()
    assert len(lines) == len(decomp.nodes)
    for line in lines:
        parts = line.split()
        assert len(parts) == 6
        assert all(p.lstrip("-").isdigit() for p in parts)
