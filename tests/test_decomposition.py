"""Cell hierarchies and the separated annulus decomposition."""

import functools
import importlib.util
import math
import random
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import reference_trees as ref_trees
import txspanner.decomposition as decomposition_mod
from conftest import normalized_for, random_instance
from test_spanner import _clumped_instance
from txspanner.cli import generate_sites
from txspanner.core import (EPS, MODE_CLOSEST_PAIR_C, MODE_CLOSEST_PAIR_C2,
                            MODE_SMALLEST_RADIUS, SQRT2, GridCell,
                            cell_distance, cell_of, cone_range_for_cell,
                            make_sites, normalize, same_level_gap_sq,
                            spanner_parameters)
from txspanner.decomposition import (VARIANT_GENERAL, VARIANT_RATIO,
                                     VARIANT_SPREAD, QuadNode,
                                     Annulus, AnnulusDecomposition,
                                     annulus_cell_count,
                                     augment_with_wspd,
                                     build_compressed_quadtree,
                                     build_hierarchy, build_quadforest,
                                     build_quadtree,
                                     check_decomposition,
                                     compute_wspd, decomposition_dump,
                                     derive_decomposition, forest_depth,
                                     near_cell_count, neighbor_pairs,
                                     partition_components, radius_ratio)
from txspanner.oracle import degenerate_instances, materialize
from txspanner.spanner import BUILDERS

PARAMS = spanner_parameters(2.0)


# ---------------------------------------------------------------------------
# quadtree (bounded spread)

def test_quadtree_two_sites():
    sites = make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)])
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C, PARAMS.c)
    nodes = build_quadtree(norm, PARAMS).nodes
    leaves = [v for v in nodes if v.cell.level == 0]
    assert sorted(i for v in leaves for i in v.sites) == [0, 1]
    assert all(len(v.sites) <= 1 for v in leaves)


def test_quadtree_partitions_each_level():
    sites = random_instance(120, model="uniform", seed=41)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C, PARAMS.c)
    nodes = build_quadtree(norm, PARAMS).nodes
    root, = (v for v in nodes if v.parent is None)
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
    root, = build_quadtree(norm, PARAMS).roots
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
    roots = build_quadforest(norm, PARAMS).roots
    assert all(r.cell.level == 0 and r.is_leaf() for r in roots)
    cells = {cell_of(s.x, s.y, 0) for s in norm}
    assert len(roots) == len(cells)


def test_quadforest_single_cell_single_root():
    sites = make_sites([(i * 1e-4, 0.0, 1.0) for i in range(5)])
    norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, PARAMS.c)
    roots = build_quadforest(norm, PARAMS).roots
    assert len(roots) == 1
    assert roots[0].is_leaf() and len(roots[0].sites) == 5


def test_quadforest_level_counts():
    sites = random_instance(150, model="pareto", seed=46, psi_cap=16.0)
    norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, PARAMS.c)
    depth = forest_depth(radius_ratio(norm))
    nodes = build_quadforest(norm, PARAMS).nodes
    assert max(v.cell.level for v in nodes) == depth
    for level in range(depth + 1):
        total = sum(len(v.sites) for v in nodes if v.cell.level == level)
        assert total == len(norm)


def test_quadforest_rejects_unnormalized():
    sites = random_instance(30, model="constant", seed=47)
    with pytest.raises(ValueError):
        build_quadforest(sites, PARAMS)


# Reference oracle: the per-(node, site) assignment loop that the arrays
# replaced, over the reference trees. The arrays must give the same levels,
# cells, parents, member lists in order, m, max_radius and R.

def _populate_assignments_reference(nodes, sites, params, variant):
    lb = params.c - 2 if variant == VARIANT_GENERAL else params.c
    ub = 2 * (params.c + 1)
    for v in nodes:
        diam = v.cell.diameter
        best = -1.0
        best_i = None
        R = []
        for i in v.sites:
            r = sites[i].radius
            if r > best or (r == best and i < best_i):
                best = r
                best_i = i
            if lb * diam - EPS <= r < ub * diam + EPS:
                R.append(i)
        v.m = best_i
        v.max_radius = best
        v.R = R


def _reference_rows(structure, sites, variant):
    """Per node in id order: level, ix, iy, parent id, sites, m,
    max_radius, R, from the reference loop over a QuadNode hierarchy."""
    nodes = ref_trees.collect_nodes(structure)
    _populate_assignments_reference(nodes, sites, PARAMS, variant)
    return [(v.cell.level, v.cell.ix, v.cell.iy,
             -1 if v.parent is None else v.parent.id, v.sites,
             -1 if v.m is None else v.m, v.max_radius, v.R) for v in nodes]


def _array_rows(decomp, parent):
    sp, si = decomp.site_ptr.tolist(), decomp.site_ids.tolist()
    rp, ri = decomp.R_ptr.tolist(), decomp.R_ids.tolist()
    return [(lvl, ix, iy, p, si[sp[i]:sp[i + 1]], m, best, ri[rp[i]:rp[i + 1]])
            for i, (lvl, ix, iy, p, m, best) in enumerate(zip(
                decomp.level.tolist(), decomp.ix.tolist(), decomp.iy.tolist(),
                parent.tolist(), decomp.m.tolist(),
                decomp.max_radius.tolist()))]


def _dump_reference(rows):
    return "\n".join(f"{lvl} {ix} {iy} {len(sites)} {m} {len(R)}"
                     for lvl, ix, iy, _, sites, m, _, R in rows)


def _assert_forest_matches_reference(norm, depth=None):
    forest = build_quadforest(norm, PARAMS, depth=depth)
    decomp = derive_decomposition(forest, PARAMS, VARIANT_RATIO, norm)
    ref = _reference_rows(ref_trees.build_quadforest(norm, depth), norm,
                          VARIANT_RATIO)
    assert decomp.level.dtype == decomp.site_ids.dtype == np.int64
    assert _array_rows(decomp, forest.parent) == ref
    assert decomposition_dump(decomp) == _dump_reference(ref)
    # the lazy view carries the same tree
    view = [(v.cell.level, v.cell.ix, v.cell.iy,
             -1 if v.parent is None else v.parent.id, v.sites,
             -1 if v.m is None else v.m, v.max_radius, v.R)
            for v in decomp.nodes]
    assert view == ref
    assert all(u.parent is v for v in decomp.nodes for u in v.children)


def _forest_reference_instances():
    out = {f"uniform-square-{model}": random_instance(150, model=model,
                                                      seed=58, psi_cap=16.0)
           for model in ("pareto", "constant", "uniform")}
    out["clustered"] = generate_sites(200, "clustered", "pareto", 59, 16.0)
    # grid sites sit on cell boundaries after normalization
    out["grid"] = generate_sites(144, "grid", "uniform", 60)
    out["coincident"] = make_sites([(0.3, 0.7, 1.0 + 0.5 * (i % 3))
                                    for i in range(7)])
    out["one-site"] = make_sites([(0.2, 0.4, 0.3)])
    out["two-sites"] = make_sites([(0.0, 0.0, 1.0), (5.0, 1.0, 3.0)])
    out.update(degenerate_instances())
    return out


@pytest.mark.parametrize("name", sorted(_forest_reference_instances()))
def test_quadforest_arrays_match_reference(name):
    sites = _forest_reference_instances()[name]
    norm, _, _ = normalize(sites, MODE_SMALLEST_RADIUS, PARAMS.c)
    _assert_forest_matches_reference(norm)


def test_quadforest_boundaries_match_reference():
    # normalized sites on the cell corners of every level and one ulp
    # either side of them, with radii on both ends of the R interval
    c = PARAMS.c
    ub = 2 * (c + 1)
    radii = [float(c)]
    for lvl in range(4):
        d = float(2 ** lvl)
        radii += [c * d - EPS, ub * d + EPS, math.nextafter(ub * d + EPS, 0.0)]
    coords = []
    for lvl in range(5):
        side = 2 ** lvl / SQRT2
        for i in range(1, 4):
            u = i * side
            for x in (u, math.nextafter(u, 0.0), math.nextafter(u, math.inf)):
                coords.append((x, 3 * side - x))
    sites = make_sites([(x, y, radii[i % len(radii)])
                        for i, (x, y) in enumerate(coords)])
    _assert_forest_matches_reference(sites)


def test_quadforest_components_match_reference():
    # the ratio builder builds each far-apart class on its own, at the
    # depth of the whole input
    coords = [(s.x, s.y, s.radius) for s in
              random_instance(60, model="pareto", seed=61, psi_cap=16.0)]
    coords += [(x + 50.0, y, r) for x, y, r in coords[:30]]
    norm, _, _ = normalize(make_sites(coords), MODE_SMALLEST_RADIUS, PARAMS.c)
    depth = forest_depth(radius_ratio(norm))
    comps = partition_components(norm, PARAMS)
    assert len(comps) >= 2
    for comp in comps:
        sub = make_sites([(norm[i].x, norm[i].y, norm[i].radius)
                          for i in comp])
        _assert_forest_matches_reference(sub, depth)


@pytest.mark.parametrize("variant", [VARIANT_SPREAD, VARIANT_GENERAL])
def test_tree_assignments_match_reference(variant):
    # the tree variants share the vectorized assignment step
    for sites in (random_instance(120, model="pareto", seed=62),
                  degenerate_instances()["tight-clusters"]):
        norm, _, _ = normalized_for(sites, PARAMS, variant)
        tree = build_hierarchy(norm, PARAMS, variant)
        ref = _reference_rows(ref_trees.hierarchy(norm, PARAMS, variant), norm,
                              variant)
        decomp = derive_decomposition(tree, PARAMS, variant, norm)
        assert _array_rows(decomp, tree.parent) == ref
        assert decomposition_dump(decomp) == _dump_reference(ref)


def test_ratio_paths_build_no_quadnode(monkeypatch):
    # every hierarchy, its decomposition, the sweep over it, the three
    # builders and the geometric oracle stay free of per-cell Python
    # objects
    import txspanner.spanner as spanner_mod
    from txspanner.reachability import GeomOracle
    calls = [0]
    init = QuadNode.__init__

    def counting(self, *args):
        calls[0] += 1
        init(self, *args)

    monkeypatch.setattr(QuadNode, "__init__", counting)
    sites = random_instance(300, model="pareto", seed=63, psi_cap=16.0)
    norm, _, _ = normalized_for(sites, PARAMS, VARIANT_RATIO)
    decomp = derive_decomposition(build_quadforest(norm, PARAMS), PARAMS,
                                  VARIANT_RATIO, norm)
    spanner_mod._decomposition_edges(norm, decomp)
    spanner_mod.build_spanner_radius_ratio(sites, 2.0)
    spanner_mod.build_spanner_spread(sites, 2.0)
    spanner_mod.build_spanner_general(sites, 2.0)
    for variant in (VARIANT_SPREAD, VARIANT_RATIO, VARIANT_GENERAL):
        vnorm, _, _ = normalized_for(sites, PARAMS, variant)
        derive_decomposition(build_hierarchy(vnorm, PARAMS, variant), PARAMS,
                             variant, vnorm)
    GeomOracle(sites)
    assert len(decomp.nodes) > 1
    assert calls[0] == 0
    # reading the view builds it, once
    assert decomp.nodes[0].cell.level == int(decomp.level[0])
    assert calls[0] == len(decomp.nodes)
    list(decomp.nodes)
    assert calls[0] == len(decomp.nodes)


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
    nodes = build_compressed_quadtree(norm, PARAMS).nodes
    assert len(nodes[0].sites) == 2
    leaves = [v for v in nodes if v.is_leaf()]
    assert sorted(i for v in leaves for i in v.sites) == [0, 1]
    assert all(len(v.sites) == 1 for v in leaves)


def test_compressed_node_count_linear():
    n = 24
    sites = make_sites([(2.0 ** i, 0.0, 1.0) for i in range(n)])
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    nodes = build_compressed_quadtree(norm, PARAMS).nodes
    assert len(nodes) <= 8 * n
    internal = [v for v in nodes if not v.is_leaf()]
    assert all(len(v.sites) >= 2 for v in internal)


def test_compressed_leaves_partition_sites():
    sites = random_instance(150, model="uniform", seed=50)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    leaves = [v for v in build_compressed_quadtree(norm, PARAMS).nodes
              if v.is_leaf()]
    assert sorted(i for v in leaves for i in v.sites) == list(range(len(norm)))
    assert all(len(v.sites) <= 1 for v in leaves)


def test_compressed_rejects_duplicates():
    sites = make_sites([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (5.0, 5.0, 1.0)])
    with pytest.raises(ValueError):
        normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)


def test_wspd_two_sites_single_pair():
    sites = make_sites([(0.0, 0.0, 1.0), (3.0, 0.0, 1.0)])
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    tree = build_compressed_quadtree(norm, PARAMS)
    pairs = compute_wspd(tree, PARAMS.c)
    assert len(pairs) == 1
    nodes = tree.nodes
    assert sorted(i for a in pairs[0].tolist() for i in nodes[a].sites) == [0, 1]


def test_wspd_coverage_and_separation():
    sites = random_instance(100, model="uniform", seed=51)
    norm, _, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, PARAMS.c)
    tree = build_compressed_quadtree(norm, PARAMS)
    pairs = compute_wspd(tree, PARAMS.c)
    nodes = tree.nodes
    n = len(norm)
    covered = [[0] * n for _ in range(n)]
    for a, b in pairs.tolist():
        v, w = nodes[a], nodes[b]
        cv, cw = ref_trees.wspd_cell(v, norm), ref_trees.wspd_cell(w, norm)
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
    tree = build_compressed_quadtree(norm, PARAMS)
    before = len(tree.level)
    wspd = compute_wspd(tree, PARAMS.c)
    after = len(augment_with_wspd(tree, wspd, PARAMS).level)
    assert after <= before + 2 * len(wspd)


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


def _reference_wspd(norm):
    """The reference compressed quadtree and its WSPD pairs."""
    root = ref_trees.build_compressed_quadtree(norm)
    return root, ref_trees.compute_wspd(root, PARAMS.c)


@pytest.mark.parametrize("name", sorted(_PINNED_INSTANCES))
def test_wspd_and_augmentation_match_reference(name):
    norm, _, _ = normalize(_PINNED_INSTANCES[name](), MODE_CLOSEST_PAIR_C2,
                           PARAMS.c)
    root, ref = _reference_wspd(norm)
    tree = build_compressed_quadtree(norm, PARAMS)
    pairs = compute_wspd(tree, PARAMS.c)
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
    expect = ref_trees.tree_arrays(
        ref_trees.augment_with_wspd(root, ref, PARAMS, norm))
    assert ref_trees.arrays_equal(augment_with_wspd(tree, pairs, PARAMS),
                                  expect)


def test_wspd_tie_holds_when_np_hypot_rounds_low(monkeypatch):
    # np.hypot may differ from math.hypot by one ulp; distances this close
    # to c * diam are redone with math.hypot, so a low np.hypot cannot
    # split the tie pair
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot",
                        lambda a, b: np.nextafter(hypot(a, b), 0.0))
    norm, _, _ = normalize(make_sites(_TIE_SITES), MODE_CLOSEST_PAIR_C2,
                           PARAMS.c)
    _, ref = _reference_wspd(norm)
    tree = build_compressed_quadtree(norm, PARAMS)
    assert {frozenset(p) for p in compute_wspd(tree, PARAMS.c).tolist()} \
        == {frozenset((v.id, w.id)) for v, w in ref}


@functools.lru_cache(maxsize=None)
def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # the dataclass decorator looks its module up in sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def _general_clustered_instance(seed=101):
    """The `general-clustered` benchmark workload's instance for a seed."""
    workloads = _bench_workloads()
    return make_sites(workloads.generate(
        workloads.WORKLOADS["general-clustered"], seed))


def _hierarchy_instances():
    out = {f"pinned-{k}": v for k, v in _PINNED_INSTANCES.items()}
    out.update({f"degenerate-{k}": (lambda s=s: s)
                for k, s in degenerate_instances().items()
                if k != "duplicates"})
    out["general-clustered-101"] = _general_clustered_instance
    return out


@pytest.mark.parametrize("kind", ["spread", "compressed", "augmented"])
@pytest.mark.parametrize("name", sorted(_hierarchy_instances()))
def test_hierarchy_arrays_match_reference(kind, name):
    # all six arrays, member order included: R and the sweep's first
    # containing disk follow it
    sites = _hierarchy_instances()[name]()
    mode = MODE_CLOSEST_PAIR_C if kind == "spread" else MODE_CLOSEST_PAIR_C2
    norm, _, _ = normalize(sites, mode, PARAMS.c)
    if kind == "spread":
        got = build_quadtree(norm, PARAMS)
        expect = ref_trees.build_quadtree(norm)
    else:
        got = build_compressed_quadtree(norm, PARAMS)
        expect = ref_trees.build_compressed_quadtree(norm)
        if kind == "augmented":
            got = augment_with_wspd(got, compute_wspd(got, PARAMS.c), PARAMS)
            expect = ref_trees.augment_with_wspd(
                expect, ref_trees.compute_wspd(expect, PARAMS.c), PARAMS, norm)
    assert ref_trees.arrays_equal(got, ref_trees.tree_arrays(expect))


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


def _pruned_reference(decomp, lvl):
    """The pruned pairs of level lvl as the full-r_out enumeration
    (prune=False) under neighbor_pairs' two prune filters, as a set."""
    ann = Annulus(decomp.params.c)
    _, ix, iy, mrad = decomp.level_arrays[lvl]
    pos = {v: i for i, v in enumerate(decomp.level_arrays[lvl][0].tolist())}
    side = 2 ** lvl / SQRT2
    out = set()
    for tv, tt in zip(*(a.tolist() for a in neighbor_pairs(decomp, lvl,
                                                           prune=False))):
        s, t = pos[tt], pos[tv]
        g2 = int(ann.gap2(ix[s] - ix[t], iy[s] - iy[t]))
        if mrad[s] >= math.sqrt(ann.lo2) * side - EPS \
                and mrad[s] >= math.sqrt(g2) * side - EPS:
            out.add((tv, tt))
    return out


def test_pruned_pairs_match_full_box():
    # one synthetic level of 700 cells with mixed reaches, so that the
    # sources fill three chunks of 256 whose search boxes differ
    rng = np.random.default_rng(61)
    c = PARAMS.c
    ann = Annulus(c)
    side = 1 / SQRT2
    g = 120  # cell 0 reaches exactly this gap; cell 1 lies at (g + 1, 0)
    assert ann.lo2 <= g * g < ann.hi2
    cells = [(0, 0), (g + 1, 0)]
    for v in map(tuple, rng.integers(-420, 420, (800, 2)).tolist()):
        if v not in cells and len(cells) < 700:
            cells.append(v)
    ix, iy = np.array(cells, dtype=np.int64).T
    lo_reach = math.sqrt(ann.lo2) * side
    mrad = rng.uniform(lo_reach - 10, (2 * c * SQRT2 + 5) * side, len(ix))
    mrad[0] = g * side
    sources = np.flatnonzero(mrad >= lo_reach - EPS)
    assert len(sources) > 2 * 256 and sources[0] == 0
    # cell 0 has the first chunk's largest radius
    first = sources[1:256]
    mrad[first] = np.minimum(mrad[first], g * side - 1.0)
    decomp = types.SimpleNamespace(params=PARAMS, level_arrays={
        0: (np.arange(len(ix)), ix, iy, mrad)})
    got = set(zip(*(a.tolist() for a in neighbor_pairs(decomp, 0))))
    # the pair at the largest Chebyshev offset the first chunk's box needs
    assert (1, 0) in got
    assert g + 1 == math.floor((mrad[0] + EPS) / side) + 1
    assert got == _pruned_reference(decomp, 0)
    assert len(got) == len(neighbor_pairs(decomp, 0)[0])


@pytest.mark.parametrize("variant,model", [
    (VARIANT_SPREAD, "uniform"),
    (VARIANT_RATIO, "pareto"),
    (VARIANT_GENERAL, "pareto"),
])
def test_pruned_pairs_match_full_box_on_hierarchies(variant, model):
    sites = random_instance(400, model=model, seed=62, psi_cap=32.0)
    norm, _, _ = normalized_for(sites, PARAMS, variant)
    decomp = derive_decomposition(build_hierarchy(norm, PARAMS, variant),
                                  PARAMS, variant, norm)
    for lvl in decomp.level_arrays:
        tv, tt = neighbor_pairs(decomp, lvl)
        assert set(zip(tv.tolist(), tt.tolist())) == \
            _pruned_reference(decomp, lvl)
        assert len(tv) == len(set(zip(tv.tolist(), tt.tolist())))


def _check_cases(variant, seed):
    """(tree, normalized sites, decomposition, G) of one small instance."""
    sites = generate_sites(150, "uniform-square", "pareto", seed, 16.0)
    norm, _, _ = normalized_for(sites, PARAMS, variant)
    tree = build_hierarchy(norm, PARAMS, variant)
    return tree, norm, derive_decomposition(tree, PARAMS, variant, norm), \
        materialize(norm)


@pytest.mark.parametrize("variant", [VARIANT_SPREAD, VARIANT_RATIO,
                                     VARIANT_GENERAL])
def test_check_decomposition_matches_reference(monkeypatch, variant):
    tree, norm, decomp, g = _check_cases(variant, 63)
    assert check_decomposition(decomp, norm, g) == \
        ref_trees.check_decomposition(decomp, norm, g) == ([], [])

    # part (ii): drop half of each R and hand half of the nodes the
    # smallest disk of all as representative, on a fresh tree (the node
    # view is shared)
    rng = np.random.default_rng(64)
    tree, norm, _, g = _check_cases(variant, 63)
    m = decomp.m.copy()
    m[(m >= 0) & (rng.random(len(m)) < 0.5)] = np.argmin(
        [s.radius for s in norm])
    keep = rng.random(len(decomp.R_ids)) < 0.5
    owner = np.repeat(np.arange(len(m)), np.diff(decomp.R_ptr))
    R_ptr = np.concatenate(([0], np.cumsum(
        np.bincount(owner[keep], minlength=len(m)))))
    bent = AnnulusDecomposition(tree, (m, decomp.max_radius, R_ptr,
                                       decomp.R_ids[keep]), PARAMS, variant)
    got = check_decomposition(bent, norm, g)
    assert got[1] and got == ref_trees.check_decomposition(bent, norm, g)

    # part (i): a relation missing half its pairs (asymmetric), with a far
    # pair and a pair across levels added
    full_pairs = neighbor_pairs

    def bent_pairs(decomp, lvl, prune=True):
        tv, tt = full_pairs(decomp, lvl, prune)
        keep = np.random.default_rng(lvl).random(len(tv)) > 0.5
        ids = decomp.level_arrays[lvl][0]
        return (np.append(tv[keep], [ids[0], ids[0]]),
                np.append(tt[keep], [ids[-1], 0]))

    monkeypatch.setattr(decomposition_mod, "neighbor_pairs", bent_pairs)
    monkeypatch.setattr(ref_trees, "neighbor_pairs", bent_pairs)
    got = check_decomposition(decomp, norm, g)
    assert got[0] and got == ref_trees.check_decomposition(decomp, norm, g)


def test_neighborhood_size_bound():
    sites = random_instance(200, model="uniform", seed=54)
    norm, _, _ = normalized_for(sites, PARAMS, VARIANT_SPREAD)
    decomp = derive_decomposition(build_hierarchy(norm, PARAMS, VARIANT_SPREAD),
                                  PARAMS, VARIANT_SPREAD, norm)
    bound = annulus_cell_count(PARAMS.c)
    for lvl in decomp.level_arrays:
        tv, _ = neighbor_pairs(decomp, lvl, prune=False)
        assert np.bincount(tv, minlength=1).max() <= bound


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


@pytest.mark.parametrize("k, c", [
    *((p.k, p.c) for p in map(spanner_parameters, (1.5, 2.0, 3.0))),
    (40_000, 8)])
def test_annulus_table_matches_scalar_reference(k, c):
    # every offset of the span: the gap of same_level_gap_sq, and for the
    # annulus offsets the cone set of cone_range_for_cell, apex at the
    # centre of a cell away from the origin, at two levels; k = 40000
    # takes cone indices past 2^15
    ann = Annulus(c)
    ix0, iy0 = 137, -59
    d = np.arange(-ann.span, ann.span + 1)
    off_x, off_y = (a.ravel() for a in np.meshgrid(d, d, indexing="ij"))
    gap2 = ann.gap2(off_x, off_y)
    ring = (gap2 >= 2 * (c - 2) * (c - 2)) & (gap2 < 8 * c * c)
    assert ring.sum() == annulus_cell_count(c)
    for dx, dy, g2 in zip(off_x.tolist(), off_y.tolist(), gap2.tolist()):
        assert g2 == same_level_gap_sq(GridCell(0, dx, dy), GridCell(0, 0, 0))
    j_lo, count = ann.cones(k, off_x[ring], off_y[ring])
    assert ((0 <= j_lo) & (j_lo < k)).all()
    # shared_cones measures each distinct offset once: same answers on
    # the offsets repeated, in another order
    rx, ry = np.tile(off_x[ring][::-1], 2), np.tile(off_y[ring][::-1], 2)
    for a, b in zip(ann.shared_cones(k, rx, ry), (j_lo, count)):
        assert np.array_equal(a, np.tile(b[::-1], 2))
    for dx, dy, lo_j, n_j in zip(off_x[ring].tolist(), off_y[ring].tolist(),
                                 j_lo.tolist(), count.tolist()):
        cones = {(lo_j + i) % k for i in range(n_j)}
        for lvl in (0, 3):
            apex = GridCell(lvl, ix0, iy0).center()
            lo, hi = cone_range_for_cell(GridCell(lvl, ix0 + dx, iy0 + dy),
                                         apex, k)
            assert cones == {j % k for j in range(lo, hi + 1)}, (dx, dy, lvl)
    # far offsets are clipped: neither near nor in the annulus, and their
    # squares do not wrap
    far = ann.gap2(np.array([10 ** 12, -ann.span - 1, 2 ** 62]),
                   np.array([0, 3 * ann.span, -2 ** 62]))
    assert (far >= 8 * c * c).all()


@pytest.mark.parametrize("t", [1.05, 1.01])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_small_stretch_build_stays_small(t, builder):
    # c grows as t -> 1 (c = 3236 at t = 1.01), but the annulus work must
    # follow the cell pairs of the input, not the c^2 cells of the annulus
    sites = generate_sites(200, "uniform-square", "pareto", seed=1,
                           psi_cap=8.0)
    tracemalloc.start()
    try:
        H = BUILDERS[builder](sites, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.m > 0
    assert peak < 32 * 2 ** 20


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
