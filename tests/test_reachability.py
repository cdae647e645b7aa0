"""Site-to-site reachability oracle and its geometric point extension."""

import math
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

import txspanner.oracle as oracle_mod
import txspanner.reachability as reach_mod
from conftest import random_instance
from test_spanner import _clumped_instance
from txspanner.cli import generate_sites
from txspanner.core import (EPS, SQRT2, cell_of, cone_range_for_cell,
                            disk_contains, make_sites)
from txspanner.geom_query import DiskContainment
from txspanner.oracle import (degenerate_instances, geom_reach_oracle,
                              materialize, reachable_from)
from txspanner.reachability import (BaseOracle, GeomOracle, cover_set,
                                    cover_set_bound, geom_reach,
                                    geom_reach_bruteforce,
                                    transmission_edges)


# ---------------------------------------------------------------------------
# base oracle

def test_base_single_scc_all_pairs():
    sites = make_sites([(0.0, 0.0, 2.0), (1.0, 0.0, 2.0), (0.5, 1.0, 2.0)])
    base = BaseOracle(sites)
    for s in range(3):
        for q in range(3):
            assert base.reach(s, q)


def test_base_disconnected_components():
    sites = make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0),
                        (50.0, 0.0, 1.0), (51.0, 0.0, 1.0)])
    base = BaseOracle(sites)
    assert base.reach(0, 1) and base.reach(2, 3)
    assert not base.reach(0, 2) and not base.reach(3, 1)


def test_base_reaches_itself():
    sites = make_sites([(0.0, 0.0, 0.1), (10.0, 0.0, 0.1)])
    base = BaseOracle(sites)
    assert base.reach(0, 0) and base.reach(1, 1)
    assert not base.reach(0, 1)


def test_base_many_components():
    # 32 components, one of them with an incoming edge: the condensation
    # bitsets must shift past bit 31
    sites = make_sites([(10.0 * i, 0.0, 1.0) for i in range(30)]
                       + [(5000.0, 0.0, 1.0), (5000.5, 0.0, 0.3)])
    base = BaseOracle(sites)
    assert base.reach(30, 31) and not base.reach(31, 30)
    assert base.reach(29, 29) and not base.reach(0, 29)


@pytest.mark.parametrize("bad", [-1, 3, 10 ** 9])
def test_base_reach_rejects_site_out_of_range(bad):
    # a negative site must not wrap around to the last one
    sites = make_sites([(0.0, 0.0, 1.0), (0.5, 0.0, 1.0), (10.0, 0.0, 1.0)])
    base = BaseOracle(sites)
    with pytest.raises(ValueError, match="out of range"):
        base.reach(bad, 2)
    with pytest.raises(ValueError, match="out of range"):
        base.reach(0, bad)


def test_base_matches_bfs_oracle():
    rng = random.Random(91)
    sites = random_instance(200, model="pareto", seed=92)
    base = BaseOracle(sites)
    g = materialize(sites)
    reach_rows = {}
    for _ in range(1000):
        s = rng.randrange(len(sites))
        q = rng.randrange(len(sites))
        if s not in reach_rows:
            reach_rows[s] = reachable_from(g, s)
        assert base.reach(s, q) == bool(reach_rows[s][q])


# (distribution, radius model, seed, n) of the generated identity cases
GENERATED = [(dist, model, seed, n)
             for dist in ("uniform-square", "clustered")
             for model in ("constant", "uniform", "pareto")
             for seed, n in ((0, 300), (1, 700), (2, 2000))]


def _assert_edges_match_materialize(sites):
    src, dst = transmission_edges(sites)
    assert np.all(np.diff(src) >= 0)
    order = np.lexsort((dst, src))
    csr = materialize(sites).csr
    n = len(sites)
    assert np.array_equal(np.bincount(src, minlength=n), np.diff(csr.indptr))
    assert np.array_equal(dst[order], csr.indices)


def _assert_oracle_matches_condensation(sites):
    """BaseOracle's partition (up to renaming) and its reach on all pairs
    against scipy's SCCs of materialize and the reachability closure of
    their condensation."""
    base = BaseOracle(sites)
    csr = materialize(sites).csr
    ncomp, labels = connected_components(csr, directed=True,
                                         connection="strong")
    assert base.comp.max() + 1 == ncomp
    # a bijection between the two labelings
    assert len(set(zip(base.comp.tolist(), labels.tolist()))) == ncomp
    src = labels[np.repeat(np.arange(len(sites)), np.diff(csr.indptr))]
    dst = labels[csr.indices]
    cond = csr_matrix((np.ones(len(src)), (src, dst)), shape=(ncomp, ncomp))
    closed = np.isfinite(shortest_path(cond, directed=True, unweighted=True))
    # sites with equal labels are interchangeable, so one representative
    # per component covers every site pair
    rep = np.unique(labels, return_index=True)[1].tolist()
    got = np.array([[base.reach(s, q) for q in rep] for s in rep])
    assert np.array_equal(got, closed)


def test_transmission_edges_keep_pairs_within_eps():
    # unit-lattice neighbours lie EPS/2 outside the disks of radii
    # 1 - EPS/2 and sqrt(2) - EPS/2: only the EPS padding keeps them
    sites = make_sites([(float(i % 6), float(i // 6),
                         (1.0, math.sqrt(2.0))[i % 2] - EPS / 2)
                        for i in range(36)])
    assert materialize(sites).m > 0
    _assert_edges_match_materialize(sites)
    _assert_oracle_matches_condensation(sites)


@pytest.mark.parametrize("name", sorted(degenerate_instances()))
def test_transmission_edges_match_materialize_degenerate(name):
    sites = degenerate_instances()[name]
    _assert_edges_match_materialize(sites)
    _assert_oracle_matches_condensation(sites)


@pytest.mark.parametrize("dist,model,seed,n", GENERATED)
def test_transmission_edges_match_materialize(dist, model, seed, n):
    sites = generate_sites(n, dist, model, seed, 16.0)
    _assert_edges_match_materialize(sites)
    if n <= 700:
        _assert_oracle_matches_condensation(sites)


def test_transmission_edges_across_chunks(monkeypatch):
    sites = generate_sites(900, "clustered", "pareto", 3, 16.0)
    monkeypatch.setattr(reach_mod, "_G_CHUNK", 7)
    _assert_edges_match_materialize(sites)
    _assert_oracle_matches_condensation(sites)


def test_base_bitsets_linear_in_components():
    # 50,000 disjoint disks and a one-way chain of five: a bitset spans
    # only the components that its component reaches, so the total size
    # is O(C), not the sum of the component numbers
    side = 224
    grid = [(10.0 * (i % side), 10.0 * (i // side), 1.0)
            for i in range(50000)]
    chain = [(1e4 + x, 0.0, r) for x, r in ((0, 8.0), (8, 4.0), (12, 2.0),
                                            (14, 1.0), (15, 0.5))]
    sites = make_sites(grid + chain)
    base = BaseOracle(sites)
    ncomp = len(sites)
    assert base.comp.max() + 1 == ncomp
    assert sum(b.bit_length() for b in base._bits) <= 2 * ncomp
    first = 50000
    for i in range(5):
        for j in range(5):
            assert base.reach(first + i, first + j) == (i <= j)
    rng = random.Random(114)
    for _ in range(2000):
        s = rng.randrange(len(sites))
        q = rng.randrange(len(sites))
        want = s == q or (first <= s <= q)
        assert base.reach(s, q) == want


def test_geom_oracle_past_materialize_cap(monkeypatch):
    n = 2500
    assert n > oracle_mod.MATERIALIZE_CAP
    sites = generate_sites(n, "uniform-square", "pareto", 115, 16.0)
    oracle = GeomOracle(sites)
    monkeypatch.setattr(oracle_mod, "MATERIALIZE_CAP", n)
    g = materialize(sites)
    rng = random.Random(116)
    hits = 0
    for _ in range(150):
        s = rng.randrange(n)
        q = sites[rng.randrange(n)]
        if rng.random() < 0.5:
            pt = (q.x + rng.uniform(-0.05, 0.05),
                  q.y + rng.uniform(-0.05, 0.05))
        else:
            pt = (rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))
        want = geom_reach_oracle(sites, g, s, pt)
        assert geom_reach(oracle, s, pt) == want
        hits += want
    assert 0 < hits < 150


# ---------------------------------------------------------------------------
# geometric oracle structure

def test_geom_oracle_unit_ratio_one_structure_per_cell():
    sites = random_instance(120, model="constant", seed=93)
    oracle = GeomOracle(sites)
    assert oracle.depth == 0
    cells = {cell_of(s.x, s.y, 0) for s in oracle.norm}
    ptr, members = oracle.level_sites[0]
    assert list(oracle.level_sites) == [0]
    assert len(ptr) - 1 == len(cells)
    assert sorted(members.tolist()) == list(range(len(sites)))


def test_geom_oracle_storage_bound():
    sites = random_instance(200, model="pareto", seed=94, psi_cap=16.0)
    oracle = GeomOracle(sites)
    assert oracle.stored_site_refs <= len(sites) * (oracle.depth + 1)


def test_geom_oracle_rejects_large_stretch():
    sites = random_instance(10, seed=95)
    with pytest.raises(ValueError):
        GeomOracle(sites, t=3.0)


def test_geom_oracle_rejects_empty_site_list():
    with pytest.raises(ValueError, match="at least one site"):
        GeomOracle([])


def test_geom_oracle_rejects_base_of_other_size():
    sites = random_instance(30, seed=108)
    base = BaseOracle(sites[:20])
    with pytest.raises(ValueError, match="20 sites.* 30"):
        GeomOracle(sites, base=base)


def test_probe_matches_disk_containment():
    # duplicated sites tie on power: the smaller id must win, as in
    # DiskContainment.query; the lone site at (0, -3) has the point
    # (0.3 + EPS, -3) exactly on the boundary of its padded disk
    rng = random.Random(109)
    base = random_instance(60, model="pareto", seed=110)
    sites = make_sites([(s.x, s.y, s.radius) for s in base]
                       + [(s.x, s.y, s.radius) for s in base[:20]]
                       + [(0.0, -3.0, 0.3)])
    oracle = GeomOracle(sites)
    pts = [(0.3 + EPS, -3.0)] + [(s.x, s.y) for s in sites[:25]]
    pts += [(s.x + s.radius, s.y) for s in sites[:25]]
    pts += [(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
            for _ in range(50)]
    for lvl, (ids, _, _, _) in oracle.decomp.level_arrays.items():
        pd = [DiskContainment([sites[i] for i in oracle.decomp.nodes[v].sites])
              for v in ids.tolist()]
        pos = np.arange(len(ids))
        for x, y in pts:
            want = [-1 if s is None else s.id
                    for s in (d.query(x, y) for d in pd)]
            assert oracle.probe(lvl, pos, x, y).tolist() == want


# ---------------------------------------------------------------------------
# cover sets

def test_cover_set_point_outside_all_disks():
    sites = random_instance(50, model="constant", seed=96)
    oracle = GeomOracle(sites)
    cover = cover_set(oracle, (50.0, 50.0))
    assert len(cover) == 0


def test_cover_set_members_contain_point():
    rng = random.Random(97)
    sites = random_instance(150, model="pareto", seed=98)
    oracle = GeomOracle(sites)
    for _ in range(200):
        pt = (rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
        cover = cover_set(oracle, pt)
        for q in cover.sites:
            assert disk_contains(sites[q], *pt)
        assert len(cover) <= cover_set_bound(oracle.params)


def test_cover_set_coverage_invariant():
    rng = random.Random(99)
    sites = random_instance(200, model="uniform", seed=100)
    oracle = GeomOracle(sites)
    cover_sets = set()
    for _ in range(300):
        if rng.random() < 0.5:
            s = sites[rng.randrange(len(sites))]
            pt = (s.x + rng.uniform(-0.05, 0.05),
                  s.y + rng.uniform(-0.05, 0.05))
        else:
            pt = (rng.uniform(0, 1), rng.uniform(0, 1))
        cover = cover_set(oracle, pt)
        members = set(cover.sites)
        for p in sites:
            if disk_contains(p, *pt):
                assert any(disk_contains(p, sites[q].x, sites[q].y)
                           for q in members), (pt, p.id)
        cover_sets.add(frozenset(members))
    assert any(cover_sets)  # at least some queries produced non-empty covers


def _cover_set_reference(oracle, pd, point):
    """The cover set computed cone by cone, with one DiskContainment per
    node (pd, by node id) and the scalar cone_range_for_cell."""
    c = oracle.params.c
    k = oracle.params.k
    x, y = point
    x0, y0, x1, y1 = oracle.disk_box
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        return [], []
    tx = x * oracle.scale + oracle.offset[0]
    ty = y * oracle.scale + oracle.offset[1]
    lo2 = 2 * (c - 2) * (c - 2)
    hi2 = 8 * c * c
    found = set()
    phase1 = []

    def probe(node_id):
        s = pd[node_id].query(x, y)
        return None if s is None else s.id

    def gap2(lvl):
        ids, ix, iy, _ = arrays[lvl]
        sigma = cell_of(tx, ty, lvl)
        gx = np.maximum(np.abs(ix - sigma.ix) - 1, 0)
        gy = np.maximum(np.abs(iy - sigma.iy) - 1, 0)
        return ids, gx * gx + gy * gy, sigma

    arrays = oracle.decomp.level_arrays
    if 0 in arrays:
        ids, g2, _ = gap2(0)
        for node_id in ids[g2 <= lo2].tolist():
            q = probe(node_id)
            if q is not None:
                found.add(q)
                phase1.append(q)
    per_level = []
    for lvl in range(oracle.depth + 1):
        if lvl not in arrays:
            per_level.append([])
            continue
        ids, g2, sigma = gap2(lvl)
        cands = []
        for node_id in ids[(g2 >= lo2) & (g2 < hi2)].tolist():
            j_lo, j_hi = cone_range_for_cell(oracle.decomp.nodes[node_id].cell,
                                             sigma.center(), k)
            if j_lo <= j_hi:
                cands.append((node_id, j_lo % k, j_hi - j_lo))
        per_level.append(cands)
    for cone in range(k):
        for cands in per_level:
            added = False
            for node_id, j_lo, width in cands:
                if (cone - j_lo) % k > width:
                    continue
                q = probe(node_id)
                if q is not None:
                    found.add(q)
                    added = True
            if added:
                break
    return sorted(found), phase1


def _probe_points(oracle, rng, count):
    """Random points near the sites plus points on cell boundaries of every
    level, on the edge of the disk bounding box and far away."""
    sites = oracle.sites
    pts = [(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3))
           for _ in range(count)]
    for s in rng.sample(sites, min(count, len(sites))):
        a = rng.uniform(0.0, 2.0 * math.pi)
        pts.append((s.x, s.y))
        pts.append((s.x + s.radius * math.cos(a), s.y + s.radius * math.sin(a)))
    for lvl, (_, ix, iy, _) in oracle.decomp.level_arrays.items():
        side = 2 ** lvl / SQRT2
        for j in rng.sample(range(len(ix)), min(5, len(ix))):
            # a corner and an edge midpoint of the cell, in original units
            for u, v in ((ix[j], iy[j]), (ix[j] + 0.5, iy[j])):
                pts.append(((u * side - oracle.offset[0]) / oracle.scale,
                            (v * side - oracle.offset[1]) / oracle.scale))
    x0, y0, x1, y1 = oracle.disk_box
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    pts += [(x0, ym), (x1, ym), (xm, y0), (xm, y1), (x0, y0), (x1, y1),
            (math.nextafter(x0, -math.inf), ym),
            (xm, math.nextafter(y1, math.inf)),
            (1e18, ym), (xm, -1e300)]
    return pts


@pytest.mark.parametrize("instance", ["constant", "uniform", "pareto",
                                      "clumped"])
def test_cover_set_matches_reference(instance):
    rng = random.Random(111)
    if instance == "clumped":
        sites = _clumped_instance(3)
    else:
        sites = random_instance(150, model=instance, seed=112, psi_cap=16.0)
    oracle = GeomOracle(sites)
    pd = {v.id: DiskContainment([sites[i] for i in v.sites])
          for v in oracle.decomp.nodes}
    nonempty = 0
    for pt in _probe_points(oracle, rng, 60):
        cover = cover_set(oracle, pt)
        assert (cover.sites, cover.phase1) == \
            _cover_set_reference(oracle, pd, pt), pt
        nonempty += len(cover) > 0
    assert nonempty >= 60


# ---------------------------------------------------------------------------
# geometric reachability

def test_geom_reach_own_disk():
    sites = random_instance(80, model="uniform", seed=101)
    oracle = GeomOracle(sites)
    for s in (0, 17, 42):
        assert geom_reach(oracle, s, (sites[s].x, sites[s].y))


def test_geom_reach_point_outside_everything():
    sites = random_instance(80, model="uniform", seed=102)
    oracle = GeomOracle(sites)
    assert not geom_reach(oracle, 0, (100.0, 100.0))


@pytest.mark.parametrize("point", [(1e18, 0.5), (0.5, -1e18), (-1e300, 1e300),
                                   (5.0, 0.5)])
def test_geom_reach_far_target_matches_bruteforce(point):
    sites = random_instance(50, model="uniform", seed=106)
    oracle = GeomOracle(sites)
    assert len(cover_set(oracle, point)) == 0
    for s in (0, 25, 49):
        assert geom_reach(oracle, s, point) is False
        assert geom_reach_bruteforce(oracle, s, point) is False


@pytest.mark.parametrize("point", [(math.nan, 0.5), (0.5, math.inf),
                                   (-math.inf, -math.inf)])
def test_cover_set_rejects_non_finite_point(point):
    oracle = GeomOracle(random_instance(30, model="uniform", seed=107))
    with pytest.raises(ValueError, match="must be finite"):
        cover_set(oracle, point)


@pytest.mark.parametrize("s", [-1, 40, 10 ** 9])
def test_geom_reach_rejects_source_out_of_range(s):
    sites = random_instance(40, model="uniform", seed=113)
    oracle = GeomOracle(sites)
    with pytest.raises(ValueError, match="out of range"):
        geom_reach(oracle, s, (sites[0].x, sites[0].y))


def test_geom_reach_explain_returns_cover():
    sites = random_instance(50, model="uniform", seed=103)
    oracle = GeomOracle(sites)
    hit, cover = geom_reach(oracle, 0, (sites[0].x, sites[0].y), explain=True)
    assert hit
    assert all(disk_contains(sites[q], sites[0].x, sites[0].y)
               for q in cover.sites)


@pytest.mark.parametrize("model", ["constant", "uniform", "pareto"])
def test_geom_reach_matches_bruteforce(model):
    rng = random.Random(104)
    sites = random_instance(200, model=model, seed=105)
    oracle = GeomOracle(sites)
    for _ in range(300):
        s = rng.randrange(len(sites))
        if rng.random() < 0.5:
            q = sites[rng.randrange(len(sites))]
            pt = (q.x + rng.uniform(-0.1, 0.1), q.y + rng.uniform(-0.1, 0.1))
        else:
            pt = (rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
        assert geom_reach(oracle, s, pt) == geom_reach_bruteforce(oracle, s, pt)
