"""Site-to-site reachability oracle and its geometric point extension."""

import math
import random

import pytest

from conftest import random_instance
from txspanner.core import disk_contains, make_sites
from txspanner.oracle import materialize, reachable_from
from txspanner.reachability import (BaseOracle, GeomOracle, cover_set,
                                    cover_set_bound, geom_reach,
                                    geom_reach_bruteforce)


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


# ---------------------------------------------------------------------------
# geometric oracle structure

def test_geom_oracle_unit_ratio_one_structure_per_cell():
    sites = random_instance(120, model="constant", seed=93)
    oracle = GeomOracle(sites)
    assert oracle.depth == 0
    from txspanner.core import cell_of
    cells = {cell_of(s.x, s.y, 0) for s in oracle.norm}
    assert len(oracle.pd) == len(cells)


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
