"""Edge selection and the three spanner constructions."""

import math
import random

import pytest

from conftest import euclid, random_instance
from txspanner.core import Site, make_sites, spanner_parameters
from txspanner.oracle import audit_stretch, dijkstra_all, materialize
from txspanner.spanner import (BUILDERS, SpannerGraph,
                               build_spanner_general,
                               build_spanner_radius_ratio,
                               build_spanner_spread, euclidean_spanner,
                               select_edges_bruteforce, select_edges_envelope,
                               sparsity_bound, verify_shorter_edge,
                               yao_cone_count)

PARAMS = spanner_parameters(2.0)


def _separated_instance(rng, nq, nr):
    """Targets strictly below the x-axis, disk centers strictly above."""
    targets = [Site(i, rng.uniform(-40, 40), rng.uniform(-25, -0.1), 1.0)
               for i in range(nq)]
    disks = [Site(1000 + i, rng.uniform(-40, 40), rng.uniform(0.1, 25),
                  rng.uniform(0.5, 45.0)) for i in range(nr)]
    return targets, disks


# ---------------------------------------------------------------------------
# envelope selection

def test_envelope_single_covering_disk():
    rng = random.Random(61)
    targets, _ = _separated_instance(rng, 25, 0)
    big = [Site(999, 0.0, 1.0, 500.0)]
    edges = select_edges_envelope(targets, big, ("h", 0.0))
    assert sorted(q for _, q in edges) == sorted(t.id for t in targets)
    assert all(r == 999 for r, _ in edges)


def test_envelope_no_covering_disk():
    rng = random.Random(62)
    targets, _ = _separated_instance(rng, 25, 0)
    tiny = [Site(999, 0.0, 20.0, 0.5)]
    assert select_edges_envelope(targets, tiny, ("h", 0.0)) == []


def test_envelope_rejects_non_separated():
    targets = [Site(0, 0.0, 1.0, 1.0)]
    disks = [Site(1, 0.0, 2.0, 1.0)]
    with pytest.raises(ValueError):
        select_edges_envelope(targets, disks, ("h", 0.0))


def test_envelope_matches_bruteforce_classification():
    rng = random.Random(63)
    for _ in range(150):
        targets, disks = _separated_instance(rng, rng.randrange(1, 80),
                                             rng.randrange(1, 25))
        env = select_edges_envelope(targets, disks, ("h", 0.0))
        brute = select_edges_bruteforce(targets, disks)
        assert {q for _, q in env} == {q for _, q in brute}
        by_id = {s.id: s for s in disks}
        tgt = {s.id: s for s in targets}
        for r, q in env:
            s, p = by_id[r], tgt[q]
            assert math.hypot(s.x - p.x, s.y - p.y) <= s.radius + 1e-9


def test_envelope_vertical_line():
    rng = random.Random(64)
    targets = [Site(i, rng.uniform(-20, -0.1), rng.uniform(-20, 20), 1.0)
               for i in range(40)]
    disks = [Site(100 + i, rng.uniform(0.1, 20), rng.uniform(-20, 20),
                  rng.uniform(1.0, 30.0)) for i in range(12)]
    env = select_edges_envelope(targets, disks, ("v", 0.0))
    brute = select_edges_bruteforce(targets, disks)
    assert {q for _, q in env} == {q for _, q in brute}


# ---------------------------------------------------------------------------
# builders

@pytest.mark.parametrize("variant", sorted(BUILDERS))
def test_single_site_empty_spanner(variant):
    H = BUILDERS[variant](make_sites([(0.0, 0.0, 1.0)]), 2.0)
    assert H.n == 1 and H.edges == []


def test_spread_keeps_only_transmission_edge():
    sites = make_sites([(0.0, 0.0, 2.0), (1.0, 0.0, 0.5)])
    H = build_spanner_spread(sites, 2.0)
    assert (0, 1) in H.edge_set()
    assert (1, 0) not in H.edge_set()


@pytest.mark.parametrize("variant,n,model", [
    ("spread", 300, "uniform"),
    ("ratio", 300, "pareto"),
    ("general", 200, "uniform"),
])
def test_builder_stretch(variant, n, model):
    sites = random_instance(n, model=model, seed=65)
    H = BUILDERS[variant](sites, 2.0)
    report = audit_stretch(sites, H, 2.0)
    assert report.ok, report.violations[:5]


def test_ratio_single_cell_clique():
    sites = make_sites([(i * 1e-4, (i % 3) * 1e-4, 1.0) for i in range(20)])
    H = build_spanner_radius_ratio(sites, 2.0)
    assert audit_stretch(sites, H, 2.0).ok


def test_ratio_dense_constant_radius():
    # radii x4 put ~50 sites in each disk; the pairs closer than r_min are
    # joined by one doubled Yao graph, not by cliques per cell pair
    sites = make_sites([(s.x, s.y, 4.0 * s.radius)
                        for s in random_instance(300, model="constant",
                                                 seed=75)])
    H = build_spanner_radius_ratio(sites, 2.0)
    assert audit_stretch(sites, H, 2.0).ok
    yao = sum(1 for cones in H.edge_cones.values() if not cones)
    assert yao <= 2 * yao_cone_count(2.0) * H.n


def test_ratio_components_never_connected():
    r = 1.0
    far = 1000.0
    coords = [(random.Random(66).uniform(0, 3), 0.0, r) for _ in range(10)]
    coords += [(far + x, y, r) for x, y, r in coords]
    sites = make_sites(coords)
    H = build_spanner_radius_ratio(sites, 2.0)
    left = set(range(10))
    for u, v, _ in H.edges:
        assert (u in left) == (v in left)


def test_general_edges_inside_disks():
    sites = random_instance(150, model="uniform", seed=67)
    H = build_spanner_general(sites, 2.0)
    for u, v, w in H.edges:
        assert euclid(sites[u], sites[v]) <= sites[u].radius + 1e-9
        assert abs(w - euclid(sites[u], sites[v])) < 1e-9


@pytest.mark.parametrize("variant", sorted(BUILDERS))
def test_builder_invariants(variant):
    sites = random_instance(200, model="pareto", seed=68)
    H = BUILDERS[variant](sites, 2.0)
    assert len(H.edge_set()) == len(H.edges)  # no duplicate directed edges
    for u, v, _ in H.edges:
        assert euclid(sites[u], sites[v]) <= sites[u].radius + 1e-9
    assert H.m <= sparsity_bound(H.params) * H.n


def test_builders_reject_bad_stretch():
    sites = random_instance(10, seed=69)
    for variant in BUILDERS:
        with pytest.raises(ValueError):
            BUILDERS[variant](sites, 1.0)


def test_forced_envelope_path_matches(monkeypatch):
    import txspanner.spanner as spanner_mod
    sites = random_instance(120, model="uniform", seed=70)
    baseline = build_spanner_spread(sites, 2.0)
    monkeypatch.setattr(spanner_mod, "_BRUTE_LIMIT", 0)
    forced = build_spanner_spread(sites, 2.0)
    assert audit_stretch(sites, forced, 2.0).ok
    # same targets covered per construction even if chosen sources differ
    assert {v for _, v, _ in forced.edges} == {v for _, v, _ in baseline.edges}


# ---------------------------------------------------------------------------
# Euclidean spanner

def test_euclidean_two_points():
    assert euclidean_spanner([(0.0, 0.0), (1.0, 1.0)], 2.0,
                             math.inf).tolist() == [[0, 1]]
    assert len(euclidean_spanner([(0.0, 0.0), (1.0, 1.0)], 2.0, 1.0)) == 0


def test_euclidean_collinear_path_stretch_one():
    pts = [(float(i), 0.0) for i in range(10)]
    edges = euclidean_spanner(pts, 2.0, math.inf).tolist()
    adj = {i: [] for i in range(10)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # consecutive points are joined, so the path itself is present
    for i in range(9):
        assert i + 1 in adj[i]


def test_euclidean_stretch_vs_complete_graph():
    from scipy.sparse import csr_matrix

    rng = random.Random(71)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(200)]
    pts += pts[:3]  # coincident points
    n = len(pts)
    assert yao_cone_count(2.0) >= 9
    for radius in (math.inf, 1.5):
        edges = euclidean_spanner(pts, 2.0, radius).tolist()
        assert len(edges) <= yao_cone_count(2.0) * n
        rows, cols, vals = [], [], []
        for a, b in edges:
            assert a < b
            w = math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])
            assert w <= radius
            rows += [a, b]
            cols += [b, a]
            vals += [max(w, 1e-300), max(w, 1e-300)]
        d = dijkstra_all(csr_matrix((vals, (rows, cols)), shape=(n, n)))
        for i in range(n):
            for j in range(n):
                direct = math.hypot(pts[i][0] - pts[j][0],
                                    pts[i][1] - pts[j][1])
                if i != j and direct <= radius:
                    assert d[i][j] <= 2.0 * direct * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# shorter-edge witness check

def test_shorter_edge_full_graph_vacuous():
    sites = random_instance(100, model="uniform", seed=72)
    g = materialize(sites)
    edges = [(u, int(v), float(w))
             for u in range(g.n)
             for v, w in zip(g.neighbors(u), g.weights(u))]
    H = SpannerGraph(len(sites), edges, 2.0, params=PARAMS)
    assert verify_shorter_edge(sites, H) == []


@pytest.mark.parametrize("variant", sorted(BUILDERS))
def test_shorter_edge_constructed(variant):
    sites = random_instance(200, model="uniform", seed=73)
    H = BUILDERS[variant](sites, 2.0)
    assert verify_shorter_edge(sites, H) == []


def test_shorter_edge_negative_control():
    # two sites, a single directed transmission edge and an empty spanner:
    # the missing edge has no witness
    sites = make_sites([(0.0, 0.0, 2.0), (1.0, 0.0, 0.5)])
    H = SpannerGraph(2, [], 2.0, params=PARAMS)
    assert verify_shorter_edge(sites, H) == [(0, 1)]


# ---------------------------------------------------------------------------
# persistence

def test_spanner_file_roundtrip(tmp_path):
    sites = random_instance(80, model="uniform", seed=74)
    H = build_spanner_spread(sites, 2.0)
    path = tmp_path / "spanner.txt"
    H.save(path)
    loaded = SpannerGraph.load(path)
    assert loaded.n == H.n
    assert loaded.t == H.t
    assert (loaded.params.k, loaded.params.c) == (H.params.k, H.params.c)
    assert loaded.edges == H.edges


def test_spanner_load_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        SpannerGraph.load(path)
    path.write_text("2 2 2.0 101 68\n0 1 1.0\n")
    with pytest.raises(ValueError):
        SpannerGraph.load(path)
