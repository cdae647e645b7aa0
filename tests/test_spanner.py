"""Edge selection and the three spanner constructions."""

import math
import random

import numpy as np
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


def _clumped_instance(seed, n=120):
    """n sites in 4 tight Gaussian clumps, radii within 1% of 0.4: deep
    hierarchies whose neighbor cells offer 3 or more candidate disks."""
    rng = random.Random(seed)
    centers = [(rng.random(), rng.random()) for _ in range(4)]
    return make_sites([(cx + rng.gauss(0.0, 0.002), cy + rng.gauss(0.0, 0.002),
                        0.4 * (1.0 + 0.01 * rng.random()))
                       for cx, cy in (centers[i % 4] for i in range(n))])


def _counting_envelope(monkeypatch):
    """Rebind the envelope selection to count its calls."""
    import txspanner.spanner as spanner_mod
    calls = [0]
    select = spanner_mod.select_edges_envelope

    def counting(*args):
        calls[0] += 1
        return select(*args)

    monkeypatch.setattr(spanner_mod, "select_edges_envelope", counting)
    return calls


def _target_cones(H):
    return {(q, cone) for (_, q), cones in H.edge_cones.items()
            for cone in cones}


def test_forced_envelope_path_matches(monkeypatch):
    import txspanner.spanner as spanner_mod
    calls = _counting_envelope(monkeypatch)
    instances = (random_instance(120, model="uniform", seed=70),
                 _clumped_instance(3), _clumped_instance(4))
    for variant in sorted(BUILDERS):
        envelope_calls = {}
        for sites in instances:
            runs = []
            # 0 forces the envelope wherever a cell has 3 or more disks; a
            # huge limit runs the direct containment loop everywhere
            for limit in (0, 10 ** 9):
                monkeypatch.setattr(spanner_mod, "_BRUTE_LIMIT", limit)
                before = calls[0]
                H = BUILDERS[variant](sites, 2.0)
                envelope_calls[limit] = envelope_calls.get(limit, 0) \
                    + calls[0] - before
                assert audit_stretch(sites, H, 2.0).ok, variant
                assert verify_shorter_edge(sites, H) == [], variant
                runs.append(_target_cones(H))
            # both paths cover the same targets per cone; sources may differ
            assert runs[0] == runs[1], variant
        assert envelope_calls[0] > 0, variant
        assert envelope_calls[10 ** 9] == 0, variant


def test_general_default_build_uses_envelope(monkeypatch):
    calls = _counting_envelope(monkeypatch)
    sites = _clumped_instance(3)
    H = build_spanner_general(sites, 2.0)
    assert calls[0] > 0
    assert audit_stretch(sites, H, 2.0).ok
    assert verify_shorter_edge(sites, H) == []


def _reference_edges(sites, decomp):
    """Per-(cone, node) selection loop, the oracle for the batched sweep.

    A node reads the activity of its sites once; each neighbor cell gives
    an active target an edge from its first disk of R + [m] containing it
    (or from the envelope where the sweep would use it); covered targets
    are deactivated for the rest of the cone after all neighbor cells.
    """
    import txspanner.spanner as spanner_mod
    from txspanner.core import disk_contains
    from txspanner.decomposition import cone_assignments

    nodes = decomp.nodes
    groups = {}
    for cone, _, v, tau in sorted(cone_assignments(decomp).tolist()):
        groups.setdefault((cone, v), []).append(tau)
    entries = []
    active = {}
    for (cone, v), taus in groups.items():  # (cone, level, node) order
        act = active.setdefault(cone, [True] * len(sites))
        q_ids = [i for i in nodes[v].sites if act[i]]
        covered = set()
        for tau in taus:
            node = nodes[tau]
            disk_ids = list(node.R)
            if node.m is not None and node.m not in node.R:
                disk_ids.append(node.m)
            if len(disk_ids) >= 3 and \
                    len(disk_ids) * len(q_ids) > spanner_mod._BRUTE_LIMIT:
                sel = select_edges_envelope(
                    [sites[i] for i in q_ids], [sites[i] for i in disk_ids],
                    spanner_mod._separating_line(nodes[v].cell, node.cell))
            else:
                sel = []
                for q in q_ids:
                    hits = [r for r in disk_ids
                            if disk_contains(sites[r], sites[q].x, sites[q].y)]
                    if hits:
                        sel.append((hits[0], q))
            for r, q in sel:
                entries.append((r, q, cone))
                covered.add(q)
        for q in covered:
            act[q] = False
    cols = np.array(entries, dtype=np.int64).reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2]


@pytest.mark.parametrize("variant", sorted(BUILDERS))
def test_sweep_matches_reference_loop(monkeypatch, variant):
    import txspanner.spanner as spanner_mod
    instances = (random_instance(150, model="pareto", seed=76),
                 random_instance(150, model="constant", seed=77),
                 _clumped_instance(3))
    for sites in instances:
        for limit in (0, spanner_mod._BRUTE_LIMIT, 10 ** 9):
            monkeypatch.setattr(spanner_mod, "_BRUTE_LIMIT", limit)
            H = BUILDERS[variant](sites, 2.0)
            with monkeypatch.context() as m:
                m.setattr(spanner_mod, "_decomposition_edges",
                          _reference_edges)
                ref = BUILDERS[variant](sites, 2.0)
            assert H.edge_cones == ref.edge_cones
            assert H.edges == ref.edges
            assert all(cones == sorted(set(cones))
                       for cones in H.edge_cones.values())


@pytest.mark.parametrize("variant", sorted(BUILDERS))
def test_sweep_chunking_keeps_edges(monkeypatch, variant):
    # tiny chunks split every level into many passes; deactivation must
    # still wait for the level's end
    import txspanner.spanner as spanner_mod
    sites = random_instance(150, model="pareto", seed=78)
    H = BUILDERS[variant](sites, 2.0)
    monkeypatch.setattr(spanner_mod, "_SWEEP_CHUNK", 3)
    chunked = BUILDERS[variant](sites, 2.0)
    assert chunked.edge_cones == H.edge_cones
    assert chunked.edges == H.edges


def test_finish_rejects_edge_key_overflow():
    # (source * n + target) * (cones + 1) must fit one int64 sort key
    import txspanner.spanner as spanner_mod
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        spanner_mod._finish([], 1 << 31, empty, empty, empty, 2.0, PARAMS,
                            "ratio", 1.0, (0.0, 0.0))


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


def test_euclidean_keeps_nearest_per_cone_smaller_index_on_ties():
    rng = random.Random(79)
    # a coarse lattice makes equal distances common; a few points coincide
    pts = [(rng.randrange(12) * 0.5, rng.randrange(12) * 0.5)
           for _ in range(90)]
    pts += pts[:5]
    xy = np.array(pts)
    k = yao_cone_count(2.0)
    for radius in (1.1, 2.5):
        kept = set()
        for i in range(len(pts)):
            best = {}
            for j in range(len(pts)):
                d = xy[j] - xy[i]
                d2 = d[0] * d[0] + d[1] * d[1]
                if j == i or d2 > radius * radius:
                    continue
                ang = np.arctan2(d[1], d[0]) % (2.0 * math.pi)
                cone = min(int(ang / (2.0 * math.pi / k)), k - 1)
                if cone not in best or (d2, j) < best[cone]:
                    best[cone] = (d2, j)
            kept |= {(min(i, j), max(i, j)) for _, j in best.values()}
        assert euclidean_spanner(pts, 2.0, radius).tolist() == \
            sorted(map(list, kept))


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


def test_general_scale_guard():
    # n = 2000 makes the WSPD list nearly every site pair (about 1.9M at
    # t = 2), the size at which a per-pair Python WSPD took half a minute
    sites = random_instance(2000, model="pareto", seed=74, psi_cap=16.0)
    H = build_spanner_general(sites, 2.0)
    assert H.n == 2000 and len(H.edge_set()) == H.m
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
