"""Exact hop-distance BFS trees computed from the spanner alone."""

import math
import random
from collections import deque

import numpy as np
import pytest

from conftest import random_instance
from txspanner.bfs import bfs_tree
from txspanner.core import EPS, disk_contains, make_sites
from txspanner.oracle import bfs_oracle, materialize
from txspanner.spanner import BUILDERS, SpannerGraph, build_spanner_spread


def test_bfs_chain_distances():
    sites = make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0)])
    H = build_spanner_spread(sites, 2.0)
    res = bfs_tree(sites, H, 0)
    assert res.dist == [0, 1, 2]
    assert res.parent[1] == 0 and res.parent[2] == 1
    assert res.layers == [[0], [1], [2]]


def test_bfs_unreachable_site():
    sites = make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (50.0, 0.0, 1.0)])
    H = build_spanner_spread(sites, 2.0)
    res = bfs_tree(sites, H, 0)
    assert res.dist[2] == math.inf
    assert res.parent[2] is None


def test_bfs_root_validation():
    sites = make_sites([(0.0, 0.0, 1.0)])
    H = build_spanner_spread(sites, 2.0)
    with pytest.raises(IndexError):
        bfs_tree(sites, H, 5)


def test_bfs_rejects_large_stretch():
    sites = make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)])
    H = SpannerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], 3.0)
    with pytest.raises(ValueError):
        bfs_tree(sites, H, 0)


@pytest.mark.parametrize("variant,model", [
    ("spread", "uniform"),
    ("ratio", "pareto"),
    ("general", "uniform"),
])
def test_bfs_matches_oracle(variant, model):
    rng = random.Random(81)
    sites = random_instance(200, model=model, seed=82)
    H = BUILDERS[variant](sites, 2.0)
    g = materialize(sites)
    for _ in range(5):
        root = rng.randrange(len(sites))
        res = bfs_tree(sites, H, root)
        expected = bfs_oracle(g, root)
        got = np.array(res.dist, dtype=np.float64)
        assert np.array_equal(got, expected)
        assert res.max_edge_relaxations() <= 2


def test_bfs_parent_chain_is_valid():
    sites = random_instance(150, model="uniform", seed=83)
    H = build_spanner_spread(sites, 2.0)
    res = bfs_tree(sites, H, 0)
    for q in range(len(sites)):
        if res.dist[q] in (0, math.inf):
            continue
        p = res.parent[q]
        assert res.dist[p] == res.dist[q] - 1
        assert disk_contains(sites[p], sites[q].x, sites[q].y)
        # walk to the root in exactly dist[q] steps
        steps = 0
        cur = q
        while cur != 0:
            cur = res.parent[cur]
            steps += 1
        assert steps == res.dist[q]


def test_bfs_layers_partition_reachable():
    sites = random_instance(120, model="pareto", seed=84)
    H = BUILDERS["ratio"](sites, 2.0)
    res = bfs_tree(sites, H, 3)
    seen = [i for layer in res.layers for i in layer]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(i for i in range(len(sites))
                                  if res.dist[i] != math.inf)
    for d, layer in enumerate(res.layers):
        assert all(res.dist[i] == d for i in layer)


def _fifo_layers(sites, edges, root):
    """Layers of the edge-at-a-time FIFO search over (source, target, _)
    edges in the given order, containment by scanning the whole previous
    layer."""
    out = [[] for _ in sites]
    for u, v, _ in edges:
        out[u].append(v)
    seen = {root}
    layers = [[root]]
    while layers[-1]:
        W = layers[-1]
        inside = {}
        nxt = []
        queue = deque(W)
        while queue:
            p = queue.popleft()
            for q in out[p]:
                if q in seen:
                    continue
                if q not in inside:
                    inside[q] = any(disk_contains(sites[w], sites[q].x,
                                                  sites[q].y) for w in W)
                if inside[q]:
                    seen.add(q)
                    nxt.append(q)
                    queue.append(q)
        layers.append(nxt)
    return layers[:-1]


@pytest.mark.parametrize("variant,model", [
    ("spread", "uniform"),
    ("ratio", "pareto"),
    ("general", "uniform"),
])
def test_bfs_parents_and_layer_order_pinned(variant, model):
    sites = random_instance(200, model=model, seed=85)
    H = BUILDERS[variant](sites, 2.0)

    def rank(p, q):
        rr = sites[p].radius + EPS
        dx = sites[q].x - sites[p].x
        dy = sites[q].y - sites[p].y
        return (rr * rr - (dx * dx + dy * dy), -p)

    for root in (0, 57, 123):
        res = bfs_tree(sites, H, root)
        assert res.layers == _fifo_layers(sites, H.edges, root)
        for q, d in enumerate(res.dist):
            if d in (0, math.inf):
                continue
            prev = res.layers[d - 1]
            assert res.parent[q] == max(prev, key=lambda p: rank(p, q))
        assert res.max_edge_relaxations() <= 2


def test_bfs_on_unsorted_spanner_file(tmp_path):
    # a hand-written file lists edges in any order; the edges of one
    # source keep their file order, as the tuple list they were read into
    # did, so the out-adjacency and the trees are those of that list
    sites = random_instance(150, model="pareto", seed=87)
    H = BUILDERS["ratio"](sites, 2.0)
    edges = list(H.edges)
    random.Random(88).shuffle(edges)
    path = tmp_path / "h.txt"
    path.write_text(f"{H.n} {H.m} 2.0 {H.params.k} {H.params.c}\n" + "".join(
        f"{u} {v} {w!r}\n" for u, v, w in edges))
    loaded = SpannerGraph.load(path)
    indptr, targets = loaded.out_csr
    src = np.array([u for u, _, _ in edges])
    order = np.argsort(src, kind="stable")
    assert indptr.tolist() == \
        np.concatenate(([0], np.cumsum(np.bincount(src, minlength=H.n)))).tolist()
    assert targets.tolist() == np.array([v for _, v, _ in edges])[order].tolist()
    assert targets.tolist() != H.dst.tolist()  # the order differs
    for root in (0, 40, 99):
        res = bfs_tree(sites, loaded, root)
        assert res.layers == _fifo_layers(sites, edges, root)
        assert res.parent == bfs_tree(sites, H, root).parent
        assert res.relax_counts == {(u, v): res.scans[u]
                                    for u, v, _ in edges if res.scans[u]}
