"""Brute-force ground truth: materialization, shortest paths, auditing."""

import math

import numpy as np
import pytest

from conftest import random_instance
from txspanner import oracle
from txspanner.core import make_sites
from txspanner.oracle import (audit_stretch, bfs_oracle, dijkstra_all,
                              geom_reach_oracle, materialize, reachable_from)
from txspanner.spanner import SpannerGraph, build_spanner_spread


def _graph_as_spanner(sites, t=2.0):
    """The full transmission graph packaged as a spanner (H = G)."""
    g = materialize(sites)
    edges = []
    for u in range(g.n):
        for v, w in zip(g.neighbors(u), g.weights(u)):
            edges.append((u, int(v), float(w)))
    return SpannerGraph.from_edges(len(sites), edges, t)


def test_materialize_mutual_pair():
    sites = make_sites([(0.0, 0.0, 2.0), (1.0, 0.0, 2.0)])
    g = materialize(sites)
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_materialize_no_overlap():
    sites = make_sites([(0.0, 0.0, 1.0), (10.0, 0.0, 1.0)])
    assert materialize(sites).m == 0


def test_materialize_hand_instance():
    # A(0,0,r=1.5) B(1,0,r=1) C(2,0,r=0.5) D(10,0,r=1) E(11,0,r=2)
    sites = make_sites([(0, 0, 1.5), (1, 0, 1.0), (2, 0, 0.5),
                        (10, 0, 1.0), (11, 0, 2.0)])
    g = materialize(sites)
    expected = {(0, 1), (1, 0), (1, 2), (3, 4), (4, 3)}
    got = {(u, int(v)) for u in range(g.n) for v in g.neighbors(u)}
    assert got == expected


def test_materialize_cap():
    sites = make_sites([(float(i), 0.0, 0.1)
                        for i in range(oracle.MATERIALIZE_CAP + 1)])
    with pytest.raises(ValueError):
        materialize(sites)


def test_dijkstra_path_graph():
    # chain 0 -> 1 -> 2 -> 3 with unit spacing, radii reach one hop only
    sites = make_sites([(float(i), 0.0, 1.0) for i in range(4)])
    d = dijkstra_all(materialize(sites), source=0)
    assert np.allclose(d, [0.0, 1.0, 2.0, 3.0])


def test_dijkstra_unreachable_is_inf():
    sites = make_sites([(0.0, 0.0, 1.0), (10.0, 0.0, 1.0)])
    d = dijkstra_all(materialize(sites), source=0)
    assert d[1] == math.inf
    assert not reachable_from(materialize(sites), 0)[1]


def test_audit_identity_spanner():
    sites = random_instance(120, model="uniform", seed=31)
    H = _graph_as_spanner(sites)
    report = audit_stretch(sites, H, 2.0)
    assert report.ok
    assert abs(report.max_ratio - 1.0) < 1e-9


def test_audit_extra_edges_never_increase_ratio():
    sites = random_instance(150, model="pareto", seed=32)
    H = build_spanner_spread(sites, 2.0)
    base = audit_stretch(sites, H, 2.0)
    full = _graph_as_spanner(sites)
    by_pair = {(u, v): (u, v, w) for u, v, w in [*H.edges, *full.edges]}
    merged = SpannerGraph.from_edges(H.n, list(by_pair.values()), H.t)
    again = audit_stretch(sites, merged, 2.0)
    assert again.max_ratio <= base.max_ratio + 1e-12


def test_audit_negative_control():
    # two sites joined by a single direction: dropping the only edge of H
    # must surface as a stretch violation
    sites = make_sites([(0.0, 0.0, 2.0), (1.0, 0.0, 0.5)])
    empty = SpannerGraph.from_edges(2, [], 2.0)
    report = audit_stretch(sites, empty, 2.0)
    assert not report.ok
    assert (0, 1) in {(u, v) for u, v, *_ in report.violations}


def test_audit_cap():
    sites = make_sites([(float(i), 0.0, 0.1)
                        for i in range(oracle.DIJKSTRA_CAP + 1)])
    with pytest.raises(ValueError):
        audit_stretch(sites, SpannerGraph.from_edges(len(sites), [], 2.0), 2.0)


def test_bfs_oracle_chain():
    sites = make_sites([(float(i), 0.0, 1.0) for i in range(4)])
    d = bfs_oracle(materialize(sites), 0)
    assert list(d) == [0, 1, 2, 3]


def test_geom_reach_oracle_basics():
    sites = make_sites([(0.0, 0.0, 1.5), (1.0, 0.0, 1.0), (8.0, 0.0, 1.0)])
    g = materialize(sites)
    # reachable through the chain: the queried point sits in D(site 1)
    assert geom_reach_oracle(sites, g, 0, (1.5, 0.0))
    # the point is covered only by the unreachable site 2
    assert not geom_reach_oracle(sites, g, 0, (8.0, 0.0))
    # point outside every disk
    assert not geom_reach_oracle(sites, g, 0, (100.0, 100.0))
