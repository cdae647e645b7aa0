"""Geometric primitives: cells, cones, constants and normalization."""

import math
import random

import pytest

from conftest import random_instance
from txspanner.core import (EPS, MODE_CLOSEST_PAIR_C, MODE_CLOSEST_PAIR_C2,
                            MODE_SMALLEST_RADIUS, SQRT2, Cone, GridCell, Site,
                            cell_distance, cell_in_cone, cell_of,
                            closest_pair, cone_contains, cone_range_for_cell,
                            disk_contains, load_sites, make_sites, normalize,
                            params_satisfy, same_level_gap_sq, save_sites,
                            spanner_parameters)
from txspanner.oracle import materialize


# ---------------------------------------------------------------------------
# sites and disks

def test_site_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Site(0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Site(0, 0.0, 0.0, -1.0)


def test_site_rejects_non_finite():
    with pytest.raises(ValueError):
        make_sites([(0.0, 0.0, 1.0), (math.nan, 0.0, 1.0)])
    with pytest.raises(ValueError):
        make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, math.inf)])


def test_site_file_roundtrip(tmp_path):
    sites = make_sites([(0.25, -1.5, 2.0), (3.0, 4.0, 0.125)])
    path = tmp_path / "sites.txt"
    save_sites(sites, path)
    assert load_sites(path) == sites


def test_site_file_comments_and_errors(tmp_path):
    path = tmp_path / "sites.txt"
    path.write_text("# header\n1 2 3  # trailing comment\n\n4 5 6\n")
    sites = load_sites(path)
    assert [(s.x, s.y, s.radius) for s in sites] == [(1, 2, 3), (4, 5, 6)]
    path.write_text("1 2 -3\n")
    with pytest.raises(ValueError):
        load_sites(path)
    path.write_text("1 2\n")
    with pytest.raises(ValueError):
        load_sites(path)


def test_disk_contains_boundary():
    s = Site(0, 0.0, 0.0, 2.0)
    assert disk_contains(s, 2.0, 0.0)
    assert disk_contains(s, 0.0, -2.0)
    assert not disk_contains(s, 2.001, 0.0)


# ---------------------------------------------------------------------------
# grid cells

def test_cell_of_origin():
    cell = cell_of(0.0, 0.0, 0)
    assert (cell.level, cell.ix, cell.iy) == (0, 0, 0)


def test_cell_of_contains_point():
    rng = random.Random(7)
    for _ in range(300):
        x = rng.uniform(-50, 50)
        y = rng.uniform(-50, 50)
        level = rng.randrange(0, 7)
        cell = cell_of(x, y, level)
        assert cell.contains(x, y)
        assert abs(cell.diameter - 2 ** level) < 1e-12
        assert abs(cell.side * SQRT2 - cell.diameter) < 1e-12


def test_cell_of_far_points_differ():
    rng = random.Random(8)
    for _ in range(200):
        level = rng.randrange(0, 5)
        x, y = rng.uniform(-20, 20), rng.uniform(-20, 20)
        ang = rng.uniform(0, 2 * math.pi)
        d = 2 ** level * rng.uniform(1.001, 3.0)
        other = cell_of(x + d * math.cos(ang), y + d * math.sin(ang), level)
        assert other != cell_of(x, y, level)


def test_cell_distance_basic():
    a = GridCell(0, 0, 0)
    assert cell_distance(a, a) == 0.0
    assert cell_distance(a, GridCell(0, 1, 0)) == 0.0
    assert cell_distance(a, GridCell(0, 1, 1)) == 0.0
    # three empty columns between the cells
    b = GridCell(0, 4, 0)
    assert abs(cell_distance(a, b) - 3 * a.side) < 1e-12


def test_cell_distance_vs_point_samples():
    rng = random.Random(9)
    for _ in range(40):
        la = rng.randrange(0, 3)
        a = GridCell(la, rng.randrange(-4, 5), rng.randrange(-4, 5))
        b = GridCell(la, rng.randrange(-4, 5), rng.randrange(-4, 5))
        cd = cell_distance(a, b)
        assert cd == cell_distance(b, a)
        ax0, ay0, ax1, ay1 = a.bounds()
        bx0, by0, bx1, by1 = b.bounds()
        best = math.inf
        steps = 8
        for i in range(steps + 1):
            for j in range(steps + 1):
                px = ax0 + (ax1 - ax0) * i / steps
                py = ay0 + (ay1 - ay0) * j / steps
                qx = min(max(px, bx0), bx1)
                qy = min(max(py, by0), by1)
                best = min(best, math.hypot(px - qx, py - qy))
        assert cd <= best + 1e-12
        assert best <= cd + 1e-9


def test_same_level_gap_matches_cell_distance():
    rng = random.Random(10)
    for _ in range(200):
        level = rng.randrange(0, 4)
        a = GridCell(level, rng.randrange(-9, 10), rng.randrange(-9, 10))
        b = GridCell(level, rng.randrange(-9, 10), rng.randrange(-9, 10))
        g2 = same_level_gap_sq(a, b)
        assert abs(math.sqrt(g2) * a.side - cell_distance(a, b)) < 1e-9


def test_point_distance_dominates_cell_distance():
    rng = random.Random(11)
    for _ in range(300):
        level = rng.randrange(0, 4)
        p = (rng.uniform(-9, 9), rng.uniform(-9, 9))
        q = (rng.uniform(-9, 9), rng.uniform(-9, 9))
        cd = cell_distance(cell_of(*p, level), cell_of(*q, level))
        assert math.hypot(p[0] - q[0], p[1] - q[1]) >= cd - 1e-12


# ---------------------------------------------------------------------------
# cones

def test_cone_axis_membership():
    cone = Cone(0, 4, (0.0, 0.0))
    assert cone_contains(cone, 1.0, 0.0)
    assert cone_contains(cone, 1.0, 0.5)
    assert not cone_contains(cone, -1.0, 0.0)


def test_cones_partition_plane():
    rng = random.Random(12)
    for k in (4, 25, 101):
        apex = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        cones = [Cone(j, k, apex) for j in range(k)]
        for _ in range(100):
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(0.01, 10)
            x = apex[0] + d * math.cos(ang)
            y = apex[1] + d * math.sin(ang)
            assert sum(cone_contains(c, x, y) for c in cones) == 1


def test_cone_boundary_half_open():
    k = 8
    delta = 2 * math.pi / k
    cones = [Cone(j, k, (0.0, 0.0)) for j in range(k)]
    # a point exactly on the shared boundary angle belongs to exactly one cone
    x, y = math.cos(delta), math.sin(delta)
    hits = [c.index for c in cones if cone_contains(c, x, y)]
    assert hits == [1]


def test_expanded_cone_superset():
    rng = random.Random(13)
    k = 25
    apex = (1.0, -2.0)
    for j in range(k):
        c1 = Cone(j, k, apex)
        c2 = Cone(j, k, apex, expansion=2)
        for _ in range(40):
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(0.01, 5)
            x = apex[0] + d * math.cos(ang)
            y = apex[1] + d * math.sin(ang)
            if cone_contains(c1, x, y):
                assert cone_contains(c2, x, y)


def test_cell_in_cone_sampling_agreement():
    rng = random.Random(14)
    k = 25
    for _ in range(150):
        level = rng.randrange(0, 3)
        sigma = GridCell(level, rng.randrange(-6, 7), rng.randrange(-6, 7))
        tau = GridCell(level, rng.randrange(-6, 7), rng.randrange(-6, 7))
        cone = Cone(rng.randrange(k), k, sigma.center(), expansion=2)
        inside = cell_in_cone(tau, cone)
        x0, y0, x1, y1 = tau.bounds()
        samples = [(x0 + (x1 - x0) * i / 6, y0 + (y1 - y0) * j / 6)
                   for i in range(7) for j in range(7)]
        if inside:
            assert all(cone_contains(cone, x, y) for x, y in samples)
        else:
            assert not all(cone_contains(cone, cx, cy)
                           for cx, cy in tau.corners())


def test_cell_containing_apex_not_in_narrow_cone():
    sigma = GridCell(0, 3, 3)
    cone = Cone(5, 25, sigma.center(), expansion=2)
    assert not cell_in_cone(sigma, cone)


def test_far_cell_on_axis_in_cone():
    k = 101
    sigma = GridCell(0, 5, 5)
    apex = sigma.center()
    for j in (0, 17, 60):
        cone = Cone(j, k, apex, expansion=2)
        ang = cone.axis_angle
        tau = cell_of(apex[0] + 100 * math.cos(ang),
                      apex[1] + 100 * math.sin(ang), 0)
        assert cell_in_cone(tau, cone)


def test_cone_range_matches_direct_check():
    rng = random.Random(15)
    for k in (25, 101):
        for _ in range(120):
            level = rng.randrange(0, 3)
            sigma = GridCell(level, rng.randrange(-5, 6), rng.randrange(-5, 6))
            tau = GridCell(level, rng.randrange(-5, 6), rng.randrange(-5, 6))
            apex = sigma.center()
            j_lo, j_hi = cone_range_for_cell(tau, apex, k)
            members = {j % k for j in range(j_lo, j_hi + 1)}
            direct = {j for j in range(k)
                      if cell_in_cone(tau, Cone(j, k, apex, expansion=2))}
            assert members == direct


# ---------------------------------------------------------------------------
# spanner constants

def test_parameters_for_stretch_two():
    p = spanner_parameters(2.0)
    assert (p.k, p.c) == (101, 68)


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0, 5.0])
def test_parameters_satisfy_and_minimal(t):
    p = spanner_parameters(t)
    assert params_satisfy(t, p.k, p.c)
    assert not params_satisfy(t, p.k, p.c - 1)
    # no smaller k works even with an arbitrarily generous c
    for k in range(25, p.k):
        assert not params_satisfy(t, k, 10 ** 6)


def test_parameters_reject_bad_stretch():
    for t in (1.0, 0.5, 0.0, -2.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError,
                           match="stretch must be finite and exceed 1"):
            spanner_parameters(t)


# ---------------------------------------------------------------------------
# closest pair and normalization

def test_closest_pair_matches_bruteforce():
    rng = random.Random(16)
    for trial in range(20):
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10))
               for _ in range(rng.randrange(2, 60))]
        d, i, j = closest_pair(pts)
        brute = min(math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])
                    for a in range(len(pts)) for b in range(a + 1, len(pts)))
        assert abs(d - brute) < 1e-12
        assert abs(math.hypot(pts[i][0] - pts[j][0],
                              pts[i][1] - pts[j][1]) - d) < 1e-12


@pytest.mark.parametrize("unit", [1e-170, 1e-160, 1e160])
def test_closest_pair_at_extreme_scales(unit):
    # squared distances of these spacings underflow or overflow in
    # float64; the answer is still the least hypot, and normalize scales
    # the sites
    pts = [(0.0, 0.0), (unit, 0.0), (3 * unit, 2 * unit), (-unit, 4 * unit)]
    d, i, j = closest_pair(pts)
    assert (d, i, j) == min(
        (math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1]), a, b)
        for a in range(len(pts)) for b in range(a + 1, len(pts)))
    assert (d, i, j) == (unit, 0, 1)
    out, scale, _ = normalize(make_sites([(x, y, unit) for x, y in pts]),
                              MODE_CLOSEST_PAIR_C, 68)
    assert math.hypot(out[0].x - out[1].x, out[0].y - out[1].y) == \
        pytest.approx(68.0, rel=1e-12)


def test_normalize_closest_pair_scale():
    sites = make_sites([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)])
    out, scale, _ = normalize(sites, MODE_CLOSEST_PAIR_C, 68)
    assert abs(scale - 68.0) < 1e-12
    d = math.hypot(out[0].x - out[1].x, out[0].y - out[1].y)
    assert abs(d - 68.0) < 1e-9
    out2, scale2, _ = normalize(sites, MODE_CLOSEST_PAIR_C2, 68)
    assert abs(scale2 - 70.0) < 1e-12


def test_normalize_smallest_radius_scale():
    sites = make_sites([(0.0, 0.0, 2.0), (5.0, 1.0, 10.0)])
    out, scale, _ = normalize(sites, MODE_SMALLEST_RADIUS, 68)
    assert abs(scale - 34.0) < 1e-12
    radii = sorted(s.radius for s in out)
    assert abs(radii[0] - 68.0) < 1e-9
    assert abs(radii[1] / radii[0] - 5.0) < 1e-12


def test_normalize_rejects_duplicates_and_tiny_inputs():
    dup = make_sites([(1.0, 1.0, 1.0), (1.0, 1.0, 2.0)])
    with pytest.raises(ValueError):
        normalize(dup, MODE_CLOSEST_PAIR_C, 68)
    single = make_sites([(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        normalize(single, MODE_CLOSEST_PAIR_C, 68)
    with pytest.raises(ValueError):
        normalize(dup, "no-such-mode", 68)


def test_normalize_preserves_transmission_edges():
    sites = random_instance(60, model="pareto", seed=17)
    before = set(zip(*map(list, _edge_arrays(sites))))
    for mode in (MODE_CLOSEST_PAIR_C, MODE_CLOSEST_PAIR_C2,
                 MODE_SMALLEST_RADIUS):
        out, _, _ = normalize(sites, mode, 68)
        assert set(zip(*map(list, _edge_arrays(out)))) == before


def _edge_arrays(sites):
    g = materialize(sites)
    src = []
    dst = []
    for u in range(g.n):
        for v in g.neighbors(u):
            src.append(u)
            dst.append(int(v))
    return src, dst
