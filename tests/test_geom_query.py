"""Dynamic nearest-neighbor and disk-containment structures vs linear scans."""

import random

import pytest

from conftest import random_sites
from txspanner.core import disk_contains, make_sites
from txspanner.geom_query import DiskContainment, DynamicNN


# ---------------------------------------------------------------------------
# dynamic nearest neighbor

def test_nn_single_point():
    nn = DynamicNN()
    nn.insert(7, 1.0, 2.0)
    assert nn.nearest(100.0, 100.0) == 7
    assert len(nn) == 1


def test_nn_insert_delete_to_empty():
    nn = DynamicNN()
    nn.insert(1, 0.0, 0.0)
    nn.delete(1)
    assert nn.nearest(0.0, 0.0) is None
    assert len(nn) == 0


def test_nn_membership_errors():
    nn = DynamicNN()
    nn.insert(1, 0.0, 0.0)
    with pytest.raises(KeyError):
        nn.insert(1, 5.0, 5.0)
    with pytest.raises(KeyError):
        nn.delete(2)
    with pytest.raises(ValueError):
        DynamicNN(cell_size=0.0)


def test_nn_tie_broken_by_smaller_id():
    nn = DynamicNN()
    nn.insert(5, 1.0, 0.0)
    nn.insert(2, -1.0, 0.0)
    assert nn.nearest(0.0, 0.0) == 2


@pytest.mark.parametrize("cell_size", [0.3, 1.0, 4.0])
def test_nn_random_ops_match_linear_scan(cell_size):
    rng = random.Random(21)
    nn = DynamicNN(cell_size=cell_size)
    alive = set()
    next_id = 0
    for _ in range(500):
        op = rng.random()
        if op < 0.45 or not alive:
            nn.insert(next_id, rng.uniform(-8, 8), rng.uniform(-8, 8))
            alive.add(next_id)
            next_id += 1
        elif op < 0.65:
            victim = rng.choice(sorted(alive))
            nn.delete(victim)
            alive.remove(victim)
        else:
            q = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            assert nn.nearest(*q) == nn.nearest_linear(*q)
    # sweep a grid of queries over the final (large) set as well
    for gx in range(-10, 11, 2):
        for gy in range(-10, 11, 2):
            assert nn.nearest(gx, gy) == nn.nearest_linear(gx, gy)


# ---------------------------------------------------------------------------
# disk containment

def test_dc_single_containing_disk():
    sites = random_sites(30, seed=22, box=100.0, rlo=0.5, rhi=1.0)
    pd = DiskContainment(sites)
    target = sites[11]
    hit = pd.query(target.x, target.y)
    assert hit is not None
    assert disk_contains(hit, target.x, target.y)


def test_dc_point_outside_all_disks():
    sites = random_sites(30, seed=23, box=10.0, rlo=0.5, rhi=1.0)
    pd = DiskContainment(sites)
    assert pd.query(1000.0, 1000.0) is None


def test_dc_empty_structure():
    pd = DiskContainment([])
    assert pd.query(0.0, 0.0) is None


def test_dc_containing_disk_within_tolerance_wins():
    # site 0 contains the point only through the EPS padding; the tiny
    # disk of site 1 has the larger unpadded power r^2 - d^2 but misses
    sites = make_sites([(0.0, 0.0, 1.0),
                        (1.0 + 5e-10 + 1e-6 + 1.5e-9, 0.0, 1e-6)])
    pd = DiskContainment(sites)
    x, y = 1.0 + 5e-10, 0.0
    assert pd.query_linear(x, y) == sites[0]
    assert pd.query(x, y) == sites[0]


def test_dc_random_queries_match_linear_scan():
    rng = random.Random(25)
    sites = random_sites(400, seed=26, box=20.0, rlo=0.2, rhi=2.5)
    pd = DiskContainment(sites)
    for _ in range(10000):
        x = rng.uniform(-2, 22)
        y = rng.uniform(-2, 22)
        fast = pd.query(x, y)
        slow = pd.query_linear(x, y)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert disk_contains(fast, x, y)
            assert disk_contains(slow, x, y)
