"""Shared helpers for the test suite."""

import math
import random

from txspanner.cli import generate_sites
from txspanner.core import make_sites, normalize
from txspanner.decomposition import NORMALIZE_MODE


def normalized_for(sites, params, variant):
    """Sites rescaled the way the given construction variant expects."""
    return normalize(sites, NORMALIZE_MODE[variant], params.c)


def random_instance(n, model="uniform", seed=0, psi_cap=8.0):
    """Random unit-square instance with the given radius model."""
    return generate_sites(n, "uniform-square", model, seed, psi_cap)


def random_sites(n, seed=0, box=10.0, rlo=0.5, rhi=3.0):
    """Plain random sites for geometry-level tests (no spacing guarantees)."""
    rng = random.Random(seed)
    return make_sites([(rng.uniform(0, box), rng.uniform(0, box),
                        rng.uniform(rlo, rhi)) for _ in range(n)])


def euclid(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)
