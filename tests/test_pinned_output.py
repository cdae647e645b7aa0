"""Pinned output: the SHA-256 of every array of a built SpannerGraph.

A change that should leave the constructions' output as it is (a faster
candidate enumeration, a leaner finishing step) must keep these digests.
Each case builds one small fixed instance and hashes `src`, `dst`,
`length`, `cone_ptr` and `cone_ids` in that order. A digest moves only
when an edge, a length bit or a cone list changes; if a change means to
alter the output, it says so and re-pins the digests here.
"""

import hashlib

import pytest

from txspanner.cli import generate_sites
from txspanner.core import make_sites
from txspanner.oracle import degenerate_instances
from txspanner.spanner import BUILDERS


def _scaled(sites, factor):
    return make_sites([(s.x, s.y, factor * s.radius) for s in sites])


# name: (variant, instance, t, edge count, digest)
CASES = {
    "spread/uniform-200": (
        "spread",
        lambda: generate_sites(200, "uniform-square", "uniform", 11, 8.0),
        2.0, 6439,
        "3ac546a1dea5e6e4bbbd69c80580a70efeee38fb96ae353d81ca59106a4ef947"),
    "spread/collinear": (
        "spread", lambda: degenerate_instances()["collinear"], 1.5, 92,
        "ca47f3a59397008cb9c13dcc3e4b694ce4fab49a9de621fd13b65c8bcd7ee69b"),
    "ratio/pareto-300": (
        "ratio",
        lambda: generate_sites(300, "uniform-square", "pareto", 12, 16.0),
        2.0, 11073,
        "d57f3ca6ba9bbbf9b172ecdb9208aa915cbcfcbe76dc26b1df1bed627579000c"),
    # constant radii x4: nearly every edge comes from the Yao graph of
    # UDG(r_min), as on the ratio-dense benchmark workload
    "ratio/constant-x4-1000": (
        "ratio",
        lambda: _scaled(generate_sites(1000, "uniform-square", "constant",
                                       13, 8.0), 4.0),
        2.0, 25583,
        "fd0fa51fcd7c404f71cc322a7a1b1f6098d6ac38a0db9ae5af54269d4156ff95"),
    "ratio/uniform-500-t1.5": (
        "ratio",
        lambda: generate_sites(500, "uniform-square", "uniform", 15, 8.0),
        1.5, 19092,
        "7e51f635a61bbc1207a21aa9102ae1edd6eebdecbd79d9108ee1128a35786e48"),
    "ratio/duplicates": (
        "ratio", lambda: degenerate_instances()["duplicates"], 3.0, 166,
        "2d973abb7e9709bfb0bf30422dececddddb80d8c80a24cc5ee9a0eca79eff15a"),
    "general/clustered-300": (
        "general",
        lambda: generate_sites(300, "clustered", "pareto", 14, 8.0),
        2.0, 12105,
        "250617ffea19f03a2e17f1a214691382acc49614d1e5b87ec55953e59a9b9c71"),
    "general/extreme-spread": (
        "general", lambda: degenerate_instances()["extreme-spread"], 3.0,
        454,
        "4e1b34df3797aad826686a9316efca59affc7892b7c47067928972425025f2e2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_builder_output_is_pinned(name):
    variant, instance, t, m, digest = CASES[name]
    H = BUILDERS[variant](instance(), t)
    h = hashlib.sha256()
    for arr in (H.src, H.dst, H.length, H.cone_ptr, H.cone_ids):
        h.update(arr.tobytes())
    assert (H.m, h.hexdigest()) == (m, digest)
