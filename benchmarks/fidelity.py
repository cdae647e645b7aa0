"""Check that adjusted times follow a slowdown of the program itself.

    python3 benchmarks/fidelity.py [--seconds 90]

The timed metrics are wall times scaled by the in-process speed probe of
probe.py. A probe inside the program's process could move with the
program: a change that makes the program touch more memory could evict
the probe's data, slow the probe too and so hide part of the change.
This script builds the ratio-sparse instance of seed 1 over and over in
one process with the probe running. Each cycle builds once with each of
three variants of the program, in a shuffled order, and the script
prints for each variant the median over cycles of its wall and adjusted
time relative to the base build of the same cycle. Builds of one
cycle lie within seconds of each other, so they see nearly the same
CPU speed, and the wall ratio is a fair reference:

- base: the package as it is;
- python: each call of the selection step `spanner._select_for_node`
  runs twice (it is idempotent), so more of the program's own work;
- memory: each call of it first reads 8 entries of a list of two
  million floats, at random, so a working set far beyond the caches.

Wall and adjusted times should change by the same share. The variants
are bound from outside, as spans.py does; nothing under src/ changes.
"""

import argparse
import gc
import random
import statistics
import sys
import time

from run import HERE, import_package


def main(argv=None):
    import_package()
    import txspanner
    from txspanner import spanner
    from bench import write_sites
    from probe import SpeedProbe, adjust
    from workloads import WORKLOADS, generate

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=float, default=90.0)
    args = p.parse_args(argv)

    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sites-fidelity.txt"
    write_sites(path, generate(WORKLOADS["ratio-sparse"], 1), "fidelity")
    sites = txspanner.load_sites(path)

    select = spanner._select_for_node
    rng = random.Random(1)
    big = [rng.random() for _ in range(2_000_000)]
    picks = [rng.randrange(len(big)) for _ in range(4096)]
    calls = [0]

    def twice(*a):
        select(*a)
        return select(*a)

    def touching(*a):
        calls[0] += 1
        k = calls[0] * 8 % 4088
        s = 0.0
        for j in picks[k:k + 8]:
            s += big[j]
        return select(*a)

    variants = {"base": select, "python": twice, "memory": touching}
    ratios = {name: [] for name in variants}
    txspanner.build_spanner_radius_ratio(sites, 2.0)  # warm-up
    probe = SpeedProbe()
    probe.start()
    end = time.perf_counter() + args.seconds
    try:
        while time.perf_counter() < end:
            order = list(variants)
            rng.shuffle(order)
            cycle = {}
            for name in order:
                spanner._select_for_node = variants[name]
                gc.collect()
                mark = probe.mark()
                txspanner.build_spanner_radius_ratio(sites, 2.0)
                work, probes = probe.since(mark)
                cycle[name] = (work, adjust(work, probes))
            for name, (wall, adj) in cycle.items():
                ratios[name].append((wall / cycle["base"][0],
                                     adj / cycle["base"][1]))
    finally:
        probe.stop()
        spanner._select_for_node = select

    for name, pairs in ratios.items():
        wall, adj = (statistics.median(x[i] for x in pairs) for i in (0, 1))
        print(f"{name:6s} cycles {len(pairs):3d}  wall {wall - 1:+.1%}  "
              f"adjusted {adj - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
