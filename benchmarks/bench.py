"""One benchmark run of one workload: timed rounds, checks and metrics.

A round is the workload's number of spanner builds, one BFS batch over
its fixed roots, its number of oracle constructions (BaseOracle plus
GeomOracle) and one batch of geom_reach queries. Before every timed
operation the previous results are dropped and gc.collect() runs, so the
cyclic GC's cost does not depend on what an earlier repeat left on the
heap; GC stays on because users pay for it. An untimed warm-up call of
each operation comes first. The first timed round's outputs are checked
against independent computations, and every later round must reproduce
them exactly.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import txspanner
from checks import (check_bfs, check_reach, check_spanner,
                    transmission_graph)
from probe import SpeedProbe, adjust
from spans import Tracer
from workloads import Workload, draw_roots_and_queries, generate

T = 2.0  # bfs_tree and GeomOracle need stretch <= 2

BUILDERS = {"ratio": "build_spanner_radius_ratio",
            "general": "build_spanner_general"}

MIN_ROUNDS = 3
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s


def write_sites(path, coords, header):
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for x, y, r in coords:
            fh.write(f"{x!r} {y!r} {r!r}\n")


def time_setup(src_dir, sites_path):
    """Median wall time of a fresh interpreter that imports txspanner and
    loads the site file."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import txspanner; txspanner.load_sites(sys.argv[2])")
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(src_dir),
                        str(sites_path)], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """State of one run: inputs, references from the first round, timings.

    Each timed list holds (adjusted seconds, wall seconds) pairs; the
    wall seconds leave out the speed probes' own time.
    """

    def __init__(self, w: Workload, sites, roots, queries, tracer=None):
        self.w = w
        self.sites = sites
        self.roots = roots
        self.queries = queries
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.build = []
        self.bfs = []
        self.oracle = []
        self.reach = [[] for _ in queries]
        self.round_s = []
        self.traced_round_s = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.ref_H = self.ref_reach = None
        self._traced = False

    def _timed(self, name, fn, *args):
        """Run fn after dropping garbage: (result, (adjusted, wall))."""
        gc.collect()
        mark = self.probe.mark()
        if self._traced:
            result = self.tracer.op(name, fn, *args)
        else:
            result = fn(*args)
        work, probes = self.probe.since(mark)
        return result, (adjust(work, probes), work)

    def _build(self):
        return getattr(txspanner, BUILDERS[self.w.builder])(self.sites, T)

    def _oracle(self):
        base = txspanner.BaseOracle(self.sites)
        return txspanner.GeomOracle(self.sites, base=base, t=T)

    def _queries(self, oracle):
        """Answers, cover sets and per-query (work, probes since mark)."""
        out = []
        for s, p in self.queries:
            mark = self.probe.mark()
            hit, cover = txspanner.geom_reach(oracle, s, p, explain=True)
            out.append((hit, cover.sites, self.probe.since(mark)))
        return out

    def _phase_spanner(self, keep):
        build_t, keys = [], []
        for _ in range(self.w.build_repeats):
            H = None
            H, t = self._timed("op.build", self._build)
            build_t.append(t)
            keys.append(hash(tuple(H.edges)))
        if keep:
            self.ref_H = {
                "edges": np.array(H.edges, dtype=np.float64).reshape(-1, 3),
                "m": H.m,
                "clique": sum(1 for c in H.edge_cones.values() if not c),
                "edges_key": keys[0], "trees": [], "tree_keys": []}
        self.mismatches += sum(k != self.ref_H["edges_key"] for k in keys)
        # one timed call per root; each tree is dropped before the next
        bfs_t = [0.0, 0.0]
        for j, root in enumerate(self.roots):
            tree = None
            tree, t = self._timed("op.bfs", txspanner.bfs_tree, self.sites, H,
                                  root)
            bfs_t = [bfs_t[0] + t[0], bfs_t[1] + t[1]]
            key = hash((tuple(tree.dist), tuple(tree.parent)))
            if keep:
                self.ref_H["tree_keys"].append(key)
                self.ref_H["trees"].append((
                    np.array(tree.dist, dtype=np.float64),
                    np.array([-1 if p is None else p for p in tree.parent],
                             dtype=np.int64),
                    sum(tree.relax_counts.values()), len(tree.layers)))
            self.mismatches += key != self.ref_H["tree_keys"][j]
        return build_t, tuple(bfs_t)

    def _phase_reach(self, keep):
        oracle_t = []
        for _ in range(self.w.oracle_repeats):
            oracle = None
            oracle, t = self._timed("op.oracle", self._oracle)
            oracle_t.append(t)
        batch, _ = self._timed("op.reach", self._queries, oracle)
        answers = [a for a, _, _ in batch]
        covers = [c for _, c, _ in batch]
        probes = [x for _, _, (_, ps) in batch for x in ps]
        lat = [(adjust(work, probes), work) for _, _, (work, _) in batch]
        if keep:
            self.ref_reach = {"answers": answers, "covers": covers,
                              "components": int(oracle.base.comp.max()) + 1}
        else:
            self.mismatches += sum(
                a != b or c != d for a, b, c, d in zip(
                    answers, self.ref_reach["answers"], covers,
                    self.ref_reach["covers"]))
        return oracle_t, lat

    def warm_up(self):
        """One untimed call of each operation: the first call in a
        process is slower than later ones."""
        H = self._build()
        txspanner.bfs_tree(self.sites, H, self.roots[0])
        del H
        s, p = self.queries[0]
        txspanner.geom_reach(self._oracle(), s, p)

    def round(self, traced=False):
        """One timed round; returns its wall time. The first round's
        outputs become the references later rounds must reproduce."""
        keep = self.ref_H is None
        self._traced = traced
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            try:
                b, f = self._phase_spanner(keep)
            except Exception:
                if keep:
                    raise
                traceback.print_exc(file=sys.stderr)
                self.failed += self.w.build_repeats + len(self.roots)
                b = f = None
            try:
                o, lat = self._phase_reach(keep)
            except Exception:
                if keep:
                    raise
                traceback.print_exc(file=sys.stderr)
                self.failed += self.w.oracle_repeats + len(self.queries)
                o = lat = None
        finally:
            if traced:
                self.tracer.uninstall()
        elapsed = time.perf_counter() - start
        self.attempted += (self.w.build_repeats + len(self.roots)
                           + self.w.oracle_repeats + len(self.queries))
        if not traced:
            if b is not None:
                self.build.extend(b)
                self.bfs.append(f)
            if o is not None:
                self.oracle.extend(o)
                for j, x in enumerate(lat):
                    self.reach[j].append(x)
        return elapsed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checks(run: Run, coords, sources):
    """Check the first round's outputs; returns (errors, reference
    figures, failed operations per round)."""
    xy = np.array([(x, y) for x, y, _ in coords], dtype=np.float64)
    r = np.array([c[2] for c in coords], dtype=np.float64)
    G = transmission_graph(xy, r)
    ref = run.ref_H
    errors, m_ratio, max_stretch = check_spanner(xy, r, G, ref["edges"], T,
                                                 sources)
    bad_per_round = run.w.build_repeats if errors else 0
    for root, (dist, parent, _, _) in zip(run.roots, ref["trees"]):
        e = check_bfs(xy, r, G, root, dist, parent)
        errors += e
        bad_per_round += bool(e)
    answers = run.ref_reach["answers"]
    wrong, bad_cover = check_reach(
        xy, r, G, np.array([s for s, _ in run.queries]),
        np.array([p for _, p in run.queries], dtype=np.float64).reshape(-1, 2),
        answers, run.ref_reach["covers"])
    if wrong:
        errors.append(f"{len(wrong)} geom_reach answers differ from G")
    if bad_cover:
        errors.append(f"{len(bad_cover)} cover sets miss a containing disk")
    bad_per_round += len(set(wrong) | set(bad_cover))
    figures = {"m_H/m_G": m_ratio, "max_stretch": max_stretch,
               "m_G/n": G.nnz / len(xy),
               "reach_true_share": sum(answers) / max(1, len(answers)),
               "components": run.ref_reach["components"]}
    return errors, figures, bad_per_round


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    return sorted(values)[len(values) - 11]


def timings(run: Run, which):
    """Medians over rounds: which = 0 adjusted, 1 wall."""
    def med(pairs):
        return statistics.median(p[which] for p in pairs)
    per_query = [med(x) for x in run.reach]
    return {
        "build_s": (med(run.build), "s"),
        "bfs_s": (med(run.bfs), "s"),
        "oracle_s": (med(run.oracle), "s"),
        "reach_ms_p50": (1000.0 * statistics.median(per_query), "ms"),
        "reach_ms_tail": (1000.0 * tail(per_query), "ms"),
    }


def end_to_end(run: Run, setup_s, rss):
    return {
        "setup_s": (setup_s, "s"),
        "edges_per_site": (run.ref_H["m"] / len(run.sites), "count"),
        "peak_rss_mb": (rss, "MB"),
        **timings(run, 0),
    }


# per-layer metric -> (unit, kind, span or counter name, operation).
# kind: "s" summed span time, "self" summed self time, "calls" span
# count, "count" a counter. Values are means per operation: per build,
# BFS tree, oracle construction or query batch.
PER_LAYER = {
    "core.load_sites_s": ("s", "s", "core.load_sites", "op.load"),
    "core.normalize_s": ("s", "s", "core.normalize", "op.build"),
    "core.cone_range_s": ("s", "s", "core.cone_range", "op.reach"),
    "core.cone_range_calls": ("count", "calls", "core.cone_range", "op.reach"),
    "decomposition.partition_components_s":
        ("s", "s", "decomposition.partition_components", "op.build"),
    "decomposition.hierarchy_s":
        ("s", "s", "decomposition.hierarchy", "op.build"),
    "decomposition.compute_wspd_s":
        ("s", "s", "decomposition.compute_wspd", "op.build"),
    "decomposition.wspd_pairs":
        ("count", "count", "decomposition.wspd_pairs", "op.build"),
    "decomposition.augment_with_wspd_s":
        ("s", "s", "decomposition.augment_with_wspd", "op.build"),
    "decomposition.derive_decomposition_s":
        ("s", "s", "decomposition.derive_decomposition", "op.build"),
    "decomposition.nodes":
        ("count", "count", "decomposition.nodes", "op.build"),
    "decomposition.cone_assignments_s":
        ("s", "s", "decomposition.cone_assignments", "op.build"),
    "decomposition.cone_rows":
        ("count", "count", "decomposition.cone_rows", "op.build"),
    "spanner.builder_self_s": ("s", "self", "spanner.build", "op.build"),
    "spanner.select_edges_envelope_s":
        ("s", "s", "spanner.select_edges_envelope", "op.build"),
    "spanner.select_edges_envelope_calls":
        ("count", "calls", "spanner.select_edges_envelope", "op.build"),
    "spanner.euclidean_spanner_s":
        ("s", "s", "spanner.euclidean_spanner", "op.build"),
    "spanner.euclidean_spanner_calls":
        ("count", "calls", "spanner.euclidean_spanner", "op.build"),
    "geom_query.nn_ops": ("count", "calls", "geom_query.nn", "op.build"),
    "geom_query.nn_s": ("s", "s", "geom_query.nn", "op.build"),
    "geom_query.disk_build_s": ("s", "s", "geom_query.disk_build", "op.bfs"),
    "geom_query.disk_query_calls":
        ("count", "calls", "geom_query.disk_query", "op.bfs"),
    "geom_query.disk_query_s": ("s", "s", "geom_query.disk_query", "op.bfs"),
    "geom_query.reach_disk_query_calls":
        ("count", "calls", "geom_query.disk_query", "op.reach"),
    "geom_query.reach_disk_query_s":
        ("s", "s", "geom_query.disk_query", "op.reach"),
    "geom_query.oracle_disk_build_s":
        ("s", "s", "geom_query.disk_build", "op.oracle"),
    "bfs.self_s": ("s", "self", "bfs.bfs_tree", "op.bfs"),
    "oracle.materialize_s": ("s", "s", "oracle.materialize", "op.oracle"),
    "reachability.base_oracle_s":
        ("s", "s", "reachability.base_oracle", "op.oracle"),
    "reachability.geom_oracle_s":
        ("s", "s", "reachability.geom_oracle", "op.oracle"),
    "reachability.geom_decomposition_s":
        ("s", "s", ("decomposition.hierarchy",
                    "decomposition.derive_decomposition"), "op.oracle"),
    "reachability.cover_set_s":
        ("s", "s", "reachability.cover_set", "op.reach"),
    "reachability.base_reach_calls":
        ("count", "calls", "reachability.base_reach", "op.reach"),
    "python.gc_s": ("s", "count", "python.gc_s", "op.build"),
    "python.gc_collections":
        ("count", "count", "python.gc_collections", "op.build"),
}


def per_layer(run: Run, tracer: Tracer):
    name, _, root, dur, self_t = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    root_name = name[root]
    out = {}
    is_op = root == np.arange(len(name))
    ops = {op: int(np.sum(is_op & (name == ids[op])))
           for op in ("op.load", "op.build", "op.bfs", "op.oracle", "op.reach")}
    for metric, (unit, kind, what, op) in PER_LAYER.items():
        n_ops = ops[op]
        if kind == "count":
            value = tracer.counts.get((op, what), 0)
        else:
            names = what if isinstance(what, tuple) else (what,)
            sel = np.isin(name, [ids.get(n, -1) for n in names]) \
                & (root_name == ids.get(op, -1))
            if kind == "calls":
                value = int(sel.sum())
            else:
                value = (dur if kind == "s" else self_t)[sel].sum()
        out[metric] = (value / n_ops, unit)
    ref = run.ref_H
    out["spanner.clique_edges"] = (ref["clique"], "count")
    out["spanner.swept_edges"] = (ref["m"] - ref["clique"], "count")
    out["bfs.relaxations"] = (
        statistics.fmean(t[2] for t in ref["trees"]), "count")
    out["bfs.layers"] = (statistics.fmean(t[3] for t in ref["trees"]), "count")
    out["reachability.components"] = (run.ref_reach["components"], "count")
    out["reachability.cover_sites_mean"] = (
        tracer.counts.get(("op.reach", "reachability.cover_sites"), 0)
        / (ops["op.reach"] * len(run.queries)), "count")
    untraced = statistics.median(run.round_s)
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(run.traced_round_s) / untraced - 1.0), "%")
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 src_dir: Path, out_dir: Path):
    """Run one workload; returns the result object the command prints
    and reference figures that are not metrics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    coords = generate(w, seed)
    sites_path = out_dir / f"sites-{w.name}.txt"
    write_sites(sites_path, coords, f"workload={w.name} seed={seed} n={w.n}")
    setup_s = None if trace else time_setup(src_dir, sites_path)
    tracer = Tracer() if trace else None
    if trace:
        tracer.install()
        sites = tracer.op("op.load", txspanner.load_sites, sites_path)
        tracer.uninstall()
    else:
        sites = txspanner.load_sites(sites_path)
    roots, sources, queries = draw_roots_and_queries(w, seed, coords)
    run = Run(w, sites, roots, queries, tracer)
    run.warm_up()
    start = time.perf_counter()
    if not trace:
        run.probe.start()
    try:
        while True:
            run.round_s.append(run.round())
            if trace:
                run.traced_round_s.append(run.round(traced=True))
            done = len(run.round_s)
            last = run.round_s[-1] + (run.traced_round_s[-1] if trace else 0)
            if (done >= (1 if trace else MIN_ROUNDS)
                    and time.perf_counter() - start + last > seconds):
                break
    finally:
        run.probe.stop()
    rss = peak_rss_mb()
    errors, figures, bad_per_round = run_checks(run, coords, sources)
    rounds = len(run.round_s) + len(run.traced_round_s)
    failed = run.failed + run.mismatches + bad_per_round * rounds
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if trace:
        metrics = per_layer(run, tracer)
        tracer.save(out_dir / f"TRACE_{w.name}.npz")
    else:
        # the children ran before the probe started; their time is
        # adjusted by the speed the probe saw over the timed rounds
        metrics = end_to_end(run, adjust(setup_s, run.probe.samples), rss)
    result = {
        "correct": not errors and run.mismatches == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    figures.update(rounds=rounds,
                   probes=len(run.probe.samples),
                   probe_ms_mean=1000.0 * statistics.fmean(run.probe.samples)
                   if run.probe.samples else 0.0)
    if not trace:
        figures["wall.setup_s"] = setup_s
        figures.update({f"wall.{k}": v for k, (v, _) in
                        timings(run, 1).items()})
    return result, figures
