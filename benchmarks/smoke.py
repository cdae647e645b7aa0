"""Smoke check of the benchmark harness, in seconds rather than minutes.

    python3 benchmarks/smoke.py

Runs every workload at toy size, untraced and traced, with all checks
on, and fails unless each run is correct, fails no operation and
reports exactly the metrics BENCHMARK.json declares, each a finite
number (every end-to-end metric above zero).
"""

import dataclasses
import json
import math
import sys

from run import HERE, SRC, import_package


def main():
    import_package()
    from bench import run_workload
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        sys.exit("workloads differ from BENCHMARK.json")
    problems = []
    for w in WORKLOADS.values():
        toy = dataclasses.replace(w, n=max(60, w.n // 10),
                                  bfs_roots=min(2, w.bfs_roots), queries=12)
        for trace in (0, 1):
            before = len(problems)
            result, _ = run_workload(toy, 7, 0.0, bool(trace), SRC,
                                     HERE / "out" / "smoke")
            got = result["metrics"]
            label = f"{w.name} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if list(got) != names[trace]:
                problems.append(f"{label}: metrics {sorted(got)} differ "
                                "from BENCHMARK.json")
            for k, m in got.items():
                v = m["value"]
                if not math.isfinite(v) or (trace == 0 and v <= 0):
                    problems.append(f"{label}: {k} = {v}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAIL'}",
                  flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
