"""Benchmark of txspanner: spanner build, BFS and geometric reachability.

    python3 benchmarks/run.py --workload ratio-sparse --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src. With
--trace 0 the end-to-end metrics are measured; with --trace 1 the
per-layer metrics, from spans recorded around calls into each module.
Each metric is printed by name with its unit, the result is written to
benchmarks/out/BENCH_<workload>[-trace].json, and the last line of
standard output is the result as one JSON object.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one thread per process, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package():
    """Import txspanner from ./src, and from nowhere else."""
    if not (SRC / "txspanner" / "__init__.py").is_file():
        sys.exit(f"error: no txspanner sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import txspanner
    if Path(txspanner.__file__).resolve().parent != SRC / "txspanner":
        sys.exit(f"error: imported txspanner from {txspanner.__file__}")


def main(argv=None):
    import_package()
    from bench import run_workload
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    out_dir = HERE / "out"
    result, figures = run_workload(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), SRC,
                                   out_dir)
    label = args.workload + ("-trace" if args.trace else "")
    with open(out_dir / f"BENCH_{label}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, **result, "figures": figures},
                  fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in figures.items():
        print(f"# {name} {value:.6g}")
    print(f"# attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
