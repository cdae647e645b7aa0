"""The names the benchmark's trace mode wraps still exist in the package."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_wrapped_names_resolve():
    # Tracer.install reads owner.__dict__[attr]; a missing name raises
    # KeyError there and breaks `benchmarks/smoke.py` in trace mode
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in spans.WRAPPED
               if not callable(owner.__dict__.get(attr))]
    assert not missing
