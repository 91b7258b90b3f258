"""The benchmark's per-layer metrics name functions that still exist.

bench/tracing.py counts calls (COUNTED) and times spans (INCLUSIVE) by span
name.  A span name that no wrapped function carries reads 0 on every run, so
deleting or renaming a library function must fail here, not zero a metric.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_counted_or_timed_span_is_wrapped():
    tracing = _tracing()
    wrapped = {name for _, _, name in tracing.Tracer()._targets()}
    watched = set(tracing.COUNTED) | set(tracing.INCLUSIVE)
    assert watched, "the tracer watches no span"
    assert sorted(watched - wrapped) == []
