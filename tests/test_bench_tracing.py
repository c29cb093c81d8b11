"""The benchmark's tracer wraps names inside the package (bench/tracing.py);
a name it wraps that the package no longer binds would fail only in a traced
benchmark run, so the names are checked here."""

import importlib.util
from pathlib import Path

import episwarm  # noqa: F401  binds the modules the tracer reads from sys.modules

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_wrapped_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert len(targets) > 0
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert missing == []
