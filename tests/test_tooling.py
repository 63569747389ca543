"""The benchmark's tracer names the functions it wraps as strings and skips a
name the package no longer has, so its metrics for that function would read 0
without a warning.  Check that every traced name still resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    missing = [
        f"{short}.{name}"
        for short, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"atlasflow.{short}"), name, None))
    ]
    assert sum(len(names) for names in traced.values()) > 30
    assert missing == []
