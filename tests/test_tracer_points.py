"""The benchmark's tracer wraps program functions by dotted name; every one
of those names must exist, or a per-layer metric silently reads null."""
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(tracer)
        unresolved = [dotted for dotted, *_ in tracer.POINTS
                      if tracer._resolve(dotted) is None]
    finally:
        del sys.modules[spec.name]
    assert len(tracer.POINTS) > 0
    assert unresolved == []
