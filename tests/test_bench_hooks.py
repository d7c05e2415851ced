"""The benchmark's tracer wraps library functions by name; every name must resolve."""

import types
from pathlib import Path

import planeperm.cli  # noqa: F401  (imports every module the tracer names)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    # Executed from its source text, so nothing is written next to it.
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    targets = [t for group in tracing.SPANS.values() for t in group]
    targets += list(tracing.COUNTERS.values()) + list(tracing.CACHES.values())
    for target in targets:
        owner, attr, value = tracing._resolve(target)
        assert callable(value) or isinstance(value, classmethod), target


def test_every_traced_cache_reports_its_hits():
    tracing = load_tracing()
    for target in tracing.CACHES.values():
        info = tracing._resolve(target)[2].cache_info()
        assert info.hits >= 0 and info.misses >= 0, target
