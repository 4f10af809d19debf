"""The benchmark's span contract: every function it wraps by name still exists on its owner."""

import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """Import ``perfbench/spans.py`` without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_span_target_resolves_on_its_owner():
    targets = load_spans().targets()
    assert targets
    for owner, attr, layer in targets:
        fn = getattr(owner, attr, None)
        assert callable(fn), (owner, attr, layer)
        # The tracer wraps the owner's own attribute, so an inherited one would not do.
        assert attr in vars(owner), (owner, attr, layer)
