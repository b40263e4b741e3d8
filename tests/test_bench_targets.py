"""The benchmark's trace spans wrap ``szzvc`` names by their import path, so a
name deleted or renamed here would break ``perfbench/run.py --trace 1``.
This test reads the target table without installing a tracer."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_a_callable():
    spans = _load_spans()
    assert spans.TARGETS
    missing = [
        f"{spec}.{attr}"
        for spec, attr, _, _ in spans.TARGETS
        if not callable(getattr(spans._owner(spec), attr, None))
    ]
    assert missing == []
