"""The benchmark's traced run wraps migopt functions by name; a target that
no longer resolves is skipped silently and its per-layer metric reads 0.
This test reads perfbench/spans.py and changes nothing there."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# names the tracer still lists although the package dropped them earlier
STALE = {"migopt.trainer.backward_batch", "migopt.trainer.backward_many"}


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert len(targets) > len(STALE)
    missing = {
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in targets
        if getattr(owner, attr, None) is None
    }
    assert missing <= STALE
