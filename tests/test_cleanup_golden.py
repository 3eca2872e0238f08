"""Cleanup digests: the graphs that the cleanup path builds must reproduce
a recorded fixture exactly.

The λ fixpoint and the dead-node sweep shape every generated dataset and
every baseline result. The fixture holds one sha256 per path:

* the emitted `.mig` text of all 256 `enumerate_sop3()` graphs;
* the `.mig` text of the `greedy_rules` output for each of them;
* `random_mig` graphs of 50 gates (seeds 1-6) and 200 gates (seeds 1-2);
* the item sizes of a 20-step uniform-random evaluation over sop3.

Rewrite it only when a change of behaviour is intended:

    PYTHONPATH=src:tests python tests/test_cleanup_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from migopt import datagen, formats
from migopt import evaluate as ev

GOLDEN = Path(__file__).parent / "data" / "cleanup_golden.json"
RANDOM_SPECS = [(50, seed) for seed in range(1, 7)] + [(200, seed) for seed in (1, 2)]


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def observe() -> dict:
    sop3 = datagen.enumerate_sop3()
    rand = [datagen.random_mig(datagen.RandomGraphSpec(n, seed=s)) for n, s in RANDOM_SPECS]
    report = ev.evaluate(sop3, ev.random_policy(3), ev.EvalConfig(steps=20))
    return {
        "sop3": _digest(f"{name}\n{formats.emit_mig(g)}" for name, g in sop3),
        "greedy_rules": _digest(formats.emit_mig(ev.greedy_rules(g)) for _, g in sop3),
        "random_mig": _digest(formats.emit_mig(g) for g in rand),
        "eval_random_sizes": _digest(
            f"{it.name} {it.initial_size} {it.final_size}" for it in report.items
        ),
    }


def test_cleanup_paths_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = observe()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
