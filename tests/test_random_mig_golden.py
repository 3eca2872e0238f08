"""Random-graph digests: `datagen.random_mig` must reproduce a recorded
fixture exactly.

Every rand dataset, every `train` set-up and the benchmark inputs come
from this generator, so its draws are part of the repo's seeded outputs.
The fixture holds one sha256 per input count, over a grid that covers:

* input counts 2, 3, 5, 10, 20, 21 and 100 (the first graph nodes of
  input counts up to 20 draw their fanins from a pool of at most 21
  nodes, the rest from a larger one);
* sizes 1-120, a third of them per input count;
* 1-3 outputs and seeds 0-4;

plus one sha256 over the error messages of rejected specs. Each record
is the graph's node table and outputs, ids included, and its emitted
`.mig` text.

Rewrite it only when a change of behaviour is intended:

    PYTHONPATH=src:tests python tests/test_random_mig_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from migopt import datagen, formats
from migopt.mig import MigError

GOLDEN = Path(__file__).parent / "data" / "random_mig_golden.json"
PI_COUNTS = (2, 3, 5, 10, 20, 21, 100)
BAD_SPECS = [(0, 100, 2, 1), (-3, 10, 1, 0), (5, 1, 2, 0), (5, 0, 1, 0), (5, 10, 0, 0), (5, 10, -1, 0)]


def _specs(k: int, pi_count: int):
    for size in range(1 + k % 3, 121, 3):
        yield datagen.RandomGraphSpec(size, pi_count, 1 + (size // 3) % 3, (size // 3 + k) % 5)


def _record(spec) -> str:
    try:
        g = datagen.random_mig(spec)
    except MigError as e:
        return f"{spec} error {e}"
    return f"{spec} {list(g.nodes.items())} {g.outputs}\n{formats.emit_mig(g)}"


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def observe() -> dict:
    got = {f"pi{p}": _digest(_record(s) for s in _specs(k, p)) for k, p in enumerate(PI_COUNTS)}
    got["errors"] = _digest(_record(datagen.RandomGraphSpec(*s)) for s in BAD_SPECS)
    return got


def test_random_graphs_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = observe()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
