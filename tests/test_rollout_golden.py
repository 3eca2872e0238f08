"""Golden rollouts: seeded greedy, uniform-random, CLI sample-mode and
training runs must reproduce a recorded fixture exactly.

The fixture holds the emitted `.mig` text, every StepReport field, the
episode actions with their log-probs, the training metrics (wall time
aside) and sha256 digests of the checkpoints. Rewrite it only when a
change of behaviour is intended:

    PYTHONPATH=src:tests python tests/test_rollout_golden.py
"""

import contextlib
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from migopt import cli, datagen, formats
from migopt import rewrite as rw
from migopt import trainer as tr
from migopt.policy import Hyperparams, PolicyParams

from conftest import clean_random_graph

GOLDEN = Path(__file__).parent / "data" / "rollout_golden.json"
HP = Hyperparams(layers=3, hidden=8)
STEPS = 6


def _graphs():
    return [
        ("clean19", clean_random_graph(8, 40, 5)),
        ("rand120", datagen.random_mig(datagen.RandomGraphSpec(120, seed=3))),
    ]


def _report(rep):
    return dataclasses.asdict(rep)


@contextlib.contextmanager
def _captured_steps():
    """Every StepReport the environment returns while the block runs."""
    orig = rw.step
    reports = []

    def step(g, actions):
        rep = orig(g, actions)
        reports.append(rep)
        return rep

    rw.step = step
    try:
        yield reports
    finally:
        rw.step = orig


def _cli_sample(g, params, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        formats.save_mig(g, tmp / "in.mig")
        formats.save_checkpoint(params, tmp / "p.ckpt")
        argv = ["optimize", "--in", str(tmp / "in.mig"), "--ckpt", str(tmp / "p.ckpt"),
                "--steps", str(STEPS), "--mode", "sample", "--seed", str(seed),
                "--out", str(tmp / "out.mig")]
        with _captured_steps() as reports:
            code = cli.main(argv)
        return {
            "exit": code,
            "mig": (tmp / "out.mig").read_text(),
            "reports": [_report(r) for r in reports],
        }


def _episode(g, params, mode, seed):
    rng = None if mode == "greedy" else np.random.default_rng(seed)
    trace = tr.run_episode(g, params, STEPS, rng)
    return {
        "reward": trace.reward,
        "initial": trace.initial_size,
        "final": trace.final_size,
        "steps": [
            {
                "actions": {
                    nid: [int(a), lp]
                    for nid, a, lp in zip(rec.centers, rec.actions, rec.log_probs)
                },
                "report": _report(rec.report),
            }
            for rec in trace.steps
        ],
    }


def _train(graphs, params0):
    digests = []

    def save(params, ep):
        text = formats.checkpoint_text(params)
        digests.append([ep, hashlib.sha256(text.encode()).hexdigest()])

    cfg = tr.TrainConfig(episodes=9, steps=4, lr=0.05, seed=5, batch_size=2, checkpoint_every=4)
    _, metrics = tr.train(graphs, params0, cfg, checkpoint_fn=save)
    rows = [{k: v for k, v in m.as_dict().items() if k != "wall_time"} for m in metrics]
    return {"metrics": rows, "checkpoints": digests}


def observe() -> dict:
    params = PolicyParams.init(HP, seed=2)
    graphs = _graphs()
    out = {}
    for k, (name, g) in enumerate(graphs):
        greedy, greedy_reps = tr.greedy_optimize(g, params, STEPS)
        rand, rand_reps = tr.random_rollout(g, STEPS, np.random.default_rng(17 + k))
        out[name] = {
            "greedy": {
                "mig": formats.emit_mig(greedy),
                "reports": [_report(r) for r in greedy_reps],
            },
            "random": {
                "mig": formats.emit_mig(rand),
                "reports": [_report(r) for r in rand_reps],
            },
            "cli_sample": _cli_sample(g, params, seed=4 + k),
            "episode_greedy": _episode(g, params, "greedy", seed=0),
            "episode_stochastic": _episode(g, params, "stochastic", seed=23 + k),
        }
    out["train"] = _train(graphs, params)
    # JSON turns int keys into strings and tuples into lists
    return json.loads(json.dumps(out))


def test_rollouts_match_golden_fixture():
    want = json.loads(GOLDEN.read_text())
    got = observe()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
