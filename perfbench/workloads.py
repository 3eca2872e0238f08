"""The three benchmark workloads.

Each workload turns a seed into inputs, sets up (the work a cold CLI
invocation does before optimizing), and then runs a stream of operations
closed loop: operation i starts when operation i-1 has finished. Every
operation is a deterministic function of (seed, i) and of the operations
before it, so the first `min_ops` operations, which every run completes,
give identical outputs, fingerprints and quality figures for a seed.

Outputs are checked with `indep`, which shares no code with migopt.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import indep
from migopt import datagen, evaluate, formats, rewrite, trainer
from migopt.policy import Hyperparams, PolicyParams

# Seeds inputs like `migopt gen --seed S`: item i uses S * 1_000_003 + i.
GEN_STRIDE = 1_000_003
# The deployed model is fixed across seeds; only graphs and sampling vary.
POLICY_SEED = 0
CHECK_SEED = 7


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _rand_specs(gates: int, count: int, seed: int):
    return [
        (f"rand{gates}_{i:04d}", datagen.RandomGraphSpec(gates, 100, 2, seed * GEN_STRIDE + i))
        for i in range(count)
    ]


@dataclass
class OpResult:
    items: int  # operations in the fail_ratio sense: episodes or circuits
    latencies: list[float]  # seconds, one per latency sample
    record: dict  # deterministic outputs, input to the fingerprint
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0  # busy time of the operation


class TrainRand50:
    """REINFORCE training over seeded 50-gate random graphs.

    One operation is a `trainer.train` call of `chunk` episodes that
    continues from the previous operation's parameters; a latency sample
    is one episode (its rollout and its update)."""

    name = "train-rand50"
    full = dict(gates=50, graphs=24, chunk=4, steps=20, min_ops=6, tail=60)
    tiny = dict(gates=20, graphs=4, chunk=2, steps=3, min_ops=2, tail=0)

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed

    def make_inputs(self) -> dict:
        return {}

    def setup(self, inputs: dict) -> dict:
        c = self.cfg
        data = [(name, datagen.random_mig(spec)) for name, spec in _rand_specs(c["gates"], c["graphs"], self.seed)]
        return {"data": data, "params": PolicyParams.init(Hyperparams(), seed=POLICY_SEED)}

    def prepare(self, state: dict):
        state["texts"] = {name: formats.emit_mig(g) for name, g in state["data"]}

    def items_per_op(self, state: dict) -> int:
        return self.cfg["chunk"]

    def run_op(self, state: dict, i: int):
        c = self.cfg
        data = state["data"]
        chunk = [data[(i * c["chunk"] + k) % len(data)] for k in range(c["chunk"])]
        cfg = trainer.TrainConfig(episodes=c["chunk"], steps=c["steps"], seed=self.seed * 1009 + i)
        params, metrics = trainer.train(chunk, state["params"], cfg)
        state["params"] = params
        return params, metrics

    def finish(self, state: dict, raw) -> OpResult:
        params, metrics = raw
        episodes = [{k: v for k, v in m.as_dict().items() if k != "wall_time"} for m in metrics]
        ckpt = formats.checkpoint_text(params)
        finite = all(bool(np.isfinite(a).all()) for _, a in params.arrays())
        return OpResult(
            items=len(metrics),
            latencies=[m.wall_time for m in metrics],
            record={"episodes": episodes, "ckpt": _digest(ckpt), "finite": finite},
        )

    def check(self, state: dict, res: OpResult, corrupt: bool):
        episodes = res.record["episodes"]
        if corrupt:
            episodes = [dict(episodes[0], size_after=episodes[0]["size_after"] + 1)] + episodes[1:]
        for ep in episodes:
            size_in = indep.Circuit(state["texts"][ep["item"]]).size()
            ok = (
                ep["size_before"] == size_in
                and ep["size_after"] >= 0
                and ep["reward"] == ep["size_before"] - ep["size_after"]
            )
            if not ok:
                res.failed += 1
                res.notes.append(f"episode {ep['episode']} on {ep['item']} disagrees with its input")
        if not res.record["finite"]:
            res.failed = res.items
            res.notes.append("trained parameters are not finite")

    @staticmethod
    def quality(records: list[dict]) -> dict:
        eps = [ep for r in records for ep in r["episodes"]]
        return {
            "size_ratio": sum(e["size_after"] for e in eps) / sum(e["size_before"] for e in eps),
            "reward_mean": statistics.fmean(e["reward"] for e in eps),
        }


class OptimizeRand500:
    """The `migopt optimize` path on seeded 500-gate random graphs.

    One operation is one circuit: parse its text and the checkpoint,
    `greedy_steps` greedy steps, verification, emission. Operations cycle
    over the graphs, so repeats must reproduce the first output exactly.
    A latency sample is one greedy step (forward, argmax, env step)."""

    name = "optimize-rand500"
    full = dict(gates=500, graphs=4, greedy_steps=5, min_ops=4, tail=75)
    tiny = dict(gates=60, graphs=2, greedy_steps=2, min_ops=2, tail=0)

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed

    def make_inputs(self) -> dict:
        c = self.cfg
        texts = [
            (name, formats.emit_mig(datagen.random_mig(spec)))
            for name, spec in _rand_specs(c["gates"], c["graphs"], self.seed)
        ]
        ckpt = formats.checkpoint_text(PolicyParams.init(Hyperparams(), seed=POLICY_SEED))
        return {"texts": texts, "ckpt": ckpt}

    def setup(self, inputs: dict) -> dict:
        graphs = [formats.parse_mig(text) for _, text in inputs["texts"]]
        params, _ = formats.parse_checkpoint(inputs["ckpt"])
        return {"texts": inputs["texts"], "ckpt": inputs["ckpt"], "graphs": graphs, "params": params}

    def prepare(self, state: dict):
        state["first_out"] = {}

    def items_per_op(self, state: dict) -> int:
        return 1

    def run_op(self, state: dict, i: int):
        name, text = state["texts"][i % len(state["texts"])]
        g = formats.parse_mig(text)
        params, _ = formats.parse_checkpoint(state["ckpt"])
        work, reports, lat = g, [], []
        for _ in range(self.cfg["greedy_steps"]):
            t0 = perf_counter()
            work, reps = trainer.greedy_optimize(work, params, 1)
            lat.append(perf_counter() - t0)
            reports.extend(reps)
        equivalent, proven = rewrite.verify_equivalence(g, work)
        out = formats.emit_mig(work)
        return name, out, reports, lat, equivalent, proven

    def finish(self, state: dict, raw) -> OpResult:
        name, out, reports, lat, equivalent, proven = raw
        steps = [
            [r.applied, r.blocked_illegal, r.blocked_collision, r.identity_count,
             r.lambda_m_count, r.lambda_r_count, r.size_before, r.size_after,
             r.nodes_added, r.nodes_removed]
            for r in reports
        ]
        res = OpResult(items=1, latencies=lat,
                       record={"item": name, "out": out, "steps": steps, "proven": proven})
        if not equivalent:
            res.failed = 1
            res.notes.append(f"{name}: the program rejected its own output")
        return res

    def check(self, state: dict, res: OpResult, corrupt: bool):
        rec = res.record
        name, out = rec["item"], rec["out"]
        if corrupt:
            out = indep.flip_first_output(out)
        text = dict(state["texts"])[name]
        first = state["first_out"].setdefault(name, rec["out"])
        ok = indep.same_function(text, out, seed=CHECK_SEED) and first == rec["out"]
        if not ok and not res.failed:
            res.failed = 1
            res.notes.append(f"{name}: output differs from its input or from an earlier run")
        rec["size_in"] = indep.Circuit(text).size()
        rec["size_out"] = indep.Circuit(out).size()

    @staticmethod
    def quality(records: list[dict]) -> dict:
        size_in = sum(r["size_in"] for r in records)
        size_out = sum(r["size_out"] for r in records)
        return {"size_ratio": size_out / size_in, "msr.policy": (size_in - size_out) / len(records)}


class EvalSop3:
    """`evaluate.evaluate` over all 256 three-input sum-of-products circuits,
    once with the uniform random policy and once with the greedy rules.

    One operation scores every circuit with both optimizers, and every
    operation repeats the same work. A latency sample is one circuit: the
    median over the operations of the sum of its two per-item wall times."""

    name = "eval-sop3"
    repeats = True
    full = dict(steps=20, every=1, min_ops=2, tail=96)
    tiny = dict(steps=3, every=32, min_ops=1, tail=0)

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed

    def make_inputs(self) -> dict:
        return {}

    def setup(self, inputs: dict) -> dict:
        return {"items": datagen.enumerate_sop3()[:: self.cfg["every"]]}

    def prepare(self, state: dict):
        state["first_out"] = None

    def items_per_op(self, state: dict) -> int:
        return len(state["items"])

    def run_op(self, state: dict, i: int):
        runs = {}
        for opt_id, opt in (
            ("random", evaluate.random_policy(self.seed)),
            ("rules", evaluate.greedy_rules_optimizer()),
        ):
            graphs = []

            def keep(g, steps, idx, opt=opt, graphs=graphs):
                out = opt(g, steps, idx)
                graphs.append(out)
                return out

            cfg = evaluate.EvalConfig(steps=self.cfg["steps"], optimizer_id=opt_id)
            runs[opt_id] = (evaluate.evaluate(state["items"], keep, cfg), graphs)
        return runs

    def finish(self, state: dict, raw) -> OpResult:
        (rand, _), (rules, _) = raw["random"], raw["rules"]
        lat = [a.wall_time + b.wall_time for a, b in zip(rand.items, rules.items)]
        record = {
            opt_id: {
                "out": [formats.emit_mig(g) for g in graphs],
                "sizes": [[it.initial_size, it.final_size] for it in report.items],
            }
            for opt_id, (report, graphs) in raw.items()
        }
        return OpResult(items=len(state["items"]), latencies=lat, record=record)

    def check(self, state: dict, res: OpResult, corrupt: bool):
        bad = set()
        for opt_id, rec in res.record.items():
            outs = list(rec["out"])
            if corrupt and opt_id == "random":
                outs[0] = indep.flip_first_output(outs[0])
            for k, ((name, _), out, (_, final)) in enumerate(zip(state["items"], outs, rec["sizes"])):
                table = int(name.split("_")[1], 16)
                if indep.truth_table3(out) != table or indep.Circuit(out).size() != final:
                    bad.add(k)
        if state["first_out"] is None:
            state["first_out"] = res.record
        elif state["first_out"] != res.record:
            bad.update(range(res.items))
            res.notes.append("a repeated pass gave different outputs")
        if bad:
            res.failed = len(bad)
            res.notes.append(f"{len(bad)} circuits fail the check")

    @staticmethod
    def quality(records: list[dict]) -> dict:
        out = {}
        total_in = total_out = 0
        for opt_id in ("random", "rules"):
            sizes = [s for r in records for s in r[opt_id]["sizes"]]
            size_in = sum(a for a, _ in sizes)
            size_out = sum(b for _, b in sizes)
            out[f"msr.{opt_id}"] = (size_in - size_out) / len(sizes)
            total_in += size_in
            total_out += size_out
        out["size_ratio"] = total_out / total_in
        return out


WORKLOADS = {w.name: w for w in (TrainRand50, OptimizeRand500, EvalSop3)}


def fingerprint(records: list[dict]) -> str:
    """Digest of the deterministic outputs of a run's first operations."""
    return _digest(records)
