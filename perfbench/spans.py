"""Span tracer for the traced run: wraps module-boundary functions of migopt.

Each wrapper replaces the attribute its callers look up (a module global
or a class attribute), records one span (name, start, end, parent) per
call in memory, and updates counters from the call's result. Self time
is a span's duration minus the durations of its direct children. Nothing
waits in this single-threaded program, so only busy time and counts are
recorded.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _rows(counts, args, result):
    if result is not None:
        counts["policy.rows"] += result.x0.shape[0]
        counts["policy.centers"] += len(result.centers)


def _step(counts, args, rep):
    counts["rewrite.actions"] += rep.applied + rep.blocked_illegal + rep.blocked_collision
    counts["rewrite.applied"] += rep.applied
    counts["rewrite.collisions"] += rep.blocked_collision


def _hit(counts, args, result):
    counts["rewrite.match.hits"] += result is not None


def _commit(counts, args, result):
    counts["rewrite.apply.commits"] += bool(result.applied)


def _fired(counts, args, result):
    counts["rewrite.lambda.fired"] += sum(result)


def _proven(counts, args, result):
    counts["rewrite.verify.proven"] += bool(result[1])


def _targets():
    """(owner, attribute, layer, observer) for every wrapped boundary."""
    from migopt import datagen, evaluate, formats, policy, rewrite, trainer
    from migopt.mig import MigGraph

    return [
        # loops: the training loop and an episode share one layer
        (trainer, "train", "trainer.episode", None),
        (trainer, "run_episode", "trainer.episode", None),
        (trainer, "reinforce_update", "trainer.update", None),
        (trainer, "greedy_optimize", "trainer.rollout", None),
        (evaluate, "greedy_optimize", "trainer.rollout", None),
        (trainer, "random_rollout", "trainer.rollout", None),
        (evaluate, "random_rollout", "trainer.rollout", None),
        (evaluate, "evaluate", "evaluate.item", None),
        # policy
        (trainer, "batch_for", "policy.batch", _rows),
        (policy, "batch_for", "policy.batch", _rows),
        (trainer, "_forward_batch", "policy.forward", None),
        (policy, "_forward_batch", "policy.forward", None),
        (trainer, "_backward_batch", "policy.backward", None),
        (policy, "_backward_batch", "policy.backward", None),
        (trainer, "backward_batch", "policy.backward", None),
        (trainer, "backward_many", "policy.backward", None),
        # environment
        (rewrite, "step", "rewrite.step", _step),
        (rewrite, "match", "rewrite.match", _hit),
        (rewrite, "apply_omega", "rewrite.apply", _commit),
        (rewrite, "lambda_fixpoint", "rewrite.lambda", _fired),
        (rewrite, "delete_dead", "rewrite.dead", None),
        (rewrite, "verify_equivalence", "rewrite.verify", _proven),
        # graph
        (MigGraph, "topological_order", "mig.topo", None),
        (MigGraph, "reachable_nodes", "mig.reach", None),
        (MigGraph, "clone", "mig.clone", None),
        (MigGraph, "simulate_truth_tables", "mig.sim", None),
        (MigGraph, "simulate_signatures", "mig.sim", None),
        # text formats and inputs
        (formats, "parse_mig", "formats.parse", None),
        (formats, "emit_mig", "formats.emit", None),
        (formats, "parse_checkpoint", "formats.ckpt", None),
        (formats, "checkpoint_text", "formats.ckpt", None),
        (datagen, "random_mig", "datagen.random_mig", None),
        (datagen, "enumerate_sop3", "datagen.sop3", None),
    ]


# per-layer metric -> layer whose summed self time it reports
SELF_TIME_METRICS = {
    "policy.batch_s": "policy.batch",
    "policy.forward_s": "policy.forward",
    "policy.backward_s": "policy.backward",
    "trainer.update_s": "trainer.update",
    "trainer.episode_self_s": "trainer.episode",
    "trainer.rollout_self_s": "trainer.rollout",
    "evaluate.item_self_s": "evaluate.item",
    "rewrite.step_self_s": "rewrite.step",
    "rewrite.match_s": "rewrite.match",
    "rewrite.apply_s": "rewrite.apply",
    "rewrite.lambda_s": "rewrite.lambda",
    "rewrite.dead_s": "rewrite.dead",
    "rewrite.verify_s": "rewrite.verify",
    "mig.topo_s": "mig.topo",
    "mig.reach_s": "mig.reach",
    "mig.clone_s": "mig.clone",
    "mig.sim_s": "mig.sim",
    "formats.parse_s": "formats.parse",
    "formats.emit_s": "formats.emit",
    "formats.ckpt_s": "formats.ckpt",
    "datagen.random_mig_s": "datagen.random_mig",
    "datagen.sop3_s": "datagen.sop3",
}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, owner, attr, layer, observe):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = [layer, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def __enter__(self):
        for owner, attr, layer, observe in _targets():
            self._wrap(owner, attr, layer, observe)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += end - start - child[k]
        return out

    def calls(self) -> Counter:
        return Counter(layer for layer, *_ in self.spans)

    def write(self, path: Path):
        """Spans as gzipped JSON lines: layer, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit)."""
    selfs = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    out = {name: (selfs.get(layer, 0.0), "s") for name, layer in SELF_TIME_METRICS.items()}
    out.update(
        {
            "policy.forward.calls": (calls["policy.forward"], "count"),
            "policy.centers": (c["policy.centers"], "count"),
            "policy.rows_per_center": (_ratio(c["policy.rows"], c["policy.centers"]), "rows"),
            "rewrite.step.calls": (calls["rewrite.step"], "count"),
            "rewrite.actions": (c["rewrite.actions"], "count"),
            "rewrite.applied_ratio": (_ratio(c["rewrite.applied"], c["rewrite.actions"]), "ratio"),
            "rewrite.collision_ratio": (
                _ratio(c["rewrite.collisions"], c["rewrite.actions"]),
                "ratio",
            ),
            "rewrite.match.calls": (calls["rewrite.match"], "count"),
            "rewrite.match.hit_ratio": (
                _ratio(c["rewrite.match.hits"], calls["rewrite.match"]),
                "ratio",
            ),
            "rewrite.apply.calls": (calls["rewrite.apply"], "count"),
            "rewrite.apply.commit_ratio": (
                _ratio(c["rewrite.apply.commits"], calls["rewrite.apply"]),
                "ratio",
            ),
            "rewrite.lambda.fired": (c["rewrite.lambda.fired"], "count"),
            "rewrite.verify.calls": (calls["rewrite.verify"], "count"),
            "rewrite.verify.proven_ratio": (
                _ratio(c["rewrite.verify.proven"], calls["rewrite.verify"]),
                "ratio",
            ),
            "mig.topo.calls": (calls["mig.topo"], "count"),
            "mig.reach.calls": (calls["mig.reach"], "count"),
            "mig.clone.calls": (calls["mig.clone"], "count"),
            "trace.spans": (len(tracer.spans), "count"),
            "trace.overhead_ratio": (_ratio(traced_wall, untraced_wall), "ratio"),
            "trace.uncovered_share": (
                _ratio(traced_wall - sum(selfs.values()), traced_wall),
                "ratio",
            ),
        }
    )
    return out
