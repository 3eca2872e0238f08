"""Evaluation harness: mean size reduction against recorded baselines.

Every optimized graph is verified against its start graph before being
scored (exact truth tables up to 16 inputs, seeded signatures beyond);
an equivalence failure aborts the whole run naming the offending item,
because a soundness bug must never be silently averaged away.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from migopt import rewrite as rw
from migopt.mig import MigGraph
from migopt.policy import PolicyParams
from migopt.trainer import greedy_optimize, random_rollout

# Externally reported results for this benchmark family, kept for context
# in report metadata: dataset -> (mean size reduction, fraction of its
# baseline). Never recomputed here. They are context, not targets: sop3's
# 7.38 exceeds this repo's exact ceiling, `datagen.sop3_oracle_ceiling()`
# of 6.92, presumably because the SOP start graphs here are smaller.
REFERENCE_POINTS = {
    "sop3": (7.38, 0.85),
    "rand50": (44.92, 1.75),
    "rand500": (413.68, 1.52),
    "c1355": (106.0, 0.93),
}


class EvalError(Exception):
    pass


@dataclass(slots=True)
class EvalConfig:
    steps: int = 50
    baseline_msr: float | None = None
    optimizer_id: str = ""


@dataclass(slots=True)
class EvalItem:
    name: str
    initial_size: int
    final_size: int
    steps: int
    wall_time: float
    proven: bool  # exact truth tables; False means signatures only

    @property
    def reduction(self) -> int:
        return self.initial_size - self.final_size


@dataclass(slots=True)
class EvalReport:
    items: list[EvalItem]
    msr: float
    rel_msr: float | None
    config: dict

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "name": it.name,
                    "initial_size": it.initial_size,
                    "final_size": it.final_size,
                    "reduction": it.reduction,
                    "steps": it.steps,
                    "wall_time": it.wall_time,
                    "proven": it.proven,
                }
            )
            for it in self.items
        ]
        summary = {"msr": self.msr, "rel_msr": self.rel_msr, "config": self.config}
        lines.append(json.dumps(summary))
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [
            f"{'item':<24} {'initial':>8} {'final':>8} {'reduction':>10}",
        ]
        for it in self.items:
            lines.append(
                f"{it.name:<24} {it.initial_size:>8} {it.final_size:>8} {it.reduction:>10}"
            )
        lines.append(f"MSR {self.msr:.4f}")
        unproven = sum(not it.proven for it in self.items)
        lines.append(f"unproven {unproven} of {len(self.items)} (signatures only)")
        if self.rel_msr is not None:
            lines.append(f"relMSR {self.rel_msr:.4f}")
        return "\n".join(lines) + "\n"


def policy_optimizer(params: PolicyParams):
    def run(g: MigGraph, steps: int, item_index: int = 0):
        out, _ = greedy_optimize(g, params, steps)
        return out

    return run


def random_policy(seed: int):
    def run(g: MigGraph, steps: int, item_index: int = 0):
        rng = np.random.default_rng([seed, item_index])
        out, _ = random_rollout(g, steps, rng)
        return out

    return run


def greedy_rules(g: MigGraph) -> MigGraph:
    """Rule-driven hill climbing: factor with the shrinking distributivity
    move whenever it strictly reduces the cleaned size, plus cleanup;
    at most 50 passes over the nodes."""
    work = g.clone()
    rw.lambda_fixpoint(work)
    rw.delete_dead(work)
    for _ in range(50):
        progress = False
        for nid in sorted(work.maj_ids()):
            if nid not in work.nodes:
                continue
            desc = rw.match(work, nid, rw.OmegaAction.DIST_RL)
            if desc is None:
                continue
            trial = work.clone()
            rw.apply_omega(trial, desc)
            rw.lambda_fixpoint(trial)
            rw.delete_dead(trial)
            if trial.size() < work.size():
                work = trial
                progress = True
        if not progress:
            break
    return work


def greedy_rules_optimizer():
    def run(g: MigGraph, steps: int, item_index: int = 0):
        return greedy_rules(g)

    return run


def evaluate(
    dataset: list[tuple[str, MigGraph]],
    optimizer,
    cfg: EvalConfig,
) -> EvalReport:
    """Run `optimizer(graph, steps)` on every item, verify, and score."""
    if not dataset:
        raise EvalError("dataset is empty")
    if cfg.steps < 0:
        raise EvalError("steps must be non-negative")
    items = []
    for idx, (name, g) in enumerate(dataset):
        t0 = time.perf_counter()
        out = optimizer(g, cfg.steps, idx)
        equivalent, proven = rw.verify_equivalence(g, out)
        if not equivalent:
            raise EvalError(f"optimizer broke equivalence on item {name!r}")
        items.append(
            EvalItem(
                name=name,
                initial_size=g.size(),
                final_size=out.size(),
                steps=cfg.steps,
                wall_time=time.perf_counter() - t0,
                proven=proven,
            )
        )
    msr = sum(it.reduction for it in items) / len(items)
    rel = msr / cfg.baseline_msr if cfg.baseline_msr else None
    return EvalReport(
        items=items,
        msr=msr,
        rel_msr=rel,
        config={
            "steps": cfg.steps,
            "optimizer": cfg.optimizer_id,
            "baseline_msr": cfg.baseline_msr,
            "reference_points": REFERENCE_POINTS,
        },
    )
