"""Episode rollouts and policy-gradient training.

An episode clones its start graph, then for a fixed number of steps runs
a full forward pass, samples one action per acting node, and applies the
whole action set through the environment. The reward is terminal: initial
minus final reachable gate count. Updates are plain gradient ascent on
sum(scale * log pi) with scale = reward minus a moving-average baseline;
only actions the environment actually applied contribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from migopt import rewrite as rw
from migopt.mig import MAJ, MigGraph
from migopt.policy import (
    ActionDistribution,
    PolicyGradients,
    PolicyParams,
    _backward_batch,
    _forward_batch,
    argmax_actions,
    batch_for,
    forward_all,
    sample_actions,
)
from migopt.rewrite import OmegaAction, StepReport


@dataclass(slots=True)
class EpisodeConfig:
    steps: int = 20
    mode: str = "stochastic"  # or "greedy"

    def validate(self):
        if self.steps < 1:
            raise ValueError("episodes need at least one step")
        if self.mode not in ("stochastic", "greedy"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")


@dataclass(slots=True)
class TrainConfig:
    episodes: int
    steps: int = 20
    lr: float = 1e-3
    baseline_decay: float = 0.95
    seed: int = 0
    batch_size: int = 1
    checkpoint_every: int = 0  # 0 = no periodic checkpoints
    include_blocked: bool = False  # also reinforce blocked actions
    entropy_coef: float = 0.01  # exploration pressure on every visited state
    grad_norm: str = "mean"  # "mean": scale update by 1/#actions; "sum": raw
    baseline_mode: str = "per_item"  # "per_item" or "global"
    draws_per_item: int = 1  # consecutive episodes on the same start graph

    def validate(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.baseline_decay < 1:
            raise ValueError("baseline decay must be in [0, 1)")
        if self.grad_norm not in ("mean", "sum"):
            raise ValueError(f"unknown grad_norm {self.grad_norm!r}")
        if self.baseline_mode not in ("per_item", "global"):
            raise ValueError(f"unknown baseline_mode {self.baseline_mode!r}")
        if self.draws_per_item < 1:
            raise ValueError("draws_per_item must be at least 1")


@dataclass(slots=True)
class StepRecord:
    snapshot: MigGraph  # graph state the policy observed
    actions: dict[int, tuple[OmegaAction, float]]  # node -> (action, log-prob)
    report: StepReport
    batch: object = None  # prebuilt index arrays for the gradient pass
    probs: object = None  # per-center distributions, center order


@dataclass(slots=True)
class EpisodeTrace:
    steps: list[StepRecord]
    initial_size: int
    final_size: int
    item: str = ""  # dataset item the episode ran on (baseline key)

    @property
    def reward(self) -> int:
        return self.initial_size - self.final_size


def run_episode(
    g0: MigGraph,
    params: PolicyParams,
    cfg: EpisodeConfig,
    rng: np.random.Generator,
) -> tuple[EpisodeTrace, int]:
    """Roll one episode on a copy of g0; g0 itself is never mutated."""
    cfg.validate()
    g = g0.clone()
    initial = g.size()
    steps: list[StepRecord] = []
    for _ in range(cfg.steps):
        batch = batch_for(params, g)
        probs = None
        if batch is None:
            dists = {}
        else:
            # intermediates are O(nodes * layers), so the gradient pass reuses them
            probs, log_probs = _forward_batch(params, batch, keep_cache=True)
            dists = {
                c: ActionDistribution(probs[i], log_probs[i])
                for i, c in enumerate(batch.centers)
            }
        if cfg.mode == "greedy":
            acts = argmax_actions(dists)
        else:
            acts = sample_actions(dists, rng)
        snapshot = g.clone()
        report = rw.step(g, {nid: a for nid, (a, _) in acts.items()})
        steps.append(StepRecord(snapshot, acts, report, batch, probs))
    trace = EpisodeTrace(steps, initial, g.size())
    return trace, trace.reward


@dataclass(slots=True)
class BaselineState:
    mode: str = "per_item"
    value: float = 0.0
    per_item: dict[str, float] = field(default_factory=dict)


def reinforce_update(
    params: PolicyParams,
    batch: list[tuple[EpisodeTrace, float]],
    baseline: BaselineState,
    lr: float,
    baseline_decay: float,
    include_blocked: bool = False,
    entropy_coef: float = 0.0,
    grad_norm: str = "sum",
) -> PolicyGradients:
    """In-place gradient-ascent update from a batch of traces.

    The baseline moves first and every episode is scaled by (reward -
    baseline); a per-item baseline tracks each start graph separately,
    which keeps the scale meaningful across items of very different
    sizes. Only applied actions enter the reinforcement term unless
    include_blocked is set. The entropy term, when enabled, covers every
    observed state of every step.
    """
    rewards = [r for _, r in batch]
    scales_by_trace = []
    if baseline.mode == "global":
        baseline.value = baseline_decay * baseline.value + (1 - baseline_decay) * (
            sum(rewards) / len(rewards)
        )
        scales_by_trace = [r - baseline.value for _, r in batch]
    else:
        for trace, reward in batch:
            b = baseline_decay * baseline.per_item.get(trace.item, 0.0) + (
                1 - baseline_decay
            ) * reward
            baseline.per_item[trace.item] = b
            scales_by_trace.append(reward - b)

    grads = PolicyGradients(params.hp)
    wanted = (
        ("applied", "blocked_illegal", "blocked_collision")
        if include_blocked
        else ("applied",)
    )
    action_count = 0
    for (trace, _reward), scale in zip(batch, scales_by_trace):
        for rec in trace.steps:
            if rec.batch is None:
                continue  # no acting node, so no action
            # zero-scale rows contribute nothing, so reuse the full batch
            actions = [rec.actions[c][0] for c in rec.batch.centers]
            scales = [
                scale if rec.report.outcomes.get(c) in wanted else 0.0
                for c in rec.batch.centers
            ]
            action_count += sum(1 for s in scales if s)
            if not any(scales) and not entropy_coef:
                continue
            _backward_batch(
                params,
                rec.batch,
                rec.probs,
                np.asarray([int(a) for a in actions], dtype=np.int64),
                np.asarray(scales, dtype=float),
                grads,
                entropy_coef=entropy_coef,
            )
    if grad_norm == "mean" and action_count:
        for _, arr in grads.arrays():
            arr /= action_count
    params.add_scaled(grads, lr)
    return grads


@dataclass(slots=True)
class EpisodeMetrics:
    episode: int
    item: str
    reward: int
    size_before: int
    size_after: int
    applied: int
    blocked_illegal: int
    blocked_collision: int
    wall_time: float

    def as_dict(self) -> dict:
        return {
            "episode": self.episode,
            "item": self.item,
            "reward": self.reward,
            "size_before": self.size_before,
            "size_after": self.size_after,
            "applied": self.applied,
            "blocked_illegal": self.blocked_illegal,
            "blocked_collision": self.blocked_collision,
            "wall_time": self.wall_time,
        }


def train(
    dataset: list[tuple[str, MigGraph]],
    params0: PolicyParams,
    cfg: TrainConfig,
    checkpoint_fn=None,
) -> tuple[PolicyParams, list[EpisodeMetrics]]:
    """Round-robin REINFORCE over a dataset of start graphs.

    Deterministic for a fixed config: the metrics log (wall_time aside)
    and the final parameters depend only on (dataset, params0, cfg).
    checkpoint_fn(params, episode_index) is called on the configured
    cadence and once at the end.
    """
    cfg.validate()
    if cfg.episodes and not dataset:
        raise ValueError("dataset is empty")
    params = params0.clone()
    rng = np.random.default_rng(cfg.seed)
    baseline = BaselineState(mode=cfg.baseline_mode)
    ep_cfg = EpisodeConfig(steps=cfg.steps, mode="stochastic")
    metrics: list[EpisodeMetrics] = []
    batch: list[tuple[EpisodeTrace, float]] = []
    for ep in range(cfg.episodes):
        name, g0 = dataset[(ep // cfg.draws_per_item) % len(dataset)]
        t0 = time.perf_counter()
        trace, reward = run_episode(g0, params, ep_cfg, rng)
        trace.item = name
        batch.append((trace, reward))
        if len(batch) >= cfg.batch_size:
            reinforce_update(
                params,
                batch,
                baseline,
                cfg.lr,
                cfg.baseline_decay,
                cfg.include_blocked,
                entropy_coef=cfg.entropy_coef,
                grad_norm=cfg.grad_norm,
            )
            batch = []
        metrics.append(
            EpisodeMetrics(
                episode=ep,
                item=name,
                reward=reward,
                size_before=trace.initial_size,
                size_after=trace.final_size,
                applied=sum(r.report.applied for r in trace.steps),
                blocked_illegal=sum(r.report.blocked_illegal for r in trace.steps),
                blocked_collision=sum(r.report.blocked_collision for r in trace.steps),
                wall_time=time.perf_counter() - t0,
            )
        )
        if checkpoint_fn and cfg.checkpoint_every and (ep + 1) % cfg.checkpoint_every == 0:
            checkpoint_fn(params, ep)
    if batch:
        reinforce_update(
            params,
            batch,
            baseline,
            cfg.lr,
            cfg.baseline_decay,
            cfg.include_blocked,
            entropy_coef=cfg.entropy_coef,
            grad_norm=cfg.grad_norm,
        )
    if checkpoint_fn:
        checkpoint_fn(params, cfg.episodes - 1)
    return params, metrics


def greedy_optimize(
    g: MigGraph, params: PolicyParams, steps: int
) -> tuple[MigGraph, list[StepReport]]:
    """Deployment mode: argmax action selection, same environment as training."""
    work = g.clone()
    reports: list[StepReport] = []
    for _ in range(steps):
        dists = forward_all(params, work)
        acts = argmax_actions(dists)
        reports.append(rw.step(work, {nid: a for nid, (a, _) in acts.items()}))
    return work, reports


def random_rollout(
    g: MigGraph, steps: int, rng: np.random.Generator
) -> tuple[MigGraph, list[StepReport]]:
    """Uniform-random policy control: same environment, no network."""
    work = g.clone()
    reports: list[StepReport] = []
    for _ in range(steps):
        reach = work.reachable_nodes()
        centers = [n for n in sorted(reach) if work.nodes[n].kind == MAJ]
        acts = {n: OmegaAction(int(rng.integers(rw.ACTION_COUNT))) for n in centers}
        reports.append(rw.step(work, acts))
    return work, reports
