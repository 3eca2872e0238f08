"""Episode rollouts and policy-gradient training.

Training episodes, greedy deployment, sampled `optimize` and the
uniform-random baseline all run one loop, `rollout(g0, steps, choose)`:
it clones the start graph once and deletes its dead gates, which leaves
the acting nodes (the reachable majority nodes, in ascending id order).
A step leaves only live majority nodes, so later steps take all of
them. Each step asks the chooser for one action per acting node and
applies the whole action set through the environment. Actions travel
as arrays in that
center order, from the chooser through `StepRecord` to
`reinforce_update`.
`policy_chooser` runs the network over the acting nodes and takes the
argmax, or samples when given a generator; `uniform_chooser` draws
uniform actions without a network.

The reward is terminal: initial minus final reachable gate count.
Updates are plain gradient ascent on the mean of scale * log pi over the
actions the environment actually applied, with scale = reward minus the
start graph's moving-average baseline, plus an entropy bonus weighted by
ENTROPY_COEF on every observed state. A step with no acting node is an
ordinary step whose batch has zero rows.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from migopt import rewrite as rw
from migopt.mig import MigGraph
from migopt.policy import (
    PolicyParams,
    _backward_batch,
    _forward_batch,
    batch_for,
    sample_actions,
)
from migopt.rewrite import StepReport

ENTROPY_COEF = 0.01  # entropy bonus weight on every visited state, read per update


@dataclass(slots=True)
class TrainConfig:
    episodes: int
    steps: int = 20
    lr: float = 1e-3
    baseline_decay: float = 0.95
    seed: int = 0
    batch_size: int = 1
    checkpoint_every: int = 0  # 0 = no periodic checkpoints

    def validate(self):
        if self.episodes < 0:
            raise ValueError("episode count must be non-negative")
        if self.steps < 1:
            raise ValueError("episodes need at least one step")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.baseline_decay < 1:
            raise ValueError("baseline decay must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint interval must be non-negative")


@dataclass(slots=True)
class StepRecord:
    centers: list[int]  # acting nodes, ascending id; may be empty
    actions: np.ndarray  # action index per center
    log_probs: np.ndarray  # log-prob of each chosen action
    report: StepReport
    batch: object = None  # forward cache for the update (zero rows if no center), None unless kept
    probs: object = None  # (centers, actions) distributions, None unless kept


@dataclass(slots=True)
class EpisodeTrace:
    steps: list[StepRecord]
    initial_size: int
    final_size: int
    item: str = ""  # dataset item the episode ran on (baseline key)

    @property
    def reward(self) -> int:
        return self.initial_size - self.final_size


def rollout(g0: MigGraph, steps: int, choose) -> tuple[MigGraph, list[StepRecord]]:
    """Run `steps` environment steps on a copy of g0; g0 is never mutated.

    choose(g, centers) gets the acting nodes and returns (actions,
    log_probs, batch, probs): the action index and its log-prob per
    center, in center order, plus what the step record keeps for a
    gradient pass (None when nothing is kept). The graph returned keeps
    its consumer index and settled cleanup state, so a rollout chained on
    it starts where this one stopped.
    """
    g = g0.clone()
    records: list[StepRecord] = []
    # g0 may hold dead nodes: drop them before the policy sees the graph,
    # so a start graph and its dead-free copy roll out alike; a step
    # leaves only live ones.
    centers = rw.delete_dead(g)
    for k in range(steps):
        if k:
            centers = g.maj_ids()
        actions, log_probs, batch, probs = choose(g, centers)
        report = rw.step(g, dict(zip(centers, actions.tolist())))
        records.append(StepRecord(centers, actions, log_probs, report, batch, probs))
    return g, records


def policy_chooser(
    params: PolicyParams, rng: np.random.Generator | None = None, keep_cache: bool = False
):
    """Argmax actions when rng is None, one draw per center in center
    order otherwise. With keep_cache the forward intermediates, which are
    O(nodes * layers), stay in the step record for the gradient pass."""

    def choose(g: MigGraph, centers: list[int]):
        batch = batch_for(params, g, centers)
        probs, log_probs = _forward_batch(params, batch, keep_cache=keep_cache)
        idx = probs.argmax(axis=1) if rng is None else sample_actions(probs, rng)
        chosen = log_probs[np.arange(idx.size), idx]
        return (idx, chosen, batch, probs) if keep_cache else (idx, chosen, None, None)

    return choose


def uniform_chooser(rng: np.random.Generator):
    """One uniform draw per center, in center order."""
    log_p = -float(np.log(rw.ACTION_COUNT))

    def choose(g: MigGraph, centers: list[int]):
        n = len(centers)
        return rng.integers(rw.ACTION_COUNT, size=n), np.full(n, log_p), None, None

    return choose


def run_episode(
    g0: MigGraph, params: PolicyParams, steps: int, rng: np.random.Generator | None
) -> EpisodeTrace:
    """Roll one episode on a copy of g0, keeping the forward caches;
    greedy when rng is None, sampled otherwise."""
    g, records = rollout(g0, steps, policy_chooser(params, rng, keep_cache=True))
    if records:  # the step reports counted both sizes already
        return EpisodeTrace(records, records[0].report.size_before, records[-1].report.size_after)
    return EpisodeTrace(records, g0.size(), g.size())


def reinforce_update(
    params: PolicyParams,
    batch: list[EpisodeTrace],
    baseline: dict[str, float],
    lr: float,
    baseline_decay: float,
) -> PolicyParams:
    """In-place gradient-ascent update from a batch of traces.

    Trace by trace, the baseline moves first and the trace is then scaled
    by (reward - baseline); `baseline` maps each start graph's `item` to
    its own moving average, which keeps the scale meaningful across items
    of very different sizes.
    Only applied actions enter the reinforcement term. The gradient is
    divided by the number of rows with a nonzero scale, that is, the
    applied actions of the traces whose scale is not exactly 0; when there
    are none, it is applied undivided. The entropy term, weighted by
    ENTROPY_COEF, covers every observed state of every step, one with no
    acting node adding exact zeros. The traces need their forward caches
    (`run_episode` keeps them).
    """
    grads = PolicyParams(params.hp)
    action_count = 0
    for trace in batch:
        reward = trace.reward
        b = baseline_decay * baseline.get(trace.item, 0.0) + (1 - baseline_decay) * reward
        baseline[trace.item] = b
        scale = reward - b
        for rec in trace.steps:
            # a zero-scale row adds its entropy term only, so reuse the full batch
            applied = [rec.report.outcomes.get(c) == "applied" for c in rec.centers]
            scales = np.where(applied, scale, 0.0)
            action_count += int(np.count_nonzero(scales))
            _backward_batch(params, rec.batch, rec.probs, rec.actions, scales, grads, ENTROPY_COEF)
    if action_count:
        grads.flat /= action_count
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
        return asdict(self)


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
    baseline: dict[str, float] = {}
    metrics: list[EpisodeMetrics] = []
    batch: list[EpisodeTrace] = []
    for ep in range(cfg.episodes):
        name, g0 = dataset[ep % len(dataset)]
        t0 = time.perf_counter()
        trace = run_episode(g0, params, cfg.steps, rng)
        trace.item = name
        batch.append(trace)
        if len(batch) >= cfg.batch_size or ep == cfg.episodes - 1:
            reinforce_update(params, batch, baseline, cfg.lr, cfg.baseline_decay)
            batch = []
        metrics.append(
            EpisodeMetrics(
                episode=ep,
                item=name,
                reward=trace.reward,
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
    if checkpoint_fn:
        checkpoint_fn(params, cfg.episodes - 1)
    return params, metrics


def greedy_optimize(
    g: MigGraph, params: PolicyParams, steps: int
) -> tuple[MigGraph, list[StepReport]]:
    """Deployment mode: argmax action selection, same environment as training."""
    work, records = rollout(g, steps, policy_chooser(params))
    return work, [r.report for r in records]


def random_rollout(
    g: MigGraph, steps: int, rng: np.random.Generator
) -> tuple[MigGraph, list[StepReport]]:
    """Uniform-random policy control: same environment, no network."""
    work, records = rollout(g, steps, uniform_chooser(rng))
    return work, [r.report for r in records]
