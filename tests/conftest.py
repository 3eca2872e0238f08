import random

import pytest
from hypothesis import settings

from migopt.mig import MigGraph, lit, new_graph
from migopt import rewrite as rw
from migopt.policy import _forward_batch, batch_for

# Budget of the hypothesis tests that name no example count of their own:
# 150 derandomized examples, and 2,000 with `--hypothesis-profile=thorough`.
settings.register_profile("tier1", max_examples=150, deadline=None, derandomize=True, database=None)
settings.register_profile("thorough", settings.get_profile("tier1"), max_examples=2000)
settings.load_profile("tier1")


def crude_random_graph(pi_count: int, node_count: int, seed: int, po_count: int = 2) -> MigGraph:
    """Random collapse-free graph builder independent of migopt.datagen."""
    rng = random.Random(seed)
    g = new_graph(pi_count)
    pool = list(range(pi_count + 1))
    for _ in range(node_count):
        ids = rng.sample(pool, 3)
        s = g.add_majority(*(lit(i, rng.random() < 0.5) for i in ids))
        pool.append(s >> 1)
    maj = pool[pi_count + 1 :]
    outs = [lit(maj[-1], rng.random() < 0.5)]
    for _ in range(po_count - 1):
        outs.append(lit(rng.choice(maj), rng.random() < 0.5))
    g.set_outputs(outs)
    return g


def clean_random_graph(pi_count: int, node_count: int, seed: int) -> MigGraph:
    g = crude_random_graph(pi_count, node_count, seed)
    rw.lambda_fixpoint(g)
    rw.delete_dead(g)
    return g


def acting_nodes(g: MigGraph) -> list[int]:
    """Reachable majority nodes in ascending id order: a rollout step's centers."""
    return [n for n in sorted(g.reachable_nodes()) if n > g.pi_count]


def dists(params, g: MigGraph, centers: list[int]):
    """(probs, log_probs), one row per center in center order, from one batch."""
    return _forward_batch(params, batch_for(params, g, centers))


@pytest.fixture
def and_graph():
    g = new_graph(2)
    out = g.add_and(g.pi(1), g.pi(2))
    g.set_outputs([out])
    return g
