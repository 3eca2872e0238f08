from dataclasses import replace

import numpy as np
import pytest

from migopt import formats as fmt
from migopt import rewrite as rw
from migopt import trainer as tr
from migopt.mig import MigGraph, new_graph
from migopt.policy import Hyperparams, PolicyParams, _backward_batch, _forward_batch, batch_for

from conftest import clean_random_graph, crude_random_graph, dists

HP = Hyperparams(layers=2, hidden=6)


def identity_forced_params():
    params = PolicyParams(HP)
    params.head_b[int(rw.OmegaAction.IDENTITY)] = 50.0
    return params


def test_identity_policy_gets_zero_reward_on_clean_graph():
    g = clean_random_graph(6, 15, 1)
    trace = tr.run_episode(g, identity_forced_params(), 5, None)
    assert trace.reward == 0
    assert all(r.report.applied == 0 for r in trace.steps)


def test_cleanup_reward_is_free():
    # a collapsible node is removed at the first step no matter the policy
    g = new_graph(2)
    m = g.add_majority(g.pi(1), g.pi(1), g.pi(2))
    o = g.add_and(m, g.pi(2))
    g.set_outputs([o])
    assert g.size() == 2
    trace = tr.run_episode(g, identity_forced_params(), 3, None)
    assert trace.reward >= 1


def test_episode_does_not_mutate_start_graph():
    g = clean_random_graph(6, 15, 2)
    before = fmt.emit_mig(g)
    params = PolicyParams.init(HP, seed=1)
    tr.run_episode(g, params, 5, np.random.default_rng(0))
    assert fmt.emit_mig(g) == before


def test_reward_equals_size_delta_and_step_reports():
    g = clean_random_graph(6, 20, 3)
    params = PolicyParams.init(HP, seed=2)
    trace = tr.run_episode(g, params, 6, np.random.default_rng(4))
    assert trace.reward == trace.initial_size - trace.final_size
    delta = sum(r.report.size_before - r.report.size_after for r in trace.steps)
    assert trace.reward == delta


def test_episode_sizes_come_from_the_step_reports(monkeypatch):
    params = PolicyParams.init(HP, seed=3)
    walks = []
    walk = MigGraph.reachable_nodes

    def counted(self):
        walks.append(self)
        return walk(self)

    for seed, steps in ((5, 0), (5, 1), (6, 4), (7, 9)):
        g0 = crude_random_graph(6, 25, seed)
        assert len(g0.maj_ids()) > g0.size()  # starts with dead nodes
        walks.clear()
        monkeypatch.setattr(MigGraph, "reachable_nodes", counted)
        trace = tr.run_episode(g0, params, steps, np.random.default_rng(seed))
        monkeypatch.undo()
        # a rollout does not walk; no steps means one walk, for the start
        # graph's size: the rolled-out copy's cleanup state gives its own
        assert len(walks) == (0 if steps else 1)
        g, _ = tr.rollout(g0, steps, tr.policy_chooser(params, np.random.default_rng(seed)))
        assert (trace.initial_size, trace.final_size) == (g0.size(), g.size())


def test_episode_config_validation():
    # the episode settings live on TrainConfig; an episode needs a step
    with pytest.raises(ValueError):
        tr.TrainConfig(episodes=1, steps=0).validate()
    tr.TrainConfig(episodes=1, steps=1).validate()


def test_reinforce_zero_scale_leaves_params(monkeypatch):
    monkeypatch.setattr(tr, "ENTROPY_COEF", 0.0)  # the REINFORCE term alone
    g = clean_random_graph(5, 10, 4)
    params = PolicyParams.init(HP, seed=3)
    snap = params.clone()
    trace = tr.run_episode(g, params, 3, np.random.default_rng(1))
    # baseline with decay 0 lands exactly on the reward -> scale 0
    baseline = {}
    tr.reinforce_update(params, [trace], baseline, 1e-2, 0.0)
    for (_, a), (_, b) in zip(params.arrays(), snap.arrays()):
        assert np.array_equal(a, b)
    assert baseline[trace.item] == trace.reward


def test_reinforce_increases_probability_of_rewarded_action():
    g = clean_random_graph(5, 12, 6)
    params = PolicyParams.init(HP, seed=5)
    rng = np.random.default_rng(2)
    trace = None
    for _ in range(50):
        t = tr.run_episode(g, params, 1, rng)
        rec = t.steps[0]
        if any(v == "applied" for v in rec.report.outcomes.values()):
            trace = t
            break
    assert trace is not None
    rec = trace.steps[0]
    nid = next(n for n, v in rec.report.outcomes.items() if v == "applied")
    i = rec.centers.index(nid)
    action = rec.actions[i]
    # a one-step episode observes its start graph
    p_before = dists(params, g, rec.centers)[0][i, action]
    rewarded = replace(trace, final_size=trace.initial_size - 5)
    tr.reinforce_update(params, [rewarded], {}, 1e-2, 0.5)  # scale > 0
    p_after = dists(params, g, rec.centers)[0][i, action]
    assert p_after > p_before


def test_opposite_scales_cancel(monkeypatch):
    monkeypatch.setattr(tr, "ENTROPY_COEF", 0.0)  # the REINFORCE term alone
    g = clean_random_graph(5, 12, 7)
    params = PolicyParams.init(HP, seed=6)
    snap = params.clone()
    rng = np.random.default_rng(3)
    trace = tr.run_episode(g, params, 2, rng)
    # fresh per-item baselines with decay 0.5 give scales +1.5 and -1.5
    batch = [
        replace(trace, item="a", final_size=trace.initial_size - 3),
        replace(trace, item="b", final_size=trace.initial_size + 3),
    ]
    tr.reinforce_update(params, batch, {}, 1e-2, 0.5)
    for (_, a), (_, b) in zip(params.arrays(), snap.arrays()):
        assert np.allclose(a, b, atol=1e-15)


def test_blocked_only_trace_contributes_no_gradient(monkeypatch):
    monkeypatch.setattr(tr, "ENTROPY_COEF", 0.0)  # the REINFORCE term alone
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    params = PolicyParams(HP)
    params.head_b[int(rw.OmegaAction.ASSOC)] = 50.0  # always blocked: no child
    trace = tr.run_episode(g, params, 3, None)
    assert all(v == "blocked_illegal" for rec in trace.steps for v in rec.report.outcomes.values())
    seven = replace(trace, final_size=trace.initial_size - 7)
    grads = tr.reinforce_update(params, [seven], {}, 1e-2, 0.0)
    # baseline moved to 7 -> scale 0; force a nonzero scale instead
    grads = tr.reinforce_update(params, [seven], {trace.item: 14.0}, 1e-2, 1.0 - 1e-9)
    assert max(float(np.max(np.abs(a))) for _, a in grads.arrays()) == 0.0


def test_empty_acting_set_gives_empty_records():
    # the only output is an input, so no step has an acting node
    g = new_graph(2)
    g.set_outputs([g.pi(1)])
    params = PolicyParams.init(HP, seed=0)
    snap = params.clone()
    _, greedy = tr.rollout(g, 2, tr.policy_chooser(params))
    _, uniform = tr.rollout(g, 2, tr.uniform_chooser(np.random.default_rng(0)))
    trace = tr.run_episode(g, params, 2, np.random.default_rng(0))
    for rec in greedy + uniform + trace.steps:
        assert rec.centers == []
        assert rec.actions.size == 0 and rec.log_probs.size == 0
    rewarded = replace(trace, final_size=trace.initial_size - 3)
    tr.reinforce_update(params, [rewarded], {}, 1e-2, 0.5)
    for (_, a), (_, b) in zip(params.arrays(), snap.arrays()):
        assert np.array_equal(a, b)


def test_no_center_is_an_ordinary_batch():
    # a graph with gates, none of them acting: zero rows at every depth
    g = clean_random_graph(5, 12, 8)
    assert g.maj_ids()
    for layers in (1, 2, 3):
        hp = Hyperparams(layers=layers, hidden=6)
        params = PolicyParams.init(hp, seed=layers)
        batch = batch_for(params, g, [])
        assert all(p.shape == (0, rw.ACTION_COUNT) for p in _forward_batch(params, batch))
        probs, log_probs = _forward_batch(params, batch, keep_cache=True)
        assert probs.shape == log_probs.shape == (0, rw.ACTION_COUNT)
        grads = PolicyParams(hp)
        actions = np.zeros(0, dtype=np.int64)
        _backward_batch(params, batch, probs, actions, np.zeros(0), grads, tr.ENTROPY_COEF)
        assert grads.flat.tobytes() == PolicyParams(hp).flat.tobytes()
    # the only output is an input: a sampled step draws nothing
    h = new_graph(2)
    h.set_outputs([h.pi(1)])
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    actions, log_probs, _, _ = tr.policy_chooser(params, rng)(h, [])
    assert actions.size == log_probs.size == 0
    assert rng.bit_generator.state == state


def test_acting_set_skips_dead_nodes():
    h = clean_random_graph(6, 15, 3)
    reach = sorted(n for n in h.reachable_nodes() if n > h.pi_count)
    h.add_majority(h.pi(1), h.pi(2), h.const0())  # dead: no output reads it
    params = PolicyParams.init(Hyperparams(layers=1, hidden=4), seed=0)
    trace = tr.run_episode(h, params, 1, np.random.default_rng(0))
    rec = trace.steps[0]
    assert rec.centers == reach
    assert rec.actions.shape == rec.log_probs.shape == (len(reach),)
    assert rec.probs.shape == (len(reach), rw.ACTION_COUNT)


def test_dead_gates_do_not_change_a_rollout():
    # the policy reads every node of the graph, so dead gates would feed
    # the first step's fanout sums if the rollout kept them
    params = PolicyParams.init(HP, seed=5)
    for seed in range(6):
        g = crude_random_graph(8, 30, seed)
        assert len(g.maj_ids()) > g.size()  # starts with dead gates
        pruned = g.clone()
        rw.delete_dead(pruned)
        out_g, recs_g = tr.rollout(g, 4, tr.policy_chooser(params))
        out_p, recs_p = tr.rollout(pruned, 4, tr.policy_chooser(params))
        for a, b in zip(recs_g, recs_p, strict=True):
            assert a.centers == b.centers
            assert a.actions.tobytes() == b.actions.tobytes()
            assert a.log_probs.tobytes() == b.log_probs.tobytes()
            assert a.report == b.report
        assert fmt.emit_mig(out_g) == fmt.emit_mig(out_p)


def test_rollout_never_walks_the_graph(monkeypatch):
    g = crude_random_graph(5, 30, 4)
    assert len(g.maj_ids()) > g.size()  # starts with dead nodes
    walks = []
    walk = MigGraph.reachable_nodes

    def counted(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(MigGraph, "reachable_nodes", counted)
    for k in (1, 4, 7):
        walks.clear()
        out, records = tr.rollout(g, k, tr.uniform_chooser(np.random.default_rng(k)))
        assert len(records) == k
        assert walks == []  # dead removal follows the fanout index instead
    monkeypatch.undo()
    assert all(rec.centers == sorted(rec.centers) for rec in records)
    assert records[-1].centers  # the last step still had acting nodes
    assert set(out.maj_ids()) <= out.reachable_nodes()


def test_train_zero_episodes_returns_initial_params():
    params0 = PolicyParams.init(HP, seed=9)
    params, metrics = tr.train([], params0, tr.TrainConfig(episodes=0, seed=0))
    assert metrics == []
    for (_, a), (_, b) in zip(params.arrays(), params0.arrays()):
        assert np.array_equal(a, b)


def test_train_deterministic():
    items = [(f"g{k}", clean_random_graph(5, 10, k)) for k in range(3)]
    params0 = PolicyParams.init(HP, seed=1)
    cfg = tr.TrainConfig(episodes=12, steps=4, seed=7)
    p1, m1 = tr.train(items, params0, cfg)
    p2, m2 = tr.train(items, params0, cfg)
    strip = lambda ms: [
        (m.episode, m.item, m.reward, m.size_before, m.size_after, m.applied,
         m.blocked_illegal, m.blocked_collision)
        for m in ms
    ]
    assert strip(m1) == strip(m2)
    for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)


def test_train_checkpoint_cadence(tmp_path):
    items = [("g", clean_random_graph(5, 8, 1))]
    params0 = PolicyParams.init(HP, seed=0)
    calls = []
    cfg = tr.TrainConfig(episodes=7, steps=2, seed=1, checkpoint_every=3)
    tr.train(items, params0, cfg, checkpoint_fn=lambda p, ep: calls.append(ep))
    assert calls == [2, 5, 6]  # cadence plus the final save


def test_train_flushes_trailing_partial_batch():
    # 3 episodes never fill a batch of 4, so only the final flush updates
    items = [("g", clean_random_graph(5, 10, 2))]
    params0 = PolicyParams.init(HP, seed=4)
    cfg = tr.TrainConfig(episodes=3, steps=2, seed=3, batch_size=4)
    params, _ = tr.train(items, params0, cfg)
    assert any(not np.array_equal(a, b) for (_, a), (_, b) in zip(params.arrays(), params0.arrays()))


def test_per_item_baseline_tracks_each_graph():
    items = [("a", clean_random_graph(5, 8, 1)), ("b", clean_random_graph(5, 16, 2))]
    baseline = {}
    params = PolicyParams.init(HP, seed=0)
    rng = np.random.default_rng(0)
    for name, g in items * 2:
        trace = tr.run_episode(g, params, 2, rng)
        trace.item = name
        tr.reinforce_update(params, [trace], baseline, 1e-4, 0.9)
    assert set(baseline) == {"a", "b"}


def test_greedy_optimize_identity_fixpoint():
    g = clean_random_graph(6, 15, 8)
    out, reports = tr.greedy_optimize(g, identity_forced_params(), steps=4)
    assert out.size() == g.size()
    assert fmt.emit_mig(out) == fmt.emit_mig(g)
    assert len(reports) == 4


def test_greedy_optimize_cleans_redundancy_regardless_of_policy():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_and(g.pi(1), g.pi(2))
    o = g.add_or(a, b)
    g.set_outputs([o])
    s0 = g.size()
    out, reports = tr.greedy_optimize(g, identity_forced_params(), steps=1)
    assert out.size() < s0
    assert reports[0].lambda_r_count >= 1


def test_random_rollout_reproducible():
    g = clean_random_graph(6, 15, 9)
    o1, _ = tr.random_rollout(g, 10, np.random.default_rng(5))
    o2, _ = tr.random_rollout(g, 10, np.random.default_rng(5))
    assert fmt.emit_mig(o1) == fmt.emit_mig(o2)


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(episodes=1, lr=0).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(episodes=1, baseline_decay=1.0).validate()
