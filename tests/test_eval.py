import json

import pytest

from migopt import datagen as dg
from migopt import evaluate as ev
from migopt import rewrite as rw
from migopt.mig import new_graph
from migopt.policy import Hyperparams, PolicyParams

from conftest import clean_random_graph


def test_msr_arithmetic():
    items = [(f"g{k}", clean_random_graph(5, 10 + 2 * k, k)) for k in range(3)]

    def drop_nothing(g, steps, idx=0):
        return g.clone()

    rep = ev.evaluate(items, drop_nothing, ev.EvalConfig(steps=5, baseline_msr=2.0))
    assert rep.msr == 0.0
    assert rep.rel_msr == 0.0
    assert all(it.reduction == 0 for it in rep.items)


def test_rel_msr_against_baseline():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_and(g.pi(1), g.pi(2))
    o = g.add_or(a, b)
    g.set_outputs([o])

    def cleanup_only(graph, steps, idx=0):
        out = graph.clone()
        rw.lambda_fixpoint(out)
        rw.delete_dead(out)
        return out

    # the duplicate pair merges, then the OR collapses as M(a,a,1) == a
    rep = ev.evaluate([("dup", g)], cleanup_only, ev.EvalConfig(steps=1, baseline_msr=4.0))
    assert rep.msr == 2.0
    assert rep.rel_msr == 0.5


def test_equivalence_failure_aborts_with_item_name():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    g.set_outputs([a])

    def broken(graph, steps, idx=0):
        out = graph.clone()
        out.outputs = [out.outputs[0] ^ 1]
        return out

    with pytest.raises(ev.EvalError, match="bad_item"):
        ev.evaluate([("bad_item", g)], broken, ev.EvalConfig(steps=1))


def test_greedy_rules_reduces_factorable_instance():
    g = new_graph(5)
    x, y, u, v, z = (g.pi(i) for i in range(1, 6))
    a = g.add_majority(x, y, u)
    b = g.add_majority(x, y, v)
    r = g.add_majority(a, b, z)
    g.set_outputs([r])
    out = ev.greedy_rules(g)
    assert out.size() < g.size()
    assert g.simulate_truth_tables() == out.simulate_truth_tables()


def test_greedy_rules_fixpoint_graph_unchanged():
    g = new_graph(3)
    m = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([m])
    out = ev.greedy_rules(g)
    assert out.size() == 1


def test_greedy_rules_equivalence_property():
    for seed in range(4):
        g = clean_random_graph(6, 20, 70 + seed)
        out = ev.greedy_rules(g)
        assert g.simulate_truth_tables() == out.simulate_truth_tables()
        assert out.size() <= g.size()


def test_random_policy_reproducible():
    items = [(f"g{k}", clean_random_graph(6, 15, k)) for k in range(3)]
    cfg = ev.EvalConfig(steps=8)
    r1 = ev.evaluate(items, ev.random_policy(3), cfg)
    r2 = ev.evaluate(items, ev.random_policy(3), cfg)
    assert r1.msr == r2.msr
    assert [it.final_size for it in r1.items] == [it.final_size for it in r2.items]


def test_policy_optimizer_runs_and_verifies():
    items = [("g", clean_random_graph(6, 12, 5))]
    params = PolicyParams.init(Hyperparams(layers=2, hidden=6), seed=0)
    rep = ev.evaluate(items, ev.policy_optimizer(params), ev.EvalConfig(steps=4))
    assert len(rep.items) == 1


def test_report_serialization_and_reference_points():
    items = [("g", clean_random_graph(5, 10, 1))]
    rep = ev.evaluate(items, ev.random_policy(0), ev.EvalConfig(steps=3, optimizer_id="random"))
    lines = rep.to_jsonl().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["name"] == "g" and "reduction" in rec
    summary = json.loads(lines[-1])
    assert summary["config"]["optimizer"] == "random"
    assert "reference_points" not in summary["config"]  # figures this repo cannot reach
    assert "MSR" in rep.summary_text()


def test_wide_items_are_reported_unproven():
    # verify_equivalence proves up to 16 inputs and compares only signatures beyond
    items = [("narrow", clean_random_graph(6, 15, 3)), ("wide", clean_random_graph(20, 40, 4))]
    rep = ev.evaluate(items, ev.random_policy(0), ev.EvalConfig(steps=3))
    assert [it.proven for it in rep.items] == [True, False]
    lines = [json.loads(line) for line in rep.to_jsonl().strip().splitlines()]
    assert [rec["proven"] for rec in lines[:-1]] == [True, False]
    assert "unproven 1 of 2" in rep.summary_text()


def test_empty_dataset_rejected():
    with pytest.raises(ev.EvalError):
        ev.evaluate([], ev.random_policy(0), ev.EvalConfig())
    with pytest.raises(ev.EvalError):
        ev.evaluate(dg.enumerate_sop3()[:2], ev.random_policy(0), ev.EvalConfig(steps=-3))
