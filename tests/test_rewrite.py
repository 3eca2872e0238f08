import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migopt import datagen as dg
from migopt import evaluate as ev
from migopt import formats as fmt
from migopt import rewrite as rw
from migopt import trainer as tr
from migopt.mig import MigError, MigGraph, new_graph
from migopt.policy import Hyperparams, PolicyParams
from migopt.rewrite import OmegaAction

from conftest import acting_nodes, clean_random_graph, crude_random_graph
from test_step_reference import PlanRef, add_redundancy, reference_apply_omega, reference_match


def tt(g):
    return g.simulate_truth_tables()


def test_comm_swaps_ports():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    before = tt(g)
    desc = rw.match(g, r >> 1, OmegaAction.COMM01)
    assert rw.apply_omega(g, desc).applied
    assert g.nodes[r >> 1] == (g.pi(2), g.pi(1), g.pi(3))
    assert tt(g) == before


def test_identity_always_matches_with_empty_footprint():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    desc = rw.match(g, r >> 1, OmegaAction.IDENTITY)
    assert desc is not None and desc[1] == ()  # the footprint


def test_inv_prop_flips_fanins_and_references():
    g = new_graph(3)
    m1 = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    m2 = g.add_and(m1, g.pi(1) ^ 1)
    g.set_outputs([m1 ^ 1, m2])
    before = tt(g)
    desc = rw.match(g, m1 >> 1, OmegaAction.INV_PROP)
    assert m2 >> 1 in desc[1]  # the footprint holds the consumer
    assert rw.apply_omega(g, desc).applied
    assert g.nodes[m1 >> 1] == (g.pi(1) ^ 1, g.pi(2) ^ 1, g.pi(3) ^ 1)
    assert g.nodes[m2 >> 1][0] == m1 ^ 1  # consumer edge flipped
    assert g.outputs[0] == m1  # output polarity flipped
    assert tt(g) == before


def test_a_binding_whose_root_is_gone_leaves_the_graph_bit_identical():
    actions = (OmegaAction.IDENTITY, OmegaAction.COMM01, OmegaAction.DIST_LR, OmegaAction.INV_PROP)
    for action in actions:
        g = new_graph(5)
        a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
        r = g.add_majority(g.pi(4), g.pi(5) ^ 1, a)
        c = g.add_majority(r, a, g.pi(1))  # a consumer for INV_PROP to flip
        g.set_outputs([a, c ^ 1])
        g.fanouts(0)  # build the index, so a stray write could reach it
        binding = rw.match(g, r >> 1, action)
        g.remove(c >> 1)
        g.remove(r >> 1)
        g.set_outputs([a, a ^ 1])
        nodes, outputs, next_id = list(g.nodes.items()), list(g.outputs), g._next_id
        index = {p: set(users) for p, users in g._fanouts.items()}
        assert not rw.apply_omega(g, binding).applied, action.name
        assert list(g.nodes.items()) == nodes and g.outputs == outputs
        assert g._next_id == next_id and g._fanouts == index
        g.check()


def test_inv_prop_flips_a_two_port_consumer_once():
    for via_step in (False, True):
        g = new_graph(3)
        r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
        c = g.add_majority(r, r, g.pi(1) ^ 1)
        g.set_outputs([c, r ^ 1])
        before = tt(g)
        if via_step:
            rep = rw.step(g, {r >> 1: OmegaAction.INV_PROP})
            assert rep.applied == 1
        else:
            assert rw.apply_omega(g, rw.match(g, r >> 1, OmegaAction.INV_PROP)).applied
            assert g.nodes[c >> 1] == (r ^ 1, r ^ 1, g.pi(1) ^ 1)
        assert tt(g) == before
        g.check()


def test_assoc_matches_any_port_arrangement():
    # shared operand found regardless of which ports it occupies
    for xp in range(3):
        for uc in range(3):
            g = new_graph(4)
            x, u, y, z = (g.pi(i) for i in range(1, 5))
            child_fanins = [None] * 3
            rest = [p for p in range(3) if p != uc]
            child_fanins[uc] = u
            child_fanins[rest[0]] = y
            child_fanins[rest[1]] = z
            child = g.add_majority(*child_fanins)
            root_fanins = [None] * 3
            cp = (xp + 1) % 3
            up = 3 - xp - cp
            root_fanins[xp] = x
            root_fanins[cp] = child
            root_fanins[up] = u
            r = g.add_majority(*root_fanins)
            g.set_outputs([r])
            before = tt(g)
            desc = rw.match(g, r >> 1, OmegaAction.ASSOC)
            assert desc is not None, (xp, uc)
            assert rw.apply_omega(g, desc).applied
            assert tt(g) == before


def test_assoc_needs_majority_child():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    assert rw.match(g, r >> 1, OmegaAction.ASSOC) is None


def test_assoc_through_complemented_child_edge():
    g = new_graph(4)
    x, u, y, z = (g.pi(i) for i in range(1, 5))
    child = g.add_majority(y, u ^ 1, z)
    r = g.add_majority(x, u, child ^ 1)  # !child presents (!y, u, !z)
    g.set_outputs([r])
    before = tt(g)
    desc = rw.match(g, r >> 1, OmegaAction.ASSOC)
    assert desc is not None
    assert rw.apply_omega(g, desc).applied
    assert tt(g) == before


def test_compl_assoc():
    g = new_graph(4)
    x, u, y, z = (g.pi(i) for i in range(1, 5))
    child = g.add_majority(y, u ^ 1, z)
    r = g.add_majority(x, u, child)
    g.set_outputs([r])
    before = tt(g)
    desc = rw.match(g, r >> 1, OmegaAction.COMPL_ASSOC)
    assert desc is not None
    assert rw.apply_omega(g, desc).applied
    assert tt(g) == before


def test_compl_assoc_no_match_without_complement_pair():
    g = new_graph(5)
    child = g.add_majority(g.pi(3), g.pi(4), g.pi(5))
    r = g.add_majority(g.pi(1), g.pi(2), child)
    g.set_outputs([r])
    assert rw.match(g, r >> 1, OmegaAction.COMPL_ASSOC) is None


def test_dist_rl_shrinks():
    g = new_graph(5)
    x, y, u, v, z = (g.pi(i) for i in range(1, 6))
    a = g.add_majority(x, y, u)
    b = g.add_majority(x, y, v)
    r = g.add_majority(a, b, z)
    g.set_outputs([r])
    before = tt(g)
    assert g.size() == 3
    rep = rw.step(g, {r >> 1: OmegaAction.DIST_RL})
    assert rep.applied == 1
    assert g.size() == 2
    assert tt(g) == before


def test_dist_rl_finds_pair_across_ports():
    g = new_graph(5)
    x, y, u, v, z = (g.pi(i) for i in range(1, 6))
    a = g.add_majority(u, y, x)
    b = g.add_majority(x, v, y)  # shared pair {x,y} on different ports
    r = g.add_majority(a, z, b)
    g.set_outputs([r])
    before = tt(g)
    rep = rw.step(g, {r >> 1: OmegaAction.DIST_RL})
    assert rep.applied == 1 and g.size() == 2
    assert tt(g) == before


def test_dist_lr_grows_by_one():
    g = new_graph(5)
    x, y, u, v, z = (g.pi(i) for i in range(1, 6))
    c = g.add_majority(u, v, z)
    r = g.add_majority(x, y, c)
    g.set_outputs([r])
    before = tt(g)
    rep = rw.step(g, {r >> 1: OmegaAction.DIST_LR})
    assert rep.applied == 1
    assert g.size() == 3
    assert tt(g) == before


def test_lambda_majority_collapses():
    g = new_graph(2)
    m = g.add_majority(g.pi(1), g.pi(1), g.pi(2))
    g.set_outputs([m])
    assert rw.lambda_majority(g) == 1
    assert g.outputs == [g.pi(1)]

    g2 = new_graph(2)
    m2 = g2.add_majority(g2.pi(1), g2.pi(1) ^ 1, g2.pi(2))
    g2.set_outputs([m2])
    assert rw.lambda_majority(g2) == 1
    assert g2.outputs == [g2.pi(2)]


def test_lambda_majority_composes_polarity():
    g = new_graph(2)
    m = g.add_majority(g.pi(1), g.pi(1), g.pi(2))
    g.set_outputs([m ^ 1])
    rw.lambda_majority(g)
    assert g.outputs == [g.pi(1) ^ 1]
    assert tt(g) == [0b0101]


def test_lambda_majority_cascades():
    g = new_graph(2)
    a = g.add_majority(g.pi(1), g.pi(1), g.pi(2))  # == x1
    b = g.add_majority(a, g.pi(1) ^ 1, g.pi(2))  # becomes M(x1,!x1,x2) == x2
    g.set_outputs([b])
    assert rw.lambda_majority(g) == 2
    assert g.outputs == [g.pi(2)]


def test_lambda_redundancy_merges_lowest_id():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_and(g.pi(1), g.pi(2))
    o = g.add_or(a, b)  # becomes M(a,a,1) after the merge
    g.set_outputs([o])
    assert rw.lambda_redundancy(g) == 1
    assert b >> 1 not in g.nodes
    assert a >> 1 in g.nodes


def test_lambda_redundancy_is_port_ordered_by_default():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_and(g.pi(2), g.pi(1))
    g.set_outputs([a, b])
    assert rw.lambda_redundancy(g) == 0


def test_lambda_majority_reaches_a_lower_id_reader():
    # rewrites can give a node a fanin with a higher id than its own
    g = new_graph(3)
    x1, x2, x3 = g.pi(1), g.pi(2), g.pi(3)
    low = g.add_majority(x1, x2, x3)
    high = g.add_majority(x1, x1, x2)  # == x1
    g.set_fanins(low >> 1, (high, x1 ^ 1, x3))  # becomes M(x1,!x1,x3) == x3
    g.set_outputs([low])
    assert rw.lambda_majority(g) == 2
    assert g.outputs == [x3]


def test_lambda_redundancy_finds_a_lower_id_twin_after_a_merge():
    g = new_graph(3)
    x1, x2, x3 = g.pi(1), g.pi(2), g.pi(3)
    low = g.add_majority(x1, x2, x3)
    a = g.add_majority(x1, x2, x3 ^ 1)
    a_twin = g.add_majority(x1, x2, x3 ^ 1)
    high = g.add_majority(a, x1, x2)
    g.set_fanins(low >> 1, (a_twin, x1, x2))  # a twin of `high` once a_twin merges into a
    g.set_outputs([low, high])
    assert rw.lambda_redundancy(g) == 2
    assert g.maj_ids() == [low >> 1, a >> 1]
    assert g.outputs == [low, low]


def test_lambda_rules_each_reach_their_own_fixpoint():
    g = new_graph(4)
    x1, x2, x3, z = g.pi(1), g.pi(2), g.pi(3), g.pi(4)
    a = g.add_majority(x1, x2, x3)
    b = g.add_majority(x1, x2, x3)
    t1 = g.add_majority(a, b, z)
    t2 = g.add_majority(a, b, z)
    g.set_outputs([t1, t2 ^ 1])
    # merge b into a and t2 into t1, then collapse t1 = M(a,a,z) to a
    assert rw.lambda_fixpoint(g) == (1, 2)
    assert g.outputs == [a, a ^ 1]


def test_lambda_fixpoint_stops_once_merge_replaces_nothing(monkeypatch):
    g = new_graph(2)
    a = g.add_majority(g.pi(1), g.pi(1), g.pi(2))  # == x1
    b = g.add_majority(a, g.pi(2), g.pi(2))  # == x2 once collapsed
    g.set_outputs([a, b])
    sweeps = []
    collapse, merge = rw.lambda_majority, rw.lambda_redundancy

    def counted(rule):
        def run(g):
            sweeps.append(rule)
            return rule(g)
        return run

    monkeypatch.setattr(rw, "lambda_majority", counted(collapse))
    monkeypatch.setattr(rw, "lambda_redundancy", counted(merge))
    assert rw.lambda_fixpoint(g) == (2, 0)
    assert sweeps == [collapse, merge]
    assert g.outputs == [g.pi(1), g.pi(2)]


def test_lambda_counts_zero_on_clean_graph():
    g = clean_random_graph(6, 20, 4)
    assert rw.lambda_fixpoint(g) == (0, 0)


def test_step_identity_everywhere():
    g = clean_random_graph(6, 15, 7)
    s = g.size()
    rep = rw.step(g, {nid: OmegaAction.IDENTITY for nid in g.maj_ids()})
    assert rep.applied == 0
    assert rep.identity_count == len(rep.outcomes)
    assert rep.size_after == s


@pytest.mark.parametrize(
    "which, outcome",
    [("constant", "blocked_illegal"), ("input", "blocked_illegal"),
     ("removed-gate", "blocked_illegal"), ("unknown-id", "blocked_illegal"),
     ("live-gate", "identity")],
)
def test_step_identity_counts_only_at_a_live_gate(which, outcome):
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    gone = g.add_majority(a, g.pi(1), g.pi(2) ^ 1)
    r = g.add_majority(a, g.pi(2), g.pi(3) ^ 1)
    g.set_outputs([r])
    g.remove(gone >> 1)
    nid = {"constant": 0, "input": 2, "removed-gate": gone >> 1, "unknown-id": 99,
           "live-gate": a >> 1}[which]
    before = fmt.emit_mig(g)
    rep = rw.step(g, {nid: OmegaAction.IDENTITY})
    assert rep.outcomes == {nid: outcome}
    counts = (rep.applied, rep.blocked_illegal, rep.blocked_collision, rep.identity_count)
    assert counts == ((0, 0, 0, 1) if outcome == "identity" else (0, 1, 0, 0))
    assert fmt.emit_mig(g) == before


@pytest.mark.parametrize("action", [9, -1])
def test_step_unknown_action_raises_only_at_a_live_gate(action):
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    gone = g.add_majority(a, g.pi(1), g.pi(2) ^ 1)
    r = g.add_majority(a, g.pi(2), g.pi(3) ^ 1)
    g.set_outputs([r])
    g.remove(gone >> 1)
    before = fmt.emit_mig(g)
    for nid in (0, 2, gone >> 1, 99):  # constant, input, removed gate, unknown id
        rep = rw.step(g, {nid: action})
        assert rep.outcomes == {nid: "blocked_illegal"} and rep.blocked_illegal == 1
        assert fmt.emit_mig(g) == before
    with pytest.raises(MigError, match="unknown action"):
        rw.step(g, {a >> 1: action})


def test_step_counts_a_dead_twin_that_a_merge_keeps():
    # the dead n4 is hashed before its live twin n5, so the merge keeps n4:
    # a gate the step leaves live that it neither created nor found live
    g = new_graph(3)
    x1, x2, x3 = g.pi(1), g.pi(2), g.pi(3)
    dead = g.add_majority(x1, x2, x3)
    twin = g.add_majority(x1, x2, x3)
    out = g.add_majority(twin, x1, x3 ^ 1)
    g.set_outputs([out])
    assert (dead, twin, out) == (8, 10, 12)
    rep = rw.step(g, {})
    assert (rep.size_before, rep.size_after) == (2, 2)
    assert rep.lambda_r_count == 1
    assert (rep.nodes_added, rep.nodes_removed) == (1, 1)
    assert g.live_ids() == [dead >> 1, out >> 1]


def test_step_collision_blocking():
    # two chained nodes both rewrite over overlapping footprints
    g = new_graph(5)
    u = g.pi(5)
    c1 = g.add_majority(g.pi(1), u, g.pi(2))
    c2 = g.add_majority(g.pi(3), u, c1)
    r = g.add_majority(g.pi(4), u, c2)
    g.set_outputs([r])
    before = tt(g)
    rep = rw.step(g, {c2 >> 1: OmegaAction.ASSOC, r >> 1: OmegaAction.ASSOC})
    assert rep.applied == 1
    assert rep.blocked_collision == 1
    assert tt(g) == before


def test_step_report_accounting():
    rng = random.Random(0)
    for seed in range(6):
        g = clean_random_graph(6, 20, 40 + seed)
        acts = {nid: rw.OmegaAction(rng.randrange(9)) for nid in g.maj_ids()}
        rep = rw.step(g, acts)
        total = rep.applied + rep.blocked_illegal + rep.blocked_collision + rep.identity_count
        assert total == len(acts)
        assert rep.size_after - rep.size_before == rep.nodes_added - rep.nodes_removed


def test_step_determinism():
    g1 = clean_random_graph(6, 20, 11)
    g2 = g1.clone()
    rng = random.Random(2)
    acts = {nid: rw.OmegaAction(rng.randrange(9)) for nid in g1.maj_ids()}
    r1 = rw.step(g1, acts)
    r2 = rw.step(g2, acts)
    assert fmt.emit_mig(g1) == fmt.emit_mig(g2)
    assert r1 == r2


def test_step_with_handed_in_live_set_matches_its_own_walk():
    # `step` takes its live set from the graph's cleanup state; a graph that
    # carries that state from earlier steps must step like one indexed afresh
    rng = random.Random(6)
    for seed in range(40):
        g = crude_random_graph(2 + seed % 4, 5 + seed % 25, 900 + seed)
        live = g.live_ids()
        assert live == acting_nodes(g)
        assert len(live) < len(g.maj_ids())  # dead nodes on the first step
        swept = g.clone()  # the sweep returns the live set it leaves
        assert rw.delete_dead(swept) == live == swept.maj_ids()
        walked = g.clone()
        for _ in range(3):
            acts = {nid: rng.randrange(rw.ACTION_COUNT) for nid in live}
            walked.drop_fanout_index()
            assert rw.step(g, acts) == rw.step(walked, acts)
            assert fmt.emit_mig(g) == fmt.emit_mig(walked)
            live = g.live_ids()
            assert live == acting_nodes(g) == g.maj_ids()


def test_blocked_actions_leave_graph_bit_identical():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    before = fmt.emit_mig(g)
    rep = rw.step(g, {r >> 1: OmegaAction.ASSOC})  # no majority child
    assert rep.blocked_illegal == 1
    assert fmt.emit_mig(g) == before


def test_step_preserves_function_random_property():
    rng = random.Random(123)
    for seed in range(6):
        g = clean_random_graph(7, 25, 700 + seed)
        ref = tt(g)
        for _ in range(40):
            acts = {nid: rw.OmegaAction(rng.randrange(9)) for nid in g.maj_ids()}
            rw.step(g, acts)
            assert tt(g) == ref


def test_step_preserves_signatures_on_wide_graph():
    g = crude_random_graph(20, 40, 55)
    rw.lambda_fixpoint(g)
    rw.delete_dead(g)
    sig0 = [g.simulate_signatures(s, 256) for s in (1, 2, 3)]
    rng = random.Random(5)
    for _ in range(30):
        acts = {nid: rw.OmegaAction(rng.randrange(9)) for nid in g.maj_ids()}
        rw.step(g, acts)
    sig1 = [g.simulate_signatures(s, 256) for s in (1, 2, 3)]
    assert sig0 == sig1


def test_step_never_sorts_the_graph(monkeypatch):
    g = crude_random_graph(6, 30, 3)
    ref = tt(g)

    def refuse(self):
        raise AssertionError("topological_order called on the step path")

    monkeypatch.setattr(MigGraph, "topological_order", refuse)
    rng = random.Random(8)
    fired = 0
    for _ in range(10):
        rep = rw.step(g, {nid: OmegaAction(rng.randrange(9)) for nid in g.maj_ids()})
        fired += rep.lambda_m_count + rep.lambda_r_count
    monkeypatch.undo()
    assert fired > 0
    assert tt(g) == ref


def test_lambda_fixpoint_idempotent():
    for seed in range(5):
        g = crude_random_graph(5, 20, 900 + seed)
        rw.lambda_fixpoint(g)
        assert rw.lambda_fixpoint(g) == (0, 0)


def test_check_equivalence_exact():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    g.set_outputs([a])
    assert rw.verify_equivalence(g, g.clone()) == (True, True)

    h = new_graph(2)
    o = h.add_or(h.pi(1), h.pi(2))
    h.set_outputs([o])
    assert rw.verify_equivalence(g, h) == (False, True)

    w = new_graph(3)
    w.set_outputs([w.pi(1)])
    with pytest.raises(MigError):
        rw.verify_equivalence(g, w)
    w2 = new_graph(2)
    w2.set_outputs([w2.pi(1), w2.pi(2)])
    with pytest.raises(MigError):
        rw.verify_equivalence(g, w2)


def test_equivalence_after_many_steps():
    g = clean_random_graph(8, 30, 77)
    ref = g.clone()
    rng = random.Random(9)
    for _ in range(50):
        acts = {nid: rw.OmegaAction(rng.randrange(9)) for nid in g.maj_ids()}
        rw.step(g, acts)
    assert tt(ref) == tt(g)


def test_verify_equivalence_signature_mode():
    g = crude_random_graph(20, 30, 5)
    rw.lambda_fixpoint(g)
    rw.delete_dead(g)
    eq, proven = rw.verify_equivalence(g, g.clone())
    assert eq and not proven

    h = g.clone()
    h.outputs = [h.outputs[0] ^ 1] + h.outputs[1:]
    eq, proven = rw.verify_equivalence(g, h)
    assert not eq and proven


def test_inv_prop_self_inverse():
    g = clean_random_graph(5, 12, 31)
    nid = g.maj_ids()[0]
    before = fmt.emit_mig(g)
    for _ in range(2):
        desc = rw.match(g, nid, OmegaAction.INV_PROP)
        assert rw.apply_omega(g, desc).applied
    assert fmt.emit_mig(g) == before


def reference_binding(g, nid, action):
    """The frozen `reference_match` in the form of a binding, footprint as a set."""
    desc = reference_match(g, nid, action)
    if desc is None:
        return None

    def lit(s):
        return ~s.idx if isinstance(s, PlanRef) else s

    new_nodes = tuple(tuple(map(lit, fanins)) for fanins in desc.new_nodes)
    root_fanins = tuple(map(lit, desc.new_root_fanins))
    return desc.root, desc.footprint, new_nodes, root_fanins, desc.complements_root


def assert_match_is_the_reference(g, found=None):
    # every id up to one past the last, so terminals and gone nodes too
    for nid in range(g._next_id + 1):
        for action in OmegaAction:
            got = rw.match(g, nid, action)
            if got is not None:
                got = (got[0], frozenset(got[1]), *got[2:])
            assert got == reference_binding(g, nid, action), (nid, action.name)
            if found is not None:
                found[action, got is not None] += 1


def test_match_is_the_reference_on_settled_and_rolled_out_graphs():
    # sop3's AND/OR chains share constants (many hits); random graphs and
    # their rollouts mix complemented child edges into the misses
    graphs = [g for _, g in dg.enumerate_sop3()[::4]]
    graphs += [crude_random_graph(6, 60, seed) for seed in range(4)]
    for seed in range(4):
        start = dg.random_mig(dg.RandomGraphSpec(40, 8, 2, seed))
        graphs += [start, tr.random_rollout(start, 6, np.random.default_rng(seed))[0]]
    found = Counter()
    for g in graphs:
        assert_match_is_the_reference(g, found)
    for action in OmegaAction:
        assert min(found[action, False], found[action, True]) > 50, action.name


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    kind=st.sampled_from(["crude", "sop3", "random_mig"]),
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_match_is_the_reference_in_mid_step_states(kind, inputs, gates, seed, data):
    # a step's moves up to a drawn one, before any cleanup: duplicate
    # fanins and complemented child edges that no settled graph holds
    if kind == "crude":
        g = crude_random_graph(inputs, gates, seed)
        add_redundancy(g, seed)
    elif kind == "sop3":
        g = dg.sop_decompose(dg.SopSpec(3, seed % 256))
    else:
        g = dg.random_mig(dg.RandomGraphSpec(50, 3 * inputs, 2, seed))
    rng = random.Random(seed)
    centers = g.maj_ids()
    moves = data.draw(st.integers(0, len(centers)), label="moves")
    touched = set()
    for nid in centers[:moves]:
        desc = reference_match(g, nid, OmegaAction(rng.randrange(rw.ACTION_COUNT)))
        if desc is not None and not desc.footprint & touched:
            touched |= desc.footprint
            touched.update(reference_apply_omega(g, desc)[1])
    assert_match_is_the_reference(g)


def test_every_live_set_handed_to_step_is_the_reachable_set(monkeypatch):
    # `step` reads its live set and sizes from the graph's cleanup state; a
    # walk before and after each call must find the same gates
    real_step = rw.step
    calls = []

    def walk(g):
        return {n for n in g.reachable_nodes() if n > g.pi_count}

    def checked(g, actions):
        before = walk(g)
        assert g.live_ids() == sorted(before)
        rep = real_step(g, actions)
        after = walk(g)
        assert (rep.size_before, rep.size_after) == (len(before), len(after))
        assert (rep.nodes_removed, rep.nodes_added) == (len(before - after), len(after - before))
        calls.append(actions)
        return rep

    monkeypatch.setattr(rw, "step", checked)
    sop3 = dg.enumerate_sop3()
    assert len(calls) == sum(g.size() > 0 for _, g in sop3)
    calls.clear()
    rand = [dg.random_mig(dg.RandomGraphSpec(n, 20, 2, s)) for n, s in ((10, 1), (60, 2), (150, 3))]
    assert len(calls) >= len(rand)
    calls.clear()
    starts = [g for _, g in sop3[::32]] + rand
    params = PolicyParams.init(Hyperparams(layers=2, hidden=6), seed=4)
    for i, g in enumerate(starts):
        tr.random_rollout(g, 5, np.random.default_rng(i))
        tr.greedy_optimize(g, params, 3)
    assert len(calls) == 8 * len(starts)
    calls.clear()
    ev.evaluate(sop3, ev.greedy_rules_optimizer(), ev.EvalConfig(steps=0))
    assert sum(bool(acts) for acts in calls) > len(sop3)  # the trials, one move each
