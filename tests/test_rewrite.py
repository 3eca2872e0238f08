import random

import pytest

from migopt import formats as fmt
from migopt import rewrite as rw
from migopt.mig import MigError, Signal, new_graph
from migopt.rewrite import OmegaAction

from conftest import clean_random_graph, crude_random_graph


def tt(g):
    return g.simulate_truth_tables()


def test_comm_swaps_ports():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    before = tt(g)
    desc = rw.match(g, r.node, OmegaAction.COMM01)
    assert rw.apply_omega(g, desc).applied
    assert g.nodes[r.node].fanins == (g.pi(2), g.pi(1), g.pi(3))
    assert tt(g) == before


def test_identity_always_matches_with_empty_footprint():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    desc = rw.match(g, r.node, OmegaAction.IDENTITY)
    assert desc is not None and desc.footprint == frozenset()


def test_inv_prop_flips_fanins_and_references():
    g = new_graph(3)
    m1 = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    m2 = g.add_and(m1, ~g.pi(1))
    g.set_outputs([~m1, m2])
    before = tt(g)
    desc = rw.match(g, m1.node, OmegaAction.INV_PROP)
    assert m2.node in desc.footprint
    assert rw.apply_omega(g, desc).applied
    assert g.nodes[m1.node].fanins == (~g.pi(1), ~g.pi(2), ~g.pi(3))
    assert g.nodes[m2.node].fanins[0] == ~m1  # consumer edge flipped
    assert g.outputs[0] == m1  # output polarity flipped
    assert tt(g) == before


def test_inv_prop_flips_a_two_port_consumer_once():
    for via_step in (False, True):
        g = new_graph(3)
        r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
        c = g.add_majority(r, r, ~g.pi(1))
        g.set_outputs([c, ~r])
        before = tt(g)
        if via_step:
            rep = rw.step(g, {r.node: OmegaAction.INV_PROP})
            assert rep.applied == 1
        else:
            assert rw.apply_omega(g, rw.match(g, r.node, OmegaAction.INV_PROP)).applied
            assert g.nodes[c.node].fanins == (~r, ~r, ~g.pi(1))
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
            desc = rw.match(g, r.node, OmegaAction.ASSOC)
            assert desc is not None, (xp, uc)
            assert rw.apply_omega(g, desc).applied
            assert tt(g) == before


def test_assoc_needs_majority_child():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    assert rw.match(g, r.node, OmegaAction.ASSOC) is None


def test_assoc_through_complemented_child_edge():
    g = new_graph(4)
    x, u, y, z = (g.pi(i) for i in range(1, 5))
    child = g.add_majority(y, ~u, z)
    r = g.add_majority(x, u, ~child)  # !child presents (!y, u, !z)
    g.set_outputs([r])
    before = tt(g)
    desc = rw.match(g, r.node, OmegaAction.ASSOC)
    assert desc is not None
    assert rw.apply_omega(g, desc).applied
    assert tt(g) == before


def test_compl_assoc():
    g = new_graph(4)
    x, u, y, z = (g.pi(i) for i in range(1, 5))
    child = g.add_majority(y, ~u, z)
    r = g.add_majority(x, u, child)
    g.set_outputs([r])
    before = tt(g)
    desc = rw.match(g, r.node, OmegaAction.COMPL_ASSOC)
    assert desc is not None
    assert rw.apply_omega(g, desc).applied
    assert tt(g) == before


def test_compl_assoc_no_match_without_complement_pair():
    g = new_graph(5)
    child = g.add_majority(g.pi(3), g.pi(4), g.pi(5))
    r = g.add_majority(g.pi(1), g.pi(2), child)
    g.set_outputs([r])
    assert rw.match(g, r.node, OmegaAction.COMPL_ASSOC) is None


def test_dist_rl_shrinks():
    g = new_graph(5)
    x, y, u, v, z = (g.pi(i) for i in range(1, 6))
    a = g.add_majority(x, y, u)
    b = g.add_majority(x, y, v)
    r = g.add_majority(a, b, z)
    g.set_outputs([r])
    before = tt(g)
    assert g.size() == 3
    rep = rw.step(g, {r.node: OmegaAction.DIST_RL})
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
    rep = rw.step(g, {r.node: OmegaAction.DIST_RL})
    assert rep.applied == 1 and g.size() == 2
    assert tt(g) == before


def test_dist_lr_grows_by_one():
    g = new_graph(5)
    x, y, u, v, z = (g.pi(i) for i in range(1, 6))
    c = g.add_majority(u, v, z)
    r = g.add_majority(x, y, c)
    g.set_outputs([r])
    before = tt(g)
    rep = rw.step(g, {r.node: OmegaAction.DIST_LR})
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
    m2 = g2.add_majority(g2.pi(1), ~g2.pi(1), g2.pi(2))
    g2.set_outputs([m2])
    assert rw.lambda_majority(g2) == 1
    assert g2.outputs == [g2.pi(2)]


def test_lambda_majority_composes_polarity():
    g = new_graph(2)
    m = g.add_majority(g.pi(1), g.pi(1), g.pi(2))
    g.set_outputs([~m])
    rw.lambda_majority(g)
    assert g.outputs == [~g.pi(1)]
    assert tt(g) == [0b0101]


def test_lambda_majority_cascades():
    g = new_graph(2)
    a = g.add_majority(g.pi(1), g.pi(1), g.pi(2))  # == x1
    b = g.add_majority(a, ~g.pi(1), g.pi(2))  # becomes M(x1,!x1,x2) == x2
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
    assert b.node not in g.nodes
    assert a.node in g.nodes


def test_lambda_redundancy_is_port_ordered_by_default():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_and(g.pi(2), g.pi(1))
    g.set_outputs([a, b])
    assert rw.lambda_redundancy(g) == 0


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


def test_step_collision_blocking():
    # two chained nodes both rewrite over overlapping footprints
    g = new_graph(5)
    u = g.pi(5)
    c1 = g.add_majority(g.pi(1), u, g.pi(2))
    c2 = g.add_majority(g.pi(3), u, c1)
    r = g.add_majority(g.pi(4), u, c2)
    g.set_outputs([r])
    before = tt(g)
    rep = rw.step(g, {c2.node: OmegaAction.ASSOC, r.node: OmegaAction.ASSOC})
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


def test_blocked_actions_leave_graph_bit_identical():
    g = new_graph(3)
    r = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([r])
    before = fmt.emit_mig(g)
    rep = rw.step(g, {r.node: OmegaAction.ASSOC})  # no majority child
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


def test_lambda_fixpoint_idempotent():
    for seed in range(5):
        g = crude_random_graph(5, 20, 900 + seed)
        rw.lambda_fixpoint(g)
        assert rw.lambda_fixpoint(g) == (0, 0)


def test_check_equivalence_exact():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    g.set_outputs([a])
    assert rw.check_equivalence_exact(g, g.clone())

    h = new_graph(2)
    o = h.add_or(h.pi(1), h.pi(2))
    h.set_outputs([o])
    assert not rw.check_equivalence_exact(g, h)

    w = new_graph(3)
    w.set_outputs([w.pi(1)])
    with pytest.raises(MigError):
        rw.check_equivalence_exact(g, w)


def test_equivalence_after_many_steps():
    g = clean_random_graph(8, 30, 77)
    ref = g.clone()
    rng = random.Random(9)
    for _ in range(50):
        acts = {nid: rw.OmegaAction(rng.randrange(9)) for nid in g.maj_ids()}
        rw.step(g, acts)
    assert rw.check_equivalence_exact(ref, g)


def test_verify_equivalence_signature_mode():
    g = crude_random_graph(20, 30, 5)
    rw.lambda_fixpoint(g)
    rw.delete_dead(g)
    eq, proven = rw.verify_equivalence(g, g.clone())
    assert eq and not proven

    h = g.clone()
    h.outputs = [~h.outputs[0]] + h.outputs[1:]
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
